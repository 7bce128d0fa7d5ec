//! The metrics table, checked through every surface it generates.

use rasql_exec::{MetricsSnapshot, QueryTrace};

/// Every table field set to its own non-zero value survives each
/// generated surface: none of them can skip a metric.
#[test]
fn every_table_field_reaches_json_prometheus_and_since() {
    let mut next = 0u64;
    let all = MetricsSnapshot::from_fields(|_| {
        next += 1;
        Ok::<_, ()>(next)
    })
    .unwrap();
    let fields = all.fields();
    assert_eq!(fields.len() as u64, next);
    for (i, (name, v)) in fields.iter().enumerate() {
        assert_eq!(*v, i as u64 + 1, "{name}");
    }

    let mut trace = QueryTrace::cached(std::time::Duration::ZERO);
    trace.metrics = all;
    let back = QueryTrace::from_json(&trace.to_json()).unwrap();
    assert_eq!(back.metrics, all);

    let text = all.prometheus_text();
    assert_eq!(text.lines().count(), 2 * fields.len());
    for (_, v) in &fields {
        assert!(text.contains(&format!(" {v}\n")), "sample {v} missing");
    }

    // Counters subtract, gauges read as of the later snapshot — and a
    // `reset` between the two snapshots must not underflow.
    let zero = MetricsSnapshot::default();
    assert_eq!(all.since(&zero), all);
    let gauges = MetricsSnapshot {
        peak_memory: all.peak_memory,
        retained_bytes: all.retained_bytes,
        ..zero
    };
    assert_eq!(all.since(&all), gauges);
    assert_eq!(zero.since(&all), zero);
}
