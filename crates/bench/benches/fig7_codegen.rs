//! Fig 7: fused (codegen-analog) vs unfused pipelines, both on the generic
//! interpreter (the specialized kernels run no operator pipeline).

use criterion::{criterion_group, criterion_main, Criterion};
use rasql_bench::{rmat_graph, run_rasql, GraphQuery};
use rasql_core::EngineConfig;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_codegen");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let interpreter = |fused: bool| {
        EngineConfig::rasql()
            .with_decomposed(false)
            .with_specialized_kernels(false)
            .with_fused_codegen(fused)
    };
    for q in [GraphQuery::Cc, GraphQuery::Sssp] {
        let edges = rmat_graph(4000, q.weighted(), 7);
        g.bench_function(format!("{}_with_codegen", q.name()), |b| {
            b.iter(|| run_rasql(interpreter(true), q, &edges, 1));
        });
        g.bench_function(format!("{}_without_codegen", q.name()), |b| {
            b.iter(|| run_rasql(interpreter(false), q, &edges, 1));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
