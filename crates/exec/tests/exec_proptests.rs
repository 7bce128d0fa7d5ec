//! Property-based tests for the execution substrate: shuffles preserve the
//! multiset of rows, fused and unfused pipelines agree, and the monotone
//! aggregate state is order-insensitive where the algebra says it must be.

#![expect(
    clippy::disallowed_methods,
    reason = "fixtures: build sides and graphs made by hand"
)]

use proptest::prelude::*;
use rasql_exec::checkpoint::{
    decode_agg_state, decode_rows, decode_set_state, encode_agg_state, encode_rows,
    encode_set_state,
};
use rasql_exec::pipeline::KeyFn;
use rasql_exec::state::{AggChange, AggState, MonotoneOp};
use rasql_exec::{
    lane_partition, run_fused, run_unfused, scan_delta, scan_delta_set, Cluster, ClusterConfig,
    Combiner, Dataset, DenseAggState, DenseSetState, HashTable, Lane, MaxOp, MergeOp, MinOp,
    Pipeline, PipelineStep, SetState, SumOp, TupleSet, Tuples,
};
use rasql_storage::partition::row_partition;
use rasql_storage::row::int_row;
use rasql_storage::{CsrGraph, CsrWeight, Row, Value};
use std::sync::Arc;
use std::time::Duration;

/// Integers where word and `Value` arithmetic could part ways.
fn edge_int() -> BoxedStrategy<i64> {
    prop_oneof![
        -4i64..5,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::MAX - 1),
        Just(1 << 53),
    ]
    .boxed()
}

/// Doubles where word and `Value` comparison or hashing could part ways.
fn edge_double() -> BoxedStrategy<f64> {
    prop_oneof![
        (-4i64..5).prop_map(|i| i as f64),
        -2.0f64..2.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(i64::MAX as f64),
        Just(9007199254740993.0),
    ]
    .boxed()
}

fn quiet_cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        workers,
        partition_aware: true,
        stage_latency: Duration::ZERO,
        ..Default::default()
    })
}

/// What one round of a dense fixpoint left behind, over all partitions and
/// sorted: the occupied `(vertex, total)` slots and the round's delta.
type RoundView = (Vec<(u32, i64)>, Vec<(u32, i64)>);

/// A whole aggregate fixpoint over `parts` partitions out of the public
/// kernel pieces, the way the engine's driver runs it: task `part` merges
/// what every task of the previous round produced for it, `[src][dst]` in
/// `src` order, and scans its delta — through the combining sink or the
/// push sink. A delta entry whose increment is zero on a slot that was
/// occupied before the round is left out of the view: contributions that
/// cancel inside one task reach the reducer as one zero (a no-op there) when
/// combined and one by one (a change that nets to nothing) when pushed.
fn agg_rounds<Op: MergeOp<i64>>(
    csr: &CsrGraph,
    seeds: &[(u32, i64)],
    parts: usize,
    totals: bool,
    along: fn(i64, i64) -> i64,
    combined: bool,
) -> Vec<RoundView> {
    let n = csr.vertex_count();
    let ws = &csr.weights_i;
    let mut states: Vec<DenseAggState<i64>> = (0..parts).map(|_| DenseAggState::new(n)).collect();
    let mut sinks: Vec<Combiner> = (0..parts).map(|_| Combiner::new(n)).collect();
    let mut base = vec![Vec::new(); parts];
    for &(v, c) in seeds {
        base[csr.part_of[v as usize] as usize].push((v, c));
    }
    let mut pending = vec![base];
    let mut views = Vec::new();
    // The graphs are acyclic: `n` rounds reach the fixpoint, two more show
    // that it stays there.
    for round in 1..=n as u32 + 2 {
        let (mut slab, mut delta_all, mut next) = (Vec::new(), Vec::new(), Vec::new());
        for part in 0..parts {
            let state = &mut states[part];
            let before: Vec<bool> = (0..n as u32).map(|v| state.get(v).is_some()).collect();
            for src in &pending {
                for &(v, c) in &src[part] {
                    state.merge::<Op>(v, c, round - 1);
                }
            }
            let delta = state.take_delta(totals);
            let kept = |&(v, inc): &(u32, i64)| totals || inc != 0 || !before[v as usize];
            delta_all.extend(delta.iter().copied().filter(kept));
            assert_eq!(state.iter().count(), state.len());
            slab.extend(state.iter());
            next.push(if combined {
                sinks[part]
                    .scan::<Op, DenseAggState<i64>>(csr, &delta, parts, |(_, val), e, dst| {
                        Ok((dst, along(val, ws[e])))
                    })
                    .unwrap()
            } else {
                let mut out = vec![Vec::new(); parts];
                scan_delta(csr, &delta, |val, e| along(val, ws[e]), &mut out);
                out
            });
        }
        slab.sort_unstable();
        delta_all.sort_unstable();
        views.push((slab, delta_all));
        pending = next;
    }
    views
}

/// [`agg_rounds`] for the set state.
fn set_rounds(csr: &CsrGraph, seeds: &[u32], parts: usize, combined: bool) -> Vec<RoundView> {
    let n = csr.vertex_count();
    let mut states: Vec<DenseSetState> = (0..parts).map(|_| DenseSetState::new(n)).collect();
    let mut sinks: Vec<Combiner> = (0..parts).map(|_| Combiner::new(n)).collect();
    let mut base = vec![Vec::new(); parts];
    for &v in seeds {
        base[csr.part_of[v as usize] as usize].push(v);
    }
    let mut pending = vec![base];
    let mut views = Vec::new();
    for _ in 0..n + 2 {
        let (mut slab, mut delta_all, mut next) = (Vec::new(), Vec::new(), Vec::new());
        for part in 0..parts {
            for src in &pending {
                for &v in &src[part] {
                    states[part].insert(v);
                }
            }
            let delta = states[part].take_delta();
            delta_all.extend(delta.iter().map(|&v| (v, 0)));
            assert_eq!(states[part].iter().count(), states[part].len());
            slab.extend(states[part].iter().map(|v| (v, 0)));
            next.push(if combined {
                sinks[part]
                    .scan::<(), DenseSetState>(csr, &delta, parts, |_, _, dst| Ok(dst))
                    .unwrap()
            } else {
                let mut out = vec![Vec::new(); parts];
                scan_delta_set(csr, &delta, &mut out);
                out
            });
        }
        slab.sort_unstable();
        delta_all.sort_unstable();
        views.push((slab, delta_all));
        pending = next;
    }
    views
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Algorithm 5 changes what is shipped, not what is computed: merging a
    /// combined scan leaves, round by round, the slab, the row count and the
    /// delta (totals for min/max, increments for sum) that merging the push
    /// scan leaves — for every operator and for the set state, with
    /// contributions that cancel inside one task.
    #[test]
    fn combined_scan_merges_like_the_push_scan(
        edges in prop::collection::vec((0i64..14, 1i64..6, -3i64..4), 1..70),
        seeds in prop::collection::vec((0i64..14, -3i64..4), 1..8),
        parts in 1usize..4,
    ) {
        // Forward edges only: an acyclic graph, so `sum` terminates.
        let rows: Vec<Row> = edges.iter().map(|&(s, step, w)| int_row(&[s, s + step, w])).collect();
        let extras = seeds.iter().map(|s| s.0);
        let csr = CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, extras, parts).unwrap();
        let dense: Vec<(u32, i64)> =
            seeds.iter().map(|&(v, c)| (csr.dense_id(v).unwrap(), c)).collect();
        let add: fn(i64, i64) -> i64 = |val, w| val + w;
        let same: fn(i64, i64) -> i64 = |val, _| val;
        prop_assert_eq!(
            agg_rounds::<MinOp>(&csr, &dense, parts, true, add, true),
            agg_rounds::<MinOp>(&csr, &dense, parts, true, add, false)
        );
        prop_assert_eq!(
            agg_rounds::<MaxOp>(&csr, &dense, parts, true, add, true),
            agg_rounds::<MaxOp>(&csr, &dense, parts, true, add, false)
        );
        prop_assert_eq!(
            agg_rounds::<SumOp>(&csr, &dense, parts, false, same, true),
            agg_rounds::<SumOp>(&csr, &dense, parts, false, same, false)
        );
        let members: Vec<u32> = dense.iter().map(|s| s.0).collect();
        prop_assert_eq!(
            set_rounds(&csr, &members, parts, true),
            set_rounds(&csr, &members, parts, false)
        );
    }

    #[test]
    fn shuffle_preserves_multiset(
        rows in prop::collection::vec((0i64..50, 0i64..50), 0..200),
        parts in 1usize..9,
    ) {
        let c = quiet_cluster(3);
        let data: Vec<Row> = rows.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let d = Dataset::round_robin(data.clone(), 4);
        let s = d.shuffle(&c, &[1], parts).unwrap();
        prop_assert_eq!(s.num_partitions(), parts);
        let mut got = s.collect();
        let mut want = data;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fused_equals_unfused_on_random_pipelines(
        input in prop::collection::vec((0i64..12, 0i64..12), 0..60),
        build in prop::collection::vec((0i64..12, 0i64..40), 0..40),
        // Step kinds: 0 filter, 1 join, 2 join against a table built over a
        // prefix and advanced by the rest, 3 empty-key cross join.
        kinds in prop::collection::vec(0usize..4, 0..5),
        threshold in 0i64..12,
        split in 0.0f64..1.0,
    ) {
        let input_rows: Vec<Row> = input.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let build_rows: Vec<Row> = build.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let cut = (split * build_rows.len() as f64) as usize;
        let table = |rows: &[Row], key: &[usize]| Arc::new(HashTable::build(rows, key));
        // Every step reads the last two columns, which every join appends.
        let key: KeyFn = Arc::new(|t: &[Value], k: &mut Vec<Value>| {
            k.push(t[t.len() - 1].clone());
            Ok(())
        });
        let no_key: KeyFn = Arc::new(|_: &[Value], _: &mut Vec<Value>| Ok(()));
        // At most two cross joins, so outputs stay small.
        let mut crosses = 0;
        let steps: Vec<PipelineStep> = kinds
            .iter()
            .map(|&kind| match kind {
                1 => PipelineStep::HashJoin { table: table(&build_rows, &[0]), key: key.clone() },
                2 => {
                    let mut advanced = HashTable::build(&build_rows[..cut], &[0]);
                    advanced.append(&build_rows[cut..]);
                    PipelineStep::HashJoin { table: Arc::new(advanced), key: key.clone() }
                }
                3 if crosses < 2 => {
                    crosses += 1;
                    PipelineStep::HashJoin { table: table(&build_rows[..cut.min(5)], &[]), key: no_key.clone() }
                }
                _ => PipelineStep::Filter(Arc::new(move |t: &[Value]| {
                    Ok(t[t.len() - 2].as_int().unwrap() >= threshold)
                })),
            })
            .collect();
        let pipeline = Pipeline::with_project(
            steps,
            Arc::new(|t: &[Value], out: &mut Vec<Value>| {
                out.extend([t[0].clone(), t[t.len() - 1].clone(), Value::Int(t.len() as i64)]);
                Ok(())
            }),
        );
        let mut streamed: Vec<Row> = Vec::new();
        pipeline.for_each(&input_rows, &mut |t| streamed.push(Row::from_slice(t)));
        let mut fused = run_fused(&input_rows, &pipeline);
        let mut unfused = run_unfused(&input_rows, &pipeline);
        prop_assert_eq!(&streamed, &fused);
        fused.sort();
        unfused.sort();
        prop_assert_eq!(fused, unfused);
    }

    #[test]
    fn borrowed_and_owned_state_operations_agree(
        rows in prop::collection::vec((0i64..12, 0i64..12, 0u32..6), 0..120),
        contribs in prop::collection::vec(((0i64..6, -20i64..20, 0i64..5), (0u32..6, 0i64..4)), 0..120),
    ) {
        // The same inserts through the borrowed-tuple and the owned-row entry
        // points leave the same state, round stamps included.
        let (mut owned, mut borrowed) = (SetState::new(), SetState::new());
        for &(a, b, round) in &rows {
            let row = int_row(&[a, b]);
            prop_assert_eq!(
                borrowed.insert_slice(row.values(), round),
                owned.insert(row, round)
            );
        }
        prop_assert_eq!(encode_set_state(&borrowed), encode_set_state(&owned));

        // `merge` is `merge_in_place` reporting only whether the group
        // changed: the same groups — totals, `prev`, `round`, `created` — and
        // contributor set either way.
        let ops = [MonotoneOp::Min, MonotoneOp::Sum];
        let (mut reported, mut in_place) = (AggState::new(), AggState::new());
        let mut rounds: Vec<_> = contribs;
        rounds.sort_by_key(|c| c.1 .0);
        for &((k, lo, add), (round, tuple)) in &rounds {
            let (key, vals) = ([Value::Int(k)], [Value::Int(lo), Value::Int(add)]);
            let dedup = [Value::Int(k), Value::Int(tuple)];
            let dedup = (tuple > 0).then_some(&dedup[..]);
            let before = reported.get(&key).map(<[Value]>::to_vec);
            let change = in_place.merge_in_place(&key, &vals, &ops, round, dedup);
            let changed = reported.merge(&key, &vals, &ops, round, dedup);
            prop_assert_eq!(changed, change != Ok(AggChange::Unchanged));
            let after = reported.get(&key).map(<[Value]>::to_vec);
            prop_assert_eq!(changed, before != after);
        }
        prop_assert_eq!(encode_agg_state(&in_place), encode_agg_state(&reported));
    }

    #[test]
    fn word_tuples_partition_hash_and_compare_like_their_rows(
        cells in prop::collection::vec((edge_int(), edge_double(), edge_double()), 2..40),
        parts in 1usize..9,
    ) {
        // Two `Double` lanes beside an `Int` one, over the values where the
        // word and the `Value` views of a number could part ways: the i64
        // extremes, ±0.0, NaN, ±∞ and integral doubles (which hash as ints).
        let lanes: Arc<[Lane]> = vec![Lane::Int, Lane::Double, Lane::Double].into();
        let rows: Vec<Row> = cells
            .iter()
            .map(|&(i, a, b)| Row::new(vec![Value::Int(i), Value::Double(a), Value::Double(b)]))
            .collect();
        let tuples = Tuples::<u64>::from_rows(lanes.clone(), &rows).unwrap();
        prop_assert_eq!(tuples.to_rows(), rows);
        prop_assert_eq!(tuples.size_bytes(), rows.iter().map(|r| r.size_bytes() as u64).sum::<u64>());
        for key in [&[0usize][..], &[1], &[2, 0], &[0, 1, 2]] {
            for (t, row) in tuples.iter().zip(&rows) {
                // The state is co-partitioned with row-partitioned indexes.
                prop_assert_eq!(lane_partition(&lanes, t, key, parts), row_partition(row, key, parts));
            }
        }
        // Word equality is `Value` equality, so a word set and a value set
        // intern the same tuples at the same positions.
        let (mut words, mut values) = (TupleSet::<u64>::new(lanes.clone()), TupleSet::<Value>::default());
        for (t, row) in tuples.iter().zip(&rows) {
            prop_assert_eq!(words.intern(t), values.intern(row.values()));
        }
        for (i, a) in tuples.iter().enumerate() {
            for (j, b) in tuples.iter().enumerate() {
                prop_assert_eq!(a == b, rows[i] == rows[j]);
                prop_assert_eq!(lanes[1].cmp(a[1], b[1]), rows[i][1].cmp(&rows[j][1]));
                prop_assert_eq!(lanes[0].cmp(a[0], b[0]), rows[i][0].cmp(&rows[j][0]));
            }
        }
    }

    #[test]
    fn word_and_value_aggregates_merge_alike_until_a_lane_is_left(
        contribs in prop::collection::vec((0i64..4, edge_int(), edge_double(), 0u32..5), 1..60),
    ) {
        // min / sum over an `Int` and a `Double` column: the word state holds
        // what the value state holds, bit for bit, up to the merge whose
        // `Int` sum overflows — which it refuses where `Value::add` promotes.
        let ops = [MonotoneOp::Min, MonotoneOp::Sum, MonotoneOp::Max, MonotoneOp::Sum];
        let lanes = |ls: &[Lane]| -> Arc<[Lane]> { ls.to_vec().into() };
        let agg = [Lane::Int, Lane::Int, Lane::Double, Lane::Double];
        let mut words = AggState::<u64>::with_kinds(lanes(&[Lane::Int]), lanes(&agg), lanes(&[]));
        let mut values = AggState::new();
        let mut contribs = contribs;
        contribs.sort_by_key(|c| c.3);
        for &(k, i, d, round) in &contribs {
            let vals = [Value::Int(i), Value::Int(i), Value::Double(d), Value::Double(d)];
            let cells = [i as u64, i as u64, d.to_bits(), d.to_bits()];
            let word = words.merge_in_place(&[k as u64], &cells, &ops, round, None);
            let changed = values.merge(&[Value::Int(k)], &vals, &ops, round, None);
            let Ok(change) = word else {
                let total = values.get(&[Value::Int(k)]).unwrap();
                prop_assert!(matches!(total[1], Value::Double(_)), "escaped without an overflow");
                return Ok(());
            };
            prop_assert_eq!(changed, change != AggChange::Unchanged);
            let got: Vec<Value> = words.get(&[k as u64]).unwrap().iter().zip(agg).map(|(&w, l)| l.decode(w)).collect();
            let want = values.get(&[Value::Int(k)]).unwrap();
            // Same variant and same bits, not just `Value` equality.
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn min_state_is_order_insensitive(
        contribs in prop::collection::vec((0i64..10, -100i64..100), 1..80),
    ) {
        // Merging the same contributions in any order yields the same totals.
        let ops = [MonotoneOp::Min];
        let mut forward = AggState::new();
        for (round, &(k, v)) in contribs.iter().enumerate() {
            forward.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        let mut reversed = AggState::new();
        for (round, &(k, v)) in contribs.iter().rev().enumerate() {
            reversed.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        for &(k, _) in &contribs {
            prop_assert_eq!(
                forward.get(&[Value::Int(k)]).unwrap(),
                reversed.get(&[Value::Int(k)]).unwrap()
            );
        }
    }

    #[test]
    fn sum_state_is_order_insensitive(
        contribs in prop::collection::vec((0i64..10, 1i64..100), 1..80),
    ) {
        let ops = [MonotoneOp::Sum];
        let mut forward = AggState::new();
        let mut reversed = AggState::new();
        for (round, &(k, v)) in contribs.iter().enumerate() {
            forward.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        for (round, &(k, v)) in contribs.iter().rev().enumerate() {
            reversed.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        for &(k, _) in &contribs {
            prop_assert_eq!(
                forward.get(&[Value::Int(k)]).unwrap(),
                reversed.get(&[Value::Int(k)]).unwrap()
            );
        }
    }

    #[test]
    fn set_state_is_a_set(rows in prop::collection::vec((0i64..15, 0i64..15), 0..100)) {
        let mut s = SetState::new();
        let mut inserted = 0;
        for (round, &(a, b)) in rows.iter().enumerate() {
            if s.insert(int_row(&[a, b]), round as u32) {
                inserted += 1;
            }
        }
        let distinct: std::collections::HashSet<_> = rows.iter().collect();
        prop_assert_eq!(inserted, distinct.len());
        prop_assert_eq!(s.len(), distinct.len());
    }

    #[test]
    fn set_state_survives_checkpoint_byte_identically(
        rows in prop::collection::vec((0i64..40, 0i64..40, 0u32..12), 0..150),
    ) {
        // encode → decode → encode must be byte-identical (the encoding is
        // canonical), and the restored state must agree row-for-row and
        // round-for-round with the original.
        let mut original = SetState::new();
        for &(a, b, round) in &rows {
            original.insert(int_row(&[a, b]), round);
        }
        let encoded = encode_set_state(&original);
        let restored = decode_set_state(encoded.clone(), SetState::new()).unwrap();
        prop_assert_eq!(encode_set_state(&restored), encoded);
        let mut got: Vec<_> = restored.iter_with_rounds().map(|(r, n)| (r.to_vec(), n)).collect();
        let mut want: Vec<_> = original.iter_with_rounds().map(|(r, n)| (r.to_vec(), n)).collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn agg_state_survives_checkpoint_byte_identically(
        contribs in prop::collection::vec((0i64..8, -50i64..50, 1i64..20), 0..120),
        dedup in prop::collection::vec((0i64..8, 0i64..8), 0..40),
    ) {
        // Build a two-column (min, sum) aggregate state with a populated
        // distinct-contributor set, then round-trip it through the checkpoint
        // codec. Canonical encoding ⇒ byte-identical re-encode; every group's
        // totals must survive.
        let ops = [MonotoneOp::Min, MonotoneOp::Sum];
        let mut original = AggState::new();
        for (round, &(k, lo, add)) in contribs.iter().enumerate() {
            original.merge(
                &[Value::Int(k)],
                &[Value::Int(lo), Value::Int(add)],
                &ops,
                round as u32,
                None,
            );
        }
        for &(k, t) in &dedup {
            original.merge(
                &[Value::Int(k)],
                &[Value::Int(t), Value::Int(1)],
                &ops,
                0,
                Some(&[Value::Int(k), Value::Int(t)]),
            );
        }
        let encoded = encode_agg_state(&original);
        let restored = decode_agg_state(encoded.clone(), AggState::new()).unwrap();
        prop_assert_eq!(encode_agg_state(&restored), encoded);
        for &(k, _, _) in &contribs {
            prop_assert_eq!(
                restored.get(&[Value::Int(k)]).unwrap(),
                original.get(&[Value::Int(k)]).unwrap()
            );
        }
        prop_assert_eq!(restored.len(), original.len());
    }

    #[test]
    fn rows_survive_checkpoint_byte_identically(
        rows in prop::collection::vec((-1000i64..1000, -1000i64..1000), 0..200),
    ) {
        // The row encoding is canonical (sorted), so compare as multisets.
        let data: Vec<Row> = rows.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let encoded = encode_rows(&data);
        let restored = decode_rows(encoded.clone()).unwrap();
        let mut want = data;
        want.sort();
        prop_assert_eq!(&restored, &want);
        prop_assert_eq!(encode_rows(&restored), encoded);
    }

    #[test]
    fn map_partitions_preserves_counts(
        rows in prop::collection::vec((0i64..100, 0i64..100), 0..150),
        workers in 1usize..5,
    ) {
        let c = quiet_cluster(workers);
        let data: Vec<Row> = rows.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let d = Dataset::hash_partitioned(data, &[0], workers * 2);
        let out = d.map_partitions(&c, |_p, part| part.to_vec()).unwrap();
        prop_assert_eq!(out.len(), rows.len());
    }
}

#[test]
fn agg_state_totals_are_the_sum_of_what_was_merged() {
    let ops = [MonotoneOp::Sum];
    let mut st = AggState::new();
    let mut sum = 0i64;
    for round in 0..20u32 {
        let v = (round as i64 % 5) + 1;
        assert!(st.merge(&[Value::Int(1)], &[Value::Int(v)], &ops, round, None));
        sum += v;
    }
    assert_eq!(st.get(&[Value::Int(1)]).unwrap()[0], Value::Int(sum));
}
