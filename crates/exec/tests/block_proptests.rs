//! Property tests of the block executor and the block inserts: a pipeline
//! run a block at a time emits exactly what the unfused operator chain
//! emits, in the same order, and inserting or merging a block leaves
//! exactly the state that the same sequence of single inserts leaves.

#![expect(
    clippy::disallowed_methods,
    reason = "fixtures: build sides made by hand"
)]

use proptest::prelude::*;
use rasql_exec::pipeline::KeyFn;
use rasql_exec::state::{AggChange, AggState, MonotoneOp};
use rasql_exec::{
    run_fused, run_unfused, Block, Emitted, Escaped, HashTable, Lane, Pipeline, PipelineStep,
    Projection, SetState, TupleSet, Tuples, BLOCK,
};
use rasql_storage::row::int_row;
use rasql_storage::{Row, Value, WordShape, WordTable};
use std::sync::Arc;

/// Input lengths around block boundaries.
const LENGTHS: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];

/// A deterministic stream of small numbers.
struct Numbers(u64);

impl Numbers {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = (self.0.wrapping_mul(6_364_136_223_846_793_005))
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n.max(1)
    }

    fn pairs(&mut self, len: usize, domain: u64) -> Vec<Row> {
        let mut pair = || [self.below(domain) as i64, self.below(domain) as i64];
        (0..len).map(|_| int_row(&pair())).collect()
    }
}

/// One pipeline step, built for both representations.
#[derive(Clone, Copy, Debug)]
enum Step {
    Filter,
    /// A join against build table `i`, keyed on its column 0.
    Join(usize),
}

/// The word tuples a pipeline emits over `input`, block after block, as rows.
fn word_output(pipeline: &Pipeline<u64>, input: &Tuples<u64>) -> Vec<Row> {
    let mut s = pipeline.scratch();
    let (mut out, mut next) = (Vec::new(), 0);
    while next < input.len() {
        let end = pipeline
            .run_block(&mut s, input, next..input.len())
            .unwrap();
        assert!(
            next < end && end <= next + BLOCK,
            "a block consumes 1..=BLOCK tuples"
        );
        next = end;
        let Emitted::Block(block) = s.output() else {
            panic!("a projecting pipeline emits a block");
        };
        for t in block.iter() {
            out.push(Row::new(t.iter().map(|&w| Value::Int(w as i64)).collect()));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_block_run_emits_what_the_unfused_chain_emits_in_order(
        len in 0usize..6,
        seed in 0u64..1_000_000,
        domain in 2u64..12,
        big in 0usize..80,
        small in 0usize..8,
        filters in 0usize..3,
        joins in 1usize..3,
        places in 0usize..64,
        threshold in 0i64..12,
        map in 0usize..2,
        picks in prop::collection::vec(0usize..64, 1..5),
    ) {
        let mut numbers = Numbers(seed);
        let input = numbers.pairs(LENGTHS[len], domain);
        // A wide first build side (its fan-out can pass the block's output
        // cap) and a narrow second one.
        let builds = [numbers.pairs(big, domain), numbers.pairs(small, domain)];
        let mut steps: Vec<Step> = (0..joins).map(Step::Join).collect();
        for f in 0..filters {
            let at = (places >> (3 * f)) % (steps.len() + 1);
            steps.insert(at, Step::Filter);
        }
        let arity = 2 + 2 * joins;
        let cols: Arc<[usize]> = picks.iter().map(|&p| p % arity).collect();

        let value_steps = steps.iter().map(|&step| match step {
            Step::Filter => PipelineStep::Filter(Arc::new(move |t: &[Value]| {
                Ok(t[t.len() - 2].as_int().unwrap() >= threshold)
            })),
            Step::Join(i) => PipelineStep::HashJoin {
                table: Arc::new(HashTable::build(&builds[i], &[0])),
                key: Arc::new(|t: &[Value], k: &mut Vec<Value>| {
                    k.push(t[t.len() - 1].clone());
                    Ok(())
                }) as KeyFn,
            },
        });
        let shape = WordShape::new(&[0], &[Lane::Int], &[Some(Lane::Int); 2]);
        let word_steps = steps.iter().map(|&step| match step {
            Step::Filter => PipelineStep::Filter(Arc::new(move |t: &[u64]| {
                Ok(t[t.len() - 2] as i64 >= threshold)
            })),
            Step::Join(i) => PipelineStep::HashJoin {
                table: Arc::new(WordTable::from_rows(shape.clone(), &builds[i]).unwrap()),
                key: Arc::new(|t: &[u64], k: &mut Vec<u64>| {
                    k.push(t[t.len() - 1]);
                    Ok(())
                }) as KeyFn<u64>,
            },
        });
        let (value_project, word_project) = if map == 1 {
            (
                Projection::Map(Arc::new(|t: &[Value], out: &mut Vec<Value>| {
                    let (a, b) = (t[0].as_int().unwrap(), t[t.len() - 1].as_int().unwrap());
                    out.extend([Value::Int(a + b), Value::Int(3 * b)]);
                    Ok(())
                })),
                Projection::Map(Arc::new(|t: &[u64], out: &mut Vec<u64>| {
                    let (a, b) = (t[0] as i64, t[t.len() - 1] as i64);
                    out.extend([(a + b) as u64, (3 * b) as u64]);
                    Ok(())
                })),
            )
        } else {
            (Projection::Columns(cols.clone()), Projection::Columns(cols))
        };
        let values = Pipeline { steps: value_steps.collect(), project: Some(value_project) };
        let words = Pipeline { steps: word_steps.collect(), project: Some(word_project) };

        let want = run_unfused(&input, &values);
        prop_assert_eq!(&run_fused(&input, &values), &want);
        let tuples = Tuples::<u64>::from_rows(vec![Lane::Int; 2].into(), &input).unwrap();
        prop_assert_eq!(&word_output(&words, &tuples), &want);

        // Filters alone, with no projection: the surviving rows are lent.
        let filter_only = Pipeline::new(vec![PipelineStep::Filter(Arc::new(
            move |t: &[Value]| Ok(t[0].as_int().unwrap() >= threshold),
        ))]);
        prop_assert_eq!(run_fused(&input, &filter_only), run_unfused(&input, &filter_only));
    }
}

/// `n` tuples of `arity` cells from `numbers`, each cell below `domain`: a
/// small domain repeats tuples inside a block.
fn cells(numbers: &mut Numbers, n: usize, arity: usize, domain: u64) -> Vec<u64> {
    (0..n * arity).map(|_| numbers.below(domain)).collect()
}

/// `0..n` cut into consecutive blocks of the sizes in `sizes`, cycled.
fn blocks(n: usize, sizes: &[usize]) -> Vec<std::ops::Range<usize>> {
    let (mut out, mut start) = (Vec::new(), 0);
    for &size in sizes.iter().cycle() {
        if start == n {
            break;
        }
        let end = n.min(start + size);
        out.push(start..end);
        start = end;
    }
    out
}

/// Tuples `range` of `data`, tuples of `arity` cells.
fn part<'a>(data: &'a [u64], arity: usize, range: &std::ops::Range<usize>) -> Block<'a, u64> {
    Block::new(
        &data[range.start * arity..range.end * arity],
        arity,
        range.len(),
    )
}

/// A group as compared: key, totals, previous totals and stamps.
type Group = (Vec<u64>, Vec<u64>, Vec<u64>, u32, u32);

fn groups(a: &AggState<u64>) -> Vec<Group> {
    let g = a.iter().map(|g| {
        (
            g.key.to_vec(),
            g.values.to_vec(),
            g.prev.to_vec(),
            g.round,
            g.created,
        )
    });
    g.collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_block_insert_is_the_sequence_of_single_inserts(
        arity in 1usize..6,
        n in 0usize..700,
        domain in 2u64..5,
        seed in 0u64..1_000_000,
        sizes in prop::collection::vec(prop_oneof![1usize..40, Just(BLOCK)], 1..6),
    ) {
        let mut numbers = Numbers(seed);
        let data = cells(&mut numbers, n, arity, domain);
        let all = Block::new(&data, arity, n);
        let lanes: Arc<[Lane]> = vec![Lane::Int; arity].into();
        // Sets, words and values: same arena order, same lookups, same index
        // (growth lands in the middle of blocks).
        let (mut single, mut batched) = (TupleSet::<u64>::new(lanes.clone()), TupleSet::new(lanes.clone()));
        let value = |t: &[u64]| t.iter().map(|&w| Value::Int(w as i64)).collect::<Vec<_>>();
        let value_data: Vec<Value> = data.iter().map(|&w| Value::Int(w as i64)).collect();
        let (mut single_v, mut batched_v) = (TupleSet::<Value>::default(), TupleSet::<Value>::default());
        let (mut sets, mut hashes) = ((SetState::<u64>::with_kinds(lanes.clone()), SetState::with_kinds(lanes)), Vec::new());
        for (round, range) in blocks(n, &sizes).into_iter().enumerate() {
            let round = round as u32 / 2;
            for i in range.clone() {
                single.intern(all.get(i));
                single_v.intern(&value(all.get(i)));
                sets.0.insert_slice(all.get(i), round);
            }
            let block = part(&data, arity, &range);
            batched.intern_block(block, &mut hashes);
            let values = &value_data[range.start * arity..range.end * arity];
            batched_v.intern_block(Block::new(values, arity, range.len()), &mut hashes);
            sets.1.insert_block(block, round, &mut hashes);
        }
        prop_assert!(single.tuples().iter().eq(batched.tuples().iter()));
        prop_assert_eq!(single.heap_bytes(), batched.heap_bytes());
        prop_assert!(single_v.tuples().iter().eq(batched_v.tuples().iter()));
        for t in all.iter() {
            prop_assert_eq!(single.find(t), batched.find(t));
            prop_assert_eq!(single_v.find(&value(t)), batched_v.find(&value(t)));
        }
        prop_assert!(sets.0.iter_with_rounds().eq(sets.1.iter_with_rounds()));
    }

    #[test]
    fn a_block_merge_is_the_sequence_of_single_merges(
        key_arity in 1usize..6,
        width in 1usize..3,
        n in 0usize..600,
        domain in 2u64..6,
        seed in 0u64..1_000_000,
        sizes in prop::collection::vec(prop_oneof![1usize..40, Just(BLOCK)], 1..6),
        op_picks in prop::collection::vec(0usize..3, 2..3),
        distinct in 0usize..2,
        overflow in 0usize..4,
    ) {
        let mut numbers = Numbers(seed);
        let ops: Vec<MonotoneOp> = (0..width)
            .map(|j| [MonotoneOp::Min, MonotoneOp::Max, MonotoneOp::Sum][op_picks[j]])
            .collect();
        let keys = cells(&mut numbers, n, key_arity, domain);
        let mut vals = cells(&mut numbers, n, width, 7);
        // Sometimes a huge value, so a `sum` may overflow — and escape —
        // in the middle of a block.
        if overflow == 0 && n > 0 {
            let at = numbers.below(n as u64) as usize * width;
            vals[at] = i64::MAX as u64;
        }
        // Distinct-tuple counting: a contribution is its key and values.
        let tuple_arity = key_arity + width;
        let tuples: Vec<u64> = (0..n)
            .flat_map(|i| {
                let key = &keys[i * key_arity..(i + 1) * key_arity];
                key.iter().chain(&vals[i * width..(i + 1) * width]).copied().collect::<Vec<_>>()
            })
            .collect();
        let state = || {
            let lanes = |k: usize| -> Arc<[Lane]> { vec![Lane::Int; k].into() };
            AggState::<u64>::with_kinds(lanes(key_arity), lanes(width), lanes(tuple_arity))
        };
        let (mut single, mut batched) = (state(), state());
        let (mut changed_single, mut changed_batched) = (Vec::new(), Vec::new());
        let (mut single_end, mut batched_end) = (Ok(()), Ok(()));
        for (round, range) in blocks(n, &sizes).into_iter().enumerate() {
            let round = 1 + round as u32 / 2;
            if single_end.is_ok() {
                for i in range.clone() {
                    let key = &keys[i * key_arity..(i + 1) * key_arity];
                    let v = &vals[i * width..(i + 1) * width];
                    let t = &tuples[i * tuple_arity..(i + 1) * tuple_arity];
                    match single.merge_in_place(key, v, &ops, round, (distinct == 1).then_some(t)) {
                        Ok(AggChange::First(g)) => changed_single.push(g),
                        Ok(_) => {}
                        Err(Escaped) => {
                            single_end = Err(Escaped);
                            break;
                        }
                    }
                }
            }
            if batched_end.is_ok() {
                let contributors = (distinct == 1).then(|| part(&tuples, tuple_arity, &range));
                batched_end = batched.merge_block(
                    part(&keys, key_arity, &range),
                    part(&vals, width, &range),
                    contributors,
                    &ops,
                    round,
                    Some(&mut changed_batched),
                );
            }
        }
        prop_assert_eq!(single_end, batched_end);
        prop_assert_eq!(changed_single, changed_batched);
        prop_assert_eq!(groups(&single), groups(&batched));
        prop_assert!(single.contributors().eq(batched.contributors()));
    }
}
