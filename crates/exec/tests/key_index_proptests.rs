//! Model tests of the key index under `TupleSet` and `WordTable`: random
//! interleavings of interns, block interns, finds, clones, probes and
//! appends, checked at every step against a `HashMap` model — indices,
//! membership, insertion order, length and probe matches — while the keys
//! move the index between its hashed and by-position layouts.

#![expect(
    clippy::disallowed_methods,
    reason = "fixtures: indexes built directly"
)]

use proptest::prelude::*;
use rasql_exec::{Block, Lane, TupleSet};
use rasql_storage::{Row, Value, WordIndex, WordShape};
use std::collections::HashMap;

/// A deterministic stream of numbers.
struct Numbers(u64);

impl Numbers {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = (self.0.wrapping_mul(6_364_136_223_846_793_005))
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n.max(1)
    }

    /// One key cell. Early in a run (`phase` 0) every cell is a small word
    /// under `domain`; later ones may sit at or just past a power-of-two
    /// bound (`phase` ≥ 1) or be a negative `Int`, a `Double`'s bits or a
    /// word no directory covers (`phase` 2).
    fn cell(&mut self, phase: u64, domain: u64) -> u64 {
        match self.below(8 * phase) {
            6..=7 => {
                let bound = 1u64 << (1 + self.below(12));
                bound - 1 + self.below(3)
            }
            11 => (-(self.below(domain) as i64) - 1) as u64,
            12 => {
                let doubles = [0.0, -0.0, 1.0, 0.5, 2.0, f64::NAN, f64::INFINITY, 1e-310];
                f64::to_bits(doubles[self.below(doubles.len() as u64) as usize])
            }
            13 => (1 << 40) + self.below(domain),
            _ => self.below(domain),
        }
    }

    fn tuple(&mut self, arity: usize, phase: u64, domain: u64) -> Vec<u64> {
        (0..arity).map(|_| self.cell(phase, domain)).collect()
    }
}

/// What the key indexes have shown of their layouts across runs.
#[derive(Default, Debug)]
struct Seen {
    to_position: usize,
    to_hashed: usize,
}

impl Seen {
    /// Note a step that left an index by position (`after`) or not.
    fn step(&mut self, before: bool, after: bool) {
        match (before, after) {
            (false, true) => self.to_position += 1,
            (true, false) => self.to_hashed += 1,
            _ => {}
        }
    }
}

/// The set and its model: each tuple's index, and the tuples in order.
struct SetModel {
    index: HashMap<Vec<u64>, usize>,
    order: Vec<Vec<u64>>,
}

impl SetModel {
    fn intern(&mut self, t: &[u64]) -> (usize, bool) {
        match self.index.get(t) {
            Some(&i) => (i, false),
            None => {
                self.index.insert(t.to_vec(), self.order.len());
                self.order.push(t.to_vec());
                (self.order.len() - 1, true)
            }
        }
    }

    fn check(&self, set: &TupleSet<u64>) -> Result<(), TestCaseError> {
        prop_assert_eq!(set.len(), self.order.len());
        for (i, t) in self.order.iter().enumerate() {
            prop_assert_eq!(set.get(i), &t[..]);
            prop_assert_eq!(set.find(t), Some(i));
        }
        Ok(())
    }
}

/// One run of random set operations on tuples of `arity` cells.
fn run_set(seed: u64, arity: usize, domain: u64, seen: &mut Seen) -> Result<(), TestCaseError> {
    let mut n = Numbers(seed);
    let mut set = TupleSet::<u64>::new(vec![Lane::Int; arity].into());
    let mut model = SetModel {
        index: HashMap::new(),
        order: Vec::new(),
    };
    let mut hashes = Vec::new();
    const OPS: u64 = 240;
    for op in 0..OPS {
        let phase = 3 * op / OPS;
        let by_position = set.key_index().by_position();
        match n.below(10) {
            0..=3 => {
                let t = n.tuple(arity, phase, domain);
                prop_assert_eq!(set.intern(&t), model.intern(&t));
            }
            4..=6 => {
                let len = n.below(40) as usize;
                let cells: Vec<u64> = (0..len)
                    .flat_map(|_| n.tuple(arity, phase, domain))
                    .collect();
                set.intern_block(Block::new(&cells, arity, len), &mut hashes);
                for i in 0..len {
                    model.intern(&cells[i * arity..(i + 1) * arity]);
                }
            }
            7..=8 => {
                let t = n.tuple(arity, phase, domain);
                prop_assert_eq!(set.find(&t), model.index.get(&t).copied());
            }
            _ => set = set.clone(),
        }
        seen.step(by_position, set.key_index().by_position());
        model.check(&set)?;
    }
    Ok(())
}

/// A row of `width + 1` `Int` columns, the first `width` its key; a NULL
/// key cell now and then, which no probe matches.
fn row(n: &mut Numbers, width: usize, phase: u64, domain: u64) -> Row {
    let mut values: Vec<Value> = (0..=width)
        .map(|_| Value::Int(n.cell(phase, domain) as i64))
        .collect();
    if width > 0 && n.below(50) == 0 {
        values[0] = Value::Null;
    }
    Row::new(values)
}

/// The model of a packed table: its rows, in table order, with their keys.
#[derive(Clone, Default)]
struct TableModel {
    rows: Vec<(Vec<u64>, Vec<u64>)>,
}

impl TableModel {
    fn add(&mut self, rows: &[Row], width: usize) {
        for r in rows {
            if r.values()[..width].iter().any(Value::is_null) {
                continue;
            }
            let cells: Vec<u64> = r
                .values()
                .iter()
                .map(|v| v.as_int().unwrap() as u64)
                .collect();
            self.rows.push((cells[..width].to_vec(), cells));
        }
    }

    fn check(&self, index: &WordIndex, probes: &[Vec<u64>]) -> Result<(), TestCaseError> {
        let table = &index.parts()[0];
        prop_assert_eq!(table.len(), self.rows.len());
        let mut by_key: HashMap<&[u64], Vec<&[u64]>> = HashMap::new();
        for (k, r) in &self.rows {
            by_key.entry(k).or_default().push(r);
        }
        prop_assert_eq!(table.keys(), by_key.len());
        for (key, want) in &by_key {
            let got: Vec<&[u64]> = table.probe(key).collect();
            prop_assert_eq!(&got, want);
        }
        for key in probes {
            let got: Vec<&[u64]> = table.probe(key).collect();
            prop_assert_eq!(got, by_key.get(&key[..]).cloned().unwrap_or_default());
        }
        Ok(())
    }
}

/// One run of a packed index keyed on its first `width` columns: a build,
/// then appends (the refresh path), probes and clones.
fn run_table(seed: u64, width: usize, domain: u64, seen: &mut Seen) -> Result<(), TestCaseError> {
    let mut n = Numbers(seed);
    let arity = width + 1;
    let shape = WordShape::new(
        &(0..width).collect::<Vec<_>>(),
        &vec![Lane::Int; width],
        &vec![Some(Lane::Int); arity],
    );
    let first: Vec<Row> = (0..n.below(60))
        .map(|_| row(&mut n, width, 0, domain))
        .collect();
    let mut index = WordIndex::build(&first, &shape, 1).unwrap();
    let mut model = TableModel::default();
    model.add(&first, width);
    let mut kept: Option<(WordIndex, TableModel)> = None;
    const OPS: u64 = 60;
    for op in 0..OPS {
        let phase = 3 * op / OPS;
        let probes: Vec<Vec<u64>> = (0..4).map(|_| n.tuple(width, phase, domain)).collect();
        let by_position = index.parts()[0].key_index().by_position();
        match n.below(6) {
            0..=3 => {
                let rows: Vec<Row> = (0..1 + n.below(24))
                    .map(|_| row(&mut n, width, phase, domain))
                    .collect();
                index.append(&rows).unwrap();
                model.add(&rows, width);
            }
            4 => kept = Some((index.clone(), model.clone())),
            _ => {}
        }
        seen.step(by_position, index.parts()[0].key_index().by_position());
        model.check(&index, &probes)?;
    }
    // A clone taken along the way still reads as it did: appends after it
    // copied the table they changed.
    if let Some((index, model)) = kept {
        model.check(&index, &[])?;
    }
    Ok(())
}

const DOMAINS: [u64; 4] = [4, 16, 256, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_tuple_set_answers_what_its_model_answers(
        seed in 0u64..1_000_000_000,
        arity in 0usize..5,
        domain in 0usize..4,
    ) {
        run_set(seed, arity, DOMAINS[domain], &mut Seen::default())?;
    }

    #[test]
    fn a_packed_table_probes_what_its_model_holds(
        seed in 0u64..1_000_000_000,
        width in 0usize..3,
        domain in 0usize..4,
    ) {
        run_table(seed, width, DOMAINS[domain], &mut Seen::default())?;
    }
}

/// The runs above cross the layouts both ways: a fixed sweep of them sees a
/// hashed index move to positions and a by-position one move back, under
/// sets and under packed tables.
#[test]
fn the_model_runs_cross_both_transitions() {
    let (mut sets, mut tables) = (Seen::default(), Seen::default());
    for seed in 0..48 {
        let (arity, domain) = (1 + seed as usize % 4, DOMAINS[seed as usize / 12]);
        run_set(seed, arity, domain, &mut sets).unwrap();
        run_table(seed, 1 + seed as usize % 2, domain, &mut tables).unwrap();
    }
    for seen in [sets, tables] {
        assert!(seen.to_position > 0 && seen.to_hashed > 0, "{seen:?}");
    }
}
