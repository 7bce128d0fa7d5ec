//! Advance ≡ rebuild, bit for bit: an index built over a prefix of the rows
//! and advanced by the rest is the index built over all of them — per-key
//! row order for the hash layout, every public field (and every dense id)
//! for the CSR layout. This is what lets the index store answer an `INSERT`
//! with an append instead of a rebuild without any reader telling the two
//! apart. The packed layout is also pinned against the row table: a probe
//! finds exactly the rows the row table finds, projected to lanes.

#![expect(
    clippy::disallowed_methods,
    reason = "each layout is built directly, to check it against the others"
)]

use proptest::prelude::*;
use rasql_storage::value::Lane;
use rasql_storage::{
    CsrGraph, CsrWeight, Fetch, HashIndex, HashTable, Index, IndexDep, IndexKey, IndexLayout,
    IndexStore, Row, Value, WordIndex, WordShape, WordTable,
};

/// Small domains, so keys repeat and `Int`/`Double` keys that compare equal
/// (`2` and `2.0`) meet in one bucket.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..6).prop_map(Value::Int),
        (0i64..6).prop_map(|i| Value::Double(i as f64)),
        (0i64..4).prop_map(|i| Value::Double(i as f64 + 0.5)),
        "[ab]{0,1}".prop_map(|s| Value::from(s.as_str())),
        Just(Value::Null),
    ]
}

fn rows(arity: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(cell(), arity..arity + 1).prop_map(Row::new),
        0..40,
    )
}

fn assert_same_table(a: &HashTable, b: &HashTable, all: &[Row]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.keys(), b.keys());
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.key_cols(), b.key_cols());
    for row in all {
        let key: Vec<Value> = a.key_cols().iter().map(|&c| row[c].clone()).collect();
        prop_assert_eq!(a.probe(&key), b.probe(&key), "rows under {:?}", key);
    }
    Ok(())
}

fn assert_same_graph(a: &CsrGraph, b: &CsrGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.offsets, &b.offsets);
    prop_assert_eq!(&a.targets, &b.targets);
    prop_assert_eq!(&a.weights_i, &b.weights_i);
    prop_assert_eq!(
        a.weights_f.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        b.weights_f.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
    );
    prop_assert_eq!(&a.orig, &b.orig);
    prop_assert_eq!(a.edge_vertices, b.edge_vertices);
    prop_assert_eq!(&a.part_of, &b.part_of);
    prop_assert_eq!(a.widened_int(), b.widened_int());
    for (dense, &id) in a.orig.iter().enumerate() {
        prop_assert_eq!(a.dense_id(id), Some(dense as u32));
        prop_assert_eq!(b.dense_id(id), Some(dense as u32));
    }
    Ok(())
}

/// Edge rows `(src, dst, weight)`; `wild` swaps in cells of other types.
fn edge_rows(wild: bool) -> impl Strategy<Value = Vec<Row>> {
    let vertex = || (0i64..12).prop_map(Value::Int);
    let weight = prop_oneof![
        (0i64..9).prop_map(Value::Int),
        (0i64..9).prop_map(|w| Value::Double(w as f64 / 2.0)),
    ];
    let row = ((vertex(), vertex(), weight), (cell(), 0usize..12)).prop_map(
        move |((s, d, w), (other, at))| {
            let mut cells = vec![s, d, w];
            // One row in four of a wild case carries a foreign cell.
            if wild && at < 3 {
                cells[at] = other;
            }
            Row::new(cells)
        },
    );
    prop::collection::vec(row, 0..40)
}

fn weights() -> impl Strategy<Value = CsrWeight> {
    prop_oneof![
        Just(CsrWeight::None),
        Just(CsrWeight::Int { col: 2 }),
        Just(CsrWeight::Float {
            col: 2,
            promote_int: true
        }),
        Just(CsrWeight::Float {
            col: 2,
            promote_int: false
        }),
    ]
}

/// Key values across the edges of `Int`/`Double` equality: integral
/// doubles, NULL, `2.5`, strings, `-0.0`, NaN — and, rarely, values equal
/// to more than one cell of a lane (|d| ≥ 2^53).
fn wild_key() -> impl Strategy<Value = Value> {
    (0u32..60, 0i64..6).prop_map(|(pick, i)| match pick {
        0..=24 => Value::Int(i),
        25..=49 => Value::Double(i as f64),
        50 => Value::Double(2.5),
        51 | 52 => Value::Double(-0.0),
        53 => Value::Double(f64::NAN),
        54 | 55 => Value::Null,
        56 | 57 => Value::from(if i % 2 == 0 { "a" } else { "b" }),
        58 => Value::Double(2f64.powi(53)),
        _ => Value::Int((1 << 53) + 1),
    })
}

/// Rows `(key, int, double)`; the value columns hold a stray now and then.
fn word_rows() -> impl Strategy<Value = Vec<Row>> {
    let int =
        (0u32..30, 0i64..9, cell()).prop_map(|(p, i, c)| if p == 0 { c } else { Value::Int(i) });
    let double = (0u32..30, 0i64..9, cell()).prop_map(|(p, i, c)| {
        if p == 0 {
            c
        } else {
            Value::Double(i as f64 / 2.0)
        }
    });
    let row = (wild_key(), int, double).prop_map(|(k, i, d)| Row::new(vec![k, i, d]));
    prop::collection::vec(row, 0..24)
}

fn lane() -> impl Strategy<Value = Lane> {
    prop_oneof![Just(Lane::Int), Just(Lane::Double)]
}

/// What the join reads: the key column in any lane or not at all, the value
/// columns in their own lanes or not at all.
fn reads() -> impl Strategy<Value = Vec<Option<Lane>>> {
    let key = prop_oneof![Just(None), Just(Some(Lane::Int)), Just(Some(Lane::Double))];
    (key, any::<bool>(), any::<bool>())
        .prop_map(|(k, i, d)| vec![k, i.then_some(Lane::Int), d.then_some(Lane::Double)])
}

/// Whether a build over `row` escapes: it can match a probe, and a key value
/// equals more than one cell or a read cell is off its lane.
fn escapes(row: &Row, key_cols: &[usize], lanes: &[Lane], read: &[Option<Lane>]) -> bool {
    let mut many = false;
    for (&c, lane) in key_cols.iter().zip(lanes) {
        match lane.key_cell(&row[c]) {
            Ok(None) => return false,
            Ok(Some(_)) => {}
            Err(_) => many = true,
        }
    }
    let off_lane =
        |(c, lane): (usize, &Option<Lane>)| lane.is_some_and(|l| l.encode(&row[c]).is_err());
    many || read.iter().enumerate().any(off_lane)
}

/// The keys to probe with: every row's key cells, and every lane's cells of
/// the small domain.
fn probe_keys(all: &[Row], key_cols: &[usize], lanes: &[Lane]) -> Vec<Vec<u64>> {
    let mut keys: Vec<Vec<u64>> = all
        .iter()
        .filter_map(|r| {
            let cells = key_cols
                .iter()
                .zip(lanes)
                .map(|(&c, l)| l.key_cell(&r[c]).ok().flatten());
            cells.collect()
        })
        .collect();
    for w in [0i64, 1, 2, 5, 7] {
        let cell = |l: &Lane| l.key_cell(&Value::Int(w)).unwrap().unwrap();
        keys.push(lanes.iter().map(cell).collect());
    }
    keys
}

fn matches(table: &WordTable, key: &[u64]) -> Vec<Vec<u64>> {
    table.probe(key).map(<[u64]>::to_vec).collect()
}

/// Two packed indexes answer every probe alike, partition by partition.
fn assert_same_words(a: &WordIndex, b: &WordIndex, keys: &[Vec<u64>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (a, b) in a.parts().iter().zip(b.parts()) {
        prop_assert_eq!(a.keys(), b.keys());
        for key in keys {
            prop_assert_eq!(matches(a, key), matches(b, key), "rows under {:?}", key);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_packed_probe_finds_what_the_row_table_finds(
        all in word_rows(),
        lane0 in lane(),
        two_cols in any::<bool>(),
        read in reads(),
    ) {
        let key_cols: &[usize] = if two_cols { &[0, 1] } else { &[0] };
        let lanes = if two_cols { vec![lane0, Lane::Int] } else { vec![lane0] };
        let built = WordTable::from_rows(WordShape::new(key_cols, &lanes, &read), &all);
        let escaped = all.iter().any(|r| escapes(r, key_cols, &lanes, &read));
        prop_assert_eq!(built.is_err(), escaped);
        let Ok(table) = built else { return Ok(()) };
        let rows = HashTable::build(&all, key_cols);
        for key in probe_keys(&all, key_cols, &lanes) {
            let values: Vec<Value> = key.iter().zip(&lanes).map(|(&w, l)| l.decode(w)).collect();
            let project = |r: &Row| -> Vec<u64> {
                let cells = read.iter().enumerate();
                cells.map(|(c, l)| l.map_or(0, |l| l.encode(&r[c]).unwrap())).collect()
            };
            let want: Vec<Vec<u64>> = rows.probe(&values).iter().map(project).collect();
            prop_assert_eq!(matches(&table, &key), want, "rows under {:?}", values);
        }
    }

    #[test]
    fn packed_index_append_is_build(
        all in word_rows(),
        cut in 0.0f64..1.0,
        lane0 in lane(),
        read in reads(),
        partitions in 1usize..5,
    ) {
        let shape = WordShape::new(&[0], &[lane0], &read);
        let k = (cut * all.len() as f64) as usize;
        let keys = probe_keys(&all, &[0], &[lane0]);
        let rebuilt = WordIndex::build(&all, &shape, partitions);
        let advanced = WordIndex::build(&all[..k], &shape, partitions).and_then(|mut index| {
            let before = index.clone();
            match index.append(&all[k..]) {
                Ok(()) => Ok(index),
                Err(e) => {
                    // A refused delta leaves the index as it was.
                    assert_same_words(&index, &before, &keys).unwrap();
                    Err(e)
                }
            }
        });
        prop_assert_eq!(advanced.is_ok(), rebuilt.is_ok());
        if let (Ok(a), Ok(b)) = (&advanced, &rebuilt) {
            assert_same_words(a, b, &keys)?;
        }
    }

    #[test]
    fn hash_table_append_is_build(all in rows(3), cut in 0.0f64..1.0, two_cols in any::<bool>()) {
        let key_cols: &[usize] = if two_cols { &[2, 0] } else { &[1] };
        let k = (cut * all.len() as f64) as usize;
        let mut advanced = HashTable::build(&all[..k], key_cols);
        advanced.append(&all[k..]);
        assert_same_table(&advanced, &HashTable::build(&all, key_cols), &all)?;
    }

    #[test]
    fn hash_index_append_is_build(
        all in rows(2),
        cut in 0.0f64..1.0,
        partitions in 1usize..6,
        held in any::<bool>(),
    ) {
        let k = (cut * all.len() as f64) as usize;
        let mut advanced = HashIndex::build(&all[..k], &[0], partitions);
        // A reader still holding the prefix's tables keeps exactly them.
        let lent = held.then(|| advanced.clone());
        advanced.append(&all[k..]);
        let rebuilt = HashIndex::build(&all, &[0], partitions);
        prop_assert_eq!(advanced.parts().len(), partitions);
        for (a, b) in advanced.parts().iter().zip(rebuilt.parts()) {
            assert_same_table(a, b, &all)?;
        }
        // Every row is found through its key's partition, in table order —
        // but a NULL key, which an equi-join never matches, finds nothing.
        for row in &all {
            let key = [row[0].clone()];
            let want: Vec<&Row> = all.iter().filter(|r| r[0] == key[0] && !key[0].is_null()).collect();
            let got: Vec<&Row> = advanced.table_for(&key).probe(&key).iter().collect();
            prop_assert_eq!(got, want);
        }
        if let Some(lent) = lent {
            let prefix = HashIndex::build(&all[..k], &[0], partitions);
            for (a, b) in lent.parts().iter().zip(prefix.parts()) {
                assert_same_table(a, b, &all)?;
            }
        }
    }

    #[test]
    fn csr_extended_is_build(
        all in edge_rows(false),
        cut in 0.0f64..1.0,
        weight in weights(),
        partitions in 1usize..6,
        extras in prop::collection::vec(0i64..16, 0..4),
    ) {
        let k = (cut * all.len() as f64) as usize;
        let rebuilt = CsrGraph::build(&all, 0, 1, weight, [], partitions);
        let advanced = CsrGraph::build(&all[..k], 0, 1, weight, [], partitions)
            .and_then(|g| g.extended(&all[k..], 0, 1, weight, [], partitions));
        // A weight the layout does not take refuses both, wherever it sits.
        prop_assert_eq!(advanced.is_some(), rebuilt.is_some());
        if let (Some(a), Some(b)) = (&advanced, &rebuilt) {
            assert_same_graph(a, b)?;
        }
        // Seed vertices extend a seedless graph exactly as building with
        // them does, and a seeded graph refuses new edges.
        if let Some(shared) = &rebuilt {
            let seeded = shared.extended(&[], 0, 1, weight, extras.clone(), partitions).unwrap();
            let built = CsrGraph::build(&all, 0, 1, weight, extras, partitions).unwrap();
            assert_same_graph(&seeded, &built)?;
            if seeded.vertex_count() > seeded.edge_vertices && !all.is_empty() {
                prop_assert!(seeded.extended(&all[..1], 0, 1, weight, [], partitions).is_none());
            }
        }
    }

    #[test]
    fn a_mistyped_delta_row_refuses_the_advance_as_it_refuses_the_build(
        all in edge_rows(true),
        cut in 0.0f64..1.0,
        weight in weights(),
    ) {
        let k = (cut * all.len() as f64) as usize;
        let rebuilt = CsrGraph::build(&all, 0, 1, weight, [], 3);
        let advanced = CsrGraph::build(&all[..k], 0, 1, weight, [], 3)
            .and_then(|g| g.extended(&all[k..], 0, 1, weight, [], 3));
        prop_assert_eq!(advanced.is_some(), rebuilt.is_some());
        if let (Some(a), Some(b)) = (&advanced, &rebuilt) {
            assert_same_graph(a, b)?;
        }
    }

    /// The same through the store: publish over a prefix, fetch at the full
    /// length, advance — for both layouts.
    #[test]
    fn store_advance_is_rebuild(
        all in edge_rows(false),
        cut in 0.0f64..1.0,
        layout in 0usize..3,
        partitions in 1usize..5,
    ) {
        let k = (cut * all.len() as f64) as usize;
        let layout = match layout {
            0 => IndexLayout::Csr { src: 0, dst: 1, weight: CsrWeight::None, partitions },
            1 => IndexLayout::Hash { partitions },
            _ => IndexLayout::Words {
                partitions,
                lanes: vec![Lane::Int],
                read: vec![None, Some(Lane::Int), None],
            },
        };
        let key = IndexKey { plan: "TableScan edge".into(), key_cols: vec![0], layout };
        let dep = |len| vec![IndexDep { table: "edge".into(), rewrite_version: 7, len }];
        let store = IndexStore::new();
        store.publish(key.clone(), dep(k), Index::build(&key, &all[..k]).unwrap());
        let advanced = match store.fetch(&key, &dep(all.len())) {
            Fetch::Hit(index) => {
                prop_assert_eq!(k, all.len());
                index
            }
            Fetch::Grown { table, from } => {
                prop_assert_eq!((table.as_str(), from), ("edge", k));
                store.advance(&key, &table, from, &dep(all.len()), &all[from..]).unwrap()
            }
            Fetch::Miss => return Err(TestCaseError::Fail("entry lost".into())),
        };
        match (advanced, Index::build(&key, &all).unwrap()) {
            (Index::Hash(a), Index::Hash(b)) => {
                for (a, b) in a.parts().iter().zip(b.parts()) {
                    assert_same_table(a, b, &all)?;
                }
            }
            (Index::Words(a), Index::Words(b)) => {
                assert_same_words(&a, &b, &probe_keys(&all, &[0], &[Lane::Int]))?;
            }
            (Index::Csr(a), Index::Csr(b)) => assert_same_graph(&a, &b)?,
            _ => prop_assert!(false, "layout changed"),
        }
        prop_assert!(matches!(store.fetch(&key, &dep(all.len())), Fetch::Hit(_)));
        let stats = store.stats();
        prop_assert_eq!((stats.builds, stats.rebuilds), (1, 0));
        prop_assert_eq!(stats.advances, u64::from(k < all.len()));
    }
}
