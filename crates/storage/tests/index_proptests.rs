//! Advance ≡ rebuild, bit for bit: an index built over a prefix of the rows
//! and advanced by the rest is the index built over all of them — per-key
//! row order for the hash layout, every public field (and every dense id)
//! for the CSR layout. This is what lets the index store answer an `INSERT`
//! with an append instead of a rebuild without any reader telling the two
//! apart.

use proptest::prelude::*;
use rasql_storage::{
    CsrGraph, CsrWeight, Fetch, HashIndex, HashTable, Index, IndexDep, IndexKey, IndexLayout,
    IndexStore, Row, Value,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
        // Every row is found through its key's partition, in table order.
        for row in &all {
            let key = [row[0].clone()];
            let want: Vec<&Row> = all.iter().filter(|r| r[0] == key[0]).collect();
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
        csr in any::<bool>(),
        partitions in 1usize..5,
    ) {
        let k = (cut * all.len() as f64) as usize;
        let layout = if csr {
            IndexLayout::Csr { src: 0, dst: 1, weight: CsrWeight::None, partitions }
        } else {
            IndexLayout::Hash { partitions }
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
            (Index::Csr(a), Index::Csr(b)) => assert_same_graph(&a, &b)?,
            _ => prop_assert!(false, "layout changed"),
        }
        prop_assert!(matches!(store.fetch(&key, &dep(all.len())), Fetch::Hit(_)));
        let stats = store.stats();
        prop_assert_eq!((stats.builds, stats.rebuilds), (1, 0));
        prop_assert_eq!(stats.advances, u64::from(k < all.len()));
    }
}
