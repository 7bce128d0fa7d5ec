//! Property-based tests for the storage substrate: total ordering of values,
//! hash/equality consistency, codec round-trips, partitioning stability.

use proptest::prelude::*;
use rasql_storage::codec::CompressedRelation;
use rasql_storage::partition::row_partition;
use rasql_storage::{DataType, FxHasher, Relation, Row, Schema, Value};
use std::hash::{Hash, Hasher};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN has no meaningful SQL ordering anyway and
        // the engine never produces it.
        (-1e15f64..1e15).prop_map(Value::Double),
        "[a-z]{0,8}".prop_map(|s| Value::from(s.as_str())),
    ]
}

fn hash_of(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_ordering_is_total_and_antisymmetric(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "equal values must hash equal");
        }
    }

    #[test]
    fn value_ordering_is_transitive(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        let mut vs = [a, b, c];
        vs.sort();
        prop_assert!(vs[0] <= vs[1] && vs[1] <= vs[2] && vs[0] <= vs[2]);
    }

    #[test]
    fn arithmetic_identities(x in -1_000_000i64..1_000_000) {
        let v = Value::Int(x);
        prop_assert_eq!(v.add(&Value::Int(0)), Value::Int(x));
        prop_assert_eq!(v.mul(&Value::Int(1)), Value::Int(x));
        prop_assert_eq!(v.sub(&v.clone()), Value::Int(0));
        // add is commutative
        let w = Value::Int(x / 3 + 7);
        prop_assert_eq!(v.add(&w), w.add(&v));
    }

    #[test]
    fn codec_round_trips_mixed_rows(
        vals in prop::collection::vec(
            prop::collection::vec(value_strategy(), 3..4), 0..40),
        ints in prop::collection::vec((any::<i64>(), any::<i64>()), 0..40),
    ) {
        let schema = Schema::new(vec![
            ("a", DataType::Any),
            ("b", DataType::Any),
            ("c", DataType::Any),
        ]);
        let rows: Vec<Row> = vals.into_iter().map(Row::new).collect();
        let c = CompressedRelation::compress(&schema, &rows);
        prop_assert_eq!(c.len(), rows.len());
        let mut back = c.decompress().unwrap();
        let mut orig = rows;
        back.sort();
        orig.sort();
        prop_assert_eq!(back, orig);

        // An `Int`-typed edge list over the whole i64 range: neighbouring
        // sorted values may differ by more than i64 can hold.
        let schema = Schema::new(vec![("s", DataType::Int), ("d", DataType::Int)]);
        let mut rows: Vec<Row> = ints
            .into_iter()
            .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
            .collect();
        let c = CompressedRelation::compress(&schema, &rows);
        rows.sort();
        prop_assert_eq!(c.decompress().unwrap(), rows);
    }

    #[test]
    fn partitioning_depends_only_on_key_columns(
        key in any::<i64>(),
        payload1 in any::<i64>(),
        payload2 in any::<i64>(),
        parts in 1usize..32,
    ) {
        let a = Row::new(vec![Value::Int(key), Value::Int(payload1)]);
        let b = Row::new(vec![Value::Int(key), Value::Int(payload2)]);
        prop_assert_eq!(row_partition(&a, &[0], parts), row_partition(&b, &[0], parts));
        prop_assert!(row_partition(&a, &[0], parts) < parts);
    }

    #[test]
    fn relation_dedup_is_idempotent(pairs in prop::collection::vec((0i64..20, 0i64..20), 0..60)) {
        let r = Relation::edges(&pairs);
        let d1 = r.dedup();
        let d2 = d1.clone().dedup();
        prop_assert_eq!(&d1, &d2);
        // deduped size equals the set size
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        prop_assert_eq!(d1.len(), set.len());
    }

    #[test]
    fn row_project_concat_laws(xs in prop::collection::vec(any::<i64>(), 1..6)) {
        let row = Row::new(xs.iter().map(|&v| Value::Int(v)).collect());
        // identity projection
        let all: Vec<usize> = (0..row.arity()).collect();
        prop_assert_eq!(&row.project(&all), &row);
        // concat arity
        let c = row.concat(&row);
        prop_assert_eq!(c.arity(), row.arity() * 2);
    }
}
