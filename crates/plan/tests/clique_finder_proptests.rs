//! The one clique finder (`analyzer::cte_components`, Tarjan over the CTE
//! reference graph) against a reachability closure over the same graph: the
//! same cyclic components with the same members, in the order the verifier
//! reads them (by first member), and every component after the components
//! it reads.

use proptest::prelude::*;
use rasql_parser::ast::{CteDef, Query, Select, TableRef};
use rasql_parser::Span;
use rasql_plan::analyzer::cte_components;
use std::collections::HashMap;

/// A table reference to `name`, or a derived table reading it.
fn from_item(name: String, derived: bool) -> TableRef {
    let table = TableRef::Table {
        name,
        alias: None,
        span: Span::synthetic(),
    };
    if !derived {
        return table;
    }
    TableRef::Subquery {
        query: Box::new(Query {
            ctes: vec![],
            body: vec![Select {
                from: vec![table],
                ..Select::default()
            }],
        }),
        alias: "d".into(),
    }
}

/// CTE `v{i}` reads a base table and every `V{j}` with `reads[i][j]` set (in
/// upper case: names resolve case-insensitively), some through a derived
/// table, split over two branches.
fn ctes(reads: &[Vec<(bool, bool)>]) -> Vec<CteDef> {
    (reads.iter().enumerate())
        .map(|(i, row)| {
            let mut branches = vec![Select::default(), Select::default()];
            branches[0].from.push(from_item("base".into(), false));
            for (j, &(read, derived)) in row.iter().enumerate() {
                if read {
                    branches[j % 2]
                        .from
                        .push(from_item(format!("V{j}"), derived));
                }
            }
            CteDef {
                recursive: true,
                name: format!("v{i}"),
                name_span: Span::synthetic(),
                columns: vec![],
                branches,
            }
        })
        .collect()
}

/// FROM-referenced table names, recursing through derived tables.
fn table_refs(select: &Select, out: &mut Vec<String>) {
    for item in &select.from {
        match item {
            TableRef::Table { name, .. } => out.push(name.clone()),
            TableRef::Subquery { query, .. } => {
                for s in &query.body {
                    table_refs(s, out);
                }
            }
        }
    }
}

/// The verifier's former clique finder: strongly connected components of
/// the CTE reference graph that contain a cycle, by a reachability closure —
/// in order of their first member, members ascending.
fn closure_cliques(ctes: &[CteDef]) -> Vec<Vec<usize>> {
    let n = ctes.len();
    let names: HashMap<String, usize> = (ctes.iter().enumerate())
        .map(|(i, c)| (c.name.to_ascii_lowercase(), i))
        .collect();
    let mut reach = vec![vec![false; n]; n];
    for (i, cte) in ctes.iter().enumerate() {
        for branch in &cte.branches {
            let mut refs = Vec::new();
            table_refs(branch, &mut refs);
            for r in refs {
                if let Some(&j) = names.get(&r.to_ascii_lowercase()) {
                    reach[i][j] = true;
                }
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for i in 0..n {
        if seen[i] || !reach[i][i] {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|&j| reach[i][j] && reach[j][i]).collect();
        for &m in &members {
            seen[m] = true;
        }
        out.push(members);
    }
    out
}

/// Up to 8 CTEs; each reads each other one (itself included) with
/// probability 0.3, through a derived table half of the time.
fn graphs() -> impl Strategy<Value = Vec<Vec<(bool, bool)>>> {
    let full = prop::collection::vec(prop::collection::vec((0u32..10, any::<bool>()), 8..9), 8..9);
    (1usize..9, full).prop_map(|(n, full)| {
        (full.iter().take(n))
            .map(|row| row.iter().take(n).map(|&(r, d)| (r < 3, d)).collect())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn components_match_the_closure(reads in graphs()) {
        let ctes = ctes(&reads);
        let components = cte_components(&ctes);

        // Every CTE is in exactly one component, members ascending.
        let mut component_of = vec![usize::MAX; ctes.len()];
        for (ci, c) in components.iter().enumerate() {
            prop_assert!(c.members.windows(2).all(|w| w[0] < w[1]), "{:?}", c);
            for &m in &c.members {
                prop_assert_eq!(component_of[m], usize::MAX);
                component_of[m] = ci;
            }
        }
        prop_assert!(component_of.iter().all(|&c| c != usize::MAX));

        // Topological order: a component comes after every one it reads.
        for (i, row) in reads.iter().enumerate() {
            for (j, &(read, _)) in row.iter().enumerate() {
                if read {
                    prop_assert!(component_of[j] <= component_of[i], "v{} reads v{}", i, j);
                }
            }
        }

        // The recursive ones, by first member, are the closure's cliques.
        let mut cliques: Vec<Vec<usize>> = (components.into_iter())
            .filter(|c| c.recursive)
            .map(|c| c.members)
            .collect();
        cliques.sort_unstable_by_key(|m| m[0]);
        prop_assert_eq!(cliques, closure_cliques(&ctes));
    }
}
