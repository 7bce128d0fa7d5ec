//! The independent result oracle: expectations computed in set-up by code
//! that shares no evaluator with the engine (`rasql_gap` and the plain loops
//! below), and the check every statement's result must pass.

use rasql_gap::algorithms::{cc_rasql_oracle, widest_path};
use rasql_gap::{bfs_reach, sssp_dijkstra, Csr};
use rasql_storage::{FxHashMap, FxHashSet, Relation, Row, Value};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

/// Relative tolerance for `Double` sums whose summation order is the engine's.
const TOLERANCE: f64 = 1e-9;

/// Row count plus an order-independent 64-bit hash of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

pub fn digest(rows: &[Row]) -> Digest {
    let hash = rows.iter().fold(0u64, |acc, row| {
        // `DefaultHasher::new()` has fixed keys: the hash repeats across runs.
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    Digest {
        rows: rows.len() as u64,
        hash,
    }
}

/// What a statement must return to count as correct.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Any reply that is not an error (status lines of DDL/refresh).
    Any,
    /// Exactly these rows, in any order.
    Exact(Digest),
    /// These rows (sorted), numeric columns within [`TOLERANCE`].
    Approx(Vec<Row>),
}

impl Expect {
    pub fn exact(rows: &[Row]) -> Expect {
        Expect::Exact(digest(rows))
    }

    pub fn approx(mut rows: Vec<Row>) -> Expect {
        rows.sort_unstable();
        Expect::Approx(rows)
    }

    /// `Err` names the mismatch; the caller counts the statement as failed.
    pub fn check(&self, rows: &[Row]) -> Result<(), String> {
        match self {
            Expect::Any => Ok(()),
            Expect::Exact(want) => {
                let got = digest(rows);
                if got == *want {
                    Ok(())
                } else {
                    Err(format!("digest {got:?}, expected {want:?}"))
                }
            }
            Expect::Approx(want) => {
                if rows.len() != want.len() {
                    return Err(format!("{} rows, expected {}", rows.len(), want.len()));
                }
                let mut got = rows.to_vec();
                got.sort_unstable();
                match got.iter().zip(want).find(|(g, w)| !rows_close(g, w)) {
                    None => Ok(()),
                    Some((g, w)) => Err(format!("row {g}, expected {w}")),
                }
            }
        }
    }
}

fn rows_close(a: &Row, b: &Row) -> bool {
    a.arity() == b.arity()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| match (x.as_f64(), y.as_f64()) {
                (Some(x), Some(y)) => (x - y).abs() <= TOLERANCE * x.abs().max(y.abs()),
                _ => x == y,
            })
}

fn int_double_rows(map: &FxHashMap<i64, f64>) -> Vec<Row> {
    map.iter()
        .map(|(&k, &v)| Row::new(vec![Value::Int(k), Value::Double(v)]))
        .collect()
}

fn int_int_rows(map: &FxHashMap<i64, i64>) -> Vec<Row> {
    map.iter()
        .map(|(&k, &v)| Row::new(vec![Value::Int(k), Value::Int(v)]))
        .collect()
}

/// `library::reach(source)`.
pub fn reach(csr: &Csr, source: usize) -> Vec<Row> {
    bfs_reach(csr, source)
        .into_iter()
        .map(|v| Row::new(vec![Value::Int(i64::from(v))]))
        .collect()
}

/// `library::sssp(source)`.
pub fn sssp(csr: &Csr, source: usize) -> Vec<Row> {
    int_double_rows(&sssp_dijkstra(csr, source))
}

/// `library::widest_path(source)`.
pub fn widest(csr: &Csr, source: usize) -> Vec<Row> {
    int_double_rows(&widest_path(csr, source, 1_000_000_000.0))
}

/// `library::sssp_hops(source)`: breadth-first levels.
pub fn hops(csr: &Csr, source: usize) -> Vec<Row> {
    let mut level = vec![u32::MAX; csr.n.max(source + 1)];
    level[source] = 0;
    let mut queue = vec![source];
    let mut head = 0;
    while head < queue.len() && source < csr.n {
        let v = queue[head];
        head += 1;
        for &w in csr.neighbors(v) {
            if level[w as usize] == u32::MAX {
                level[w as usize] = level[v] + 1;
                queue.push(w as usize);
            }
        }
    }
    queue
        .into_iter()
        .map(|v| Row::new(vec![Value::Int(v as i64), Value::Int(i64::from(level[v]))]))
        .collect()
}

/// `library::cc()` / `library::cc_stratified()`.
pub fn cc(edges: &Relation) -> Vec<Row> {
    int_int_rows(&cc_rasql_oracle(edges))
}

/// `library::cc_count()` over the labels of [`cc`].
pub fn cc_count(cc_rows: &[Row]) -> Vec<Row> {
    let labels: FxHashSet<i64> = cc_rows.iter().filter_map(|r| r[1].as_int()).collect();
    vec![Row::new(vec![Value::Int(labels.len() as i64)])]
}

/// `library::transitive_closure()`: per-source BFS from the out-neighbours.
pub fn transitive_closure(csr: &Csr) -> Vec<Row> {
    let mut out = Vec::new();
    let mut seen = vec![usize::MAX; csr.n];
    for s in 0..csr.n {
        let mut queue: Vec<u32> = Vec::new();
        let mut head = 0;
        let mut frontier = csr.neighbors(s);
        loop {
            for &w in frontier {
                if seen[w as usize] != s {
                    seen[w as usize] = s;
                    queue.push(w);
                }
            }
            let Some(&v) = queue.get(head) else { break };
            head += 1;
            frontier = csr.neighbors(v as usize);
        }
        out.extend(
            queue
                .into_iter()
                .map(|d| Row::new(vec![Value::Int(s as i64), Value::Int(i64::from(d))])),
        );
    }
    out
}

/// `library::apsp()`: Dijkstra per source; `(s, s)` appears only through a
/// cycle, at the cheapest way back into `s`.
pub fn apsp(csr: &Csr) -> Vec<Row> {
    let mut out = Vec::new();
    for s in 0..csr.n {
        if csr.neighbors(s).is_empty() {
            continue;
        }
        let dist = sssp_dijkstra(csr, s);
        let mut back = f64::INFINITY;
        for (&u, &d) in &dist {
            for (w, c) in csr.weighted_neighbors(u as usize) {
                if w as usize == s {
                    back = back.min(d + c);
                }
            }
        }
        for (&t, &d) in &dist {
            let cost = if t as usize == s { back } else { d };
            if cost.is_finite() {
                out.push(Row::new(vec![
                    Value::Int(s as i64),
                    Value::Int(t),
                    Value::Double(cost),
                ]));
            }
        }
    }
    out
}

/// `library::same_generation()` over `rel(Parent, Child)`: semi-naive over
/// the children lists.
pub fn same_generation(rel: &Relation) -> Vec<Row> {
    let mut children: FxHashMap<i64, Vec<i64>> = FxHashMap::default();
    for r in rel.rows() {
        if let (Some(p), Some(c)) = (r[0].as_int(), r[1].as_int()) {
            children.entry(p).or_default().push(c);
        }
    }
    let mut sg: FxHashSet<(i64, i64)> = FxHashSet::default();
    let mut delta = Vec::new();
    for kids in children.values() {
        for &a in kids {
            for &b in kids {
                if a != b && sg.insert((a, b)) {
                    delta.push((a, b));
                }
            }
        }
    }
    while !delta.is_empty() {
        let mut next = Vec::new();
        for (x, y) in delta {
            if let (Some(cx), Some(cy)) = (children.get(&x), children.get(&y)) {
                for &a in cx {
                    for &b in cy {
                        if sg.insert((a, b)) {
                            next.push((a, b));
                        }
                    }
                }
            }
        }
        delta = next;
    }
    sg.into_iter()
        .map(|(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

/// `library::mlm_bonus()` (compare with [`Expect::approx`]: a `Double` sum).
pub fn mlm_bonus(sales: &Relation, sponsor: &Relation) -> Vec<Row> {
    int_double_rows(&rasql_gap::mlm_bonuses(sales, sponsor))
}

/// `library::bom_delivery_stratified()`.
pub fn bom_delivery(assbl: &Relation, basic: &Relation) -> Vec<Row> {
    int_int_rows(&rasql_gap::waitfor_days(assbl, basic))
}

/// Shortest distances from one source, kept current as edges are inserted
/// (insertions only lower distances, so a Dijkstra restart from the touched
/// endpoints is exact). The oracle of a view refreshed between inserts.
pub struct IncrementalSssp {
    adj: Vec<Vec<(u32, f64)>>,
    dist: Vec<f64>,
}

impl IncrementalSssp {
    pub fn new(vertices: usize, source: usize) -> Self {
        let mut dist = vec![f64::INFINITY; vertices];
        dist[source] = 0.0;
        IncrementalSssp {
            adj: vec![Vec::new(); vertices],
            dist,
        }
    }

    /// Insert `(src, dst, cost)` edge rows and restore the fixpoint.
    pub fn insert(&mut self, edges: &[Row]) {
        let mut heap = BinaryHeap::new();
        for r in edges {
            let (s, d) = (
                r[0].as_int().expect("int src"),
                r[1].as_int().expect("int dst"),
            );
            let (s, d, c) = (s as usize, d as u32, r[2].as_f64().expect("numeric cost"));
            self.adj[s].push((d, c));
            if self.dist[s].is_finite() {
                // Non-negative distances order by their bit patterns.
                heap.push(Reverse((self.dist[s].to_bits(), s as u32)));
            }
        }
        while let Some(Reverse((bits, v))) = heap.pop() {
            let d = f64::from_bits(bits);
            if self.dist[v as usize] < d {
                continue;
            }
            for &(w, c) in &self.adj[v as usize] {
                if d + c < self.dist[w as usize] {
                    self.dist[w as usize] = d + c;
                    heap.push(Reverse(((d + c).to_bits(), w)));
                }
            }
        }
    }

    /// The row of `SELECT Dst, Cost FROM sp WHERE Dst = v` (none if unreached).
    pub fn point(&self, v: usize) -> Vec<Row> {
        match self.dist[v] {
            d if d.is_finite() => vec![Row::new(vec![Value::Int(v as i64), Value::Double(d)])],
            _ => Vec::new(),
        }
    }

    /// Every reached `(Dst, Cost)` row.
    pub fn rows(&self) -> Vec<Row> {
        (0..self.dist.len()).flat_map(|v| self.point(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_api::int_row;

    #[test]
    fn digest_ignores_order_and_sees_every_change() {
        let a = vec![int_row(&[1, 2]), int_row(&[3, 4]), int_row(&[5, 6])];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(digest(&a), digest(&b));
        b[0] = int_row(&[5, 7]);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&a[..2]));
        // Swapping values between rows keeps every column's multiset.
        let swapped = vec![int_row(&[1, 4]), int_row(&[3, 2]), int_row(&[5, 6])];
        assert_ne!(digest(&a), digest(&swapped));
    }

    #[test]
    fn approx_tolerates_summation_order_only() {
        let row = |k: i64, v: f64| Row::new(vec![Value::Int(k), Value::Double(v)]);
        let want = Expect::approx(vec![row(1, 0.1 + 0.2 + 0.3), row(2, 5.0)]);
        assert!(want.check(&[row(2, 5.0), row(1, 0.3 + 0.2 + 0.1)]).is_ok());
        assert!(want.check(&[row(2, 5.0), row(1, 0.6001)]).is_err());
        assert!(want.check(&[row(2, 5.0)]).is_err());
    }

    #[test]
    fn incremental_sssp_matches_dijkstra_after_every_batch() {
        let edges = rasql_datagen::rmat(
            64,
            rasql_datagen::RmatConfig {
                weighted: true,
                ..Default::default()
            },
            7,
        );
        let mut inc = IncrementalSssp::new(64, 1);
        for (i, batch) in edges.rows().chunks(40).enumerate() {
            inc.insert(batch);
            let prefix = Relation::new_unchecked(
                edges.schema().clone(),
                edges.rows()[..((i + 1) * 40).min(edges.len())].to_vec(),
            );
            let want = Expect::exact(&sssp(&Csr::from_relation(&prefix), 1));
            assert!(want.check(&inc.rows()).is_ok(), "batch {i}");
        }
    }

    #[test]
    fn closure_oracles_match_gap_cardinalities() {
        let g = rasql_datagen::rmat(64, rasql_datagen::RmatConfig::default(), 3);
        let tc = transitive_closure(&Csr::from_relation(&g));
        assert_eq!(tc.len(), rasql_gap::transitive_closure_count(&g));
        let tree = rasql_datagen::tree_hierarchy(
            rasql_datagen::TreeConfig {
                target_nodes: 80,
                ..Default::default()
            },
            3,
        );
        let sg = same_generation(&tree.assbl);
        assert_eq!(sg.len(), rasql_gap::same_generation_count(&tree.assbl));
    }
}
