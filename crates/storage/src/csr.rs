//! CSR (compressed sparse row) edge encoding with dense vertex-id remapping.
//!
//! The specialized fixpoint kernels (paper §7.2/§7.3) broadcast the static
//! edge relation once per query as the "compressed base relation" and then
//! scan deltas against its adjacency lists without materializing intermediate
//! rows. [`CsrGraph`] is that broadcast payload: original (arbitrary) `Int`
//! vertex ids are remapped to dense `u32` ids so aggregate state can live in
//! flat `Vec` slabs, and each vertex's hash partition is precomputed with the
//! same [`hash_partition`] function the generic path uses — the kernel and
//! interpreter therefore route every contribution to the same partition.
//!
//! The build is *fallible by design*: any value that is not the exact type
//! the caller declared (a `Str` vertex id, a `Double` weight in an `Int`
//! column) aborts construction and the engine falls back to the generic
//! interpreter, preserving bit-identical semantics.

use crate::hasher::FxHashMap;
use crate::partition::hash_partition;
use crate::row::Row;
use crate::value::Value;

/// How edge weights are extracted while building a [`CsrGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrWeight {
    /// The kernel needs no weight column (reachability, connected
    /// components, hop counting with a constant increment).
    None,
    /// `i64` weights read from the given edge column; any non-`Int` value
    /// aborts the build.
    Int {
        /// Edge-relation column holding the weight.
        col: usize,
    },
    /// `f64` weights read from the given edge column. When `promote_int` is
    /// true, `Int` values are widened with `as f64` — exactly the promotion
    /// [`Value::add`] performs — otherwise any non-`Double` value aborts the
    /// build (required for `least`-style combiners where the generic path
    /// would return the un-promoted `Int`).
    Float {
        /// Edge-relation column holding the weight.
        col: usize,
        /// Allow `Int` weights, widening them to `f64`.
        promote_int: bool,
    },
}

impl CsrWeight {
    /// The weight the index store keys a graph on: a `Float` weight with
    /// promotion on. Over `Double` weights the graph built without promoting
    /// is the graph built with it, so one entry serves both; a kernel that
    /// does not promote reads [`CsrGraph::widened_int`] to refuse a graph
    /// that did.
    pub fn promoted(self) -> CsrWeight {
        match self {
            CsrWeight::Float { col, .. } => CsrWeight::Float {
                col,
                promote_int: true,
            },
            w => w,
        }
    }
}

/// A static edge relation in CSR form with dense vertex ids.
///
/// Adjacency for dense vertex `v` is `targets[offsets[v]..offsets[v + 1]]`,
/// with the parallel weight slab (when present) indexed identically. All
/// fields are public so the monomorphized kernels can index them directly in
/// their inner loops.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` bounds vertex `v`'s adjacency slice.
    pub offsets: Vec<usize>,
    /// Dense destination ids, grouped by source.
    pub targets: Vec<u32>,
    /// `i64` edge weights parallel to `targets` (empty unless built with
    /// [`CsrWeight::Int`]).
    pub weights_i: Vec<i64>,
    /// `f64` edge weights parallel to `targets` (empty unless built with
    /// [`CsrWeight::Float`]).
    pub weights_f: Vec<f64>,
    /// Original `Int` id for each dense vertex id.
    pub orig: Vec<i64>,
    /// How many vertices the edge rows mention. They own the dense ids below
    /// this; a seed vertex no edge mentions is interned after them, so a
    /// graph with `edge_vertices == vertex_count()` is the graph any seed
    /// list drawn from its own vertices builds.
    pub edge_vertices: usize,
    /// Precomputed hash partition of each vertex's *original* id — identical
    /// to what the generic path computes for a single-column `Int` key.
    pub part_of: Vec<u32>,
    remap: FxHashMap<i64, u32>,
    /// An `Int` weight was widened to `f64` ([`CsrWeight::Float`] with
    /// `promote_int`).
    widened: bool,
}

impl CsrGraph {
    /// Build a CSR graph from edge rows plus extra seed vertices (base-case
    /// keys that may have no outgoing edges). Returns `None` if any vertex
    /// id is not `Value::Int` or a weight violates `weight` — the caller
    /// falls back to the generic interpreter.
    pub fn build(
        edges: &[Row],
        src_col: usize,
        dst_col: usize,
        weight: CsrWeight,
        extra_vertices: impl IntoIterator<Item = i64>,
        partitions: usize,
    ) -> Option<CsrGraph> {
        CsrGraph::default().extended(edges, src_col, dst_col, weight, extra_vertices, partitions)
    }

    /// This graph grown by appended edge rows (and extra seed vertices):
    /// new endpoints are interned after the existing vertices and each
    /// vertex's new edges follow its old ones — field for field the graph
    /// [`CsrGraph::build`] makes of the old rows followed by `delta`, because
    /// `build` interns and scatters in row order. The old adjacency is moved
    /// as typed slices, O(V + E); only `delta` is read as `Value`s. `None`
    /// under `build`'s conditions, and when this graph already holds seed
    /// vertices that new edge endpoints would have to precede.
    pub fn extended(
        &self,
        delta: &[Row],
        src_col: usize,
        dst_col: usize,
        weight: CsrWeight,
        extra_vertices: impl IntoIterator<Item = i64>,
        partitions: usize,
    ) -> Option<CsrGraph> {
        if !delta.is_empty() && self.edge_vertices != self.orig.len() {
            return None;
        }
        // The per-edge vectors are sized once from the edge count. The vertex
        // tables grow: a graph has far fewer vertices than edges, and a hash
        // map sized for the edge count is a sparse table every lookup misses
        // the cache in (measured: 47 vs 35 ns/edge on RMAT-65536).
        let m = delta.len();
        let mut remap = self.remap.clone();
        let mut orig = self.orig.clone();
        let mut intern = |id: i64, orig: &mut Vec<i64>| -> Option<u32> {
            if let Some(&d) = remap.get(&id) {
                return Some(d);
            }
            let d = u32::try_from(orig.len()).ok()?;
            remap.insert(id, d);
            orig.push(id);
            Some(d)
        };

        // Intern every new endpoint (and seed vertex) first so ids are
        // stable, extracting typed (src, dst) pairs and weights, in edge
        // order, as we go.
        let mut ends: Vec<(u32, u32)> = Vec::with_capacity(m);
        let mut edge_w_i: Vec<i64> = Vec::new();
        let mut edge_w_f: Vec<f64> = Vec::new();
        let mut widened = self.widened;
        match weight {
            CsrWeight::None => {}
            CsrWeight::Int { .. } => edge_w_i.reserve_exact(m),
            CsrWeight::Float { .. } => edge_w_f.reserve_exact(m),
        }
        for row in delta {
            let (Value::Int(s), Value::Int(d)) = (row.get(src_col), row.get(dst_col)) else {
                return None;
            };
            let s = intern(*s, &mut orig)?;
            let d = intern(*d, &mut orig)?;
            ends.push((s, d));
            match weight {
                CsrWeight::None => {}
                CsrWeight::Int { col } => match row.get(col) {
                    Value::Int(w) => edge_w_i.push(*w),
                    _ => return None,
                },
                CsrWeight::Float { col, promote_int } => match row.get(col) {
                    Value::Double(w) => edge_w_f.push(*w),
                    #[allow(clippy::cast_precision_loss)]
                    Value::Int(w) if promote_int => {
                        widened = true;
                        edge_w_f.push(*w as f64);
                    }
                    _ => return None,
                },
            }
        }
        let edge_vertices = if m == 0 {
            self.edge_vertices
        } else {
            orig.len()
        };
        for id in extra_vertices {
            intern(id, &mut orig)?;
        }

        // A vertex's slice is its old adjacency followed by its new edges.
        let (n_old, n) = (self.orig.len(), orig.len());
        let old_end = |v: usize| if v < n_old { self.offsets[v + 1] } else { 0 };
        let old_start = |v: usize| if v < n_old { self.offsets[v] } else { 0 };
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in &ends {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v] + old_end(v) - old_start(v);
        }
        let total = self.targets.len() + m;
        let mut targets = vec![0u32; total];
        let mut weights_i = vec![0i64; self.weights_i.len() + edge_w_i.len()];
        let mut weights_f = vec![0f64; self.weights_f.len() + edge_w_f.len()];
        // Each vertex's next free slot: past the old adjacency just moved in.
        let mut cursor = offsets.clone();
        for v in 0..n_old {
            let (from, len) = (self.offsets[v], self.offsets[v + 1] - self.offsets[v]);
            let at = offsets[v];
            targets[at..at + len].copy_from_slice(&self.targets[from..from + len]);
            if !self.weights_i.is_empty() {
                weights_i[at..at + len].copy_from_slice(&self.weights_i[from..from + len]);
            }
            if !self.weights_f.is_empty() {
                weights_f[at..at + len].copy_from_slice(&self.weights_f[from..from + len]);
            }
            cursor[v] = at + len;
        }
        // Scatter each new edge to its source's next free slot.
        for (i, &(s, d)) in ends.iter().enumerate() {
            let at = cursor[s as usize];
            cursor[s as usize] += 1;
            targets[at] = d;
            if let Some(&w) = edge_w_i.get(i) {
                weights_i[at] = w;
            }
            if let Some(&w) = edge_w_f.get(i) {
                weights_f[at] = w;
            }
        }

        let parts = partitions.max(1);
        let mut part_of = self.part_of.clone();
        part_of.extend(orig[n_old..].iter().map(|&id| {
            #[allow(clippy::cast_possible_truncation)]
            let p = hash_partition(&[Value::Int(id)], parts) as u32;
            p
        }));

        Some(CsrGraph {
            offsets,
            targets,
            weights_i,
            weights_f,
            orig,
            edge_vertices,
            part_of,
            remap,
            widened,
        })
    }

    /// Number of (dense) vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.orig.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Dense id of an original vertex id, if the vertex is known.
    #[inline]
    pub fn dense_id(&self, orig_id: i64) -> Option<u32> {
        self.remap.get(&orig_id).copied()
    }

    /// Whether the graph widened an `Int` weight to `f64`: what a graph
    /// built without promotion would have refused.
    #[inline]
    pub fn widened_int(&self) -> bool {
        self.widened
    }

    /// Original id of a dense vertex id.
    #[inline]
    pub fn orig_id(&self, dense: u32) -> i64 {
        self.orig[dense as usize]
    }

    /// Adjacency slice bounds for dense vertex `v`.
    #[inline]
    pub fn adjacency(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Approximate in-memory footprint, charged as the broadcast payload.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * 4
            + self.weights_i.len() * 8
            + self.weights_f.len() * 8
            + self.orig.len() * 8
            + self.part_of.len() * 4
            + self.remap.len() * 12
    }

    /// The graph's in-edges, by a counting sort over its adjacency: O(V + E),
    /// no row read. `None` when the graph has `u32::MAX` edges or more.
    pub fn in_edges(&self) -> Option<InEdges> {
        let n = self.vertex_count();
        let m = u32::try_from(self.edge_count()).ok()?;
        let mut offsets = vec![0u32; n + 1];
        for &d in &self.targets {
            offsets[d as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        debug_assert_eq!(offsets[n], m);
        let mut cursor = offsets[..n].to_vec();
        let mut sources = vec![0u32; m as usize];
        let mut weights_i = vec![0i64; self.weights_i.len()];
        let mut weights_f = vec![0f64; self.weights_f.len()];
        // Sources in ascending order, so each vertex's in-edges come out by
        // source id, a source's parallel edges in adjacency order.
        for u in 0..n {
            #[allow(clippy::cast_possible_truncation)]
            let src = u as u32;
            for e in self.adjacency(src) {
                let d = self.targets[e] as usize;
                let at = cursor[d] as usize;
                cursor[d] += 1;
                sources[at] = src;
                if let Some(&w) = self.weights_i.get(e) {
                    weights_i[at] = w;
                }
                if let Some(&w) = self.weights_f.get(e) {
                    weights_f[at] = w;
                }
            }
        }
        Some(InEdges {
            offsets,
            sources,
            weights_i,
            weights_f,
        })
    }
}

/// A [`CsrGraph`]'s edges grouped by destination: what a pull round gathers
/// over. The in-edges of dense vertex `v` are
/// `sources[offsets[v]..offsets[v + 1]]`, by ascending source id, with the
/// graph's weight slabs (when it has them) laid out in the same order, so a
/// gather reads its weights sequentially. The dense ids are the graph's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InEdges {
    /// `offsets[v]..offsets[v + 1]` bounds vertex `v`'s in-edges.
    pub offsets: Vec<u32>,
    /// Dense source ids, grouped by destination.
    pub sources: Vec<u32>,
    /// `i64` weights parallel to `sources` (empty unless the graph has them).
    pub weights_i: Vec<i64>,
    /// `f64` weights parallel to `sources` (empty unless the graph has them).
    pub weights_f: Vec<f64>,
}

impl InEdges {
    /// Number of vertices the in-edges are laid out for.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.sources.len()
    }

    /// In-edge slice bounds for dense vertex `v`.
    #[inline]
    pub fn incoming(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Approximate in-memory footprint.
    pub fn size_bytes(&self) -> usize {
        (self.offsets.len() + self.sources.len()) * 4
            + self.weights_i.len() * 8
            + self.weights_f.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    fn edge_rows(edges: &[(i64, i64, i64)]) -> Vec<Row> {
        edges.iter().map(|&(s, d, w)| int_row(&[s, d, w])).collect()
    }

    #[test]
    fn builds_adjacency_and_remap() {
        let rows = edge_rows(&[(10, 20, 1), (10, 30, 2), (30, 20, 3)]);
        let g = CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, [], 4).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let v10 = g.dense_id(10).unwrap();
        let adj = g.adjacency(v10);
        assert_eq!(adj.len(), 2);
        let mut out: Vec<(i64, i64)> = adj
            .map(|i| (g.orig_id(g.targets[i]), g.weights_i[i]))
            .collect();
        out.sort_unstable();
        assert_eq!(out, vec![(20, 1), (30, 2)]);
        assert!(g.dense_id(99).is_none());
    }

    #[test]
    fn in_edges_are_the_transpose_by_source() {
        // Parallel edges, a self-loop and a vertex with no in-edge.
        let rows = edge_rows(&[(3, 1, 7), (1, 2, 5), (2, 1, 6), (1, 1, 4), (3, 1, 8)]);
        let g = CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, [9], 2).unwrap();
        let inn = g.in_edges().unwrap();
        assert_eq!((inn.vertex_count(), inn.edge_count()), (4, 5));
        let into = |id: i64| -> Vec<(i64, i64)> {
            let v = g.dense_id(id).unwrap();
            (inn.incoming(v))
                .map(|ie| (g.orig_id(inn.sources[ie]), inn.weights_i[ie]))
                .collect()
        };
        // By source dense id (3 is interned first), parallel edges in order.
        assert_eq!(into(1), vec![(3, 7), (3, 8), (1, 4), (2, 6)]);
        assert_eq!(into(2), vec![(1, 5)]);
        assert!(into(3).is_empty() && into(9).is_empty());
        assert!(inn.weights_f.is_empty());
    }

    #[test]
    fn seeds_isolated_vertices() {
        let rows = edge_rows(&[(1, 2, 0)]);
        let g = CsrGraph::build(&rows, 0, 1, CsrWeight::None, [7, 1], 2).unwrap();
        assert_eq!(g.vertex_count(), 3);
        let v7 = g.dense_id(7).unwrap();
        assert!(g.adjacency(v7).is_empty());
    }

    #[test]
    fn partition_matches_generic_hash() {
        let rows = edge_rows(&[(5, 6, 0), (6, 7, 0)]);
        let g = CsrGraph::build(&rows, 0, 1, CsrWeight::None, [], 8).unwrap();
        for (dense, &id) in g.orig.iter().enumerate() {
            let expect = hash_partition(&[Value::Int(id)], 8);
            assert_eq!(g.part_of[dense] as usize, expect);
        }
    }

    #[test]
    fn rejects_type_violations() {
        let mut rows = edge_rows(&[(1, 2, 3)]);
        rows.push(Row::new(vec![
            Value::str("x"),
            Value::Int(2),
            Value::Int(1),
        ]));
        assert!(CsrGraph::build(&rows, 0, 1, CsrWeight::None, [], 2).is_none());

        let rows = vec![Row::new(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Double(1.5),
        ])];
        assert!(CsrGraph::build(&rows, 0, 1, CsrWeight::Int { col: 2 }, [], 2).is_none());
        // Float weight accepts Double, and Int only when promotion is on.
        assert!(CsrGraph::build(
            &rows,
            0,
            1,
            CsrWeight::Float {
                col: 2,
                promote_int: false
            },
            [],
            2
        )
        .is_some());
        let int_w = edge_rows(&[(1, 2, 3)]);
        assert!(CsrGraph::build(
            &int_w,
            0,
            1,
            CsrWeight::Float {
                col: 2,
                promote_int: false
            },
            [],
            2
        )
        .is_none());
        assert!(CsrGraph::build(
            &int_w,
            0,
            1,
            CsrWeight::Float {
                col: 2,
                promote_int: true
            },
            [],
            2
        )
        .is_some());
    }

    #[test]
    fn a_graph_records_whether_it_widened_an_int_weight() {
        let weight = CsrWeight::Float {
            col: 2,
            promote_int: false,
        }
        .promoted();
        let doubles = vec![Row::new(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Double(1.5),
        ])];
        let g = CsrGraph::build(&doubles, 0, 1, weight, [], 2).unwrap();
        assert!(!g.widened_int());
        // An appended `Int` weight widens the advanced graph, and the flag
        // outlives a seed extension.
        let advanced = g.extended(&edge_rows(&[(2, 3, 4)]), 0, 1, weight, [], 2);
        let advanced = advanced.unwrap().extended(&[], 0, 1, weight, [9], 2);
        assert!(advanced.unwrap().widened_int());
        assert!(!CsrGraph::build(&doubles, 0, 1, CsrWeight::None, [], 2)
            .unwrap()
            .widened_int());
    }
}
