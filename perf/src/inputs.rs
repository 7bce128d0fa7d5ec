//! Generated inputs. Every run works on inputs of one fixed *shape* — the
//! same graph and trees up to isomorphism — whose vertex ids are relabelled
//! by a permutation drawn from `--seed`. The engine sees different values on
//! every seed (nothing can be remembered by value, partitions and hash
//! orders differ) and does the same amount of work, so the spread between
//! seeds measures the program and its host, not the luck of the draw: a
//! freshly drawn RMAT-512 moves the transitive closure's size, and with it
//! every latency of `graph_generic`, by ±15 %.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasql_datagen::{rmat, tree_hierarchy, RmatConfig, TreeConfig, TreeData};
use rasql_storage::{Relation, Row, Value};

/// The seed of every input's shape, and of the structural choices (sources)
/// that decide how much work a statement is.
pub const SHAPE_SEED: u64 = 2019;

/// Fisher-Yates: a uniform shuffle of `items` drawn from `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A permutation of the ids `0..n`.
pub struct Relabel(Vec<usize>);

impl Relabel {
    pub fn new(n: usize, seed: u64) -> Self {
        let mut ids: Vec<usize> = (0..n).collect();
        shuffle(&mut ids, &mut StdRng::seed_from_u64(seed));
        Relabel(ids)
    }

    /// The label of shape vertex `v`.
    pub fn id(&self, v: usize) -> usize {
        self.0[v]
    }

    /// `rel` with the ids in `id_cols` relabelled; row order is kept.
    pub fn relation(&self, rel: &Relation, id_cols: &[usize]) -> Relation {
        let rows = rel
            .rows()
            .iter()
            .map(|r| {
                let mut values = r.values().to_vec();
                for &c in id_cols {
                    let v = values[c].as_int().expect("an integer id column");
                    values[c] = Value::Int(self.id(v as usize) as i64);
                }
                Row::new(values)
            })
            .collect();
        Relation::new_unchecked(rel.schema().clone(), rows)
    }
}

/// The RMAT-`n` graph of the fixed shape (10 edges per vertex, the paper's
/// quadrant probabilities), relabelled from `seed`.
pub fn rmat_graph(n: usize, weighted: bool, seed: u64) -> (Relation, Relabel) {
    let config = RmatConfig {
        weighted,
        ..Default::default()
    };
    let relabel = Relabel::new(n, seed);
    let edges = relabel.relation(&rmat(n, config, SHAPE_SEED), &[0, 1]);
    (edges, relabel)
}

/// The hierarchy of about `nodes` nodes of the fixed shape, relabelled from `seed`.
pub fn hierarchy(nodes: usize, seed: u64) -> TreeData {
    let config = TreeConfig {
        target_nodes: nodes,
        ..Default::default()
    };
    let tree = tree_hierarchy(config, SHAPE_SEED);
    let relabel = Relabel::new(tree.nodes, seed);
    TreeData {
        assbl: relabel.relation(&tree.assbl, &[0, 1]),
        report: relabel.relation(&tree.report, &[0, 1]),
        sponsor: relabel.relation(&tree.sponsor, &[0, 1]),
        basic: relabel.relation(&tree.basic, &[0]),
        sales: relabel.relation(&tree.sales, &[0]),
        ..tree
    }
}

/// The first `count` shape vertices, in a fixed random order, that `keep`
/// accepts — the structural choice of sources, the same for every seed.
pub fn shape_vertices(n: usize, count: usize, mut keep: impl FnMut(usize) -> bool) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let mut taken = vec![false; n];
    let mut out = Vec::new();
    while out.len() < count {
        let v = rng.gen_range(0..n);
        if !taken[v] {
            taken[v] = true;
            if keep(v) {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_give_isomorphic_but_different_graphs() {
        let (a, relabel_a) = rmat_graph(64, true, 1);
        let (b, _) = rmat_graph(64, true, 2);
        let (a_again, _) = rmat_graph(64, true, 1);
        assert_eq!(a.rows(), a_again.rows());
        assert_ne!(a.rows(), b.rows());
        // Same shape: undoing seed 1's labels gives the shape graph itself.
        let shape = rmat(
            64,
            RmatConfig {
                weighted: true,
                ..Default::default()
            },
            SHAPE_SEED,
        );
        let mut inverse = vec![0; 64];
        (0..64).for_each(|v| inverse[relabel_a.id(v)] = v);
        assert_eq!(Relabel(inverse).relation(&a, &[0, 1]).rows(), shape.rows());
    }
}
