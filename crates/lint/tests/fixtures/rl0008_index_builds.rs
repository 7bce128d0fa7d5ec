// Fixture: trips RL0008. Linted under the virtual path of a `rasql-core`
// module; `crates/core/src/index.rs` itself, and every other crate, is out
// of the rule's scope.
fn compile_branch(rel: &Relation, build_keys: &[usize], p: usize) -> Vec<Arc<HashTable>> {
    let parts = rasql_storage::partition_rows(rel.rows().to_vec(), build_keys, p);
    parts
        .into_iter()
        .map(|rows| Arc::new(HashTable::build(&rows, build_keys)))
        .collect()
}

fn kernel_graph(edges: &Relation, p: usize) -> Option<CsrGraph> {
    CsrGraph::build(edges.rows(), 0, 1, CsrWeight::None, [], p)
}

fn through_the_store(eval: &EvalContext<'_>, plan: &LogicalPlan) -> Option<Index> {
    // Not a build: the store's feeder is asked.
    eval.fetch_index(plan, &[0], IndexLayout::Hash { partitions: 2 }, true).ok()?
}

fn broadcast(rel: &Relation, keys: &[usize]) -> HashTable {
    // lint: allow(RL0008, fixture: the broadcast models the network and is shipped per query)
    HashTable::build(rel.rows(), keys)
}

fn packed_snapshot(shape: WordShape, tuples: &Tuples<u64>) -> Result<WordTable, Escaped> {
    WordTable::from_tuples(shape, tuples.kinds(), tuples.iter())
}

fn packed_index(rows: &[Row], shape: &WordShape) -> Result<WordIndex, Escaped> {
    // Not a constructor the rule knows: `WordTable::probe` builds nothing.
    let _ = WordTable::probe;
    WordIndex::build(rows, shape, 2)
}

#[cfg(test)]
mod tests {
    fn tests_may_build(rows: &[Row]) -> HashTable {
        HashTable::build(rows, &[0])
    }
}
