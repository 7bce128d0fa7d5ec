// Fixture: trips RL0006. Linted under the virtual path of a read-path
// module (`crates/core/src/wire.rs`, `crates/server/src/conn.rs`, ...).
fn to_wire(result: &QueryResult) -> Vec<Row> {
    result.relation.rows().to_vec()
}

fn repartition(rows: &[Row], n: usize) -> Dataset {
    Dataset::round_robin(rows.to_vec(), n)
}

fn stream(result: &QueryResult) {
    for chunk in result.rows.chunks(512) {
        send(Response::RowBatch { rows: chunk.to_vec() });
    }
}

fn delta_suffix(rel: &Relation, old_len: usize) -> Vec<Row> {
    // A chosen part, not the whole buffer: not matched.
    rel.rows()[old_len..].to_vec()
}

fn remote_read(rows: &[Row]) -> Vec<Row> {
    // lint: allow(RL0006, fixture: the copy is the simulated network transfer)
    rows.to_vec()
}

#[cfg(test)]
mod tests {
    fn tests_may_copy(rel: &Relation) -> Vec<Row> {
        rel.rows().to_vec()
    }
}
