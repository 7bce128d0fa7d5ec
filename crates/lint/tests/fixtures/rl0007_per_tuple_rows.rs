// Fixture: trips RL0007. Linted under the virtual path of a module of the
// borrowed-tuple path (`crates/exec/src/pipeline.rs`: `for_each`, `push`,
// `join`; `crates/core/src/fixpoint.rs`: `push`, `push_row`,
// `merge_into_state`).
impl Pipeline {
    fn push(&self, row: &Row, out: &mut Vec<Row>) {
        let key = row.values().to_vec();
        for m in self.table.probe(&key) {
            out.push(row.concat(m));
        }
    }

    fn join(&self, tuple: &[Value]) -> Row {
        Row::new(tuple.iter().cloned().collect())
    }
}

impl Merge<'_> {
    fn push_row(&mut self, tuple: &[Value]) {
        if self.state.insert_slice(tuple, self.round) {
            // lint: allow(RL0007, fixture: the delta's copy of a tuple the state found new)
            self.delta.push(Row::from_slice(tuple));
        }
    }
}

// Not a per-tuple function of either module: rows are its job.
fn run_unfused(input: &[Row]) -> Vec<Row> {
    input.iter().map(|r| r.concat(r)).collect()
}

#[cfg(test)]
mod tests {
    fn push(row: &Row) -> Row {
        Row::new(row.values().to_vec())
    }
}
