// Fixture: trips RL0007. Linted under the virtual path of a module of the
// borrowed-tuple path (`crates/exec/src/pipeline.rs`: `for_each`, `join`,
// `emit`; `crates/exec/src/kernel.rs`: `edge_walk`, `edge_gather`;
// `crates/core/src/fixpoint/`:
// `io.rs`'s `push_block`, `state.rs`'s `assemble`, `dense.rs`'s `push_seed`
// and `graph_seeds`, and every function of `merge.rs`).
impl Pipeline {
    fn join(&self, row: &Row, out: &mut Vec<Row>) {
        let key = row.values().to_vec();
        for m in self.table.probe(&key) {
            out.push(row.concat(m));
        }
    }

    fn emit(&self, tuple: &[Value]) -> Row {
        Row::new(tuple.iter().cloned().collect())
    }
}

impl Merge<'_> {
    fn push_block(&mut self, block: &[Value], arity: usize) {
        for tuple in block.chunks(arity) {
            self.pending.push(Row::from_slice(tuple));
        }
    }

    fn assemble(&mut self, tuple: &[Value]) {
        if self.state.insert_slice(tuple, self.round) {
            // lint: allow(RL0007, fixture: the delta's copy of a tuple the state found new)
            self.delta.push(Row::from_slice(tuple));
        }
    }
}

impl SeedFold {
    fn push_seed(&mut self, tuple: &[Value]) {
        self.rows.push(Row::from_slice(tuple));
    }
}

fn graph_seeds(g: &CsrGraph, part: usize) -> Vec<Row> {
    (0..g.edge_vertices)
        .filter(|&d| g.part_of[d] as usize == part)
        .map(|d| Row::new(vec![Value::Int(g.orig_id(d as u32))]))
        .collect()
}

fn edge_walk(csr: &CsrGraph, delta: &[(u32, i64)], out: &mut Vec<Row>) {
    for &(v, val) in delta {
        for e in csr.adjacency(v) {
            out.push(Row::new(vec![Value::Int(csr.orig_id(csr.targets[e])), Value::Int(val)]));
        }
    }
}

fn edge_gather(inn: &InEdges, owned: &[u32], out: &mut Vec<Row>) {
    for &v in owned {
        for ie in inn.incoming(v) {
            out.push(Row::new(vec![Value::Int(i64::from(inn.sources[ie]))]));
        }
    }
}

// Not a per-tuple function of any module: rows are its job.
fn run_unfused(input: &[Row]) -> Vec<Row> {
    input.iter().map(|r| r.concat(r)).collect()
}

#[cfg(test)]
mod tests {
    fn push(row: &Row) -> Row {
        Row::new(row.values().to_vec())
    }
}
