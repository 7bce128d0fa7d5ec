// Fixture: trips RL0010. Linted under the virtual path of a module of the
// word-lane tuple path (`crates/exec/src/pipeline.rs`: `run_block`,
// `select`, `filter`, `join`, `emit`, `apply`; `crates/exec/src/tuples.rs`:
// `intern`, `intern_block`, `probe`, ...; `crates/exec/src/state.rs`:
// `insert_slice`, `insert_block`, `merge_block`, ...;
// `crates/plan/src/expr.rs`: `eval_cells`; `crates/exec/src/kernel.rs`:
// `edge_walk`, `edge_gather`; `crates/core/src/fixpoint/`:
// `io.rs`'s `run_branch`, `run_blocks`, `input`, `emit_block`, `push_block`,
// `state.rs`'s `assemble`, `dense.rs`'s `graph_seeds` and every function of
// `merge.rs`).
impl<C: Cell> Pipeline<C> {
    fn join(&self, s: &mut Scratch<C>) {
        let key = Value::Int(s.tuple[1] as i64);
        for m in self.table.probe(&[key.clone()]) {
            s.out.push(Row::from_slice(m.values()));
        }
    }

    fn emit(&self, tuple: &[C], out: &mut Vec<C>) {
        // lint: allow(RL0010, fixture: a cell, a word copy on the word path)
        out.extend(self.cols.iter().map(|&c| tuple[c].clone()));
    }
}

impl WordExpr {
    fn eval_cells(&self, t: &[u64]) -> Result<u64, Escaped> {
        let v = Value::Double(f64::from_bits(t[0]));
        Ok(self.lane.encode(&v)?)
    }
}

impl<C: Cell> SetState<C> {
    fn insert_slice(&mut self, tuple: &[C], round: u32) -> bool {
        self.rows.insert(Row::new(tuple.to_vec()), round)
    }
}

impl<C: Cell> Merge<C> {
    fn push_block(&mut self, block: Block<'_, C>) {
        let one = Value::Int(1);
        for t in block.iter() {
            self.rows.push(Row::from_slice(&[one.clone()]));
        }
    }

    fn gather(&self, tuple: &[C], out: &mut Vec<C>) {
        // lint: allow(RL0010, fixture: a cell, a word copy on the word path)
        out.extend(self.cols.iter().map(|&c| tuple[c].clone()));
    }
}

fn edge_walk(csr: &CsrGraph, delta: &[u32], out: &mut Vec<u32>) {
    for &v in delta {
        out.extend(csr.adjacency(v).map(|e| csr.targets[e]));
    }
}

fn edge_gather(inn: &InEdges, owned: &[u32], seen: &[bool], out: &mut Vec<Value>) {
    for &v in owned {
        if inn.incoming(v).any(|ie| seen[inn.sources[ie] as usize]) {
            out.push(Value::Int(i64::from(v)));
        }
    }
}

fn graph_seeds(g: &CsrGraph, part: usize) -> Vec<(u32, Value)> {
    (0..g.edge_vertices as u32)
        .filter(|&d| g.part_of[d as usize] as usize == part)
        .map(|d| (d, Value::Int(g.orig_id(d))))
        .collect()
}

// The cold edge builds rows by definition, and `eval_vals` works on values.
fn to_rows(tuples: &Tuples<u64>) -> Vec<Row> {
    tuples.iter().map(|t| Row::new(vec![Value::Int(t[0] as i64)])).collect()
}

fn eval_vals(e: &PExpr, row: &[Value]) -> Value {
    row[0].clone()
}

#[cfg(test)]
mod tests {
    fn push(v: &Value) -> Value {
        Value::Int(1).clone()
    }
}
