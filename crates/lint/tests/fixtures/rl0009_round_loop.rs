// Fixture: trips RL0009. Linted under the virtual path of `core::fixpoint`;
// fn `drive` is the one place the round loop's bookkeeping may live, and no
// other module is in the rule's scope.
impl FixpointExecutor<'_> {
    fn run_own_loop(&self, views: &[ViewRt]) -> Result<u32, EngineError> {
        let sink = self.eval.trace;
        sink.begin_clique(names(views), "semi_naive", "generic");
        let mut round = 0;
        loop {
            round += 1;
            if round > self.config.max_iterations {
                return Err(EngineError::NonTermination {
                    view: views[0].spec.name.clone(),
                    iterations: self.config.max_iterations,
                });
            }
            Metrics::add(&self.cluster.metrics.iterations, 1);
            if self.lost_a_stage() {
                Metrics::add(&self.cluster.metrics.restores, 1);
                continue;
            }
            sink.record_iteration(self.trace_of(round));
        }
    }

    fn drive(&self, s: &mut dyn RoundStep) -> Result<u32, EngineError> {
        // The same bookkeeping, where it belongs.
        self.eval.trace.begin_clique(s.label().0, "mode", "generic");
        Metrics::add(&self.cluster.metrics.iterations, 1);
        Metrics::add(&self.cluster.metrics.restores, 1);
        self.eval.trace.record_iteration(self.trace_of(1));
        Err(EngineError::NonTermination {
            view: String::new(),
            iterations: 0,
        })
    }

    fn local_report(&self) -> EngineError {
        // lint: allow(RL0009, fixture: a worker-side report translated on the driver)
        EngineError::NonTermination {
            view: String::new(),
            iterations: 0,
        }
    }

    fn other_metrics_are_fine(&self) {
        Metrics::add(&self.cluster.metrics.checkpoints, 1);
        let _ = matches!(self.err(), EngineError::Other(_));
    }
}

#[cfg(test)]
mod tests {
    fn tests_may_count(m: &Metrics) {
        Metrics::add(&m.metrics.iterations, 1);
    }
}
