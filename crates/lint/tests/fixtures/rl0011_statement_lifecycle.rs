// Fixture: trips RL0011. Linted under the virtual path of `core::context`;
// each piece of statement bookkeeping has one owner among the lifecycle's
// functions, and no other module is in the rule's scope.
pub struct QueryStats {
    pub elapsed: Duration,
}

impl QueryStats {
    fn zero() -> QueryStats {
        QueryStats::default()
    }
}

impl RaSqlContext {
    fn run_statement(&self) -> QueryResult {
        let clock = Instant::now();
        let stats = QueryStats { elapsed: clock.elapsed() };
        finish(stats)
    }

    fn execute(&self) -> MetricsSnapshot {
        let before = self.cluster.metrics.snapshot();
        self.with_governor(|| self.cluster.metrics.snapshot().since(&before))
    }

    fn eval_context<'e>(&'e self) -> EvalContext<'e> {
        EvalContext { cluster: &self.cluster }
    }

    fn refresh_on_its_own(&self) -> QueryStats {
        let start = std::time::Instant::now();
        let before = self.cluster.metrics.snapshot();
        run(&EvalContext { cluster: &self.cluster });
        let metrics = self.cluster.metrics.snapshot().since(&before);
        QueryStats { elapsed: start.elapsed(), metrics }
    }

    fn deadline(&self) -> Instant {
        // lint: allow(RL0011, fixture: a deadline, not a statement's clock)
        Instant::now() + self.timeout
    }
}

#[cfg(test)]
mod tests {
    fn tests_may_time() {
        let _ = Instant::now();
    }
}
