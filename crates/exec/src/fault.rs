//! Deterministic fault injection for the cluster simulator.
//!
//! A [`FaultSpec`] gives per-task probabilities for three failure modes —
//! worker kill, straggler delay, and lost shuffle output — plus a seed. The
//! [`FaultInjector`] turns the spec into a *pure function* of
//! `(seed, stage, task, attempt)`: the same seeded run always injects the
//! same faults, so recovery soak tests are exactly reproducible. The decision
//! deliberately ignores which worker the task lands on, so retry placement
//! and blacklisting never perturb the fault schedule.
//!
//! Faults fire at task *receipt*, before the task body runs (a worker
//! crashing as it picks up the task). This models the recoverable failure
//! class for mutable SetRDD-style state: a task that has started merging into
//! a partition cannot be blindly re-run, but one that never started can.

use rasql_storage::splitmix64;
use std::time::Duration;

/// Default straggler delay injected by `delay` faults.
pub const DEFAULT_DELAY_US: u64 = 500;

/// Seeded per-task failure probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a task's worker "crashes" at task receipt.
    pub kill: f64,
    /// Probability a task is delayed (straggler) before running.
    pub delay: f64,
    /// Probability a task's output is "lost in transit" (it must re-run).
    pub loss: f64,
    /// Straggler delay duration, µs.
    pub delay_us: u64,
    /// Seed for the deterministic decision hash.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            kill: 0.0,
            delay: 0.0,
            loss: 0.0,
            delay_us: DEFAULT_DELAY_US,
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// True if any fault has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.kill > 0.0 || self.delay > 0.0 || self.loss > 0.0
    }

    /// Parse a comma- or whitespace-separated `key=value` list, e.g.
    /// `"kill=0.05,delay=0.01,loss=0.02,delay_us=500,seed=42"`. Unknown keys
    /// are an error; probabilities are clamped to `[0, 1]`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for token in s.split([',', ' ']).filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault spec token '{token}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|e| format!("bad probability '{v}': {e}"))
                    .map(|p| p.clamp(0.0, 1.0))
            };
            match key {
                "kill" => spec.kill = prob(value)?,
                "delay" => spec.delay = prob(value)?,
                "loss" => spec.loss = prob(value)?,
                "delay_us" => {
                    spec.delay_us = value
                        .parse::<u64>()
                        .map_err(|e| format!("bad delay_us '{value}': {e}"))?;
                }
                "seed" => {
                    spec.seed = value
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed '{value}': {e}"))?;
                }
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        Ok(spec)
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kill={},delay={},loss={},delay_us={},seed={}",
            self.kill, self.delay, self.loss, self.delay_us, self.seed
        )
    }
}

/// The fate decided for one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Run normally.
    None,
    /// Worker crashes at task receipt; the task must be retried.
    Kill,
    /// The task's output is lost in transit; the task must be retried.
    LoseOutput,
    /// The task runs, but only after a straggler delay.
    Delay(Duration),
}

impl TaskFault {
    /// Short name for metrics/trace labels.
    pub fn name(&self) -> &'static str {
        match self {
            TaskFault::None => "none",
            TaskFault::Kill => "kill",
            TaskFault::LoseOutput => "lost_output",
            TaskFault::Delay(_) => "delay",
        }
    }
}

/// Deterministic per-task fault decisions derived from a [`FaultSpec`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
}

impl FaultInjector {
    /// Build an injector for a spec.
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector { spec }
    }

    /// The spec this injector was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Decide the fate of `(stage, task, attempt)`. Pure: identical inputs
    /// always produce identical decisions, independent of placement/timing.
    pub fn decide(&self, stage: u64, task: u64, attempt: u32) -> TaskFault {
        let u = self.draw(stage, task, attempt, 0);
        if u < self.spec.kill {
            return TaskFault::Kill;
        }
        if u < self.spec.kill + self.spec.loss {
            return TaskFault::LoseOutput;
        }
        if self.spec.delay > 0.0 && self.draw(stage, task, attempt, 1) < self.spec.delay {
            return TaskFault::Delay(Duration::from_micros(self.spec.delay_us));
        }
        TaskFault::None
    }

    /// A uniform draw in `[0, 1)` from the decision hash.
    fn draw(&self, stage: u64, task: u64, attempt: u32, salt: u64) -> f64 {
        let mut h = self
            .spec
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stage.wrapping_add(1)));
        h = splitmix64(h ^ task.wrapping_mul(0xd134_2543_de82_ef95));
        h = splitmix64(h ^ ((attempt as u64) << 32) ^ salt);
        // 53 high bits → an exactly representable double in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let spec = FaultSpec::parse("kill=0.05,delay=0.01,loss=0.02,delay_us=700,seed=42").unwrap();
        assert_eq!(spec.kill, 0.05);
        assert_eq!(spec.delay, 0.01);
        assert_eq!(spec.loss, 0.02);
        assert_eq!(spec.delay_us, 700);
        assert_eq!(spec.seed, 42);
        assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn parse_accepts_spaces_and_clamps() {
        let spec = FaultSpec::parse("kill=2.0 seed=7").unwrap();
        assert_eq!(spec.kill, 1.0);
        assert_eq!(spec.seed, 7);
        assert!(spec.is_active());
        assert!(!FaultSpec::parse("").unwrap().is_active());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_numbers() {
        assert!(FaultSpec::parse("frob=1").is_err());
        assert!(FaultSpec::parse("kill=abc").is_err());
        assert!(FaultSpec::parse("kill").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let spec = FaultSpec {
            kill: 0.3,
            delay: 0.2,
            loss: 0.1,
            ..Default::default()
        };
        let a = FaultInjector::new(FaultSpec { seed: 1, ..spec });
        let b = FaultInjector::new(FaultSpec { seed: 1, ..spec });
        let c = FaultInjector::new(FaultSpec { seed: 2, ..spec });
        let mut diverged = false;
        for stage in 0..20u64 {
            for task in 0..8u64 {
                assert_eq!(a.decide(stage, task, 1), b.decide(stage, task, 1));
                diverged |= a.decide(stage, task, 1) != c.decide(stage, task, 1);
            }
        }
        assert!(diverged, "different seeds should give different schedules");
    }

    #[test]
    fn retry_attempts_see_fresh_decisions() {
        // With kill=0.5 some (stage, task) must flip between attempts;
        // otherwise a killed task could never succeed on retry.
        let inj = FaultInjector::new(FaultSpec {
            kill: 0.5,
            seed: 9,
            ..Default::default()
        });
        let flipped = (0..50u64).any(|t| inj.decide(0, t, 1) != inj.decide(0, t, 2));
        assert!(flipped);
    }

    #[test]
    fn rates_match_probabilities_roughly() {
        let inj = FaultInjector::new(FaultSpec {
            kill: 0.2,
            seed: 123,
            ..Default::default()
        });
        let n = 10_000u64;
        let kills = (0..n)
            .filter(|&t| inj.decide(0, t, 1) == TaskFault::Kill)
            .count() as f64;
        let rate = kills / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "kill rate {rate}");
    }
}
