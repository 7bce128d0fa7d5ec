//! Deterministic crashpoint injection for the durability layer.
//!
//! The WAL and snapshot writers call [`CrashInjector::fire`] at every
//! write/fsync/rename boundary (a *crash site*). When the injector decides a
//! site fires, the writer abandons the operation mid-way — leaving the same
//! on-disk bytes a process death at that boundary would — and surfaces
//! [`StorageError::InjectedCrash`](crate::StorageError). The recovery soak
//! (`reproduce crash-soak`) then reopens the data directory and asserts the
//! recovered state is prefix-consistent.
//!
//! Two modes, mirroring `exec::fault`'s seeded discipline:
//!
//! * **Enumerated** (`at=K`): the K-th crash site hit during the workload
//!   fires, everything before it proceeds normally. Running K from 0 to the
//!   total site count (learned from a counting pass) kills at *every*
//!   boundary exactly once — exhaustive, deterministic, seed-free.
//! * **Probabilistic** (`prob=P,seed=S`): each site hit fires with
//!   probability P under a splitmix64 draw keyed by (site, hit index, seed) —
//!   the same pure-function construction `exec::fault` uses, so a failing
//!   soak reproduces from its printed spec alone.
//!
//! The injector is cheap and lock-free (one atomic counter); a disarmed
//! injector ([`CrashInjector::none`]) is a handful of relaxed loads.

use crate::hasher::splitmix64;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable names of every crash site the durability layer enumerates, in the
/// order a write path visits them. The soak iterates this list to label its
/// kill legs; the injector itself treats sites as opaque strings.
pub const CRASH_SITES: &[&str] = &[
    "wal-append-pre",
    "wal-append-torn",
    "wal-append-post",
    "snapshot-temp-pre",
    "snapshot-temp-torn",
    "snapshot-temp-written",
    "snapshot-renamed",
    "snapshot-truncated",
];

/// Parsed crashpoint specification (`at=K` or `prob=P,seed=S`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Fire exactly at this 0-based crash-site hit index.
    pub kill_at: Option<u64>,
    /// Per-site-hit firing probability (0 disables the probabilistic mode).
    pub prob: f64,
    /// Seed of the probabilistic draw.
    pub seed: u64,
}

impl CrashSpec {
    /// A spec that fires at the `k`-th crash-site hit.
    pub fn at(k: u64) -> Self {
        CrashSpec {
            kill_at: Some(k),
            prob: 0.0,
            seed: 0,
        }
    }

    /// Parse `key=value` pairs: `at=K`, `prob=P`, `seed=S`.
    ///
    /// # Errors
    /// A human-readable message on an unknown key or malformed number.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = CrashSpec {
            kill_at: None,
            prob: 0.0,
            seed: 0,
        };
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("crash spec '{part}' is not key=value"))?;
            match key.trim() {
                "at" => {
                    spec.kill_at = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|e| format!("crash spec at={value}: {e}"))?,
                    );
                }
                "prob" => {
                    spec.prob = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("crash spec prob={value}: {e}"))?;
                }
                "seed" => {
                    spec.seed = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("crash spec seed={value}: {e}"))?;
                }
                other => return Err(format!("unknown crash spec key '{other}'")),
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for CrashSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kill_at {
            Some(k) => write!(f, "at={k}"),
            None => write!(f, "prob={},seed={}", self.prob, self.seed),
        }
    }
}

/// The shared crashpoint decider; cloned handles observe one hit counter, so
/// the WAL and snapshot writers of a context enumerate one global sequence.
#[derive(Debug, Clone)]
pub struct CrashInjector {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    spec: Option<CrashSpec>,
    hits: AtomicU64,
}

impl CrashInjector {
    /// An armed injector.
    pub fn new(spec: CrashSpec) -> Self {
        CrashInjector {
            inner: Arc::new(Inner {
                spec: Some(spec),
                hits: AtomicU64::new(0),
            }),
        }
    }

    /// A disarmed injector: counts nothing, never fires.
    pub fn none() -> Self {
        CrashInjector {
            inner: Arc::new(Inner {
                spec: None,
                hits: AtomicU64::new(0),
            }),
        }
    }

    /// Whether the injector is armed at all (disarmed handles skip even the
    /// hit counting, so production writes stay branch-cheap).
    pub fn armed(&self) -> bool {
        self.inner.spec.is_some()
    }

    /// Record arrival at `site` and decide whether the simulated process
    /// death happens here. Pure in the enumerated mode; pure given
    /// (site, hit index, seed) in the probabilistic mode.
    pub fn fire(&self, site: &str) -> bool {
        let Some(spec) = &self.inner.spec else {
            return false;
        };
        let idx = self.inner.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(k) = spec.kill_at {
            return idx == k;
        }
        if spec.prob <= 0.0 {
            return false;
        }
        draw(site, idx, spec.seed) < spec.prob
    }

    /// Crash sites hit so far — after a disarm-free counting run, the total
    /// number of boundaries the workload visits (the enumeration bound the
    /// soak kills at one by one).
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }
}

/// The same splitmix64-finalized uniform draw `exec::fault` uses, keyed by
/// the site name's bytes instead of stage/task ids.
fn draw(site: &str, idx: u64, seed: u64) -> f64 {
    let mut salt = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        salt = (salt ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut h = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(salt | 1));
    h = splitmix64(h ^ idx.wrapping_mul(0xd134_2543_de82_ef95));
    h = splitmix64(h ^ salt);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_round_trips() {
        for s in ["at=7", "prob=0.25,seed=11"] {
            let spec = CrashSpec::parse(s).expect(s);
            assert_eq!(spec.to_string(), s);
        }
        assert!(CrashSpec::parse("at=x").is_err());
        assert!(CrashSpec::parse("bogus=1").is_err());
        assert!(CrashSpec::parse("at").is_err());
    }

    #[test]
    fn enumerated_mode_fires_exactly_once() {
        let inj = CrashInjector::new(CrashSpec::at(2));
        let fired: Vec<bool> = (0..5).map(|_| inj.fire("wal-append-pre")).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(inj.hits(), 5);
    }

    #[test]
    fn counting_run_never_fires() {
        let inj = CrashInjector::new(CrashSpec {
            kill_at: None,
            prob: 0.0,
            seed: 0,
        });
        for site in CRASH_SITES {
            assert!(!inj.fire(site));
        }
        assert_eq!(inj.hits(), CRASH_SITES.len() as u64);
    }

    #[test]
    fn probabilistic_mode_is_deterministic_and_seed_sensitive() {
        let a: Vec<bool> = {
            let inj = CrashInjector::new(CrashSpec {
                kill_at: None,
                prob: 0.5,
                seed: 7,
            });
            (0..64).map(|_| inj.fire("wal-append-post")).collect()
        };
        let b: Vec<bool> = {
            let inj = CrashInjector::new(CrashSpec {
                kill_at: None,
                prob: 0.5,
                seed: 7,
            });
            (0..64).map(|_| inj.fire("wal-append-post")).collect()
        };
        assert_eq!(a, b, "same spec must reproduce the same kills");
        let c: Vec<bool> = {
            let inj = CrashInjector::new(CrashSpec {
                kill_at: None,
                prob: 0.5,
                seed: 8,
            });
            (0..64).map(|_| inj.fire("wal-append-post")).collect()
        };
        assert_ne!(a, c, "a different seed must change the schedule");
        let fired = a.iter().filter(|f| **f).count();
        assert!((10..=54).contains(&fired), "rate wildly off: {fired}/64");
    }

    #[test]
    fn disarmed_injector_counts_nothing() {
        let inj = CrashInjector::none();
        assert!(!inj.armed());
        assert!(!inj.fire("wal-append-pre"));
        assert_eq!(inj.hits(), 0);
    }
}
