//! Cluster-condition model: device heterogeneity and timed fault injection.
//!
//! The paper's argument for selective synchronization is strongest when the cluster is
//! imperfect — stragglers, slow links, heterogeneous devices, workers dropping out —
//! yet each algorithm driver used to hardcode its own notion of imperfection (SSP's
//! inline 1.4× straggler). [`ClusterConditions`] is the single source of truth: a
//! per-worker base speed profile plus a schedule of time-windowed [`FaultEvent`]s,
//! queried by the [`crate::sim::Simulator`] for per-step compute multipliers, per-round
//! network overrides and worker presence. Everything is a pure function of
//! `(worker, iteration)`, so runs stay bit-for-bit deterministic and the threaded
//! driver can evaluate the same schedule without coordination.
//!
//! Declarative scenario files (the `selsync-scenario` crate) compile down to this type.

use selsync_comm::netmodel::NetworkModel;
use serde::{Deserialize, Serialize};

/// One time-windowed cluster fault. Iteration windows are half-open: `start` is the
/// first affected iteration, `start + duration` the first unaffected one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A transient compute slowdown of one worker (a straggler phase): the worker's
    /// step time is multiplied by `factor` (> 1 = slower) during the window.
    Slowdown {
        /// Affected worker.
        worker: usize,
        /// First affected iteration.
        start: usize,
        /// Window length in iterations.
        duration: usize,
        /// Compute-time multiplier applied during the window.
        factor: f64,
    },
    /// The worker crashes at `start` and rejoins at `rejoin` (never, if `None`). While
    /// absent it neither computes nor participates in synchronization; on rejoin it
    /// pulls the current global state from the PS.
    Crash {
        /// Affected worker.
        worker: usize,
        /// First absent iteration.
        start: usize,
        /// First iteration back (absent forever when `None`).
        rejoin: Option<usize>,
    },
    /// Cluster-wide bandwidth degradation: link bandwidth is multiplied by `factor`
    /// (< 1 = degraded) during the window.
    BandwidthDegradation {
        /// First affected iteration.
        start: usize,
        /// Window length in iterations.
        duration: usize,
        /// Bandwidth multiplier applied during the window.
        factor: f64,
    },
    /// Cluster-wide latency spike: `extra_latency_s` is added to the one-way message
    /// latency during the window.
    LatencySpike {
        /// First affected iteration.
        start: usize,
        /// Window length in iterations.
        duration: usize,
        /// Additional one-way latency in seconds.
        extra_latency_s: f64,
    },
}

#[inline]
fn in_window(iter: usize, start: usize, duration: usize) -> bool {
    iter >= start && iter < start.saturating_add(duration)
}

impl FaultEvent {
    /// Human-readable one-line description (used by scenario reports).
    pub fn describe(&self) -> String {
        match self {
            FaultEvent::Slowdown {
                worker,
                start,
                duration,
                factor,
            } => {
                format!(
                    "worker {worker} slows {factor}x during [{start}, {})",
                    start + duration
                )
            }
            FaultEvent::Crash {
                worker,
                start,
                rejoin,
            } => match rejoin {
                Some(r) => format!("worker {worker} crashes at {start}, rejoins at {r}"),
                None => format!("worker {worker} crashes at {start} and never rejoins"),
            },
            FaultEvent::BandwidthDegradation {
                start,
                duration,
                factor,
            } => {
                format!("bandwidth x{factor} during [{start}, {})", start + duration)
            }
            FaultEvent::LatencySpike {
                start,
                duration,
                extra_latency_s,
            } => {
                format!(
                    "latency +{extra_latency_s}s during [{start}, {})",
                    start + duration
                )
            }
        }
    }
}

/// Deterministic description of how the cluster deviates from a perfectly homogeneous,
/// fault-free fleet.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterConditions {
    /// Per-worker base compute-time multipliers indexed by worker id (1.0 = nominal
    /// speed, larger = slower). Workers beyond the vector's length run at 1.0; an empty
    /// vector means a homogeneous fleet.
    pub base_speed: Vec<f64>,
    /// Scheduled faults, applied on top of the base profile.
    pub faults: Vec<FaultEvent>,
}

impl ClusterConditions {
    /// A homogeneous, fault-free cluster (the default).
    pub fn uniform() -> Self {
        ClusterConditions::default()
    }

    /// A heterogeneity profile from explicit per-worker speed multipliers.
    pub fn with_speeds(base_speed: Vec<f64>) -> Self {
        ClusterConditions {
            base_speed,
            faults: Vec::new(),
        }
    }

    /// The mild heterogeneity the paper's SSP discussion assumes: the last worker is a
    /// 1.4× straggler, the others cycle through {1.0, 1.05, 1.1}. Previously hardcoded
    /// inside the SSP driver.
    pub fn paper_straggler(workers: usize) -> Self {
        let base_speed = (0..workers)
            .map(|w| {
                if w + 1 == workers {
                    1.4
                } else {
                    1.0 + 0.05 * (w % 3) as f64
                }
            })
            .collect();
        ClusterConditions::with_speeds(base_speed)
    }

    /// Add a fault to the schedule (builder style).
    pub fn with_fault(mut self, fault: FaultEvent) -> Self {
        self.faults.push(fault);
        self
    }

    /// Add one no-rejoin crash per `(worker, first-absent round)` eviction: a worker
    /// dropped from the cluster for good looks exactly like a scheduled crash.
    pub fn with_evictions(mut self, evictions: &[(usize, usize)]) -> Self {
        for &(worker, start) in evictions {
            self.faults.push(FaultEvent::Crash {
                worker,
                start,
                rejoin: None,
            });
        }
        self
    }

    /// Whether this is a homogeneous, fault-free cluster.
    pub fn is_uniform(&self) -> bool {
        self.faults.is_empty() && self.base_speed.iter().all(|&s| s == 1.0)
    }

    /// Whether any per-worker base speeds are configured.
    pub fn has_heterogeneity(&self) -> bool {
        self.base_speed.iter().any(|&s| s != 1.0)
    }

    /// Compute-time multiplier for `worker` at `iter` (base profile × active slowdowns).
    pub fn compute_multiplier(&self, worker: usize, iter: usize) -> f64 {
        let mut m = self.base_speed.get(worker).copied().unwrap_or(1.0);
        for fault in &self.faults {
            if let FaultEvent::Slowdown {
                worker: w,
                start,
                duration,
                factor,
            } = fault
            {
                if *w == worker && in_window(iter, *start, *duration) {
                    m *= factor;
                }
            }
        }
        m
    }

    /// Whether `worker` is alive at `iter`.
    pub fn is_present(&self, worker: usize, iter: usize) -> bool {
        for fault in &self.faults {
            if let FaultEvent::Crash {
                worker: w,
                start,
                rejoin,
            } = fault
            {
                if *w == worker && iter >= *start && rejoin.is_none_or(|r| iter < r) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether `worker` rejoins at `iter`: present there, absent at the round before.
    pub fn rejoins(&self, worker: usize, iter: usize) -> bool {
        iter > 0 && self.is_present(worker, iter) && !self.is_present(worker, iter - 1)
    }

    /// The alive subset of a `workers`-sized cluster at `iter`, in worker order.
    pub fn present_workers(&self, workers: usize, iter: usize) -> Vec<usize> {
        (0..workers).filter(|&w| self.is_present(w, iter)).collect()
    }

    /// How many of the rounds `0..round` `worker` is present at — the steps it has
    /// taken entering `round`, hence its position in its circular data traversal.
    pub fn rounds_present_before(&self, worker: usize, round: usize) -> usize {
        (0..round).filter(|&r| self.is_present(worker, r)).count()
    }

    /// The training forwards a `workers`-sized cluster issues over the rounds
    /// `0..round`: rounds issue theirs in worker order over the present set, so this
    /// is the canonical global forward counter (the dropout-stream position) entering
    /// `round`.
    pub fn forwards_before(&self, workers: usize, round: usize) -> u64 {
        (0..workers)
            .map(|w| self.rounds_present_before(w, round) as u64)
            .sum()
    }

    /// The first iteration in `from..limit` at which *any* worker of a
    /// `workers`-sized cluster is present (`limit` when none is) — i.e. the next round
    /// that actually trains and therefore produces a δ-policy observation. The
    /// threaded driver's shared policy board uses this to know which round's signals
    /// it must wait for next.
    pub fn next_active_iteration(&self, workers: usize, from: usize, limit: usize) -> usize {
        (from..limit)
            .find(|&it| (0..workers).any(|w| self.is_present(w, it)))
            .unwrap_or(limit)
    }

    /// The network model in effect at `iter` (base model with active degradations and
    /// latency spikes applied).
    pub fn network_at(&self, iter: usize, base: &NetworkModel) -> NetworkModel {
        let mut net = *base;
        for fault in &self.faults {
            match fault {
                FaultEvent::BandwidthDegradation {
                    start,
                    duration,
                    factor,
                } if in_window(iter, *start, *duration) => {
                    net.bandwidth_bps *= factor;
                }
                FaultEvent::LatencySpike {
                    start,
                    duration,
                    extra_latency_s,
                } if in_window(iter, *start, *duration) => {
                    net.latency_s += extra_latency_s;
                }
                _ => {}
            }
        }
        net
    }

    /// Largest compute multiplier among the present workers at `iter` — the factor by
    /// which the slowest live device stretches a synchronous round (1.0 if nobody is
    /// present).
    pub fn slowest_present_multiplier(&self, workers: usize, iter: usize) -> f64 {
        (0..workers)
            .filter(|&w| self.is_present(w, iter))
            .map(|w| self.compute_multiplier(w, iter))
            .fold(1.0f64, f64::max)
    }

    /// Validate the schedule against a cluster of `workers` workers and a run of
    /// `iterations` iterations: worker ids in range, factors/durations positive, and at
    /// least one worker alive at every iteration.
    pub fn validate(&self, workers: usize, iterations: usize) -> Result<(), String> {
        if self.base_speed.len() > workers {
            return Err(format!(
                "heterogeneity profile describes {} workers but the cluster has {workers}",
                self.base_speed.len()
            ));
        }
        if let Some(s) = self
            .base_speed
            .iter()
            .find(|&&s| s <= 0.0 || !s.is_finite())
        {
            return Err(format!(
                "base speed multipliers must be positive and finite, got {s}"
            ));
        }
        for fault in &self.faults {
            match fault {
                FaultEvent::Slowdown {
                    worker,
                    duration,
                    factor,
                    ..
                } => {
                    if *worker >= workers {
                        return Err(format!("slowdown names worker {worker} of {workers}"));
                    }
                    if *duration == 0 || *factor <= 0.0 || !factor.is_finite() {
                        return Err("slowdown needs duration > 0 and a positive factor".into());
                    }
                }
                FaultEvent::Crash {
                    worker,
                    start,
                    rejoin,
                } => {
                    if *worker >= workers {
                        return Err(format!("crash names worker {worker} of {workers}"));
                    }
                    if let Some(r) = rejoin {
                        if r <= start {
                            return Err(format!("crash rejoin {r} must be after start {start}"));
                        }
                    }
                }
                FaultEvent::BandwidthDegradation {
                    duration, factor, ..
                } => {
                    if *duration == 0 || *factor <= 0.0 || !factor.is_finite() {
                        return Err("bandwidth degradation needs duration > 0, factor > 0".into());
                    }
                }
                FaultEvent::LatencySpike {
                    duration,
                    extra_latency_s,
                    ..
                } => {
                    if *duration == 0 || *extra_latency_s < 0.0 || !extra_latency_s.is_finite() {
                        return Err("latency spike needs duration > 0, extra latency >= 0".into());
                    }
                }
            }
        }
        for iter in 0..iterations {
            if (0..workers).all(|w| !self.is_present(w, iter)) {
                return Err(format!("no worker is present at iteration {iter}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_conditions_are_transparent() {
        let c = ClusterConditions::uniform();
        assert!(c.is_uniform());
        assert_eq!(c.compute_multiplier(3, 100), 1.0);
        assert!(c.is_present(3, 100));
        assert_eq!(c.present_workers(4, 0), vec![0, 1, 2, 3]);
        let net = NetworkModel::paper_5gbps();
        assert_eq!(c.network_at(50, &net), net);
        assert!(c.validate(4, 1000).is_ok());
    }

    #[test]
    fn paper_straggler_matches_the_old_ssp_speeds() {
        let c = ClusterConditions::paper_straggler(4);
        assert_eq!(c.base_speed, vec![1.0, 1.05, 1.1, 1.4]);
        assert!(c.has_heterogeneity());
        assert!(!c.is_uniform());
    }

    #[test]
    fn slowdown_applies_only_inside_its_window() {
        let c = ClusterConditions::uniform().with_fault(FaultEvent::Slowdown {
            worker: 1,
            start: 10,
            duration: 5,
            factor: 3.0,
        });
        assert_eq!(c.compute_multiplier(1, 9), 1.0);
        assert_eq!(c.compute_multiplier(1, 10), 3.0);
        assert_eq!(c.compute_multiplier(1, 14), 3.0);
        assert_eq!(c.compute_multiplier(1, 15), 1.0);
        assert_eq!(c.compute_multiplier(0, 12), 1.0, "other workers unaffected");
        assert_eq!(c.slowest_present_multiplier(3, 12), 3.0);
    }

    #[test]
    fn slowdowns_compose_with_base_speed() {
        let c = ClusterConditions::with_speeds(vec![1.0, 1.4]).with_fault(FaultEvent::Slowdown {
            worker: 1,
            start: 0,
            duration: 10,
            factor: 2.0,
        });
        assert!((c.compute_multiplier(1, 5) - 2.8).abs() < 1e-12);
    }

    #[test]
    fn crash_and_rejoin_windows() {
        let c = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 20,
            rejoin: Some(30),
        });
        assert!(c.is_present(2, 19));
        assert!(!c.is_present(2, 20));
        assert!(!c.is_present(2, 29));
        assert!(c.is_present(2, 30));
        assert_eq!(c.present_workers(4, 25), vec![0, 1, 3]);
        let rejoins: Vec<usize> = (0..100).filter(|&it| c.rejoins(2, it)).collect();
        assert_eq!(rejoins, [30]);
        assert!(
            !c.rejoins(1, 30),
            "a worker that never left does not rejoin"
        );

        let forever = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 0,
            start: 5,
            rejoin: None,
        });
        assert!(!forever.is_present(0, 1_000_000));
    }

    #[test]
    fn network_overrides_stack_inside_windows() {
        let base = NetworkModel::paper_5gbps();
        let c = ClusterConditions::uniform()
            .with_fault(FaultEvent::BandwidthDegradation {
                start: 0,
                duration: 10,
                factor: 0.5,
            })
            .with_fault(FaultEvent::LatencySpike {
                start: 5,
                duration: 10,
                extra_latency_s: 0.01,
            });
        let at3 = c.network_at(3, &base);
        assert_eq!(at3.bandwidth_bps, base.bandwidth_bps * 0.5);
        assert_eq!(at3.latency_s, base.latency_s);
        let at7 = c.network_at(7, &base);
        assert_eq!(at7.bandwidth_bps, base.bandwidth_bps * 0.5);
        assert!((at7.latency_s - (base.latency_s + 0.01)).abs() < 1e-12);
        let at12 = c.network_at(12, &base);
        assert_eq!(at12.bandwidth_bps, base.bandwidth_bps);
        // Degraded network makes every synchronization slower.
        assert!(at3.ps_sync_time(1 << 20, 4) > base.ps_sync_time(1 << 20, 4));
    }

    #[test]
    fn validation_catches_bad_schedules() {
        assert!(ClusterConditions::with_speeds(vec![1.0; 8])
            .validate(4, 10)
            .is_err());
        assert!(ClusterConditions::with_speeds(vec![-1.0])
            .validate(4, 10)
            .is_err());
        let bad_worker = ClusterConditions::uniform().with_fault(FaultEvent::Slowdown {
            worker: 9,
            start: 0,
            duration: 1,
            factor: 2.0,
        });
        assert!(bad_worker.validate(4, 10).is_err());
        let bad_rejoin = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 0,
            start: 5,
            rejoin: Some(5),
        });
        assert!(bad_rejoin.validate(4, 10).is_err());
        // All workers dead at once is rejected.
        let all_dead = ClusterConditions::uniform()
            .with_fault(FaultEvent::Crash {
                worker: 0,
                start: 3,
                rejoin: Some(6),
            })
            .with_fault(FaultEvent::Crash {
                worker: 1,
                start: 4,
                rejoin: Some(7),
            });
        assert!(all_dead.validate(2, 10).is_err());
        assert!(all_dead.validate(3, 10).is_ok());
    }

    #[test]
    fn next_active_iteration_skips_fully_crashed_windows() {
        // Both workers of a 2-cluster are absent during [3, 6): the next active
        // iteration seen from anywhere inside the window is 6.
        let c = ClusterConditions::uniform()
            .with_fault(FaultEvent::Crash {
                worker: 0,
                start: 3,
                rejoin: Some(6),
            })
            .with_fault(FaultEvent::Crash {
                worker: 1,
                start: 3,
                rejoin: Some(6),
            });
        assert_eq!(c.next_active_iteration(2, 0, 10), 0);
        assert_eq!(c.next_active_iteration(2, 3, 10), 6);
        assert_eq!(c.next_active_iteration(2, 5, 10), 6);
        assert_eq!(c.next_active_iteration(2, 6, 10), 6);
        // Nothing active before the limit ⇒ the limit itself.
        assert_eq!(c.next_active_iteration(2, 4, 5), 5);
        // A wider cluster keeps worker 2 alive through the window.
        assert_eq!(c.next_active_iteration(3, 3, 10), 3);
    }

    #[test]
    fn describe_is_stable() {
        let f = FaultEvent::Slowdown {
            worker: 1,
            start: 10,
            duration: 5,
            factor: 2.5,
        };
        assert_eq!(f.describe(), "worker 1 slows 2.5x during [10, 15)");
        let c = FaultEvent::Crash {
            worker: 0,
            start: 3,
            rejoin: None,
        };
        assert_eq!(c.describe(), "worker 0 crashes at 3 and never rejoins");
    }
}
