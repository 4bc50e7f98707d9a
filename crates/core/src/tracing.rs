//! Shared trace-emission helpers for the one round loop (`crate::worker::run_group`).
//!
//! The group that emits a round — the whole cluster in the simulator, the
//! lowest-ranked present worker on a cluster backend — feeds the same per-round facts
//! through these helpers, so the structural events (run header, membership changes,
//! fault-window edges) and the round's decision events are identical *by
//! construction*: everything here is a pure function of the config's deterministic
//! schedules and the round's merged signal, never of backend state.

use crate::conditions::{ClusterConditions, FaultEvent};
use crate::config::TrainConfig;
use crate::policy::{DeltaPolicy, RoundSignal};
use selsync_comm::faults::PsFaultSchedule;
use selsync_tracelog::{Event, FaultKind, PullKind, TraceSink, WindowEdge, TRACE_VERSION};

/// Emit the run header. `algorithm` and `policy` are the same labels every backend
/// derives from the config (see [`crate::algorithms::selsync::algorithm_label`] and
/// `PolicySpec::label`), so sim and threaded headers agree byte-for-byte.
pub fn emit_header(sink: &TraceSink, cfg: &TrainConfig, algorithm: &str, policy: &str) {
    if !sink.is_enabled() {
        return;
    }
    sink.record(Event::Header {
        version: TRACE_VERSION,
        algorithm: algorithm.to_string(),
        policy: policy.to_string(),
        workers: cfg.workers,
        iterations: cfg.iterations,
        seed: cfg.seed,
    });
}

/// The previous *active* round before `iteration` (the last earlier round with at
/// least one present worker), if any. Rounds where the whole cluster is absent are
/// skipped by every backend, so consecutive active rounds are the granularity at
/// which membership and fault edges are observable on any backend.
fn previous_active_round(
    conditions: &ClusterConditions,
    workers: usize,
    iteration: usize,
) -> Option<usize> {
    (0..iteration)
        .rev()
        .find(|&p| !conditions.present_workers(workers, p).is_empty())
}

/// Emit the structural events of an active round: the membership change relative to
/// the previous active round (first active round included), and the open/close
/// edges of every non-crash fault window that flipped in between. Crash-driven
/// presence changes surface through the membership event, not as window edges.
pub fn emit_round_context(
    sink: &TraceSink,
    conditions: &ClusterConditions,
    workers: usize,
    iteration: usize,
    present: &[usize],
) {
    if !sink.is_enabled() {
        return;
    }
    let prev_active = previous_active_round(conditions, workers, iteration);
    let prev_present = prev_active
        .map(|p| conditions.present_workers(workers, p))
        .unwrap_or_default();
    let joined: Vec<usize> = present
        .iter()
        .copied()
        .filter(|w| !prev_present.contains(w))
        .collect();
    let left: Vec<usize> = prev_present
        .iter()
        .copied()
        .filter(|w| !present.contains(w))
        .collect();
    if !joined.is_empty() || !left.is_empty() {
        sink.record(Event::Membership {
            round: iteration,
            active: present.to_vec(),
            joined,
            left,
        });
    }
    for fault in &conditions.faults {
        let (kind, worker, start, duration) = match *fault {
            FaultEvent::Slowdown {
                worker,
                start,
                duration,
                ..
            } => (FaultKind::Slowdown, Some(worker), start, duration),
            FaultEvent::BandwidthDegradation {
                start, duration, ..
            } => (FaultKind::Bandwidth, None, start, duration),
            FaultEvent::LatencySpike {
                start, duration, ..
            } => (FaultKind::Latency, None, start, duration),
            FaultEvent::Crash { .. } => continue,
        };
        let in_window = |it: usize| it >= start && it < start.saturating_add(duration);
        let now = in_window(iteration);
        let before = prev_active.map(&in_window).unwrap_or(false);
        let edge = match (before, now) {
            (false, true) => WindowEdge::Open,
            (true, false) => WindowEdge::Close,
            _ => continue,
        };
        sink.record(Event::FaultWindow {
            round: iteration,
            kind,
            edge,
            worker,
        });
    }
}

/// `worker`'s rejoin pull at `round`, whose source is the last synchronization before
/// the round (`scheduled_from`: what the PS snapshot ring returns).
pub fn emit_rejoin_pull(
    cfg: &TrainConfig,
    round: usize,
    worker: usize,
    scheduled_from: impl FnOnce() -> Option<usize>,
) {
    if !cfg.trace.is_enabled() {
        return;
    }
    cfg.trace.record(Event::RejoinPull {
        round,
        worker,
        pull: PullKind::Scheduled,
        from: scheduled_from(),
    });
}

/// The event of `worker`'s status bit at `round` when its envelope took more than one
/// attempt: one per (worker, round), whoever delivered it.
pub fn comm_retry(sink: &TraceSink, round: usize, worker: usize, attempts: u32) {
    if attempts > 1 {
        sink.record(Event::CommRetry {
            round,
            worker,
            attempts,
        });
    }
}

/// The signal the δ policy observes for a degraded (PS-down) round: no cluster
/// exchange ran, so it is the lowest-ranked present worker's own `loss` and
/// `Δ(g_i)`, never synced — which keeps regime state coherent through the outage.
pub fn degraded_signal(round: usize, loss: f32, delta_g: f32) -> RoundSignal {
    RoundSignal::of(round, [delta_g, loss, delta_g, delta_g * delta_g])
}

/// The events of a degraded (PS-down) round with the [`degraded_signal`] `signal`:
/// the `ps_down` edge when the outage starts here and `DegradedRound` in place of
/// `Round`.
pub fn degraded_round(
    sink: &TraceSink,
    ps_schedule: Option<&PsFaultSchedule>,
    signal: &RoundSignal,
    delta: f32,
) {
    if !sink.is_enabled() {
        return;
    }
    let round = signal.iteration;
    if ps_schedule.is_some_and(|s| s.outage_starts(round as u64)) {
        sink.record(Event::PsDown { round });
    }
    sink.record(Event::DegradedRound {
        round,
        delta,
        loss: signal.mean_loss,
        delta_g: signal.max_delta,
    });
}

/// The decision events of a reachable round: the `ps_up` edge and its catch-up sync
/// when an outage ended here, the cluster `signal` when a signal-consuming policy
/// `exchanged` one, then the round's `delta`, the present workers' status `flags` (in
/// worker order) and the outcome.
pub fn emit_round(
    sink: &TraceSink,
    ps_schedule: Option<&PsFaultSchedule>,
    signal: &RoundSignal,
    exchanged: bool,
    delta: f32,
    flags: impl Iterator<Item = bool>,
) {
    if !sink.is_enabled() {
        return;
    }
    let round = signal.iteration;
    if let Some(schedule) = ps_schedule.filter(|s| s.outage_ends(round as u64)) {
        sink.record(Event::PsUp { round });
        sink.record(Event::CatchupSync {
            round,
            behind: schedule.rounds_behind(round as u64) as usize,
        });
    }
    if exchanged {
        sink.record(Event::Signal {
            round,
            mean_loss: signal.mean_loss,
            max_delta: signal.max_delta,
        });
    }
    sink.record(Event::Round {
        round,
        delta,
        flags: flags.collect(),
        synced: signal.synced,
    });
}

/// The regime switch `policy` made on observing `signal`, if any: the trigger state
/// from the policy plus the observed cluster signals. Call right after
/// [`DeltaPolicy::observe`], while the one-shot switch record is still set.
pub fn regime_switch(sink: &TraceSink, policy: &dyn DeltaPolicy, signal: &RoundSignal) {
    let Some(sw) = policy.last_switch() else {
        return;
    };
    sink.record(Event::RegimeSwitch {
        round: signal.iteration,
        exploit: sw.exploit,
        loss_ewma: sw.loss_ewma,
        delta_ewma: sw.delta_ewma,
        mean_loss: signal.mean_loss,
        max_delta: signal.max_delta,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_tracelog::TraceGranularity;

    fn churn_conditions() -> ClusterConditions {
        ClusterConditions {
            base_speed: vec![],
            faults: vec![
                FaultEvent::Crash {
                    worker: 1,
                    start: 3,
                    rejoin: Some(6),
                },
                FaultEvent::Slowdown {
                    worker: 0,
                    start: 4,
                    duration: 3,
                    factor: 2.0,
                },
                FaultEvent::BandwidthDegradation {
                    start: 6,
                    duration: 2,
                    factor: 0.5,
                },
            ],
        }
    }

    fn events_for(conditions: &ClusterConditions, workers: usize, rounds: usize) -> Vec<Event> {
        let sink = TraceSink::capture(TraceGranularity::Full);
        for it in 0..rounds {
            let present = conditions.present_workers(workers, it);
            if present.is_empty() {
                continue;
            }
            emit_round_context(&sink, conditions, workers, it, &present);
        }
        sink.take_log().events
    }

    #[test]
    fn membership_events_fire_on_first_round_and_every_change() {
        let conditions = churn_conditions();
        let memberships: Vec<Event> = events_for(&conditions, 3, 10)
            .into_iter()
            .filter(|e| matches!(e, Event::Membership { .. }))
            .collect();
        assert_eq!(
            memberships,
            vec![
                Event::Membership {
                    round: 0,
                    active: vec![0, 1, 2],
                    joined: vec![0, 1, 2],
                    left: vec![],
                },
                Event::Membership {
                    round: 3,
                    active: vec![0, 2],
                    joined: vec![],
                    left: vec![1],
                },
                Event::Membership {
                    round: 6,
                    active: vec![0, 1, 2],
                    joined: vec![1],
                    left: vec![],
                },
            ]
        );
    }

    #[test]
    fn fault_window_edges_cover_non_crash_faults_only() {
        let conditions = churn_conditions();
        let edges: Vec<Event> = events_for(&conditions, 3, 10)
            .into_iter()
            .filter(|e| matches!(e, Event::FaultWindow { .. }))
            .collect();
        assert_eq!(
            edges,
            vec![
                Event::FaultWindow {
                    round: 4,
                    kind: FaultKind::Slowdown,
                    edge: WindowEdge::Open,
                    worker: Some(0),
                },
                Event::FaultWindow {
                    round: 6,
                    kind: FaultKind::Bandwidth,
                    edge: WindowEdge::Open,
                    worker: None,
                },
                Event::FaultWindow {
                    round: 7,
                    kind: FaultKind::Slowdown,
                    edge: WindowEdge::Close,
                    worker: Some(0),
                },
                Event::FaultWindow {
                    round: 8,
                    kind: FaultKind::Bandwidth,
                    edge: WindowEdge::Close,
                    worker: None,
                },
            ]
        );
    }

    #[test]
    fn disabled_sink_short_circuits() {
        let sink = TraceSink::disabled();
        emit_round_context(&sink, &churn_conditions(), 3, 0, &[0, 1, 2]);
        assert!(sink.take_log().events.is_empty());
    }
}
