//! The capture hook the training drivers write into.
//!
//! A [`TraceSink`] is a cheap-clone handle: disabled by default (a `None` check per
//! `record`, no allocation, no locking), or capturing into a shared buffer. Clones
//! share the buffer, which is how one sink threads through a `TrainConfig` into a
//! driver and its simulator — but it also means two *runs* must never share one
//! sink: give each run a fresh `TraceSink::capture(..)` and `take_log()` after.

use std::sync::{Arc, Mutex};

use crate::event::{Event, EventLog, TraceGranularity};

/// A shared, thread-safe event buffer — or nothing at all.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

#[derive(Debug)]
struct SinkInner {
    granularity: TraceGranularity,
    events: Mutex<Vec<Event>>,
}

impl TraceSink {
    /// The no-op sink (what `TrainConfig` carries by default).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A capturing sink. Events flow into a shared buffer until [`take_log`].
    ///
    /// [`take_log`]: TraceSink::take_log
    pub fn capture(granularity: TraceGranularity) -> Self {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                granularity,
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether events are being captured. Drivers gate event *construction* on this
    /// so a disabled sink costs one branch per call site.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when disabled; filtered by granularity).
    pub fn record(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        if inner.granularity == TraceGranularity::Rounds
            && event.granularity() == TraceGranularity::Full
        {
            return;
        }
        inner
            .events
            .lock()
            .expect("trace sink poisoned")
            .push(event);
    }

    /// Drain the buffer into a canonically ordered log. Returns an empty log for a
    /// disabled sink. The buffered events are stable-sorted by `(round, kind,
    /// worker)`, which erases thread interleaving from the cluster driver.
    pub fn take_log(&self) -> EventLog {
        let mut log = EventLog {
            events: match &self.inner {
                Some(inner) => {
                    std::mem::take(&mut *inner.events.lock().expect("trace sink poisoned"))
                }
                None => Vec::new(),
            },
        };
        log.canonical_sort();
        log
    }

    /// A canonically ordered copy of everything recorded so far, *without*
    /// draining the buffer — the checkpoint writers use this to persist the trace
    /// prefix mid-run while recording continues.
    pub fn snapshot_log(&self) -> EventLog {
        let mut log = EventLog {
            events: match &self.inner {
                Some(inner) => inner.events.lock().expect("trace sink poisoned").clone(),
                None => Vec::new(),
            },
        };
        log.canonical_sort();
        log
    }

    /// Seed the buffer with previously recorded events (a resumed run's trace
    /// prefix). No-op when disabled. The prefix must already be canonically sorted
    /// (checkpoints store it that way); the final stable `take_log` sort then keeps
    /// it byte-identical to an uninterrupted run's log.
    pub fn preload(&self, events: Vec<Event>) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.events.lock().expect("trace sink poisoned");
        assert!(
            buf.is_empty(),
            "preload must run before any event is recorded"
        );
        *buf = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PullKind, TRACE_VERSION};

    #[test]
    fn disabled_sink_records_nothing_and_costs_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(Event::Round {
            round: 0,
            delta: 0.1,
            flags: vec![true],
            synced: true,
        });
        assert!(sink.take_log().events.is_empty());
    }

    #[test]
    fn clones_share_one_buffer_and_take_log_sorts_canonically() {
        let sink = TraceSink::capture(TraceGranularity::Full);
        let clone = sink.clone();
        clone.record(Event::Round {
            round: 1,
            delta: 0.1,
            flags: vec![true],
            synced: true,
        });
        sink.record(Event::Header {
            version: TRACE_VERSION,
            algorithm: "a".into(),
            policy: "p".into(),
            workers: 1,
            iterations: 2,
            seed: 7,
        });
        let log = sink.take_log();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].kind(), "header");
        // The buffer was drained.
        assert!(clone.take_log().events.is_empty());
    }

    #[test]
    fn rounds_granularity_keeps_only_the_structural_skeleton() {
        let sink = TraceSink::capture(TraceGranularity::Rounds);
        sink.record(Event::Membership {
            round: 0,
            active: vec![0],
            joined: vec![0],
            left: vec![],
        });
        sink.record(Event::RejoinPull {
            round: 3,
            worker: 0,
            pull: PullKind::Scheduled,
            from: None,
        });
        sink.record(Event::Signal {
            round: 3,
            mean_loss: 1.0,
            max_delta: 0.5,
        });
        sink.record(Event::Round {
            round: 3,
            delta: 0.1,
            flags: vec![false],
            synced: false,
        });
        let kinds: Vec<&str> = sink.take_log().events.iter().map(Event::kind).collect();
        assert_eq!(kinds, vec!["membership", "round"]);
    }

    #[test]
    fn rounds_granularity_keeps_degraded_rounds() {
        let sink = TraceSink::capture(TraceGranularity::Rounds);
        sink.record(Event::DegradedRound {
            round: 2,
            delta: 0.1,
            loss: 1.0,
            delta_g: 0.2,
        });
        sink.record(Event::PsDown { round: 2 });
        let kinds: Vec<&str> = sink.take_log().events.iter().map(Event::kind).collect();
        assert_eq!(kinds, vec!["degraded_round"]);
    }

    #[test]
    fn snapshot_does_not_drain_and_preload_seeds_the_prefix() {
        let sink = TraceSink::capture(TraceGranularity::Full);
        sink.record(Event::Round {
            round: 0,
            delta: 0.1,
            flags: vec![true],
            synced: true,
        });
        let snap = sink.snapshot_log();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(sink.take_log().events.len(), 1, "snapshot must not drain");

        let resumed = TraceSink::capture(TraceGranularity::Full);
        resumed.preload(snap.events.clone());
        resumed.record(Event::Round {
            round: 1,
            delta: 0.1,
            flags: vec![true],
            synced: false,
        });
        let log = resumed.take_log();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0], snap.events[0]);
    }
}
