//! The typed event stream: one versioned header plus per-round schedule-level facts.
//!
//! The taxonomy is declared once, in the `events!` table below: each row names a
//! kind's variant, its `"k"` tag, the coarsest granularity that keeps it and its
//! fields in key order. Rows are in canonical rank order. The codec, the diff and
//! the sink filter all read the table; nothing else spells out a kind's format.

use crate::codec::{quote, Cursor, Field};

/// Version of the canonical encoding. Bump on any wire-visible change so recorded
/// logs from older binaries fail loudly instead of diffing confusingly.
pub const TRACE_VERSION: u32 = 1;

/// A closed set of names: the enum, `as_str`, `parse` and its codec [`Field`] (the
/// name as a JSON string).
macro_rules! tags {
    ($(#[$meta:meta])* $name:ident, $what:literal {
        $($(#[$attr:meta])* $variant:ident = $tag:literal),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$attr])* $variant),+
        }

        impl $name {
            /// Canonical name (the on-disk and scenario-TOML value).
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($name::$variant => $tag),+
                }
            }

            /// Parse a canonical name back.
            pub fn parse(s: &str) -> Result<Self, String> {
                match s {
                    $($tag => Ok($name::$variant),)+
                    other => Err(format!(
                        "unknown {} `{other}` (expected {})",
                        $what,
                        [$(concat!("`", $tag, "`")),+].join(" or ")
                    )),
                }
            }
        }

        impl Field for $name {
            fn write(&self, out: &mut String) {
                quote(self.as_str(), out);
            }

            fn read(cur: &mut Cursor) -> Result<Self, String> {
                Self::parse(&String::read(cur)?)
            }
        }
    };
}

tags! {
    /// How much of the stream a sink keeps.
    ///
    /// * `Full` keeps every event.
    /// * `Rounds` keeps only the structural skeleton — header, membership changes and
    ///   per-round decisions — dropping fault edges, rejoin pulls, signal values and
    ///   regime switches. Useful when only the sync schedule matters.
    #[derive(Default)]
    TraceGranularity, "trace granularity" {
        #[default]
        Full = "full",
        Rounds = "rounds",
    }
}

tags! {
    /// Which fault family a window edge belongs to (crashes are covered by membership
    /// events, not window edges).
    FaultKind, "fault kind" {
        Slowdown = "slowdown",
        Bandwidth = "bandwidth",
        Latency = "latency",
    }
}

tags! {
    /// Whether a fault window opened or closed at this round.
    WindowEdge, "window edge" {
        Open = "open",
        Close = "close",
    }
}

tags! {
    /// Which rejoin-pull semantics produced a global-model pull. Writers emit only
    /// `scheduled`; `wall-clock` still decodes, for logs recorded when a rejoin could
    /// read whatever the parameter server held at that moment.
    PullKind, "pull kind" {
        WallClock = "wall-clock",
        Scheduled = "scheduled",
    }
}

/// A field's on-disk key: its name, unless the table renames it.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event taxonomy. Each row is `Variant = "k" tag, granularity { fields }`:
/// the granularity is the coarsest [`TraceGranularity`] whose sink keeps the kind,
/// and the fields are in on-disk key order (`field as "key"` where the key differs
/// from the field name). A row's position is its rank: within a round, events sort
/// in row order.
macro_rules! events {
    ($(#[$meta:meta])* pub enum Event {
        $($(#[$attr:meta])* $variant:ident = $tag:literal, $keep:ident {
            $($field:ident $(as $key:literal)?: $ty:ty),+ $(,)?
        }),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$attr])* $variant { $($field: $ty),+ }),+
        }

        /// Every kind's `"k"` tag, in rank order.
        const KINDS: &[&str] = &[$($tag),+];

        /// The variants without payload; a discriminant is a rank.
        enum Rank {
            $($variant),+
        }

        impl Event {
            /// Canonical kind tag (the `"k"` field of the encoded line).
            pub fn kind(&self) -> &'static str {
                KINDS[usize::from(self.kind_rank())]
            }

            /// Fixed within-round ordering of kinds in the canonical form.
            fn kind_rank(&self) -> u8 {
                match self {
                    $(Event::$variant { .. } => Rank::$variant as u8),+
                }
            }

            /// The coarsest granularity whose sink keeps this kind.
            pub(crate) fn granularity(&self) -> TraceGranularity {
                match self {
                    $(Event::$variant { .. } => TraceGranularity::$keep),+
                }
            }

            /// Visit the payload in key order (the `"k"` tag excluded).
            pub(crate) fn visit_fields(&self, mut visit: impl FnMut(&'static str, &dyn Field)) {
                match self {
                    $(Event::$variant { $($field),+ } => {
                        $(visit(key!($field $($key)?), $field);)+
                    })+
                }
            }

            /// Read the payload of a `tag` event, field by field in key order.
            pub(crate) fn read_fields(tag: &str, cur: &mut Cursor) -> Result<Event, String> {
                Ok(match tag {
                    $($tag => Event::$variant {
                        $($field: cur.field(key!($field $($key)?))?),+
                    },)+
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }
        }
    };
}

events! {
    /// One line of the canonical log. All fields are schedule-level facts both
    /// backends can compute identically; nothing here depends on wall clocks or
    /// thread timing.
    pub enum Event {
        /// First line of every log: run identity.
        Header = "header", Rounds {
            version: u32,
            algorithm: String,
            policy: String,
            workers: usize,
            iterations: usize,
            seed: u64,
        },
        /// Active-set change at `round`: who is computing this round, who joined since
        /// the previous active round, who left. Emitted for the first active round and
        /// whenever the set changes (covers crashes, rejoins and elastic churn).
        Membership = "membership", Rounds {
            round: usize,
            active: Vec<usize>,
            joined: Vec<usize>,
            left: Vec<usize>,
        },
        /// A non-crash fault window opened or closed between the previous active round
        /// and this one. `worker` is set for per-worker faults (slowdowns).
        FaultWindow = "fault", Full {
            round: usize,
            kind as "fault": FaultKind,
            edge: WindowEdge,
            worker: Option<usize>,
        },
        /// A rejoining worker pulled a global model. `from` is the sync round whose
        /// global it received (`None` for the initial model, or in an older log for a
        /// wall-clock pull, whose source was timing-dependent).
        RejoinPull = "rejoin", Full {
            round: usize,
            worker: usize,
            pull: PullKind,
            from: Option<usize>,
        },
        /// Cluster-aggregated round signal (only emitted for signal-consuming policies,
        /// which are the only arms that exchange these values in the cluster driver).
        Signal = "signal", Full {
            round: usize,
            mean_loss: f32,
            max_delta: f32,
        },
        /// The round's synchronization decision: the δ the policy chose, each present
        /// worker's sync wish (in active-set order), and whether the cluster synced.
        Round = "round", Rounds {
            round: usize,
            delta: f32,
            flags: Vec<bool>,
            synced: bool,
        },
        /// The adaptive policy switched regimes after observing this round's signal.
        /// `exploit` is the regime switched *to*; the EWMA fields are the detector
        /// state that triggered the switch.
        RegimeSwitch = "switch", Full {
            round: usize,
            exploit: bool,
            loss_ewma: f32,
            delta_ewma: f32,
            mean_loss: f32,
            max_delta: f32,
        },
        /// A worker's comm exchanges at this round needed more than one attempt under
        /// the seeded `[comm_faults]` schedule. `attempts` is the per-op attempt count
        /// (all of a worker's ops in one round share the same link weather, hence the
        /// same count).
        CommRetry = "comm_retry", Full {
            round: usize,
            worker: usize,
            attempts: u32,
        },
        /// A worker exhausted its retry budget at this round and was evicted from the
        /// cluster membership — the comm-fault analogue of a scheduled crash with no
        /// rejoin.
        CommEvict = "comm_evict", Full {
            round: usize,
            worker: usize,
        },
        /// The parameter server became unreachable at this round (the first round of a
        /// `[ps_faults]` outage window or brownout).
        PsDown = "ps_down", Full {
            round: usize,
        },
        /// The parameter server came back at this round (the first reachable round
        /// after an outage) — this round runs the catch-up sync.
        PsUp = "ps_up", Full {
            round: usize,
        },
        /// A degraded, forced-local round while the PS was down: no sync decision was
        /// possible, every present worker trained locally. Replaces the `Round` event
        /// for that round; `delta` is the δ the policy would have used, `loss`/`delta_g`
        /// are the local signal fed to the policy so regime state stays coherent.
        DegradedRound = "degraded_round", Rounds {
            round: usize,
            delta: f32,
            loss: f32,
            delta_g: f32,
        },
        /// The first sync after a PS outage: synchronization is forced for every present
        /// worker, reconciling the `behind` accumulated local-only rounds through the
        /// elastic aggregation machinery.
        CatchupSync = "catchup_sync", Full {
            round: usize,
            behind: usize,
        },
    }
}

impl Event {
    /// The round this event belongs to (`None` for the header).
    pub fn round(&self) -> Option<usize> {
        match self {
            Event::Header { .. } => None,
            Event::Membership { round, .. }
            | Event::FaultWindow { round, .. }
            | Event::RejoinPull { round, .. }
            | Event::Signal { round, .. }
            | Event::Round { round, .. }
            | Event::RegimeSwitch { round, .. }
            | Event::CommRetry { round, .. }
            | Event::CommEvict { round, .. }
            | Event::PsDown { round }
            | Event::PsUp { round }
            | Event::DegradedRound { round, .. }
            | Event::CatchupSync { round, .. } => Some(*round),
        }
    }

    /// Total order of the canonical form: header first, then rounds ascending, then
    /// kind, then worker (so concurrent per-worker events sort deterministically).
    /// Events that tie on this key are emitted by a single logical thread in a fixed
    /// order, so a *stable* sort keeps the canonical form unique.
    pub fn sort_key(&self) -> (usize, u8, usize) {
        let round_key = self.round().map_or(0, |r| r + 1);
        let worker_key = match self {
            Event::FaultWindow { worker, .. } => worker.map_or(0, |w| w + 1),
            Event::RejoinPull { worker, .. }
            | Event::CommRetry { worker, .. }
            | Event::CommEvict { worker, .. } => *worker + 1,
            _ => 0,
        };
        (round_key, self.kind_rank(), worker_key)
    }

    /// The payload as ordered `(key, value)` pairs, each value rendered exactly as
    /// it is on disk — the substrate of the field-level diff explanation.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let mut fields = Vec::new();
        self.visit_fields(|key, value| {
            let mut rendered = String::new();
            value.write(&mut rendered);
            fields.push((key, rendered));
        });
        fields
    }
}

/// A full event log: the header plus the round events, in canonical order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventLog {
    pub events: Vec<Event>,
}

impl EventLog {
    /// Stable-sort into the canonical order (see [`Event::sort_key`]).
    pub fn canonical_sort(&mut self) {
        self.events.sort_by_key(Event::sort_key);
    }

    /// Encode to the canonical line-oriented JSON form (one event per line,
    /// trailing newline, no timestamps).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&crate::codec::encode_event(event));
            out.push('\n');
        }
        out
    }

    /// Decode a canonical log. Blank lines are rejected: a truncated or hand-edited
    /// log should fail loudly, not silently shrink.
    pub fn decode(text: &str) -> Result<EventLog, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let event =
                crate::codec::decode_event(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(event);
        }
        Ok(EventLog { events })
    }

    /// The header event, if present.
    pub fn header(&self) -> Option<&Event> {
        self.events
            .first()
            .filter(|e| matches!(e, Event::Header { .. }))
    }

    /// Merge per-process trace shards into one canonical log.
    ///
    /// The multi-process backend records each event in exactly one process (the
    /// hub owns the header and the policy's regime switches, the lowest-ranked
    /// present worker owns a round's structural events, each worker owns its own
    /// retry/eviction/rejoin events), so concatenating the shards and applying
    /// the canonical `(round, kind, worker)` sort reproduces the byte-identical
    /// log a single-process run of the same schedule emits.
    pub fn merge(shards: impl IntoIterator<Item = EventLog>) -> EventLog {
        let mut merged = EventLog {
            events: shards.into_iter().flat_map(|s| s.events).collect(),
        };
        merged.canonical_sort();
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_orders_header_first_then_round_kind_worker() {
        let mut log = EventLog {
            events: vec![
                Event::Round {
                    round: 1,
                    delta: 0.1,
                    flags: vec![true],
                    synced: true,
                },
                Event::RejoinPull {
                    round: 1,
                    worker: 3,
                    pull: PullKind::Scheduled,
                    from: Some(0),
                },
                Event::RejoinPull {
                    round: 1,
                    worker: 1,
                    pull: PullKind::Scheduled,
                    from: Some(0),
                },
                Event::Membership {
                    round: 0,
                    active: vec![0, 1],
                    joined: vec![0, 1],
                    left: vec![],
                },
                Event::Header {
                    version: TRACE_VERSION,
                    algorithm: "SelSync(d=0.1,PA)".into(),
                    policy: "d=0.1".into(),
                    workers: 4,
                    iterations: 2,
                    seed: 42,
                },
            ],
        };
        log.canonical_sort();
        let kinds: Vec<&str> = log.events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            vec!["header", "membership", "rejoin", "rejoin", "round"]
        );
        // Worker order breaks the rejoin tie.
        assert!(matches!(log.events[2], Event::RejoinPull { worker: 1, .. }));
        assert!(matches!(log.events[3], Event::RejoinPull { worker: 3, .. }));
    }

    #[test]
    fn docs_taxonomy_lists_every_kind_in_rank_order() {
        let doc = include_str!("../../../docs/EVENT_LOG.md");
        let table = doc
            .split("## Event taxonomy")
            .nth(1)
            .expect("taxonomy section");
        let kinds: Vec<&str> = table
            .lines()
            .skip_while(|line| !line.starts_with("|---"))
            .skip(1)
            .take_while(|line| line.starts_with('|'))
            .map(|line| line.split('|').nth(1).unwrap().trim().trim_matches('`'))
            .collect();
        assert_eq!(kinds, KINDS);
    }

    #[test]
    fn granularity_and_tag_enums_round_trip_their_names() {
        for g in [TraceGranularity::Full, TraceGranularity::Rounds] {
            assert_eq!(TraceGranularity::parse(g.as_str()), Ok(g));
        }
        for k in [
            FaultKind::Slowdown,
            FaultKind::Bandwidth,
            FaultKind::Latency,
        ] {
            assert_eq!(FaultKind::parse(k.as_str()), Ok(k));
        }
        for e in [WindowEdge::Open, WindowEdge::Close] {
            assert_eq!(WindowEdge::parse(e.as_str()), Ok(e));
        }
        for p in [PullKind::WallClock, PullKind::Scheduled] {
            assert_eq!(PullKind::parse(p.as_str()), Ok(p));
        }
        assert_eq!(
            TraceGranularity::parse("verbose"),
            Err("unknown trace granularity `verbose` (expected `full` or `rounds`)".into())
        );
    }
}
