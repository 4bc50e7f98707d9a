//! # selsync-scenario
//!
//! Declarative, deterministic scenario & fault-injection subsystem for the SelSync
//! reproduction.
//!
//! SelSync's headline claim — skipping low-value synchronizations wins most when the
//! cluster is imperfect — needs imperfect clusters to test against. This crate turns a
//! small TOML file (or a programmatic [`Scenario`]) into a fully reproducible
//! experiment over such a cluster:
//!
//! * [`schema`] — the [`Scenario`] type: workload, topology, per-worker device
//!   heterogeneity, base network, SelSync δ, and a timed fault schedule (transient
//!   stragglers, crash + rejoin, bandwidth degradation, latency spikes). Parses from
//!   and serializes to canonical TOML.
//! * [`toml`] — the offline mini-TOML codec behind the schema (round-trip stable).
//! * `codec` — the walker that runs the schema's key tables to parse, dump and list
//!   every key, rejecting keys, sections and tables no table declares.
//! * [`injector`] — [`FaultInjector`]: the compiled, validated schedule, driven by the
//!   simulated clock; it plugs into the sequential simulator and the threaded driver
//!   through `TrainConfig::conditions`.
//! * [`library`] — the eight built-in scenarios, and [`load`]: a scenario by built-in
//!   name or `.toml` path, as every scenario binary reads its operand.
//! * [`runner`] — runs BSP / SSP / FedAvg / local SGD / SelSync over one scenario with
//!   identical accounting and renders a deterministic comparison report; same scenario
//!   + same seed ⇒ byte-identical text, so recorded seeds become regression tests.
//! * [`sweep`] — expands a scenario's `[sweep]` block (δ grid × seed set × policy
//!   arms, including the Sync-Switch-style adaptive-δ policy) into one SelSync run per
//!   point, fanned across the deterministic worker pool, and aggregates mean ± spread
//!   per arm into a single byte-stable comparison report (text and JSON).
//!
//! ```
//! use selsync_scenario::{library, runner};
//!
//! let mut scenario = library::builtin("transient-straggler").unwrap();
//! scenario.iterations = 12;            // keep the doc-test fast
//! scenario.train_samples = 256;
//! scenario.test_samples = 64;
//! scenario.eval_samples = 64;
//! scenario.eval_every = 6;
//! scenario.workers = 3;
//! scenario.faults.clear();             // straggler window lies beyond 12 iterations
//! let report = runner::run_scenario(&scenario).unwrap();
//! assert_eq!(report.runs.len(), 5);
//! ```

mod codec;
pub mod injector;
pub mod library;
pub mod runner;
pub mod schema;
pub mod sweep;
pub mod toml;

pub use injector::FaultInjector;
pub use library::{all_builtin, builtin, load, BUILTIN_NAMES};
pub use runner::{run_scenario, ScenarioReport};
pub use schema::{FaultSpec, NetworkSpec, Scenario, SweepSpec, TraceSpec, TransportSpec};
pub use sweep::{run_sweep, ArmKind, ArmSummary, SweepReport};
