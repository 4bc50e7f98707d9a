//! # selsync-comm
//!
//! Communication substrate for the SelSync reproduction.
//!
//! The paper's system runs 16 GPU workers and one parameter-server process connected by
//! a 5 Gbps NIC, using PyTorch RPC. Here the *control flow* is executed for real between
//! OS threads inside one process, and the *duration* of each transfer is supplied by an
//! analytical cost model:
//!
//! * [`ps`] — an in-memory parameter server holding the flat global parameter vector,
//!   with blocking synchronous aggregation rounds (SelSync's push-then-pull).
//! * [`collective`] — round-keyed collectives: the 1-bit-per-worker `all-gather` used
//!   by SelSync's synchronization-status exchange (Alg. 1, line 12) and a scalar
//!   all-reduce.
//! * [`netmodel`] — the analytical network cost model (bandwidth, latency, PS incast,
//!   ring all-reduce) that converts nominal transfer sizes into simulated seconds. All
//!   throughput/speedup numbers in the benchmark harness come from this model, with the
//!   same accounting applied to every algorithm.
//! * [`rounds`] — the round-keyed elastic rendezvous skeleton under the parameter
//!   server's aggregation rounds, the collectives and the driver's signal and
//!   checkpoint rounds: contributions are keyed by worker id and combined in worker
//!   order, so deterministic combines stay deterministic under any thread scheduling.
//! * [`cluster`] — a small harness for running a closure on `N` worker threads and
//!   collecting the per-worker results.
//! * [`wire`] — serialized, length-prefixed wire messages: every comm op is an
//!   [`wire::Envelope`] with kind/round/sender ids and a checksum, deduped by its
//!   `(kind, round, sender)` identity.
//! * [`transport`] — the pluggable [`transport::Transport`] seam: a lossless
//!   in-memory transport preserving today's behavior bit-for-bit, a fault-injecting
//!   decorator, and the retry/timeout/eviction [`transport::MessageLayer`] on top.
//! * [`faults`] — the deterministic per-link fault schedule (`[comm_faults]`):
//!   drop/duplicate/corrupt/delay weather as a pure hash of
//!   `(seed, worker, round, attempt, leg)`, plus retry budget and backoff.
//! * [`socket`] — a real OS-socket transport (Unix domain sockets by default, TCP by
//!   address) behind the same [`transport::Transport`] seam, plus the hub-side frame
//!   server and blocking RPC channel the multi-process backend runs on.

pub mod cluster;
pub mod collective;
pub mod faults;
pub mod netmodel;
pub mod ps;
pub mod rounds;
pub mod socket;
pub mod transport;
pub mod wire;

pub use collective::{Collective, ScalarOp};
pub use faults::{CommFaultSchedule, CommFaultSpec, PsFaultSchedule, PsFaultSpec};
pub use netmodel::NetworkModel;
pub use ps::ParameterServer;
pub use socket::{HubClient, HubServer, RpcService, SocketAddrSpec, SocketConn, SocketTransport};
pub use transport::{
    Delivery, Evicted, ExchangeOutcome, FaultyTransport, Link, LosslessTransport, MessageLayer,
    PsExchangeError, Transport,
};
pub use wire::{Envelope, EnvelopeId, MsgKind, WireError, HUB_SENDER};
