//! Length-prefixed socket transport between OS processes (UDS default, TCP via
//! address config) — the multi-process backend's wire.
//!
//! The process model is a star: one **hub** process owns the parameter server,
//! the collective and the shared policy board; every **worker** process holds
//! exactly one stream connection to it. Two kinds of traffic ride the same
//! connection, both as ordinary [`Envelope`] frames reassembled by the
//! incremental [`FrameDecoder`] (a read may return half a frame or three):
//!
//! * **Transport echo** — [`SocketTransport`] implements [`Transport`] over the
//!   hub's verbatim echo. The hub treats every non-[`MsgKind::Rpc`] frame
//!   statelessly: what arrives is written back byte for byte. A delivered leg
//!   is owed to the connection and rides ahead of the next RPC, in the same
//!   write; that call reads each echo back and asserts it is byte-equal to the
//!   leg before it reads its own reply. So the legs of the existing
//!   [`crate::MessageLayer`] cross the real socket without a round trip of
//!   their own, and its semantics do not change — dedupe, retry and
//!   acknowledgement logic stay where they are, and the
//!   [`crate::FaultyTransport`] decorator composes over this transport
//!   unchanged (dropped legs never touch the wire, corrupted legs flip a byte
//!   of the delivered copy).
//! * **RPC** — [`HubClient`] sends an [`MsgKind::Rpc`] envelope and blocks for
//!   the reply. The hub dispatches the payload to its [`RpcService`] (pull,
//!   sync-round rendezvous, all-reduces, policy-board calls). Blocking
//!   rendezvous ops work naturally: each connection is served by its own hub
//!   thread, so one worker waiting inside a collective does not stall the
//!   others.
//!
//! Workers are single-threaded and strictly lockstep per connection (write the
//! owed legs and one request, read their echoes and one reply), so no
//! request/response correlation ids are needed.
//!
//! **Data plane.** Going out, a frame is laid down once in the connection's
//! reused [`FrameBuf`] — header, op tag, scalars and the `&[f32]` body —
//! checksummed and written, behind any owed legs, in one vectored write. Coming
//! in, the stream is read straight into the [`FrameDecoder`]'s reassembly
//! buffer, validated in place ([`EnvelopeRef::parse`]) and lent to the consumer
//! ([`RpcService::handle_into`] on the hub, the `reply` closure of
//! [`HubClient::call`] on a worker), which decodes the `f32`s into a buffer of
//! its own. This layer therefore adds no copy of its own; what the consumers do
//! with the payload is theirs to keep cheap. The bulk sync round does: the hub
//! decodes into a contribution buffer the parameter server recycles and encodes
//! its reply from the one mean every participant shares, and a worker decodes
//! into a mean buffer it keeps.

use crate::transport::{Delivery, Link, Transport};
use crate::wire::{EnvelopeRef, FrameBuf, FrameDecoder, MsgKind, WireError, HUB_SENDER};
use parking_lot::Mutex;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the hub listens: a Unix domain socket path (the default for local
/// multi-process clusters) or a TCP `host:port` address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketAddrSpec {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP socket at this `host:port`.
    Tcp(String),
}

impl SocketAddrSpec {
    /// Parse a CLI-style address: anything containing `:` is TCP, everything
    /// else is a UDS path.
    pub fn parse(text: &str) -> Self {
        if text.contains(':') {
            SocketAddrSpec::Tcp(text.to_string())
        } else {
            SocketAddrSpec::Unix(PathBuf::from(text))
        }
    }
}

impl std::fmt::Display for SocketAddrSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketAddrSpec::Unix(path) => write!(f, "{}", path.display()),
            SocketAddrSpec::Tcp(addr) => write!(f, "{addr}"),
        }
    }
}

/// The hub-side service RPC payloads dispatch to. Implemented by the driver
/// crate (the hub process wraps its parameter server, collective and policy
/// board); the transport layer only moves the bytes.
pub trait RpcService: Send + Sync {
    /// Handle one request from `worker` at logical `round`; the returned bytes
    /// travel back as the reply payload. May block (rendezvous ops do).
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8>;

    /// What the hub actually calls: [`handle`](RpcService::handle) with the
    /// reply payload appended to the outgoing frame (`reply.put*`) instead of
    /// returned. Services with bulk replies implement this one and write the
    /// parameter vector straight from its `&[f32]`; the default goes through
    /// `handle`. An `Err` refuses the request: the hub prints it and ends the
    /// connection, as for an undecodable RPC frame.
    fn handle_into(
        &self,
        worker: u32,
        round: u64,
        request: &[u8],
        reply: &mut FrameBuf,
    ) -> Result<(), String> {
        reply.put(&self.handle(worker, round, request));
        Ok(())
    }

    /// The connection identified as `worker` terminated — cleanly (EOF at a
    /// frame boundary) or abruptly (broken pipe, EOF mid-frame, an undecodable
    /// RPC frame, a refused request). Called exactly once per identified
    /// connection, after its last frame was served; the default does nothing.
    /// Services that model worker death as an eviction hook in here.
    fn connection_closed(&self, worker: u32) {
        let _ = worker;
    }
}

fn wire_to_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// One side of a stream connection: the stream, the reassembly buffer its
/// incoming frames are read into, the buffer its outgoing RPC frames are built
/// in and the transport legs owed to the hub, which ride ahead of the next RPC.
struct Conn {
    stream: Box<dyn Stream>,
    decoder: FrameDecoder,
    out: FrameBuf,
    owed: Vec<u8>,
}

impl Conn {
    fn new(stream: Box<dyn Stream>) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: FrameBuf::new(),
            owed: Vec::new(),
        }
    }
}

/// Object-safe Read + Write.
trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

fn write_frame(stream: &mut dyn Stream, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

/// Write `owed` and then `frame` as one vectored write, short writes resumed.
fn write_frames(stream: &mut dyn Stream, owed: &[u8], frame: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(owed), IoSlice::new(frame)];
    let mut rest = &mut slices[..];
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Block until one complete frame is reassembled and lend it out of the
/// decoder. `Ok(None)` on clean EOF at a frame boundary; EOF mid-frame is an
/// error. (A function of the two fields rather than a `Conn` method so the
/// caller can write to the stream — the hub's verbatim echo — while it still
/// holds the frame.)
fn read_frame<'a>(
    stream: &mut dyn Stream,
    decoder: &'a mut FrameDecoder,
) -> std::io::Result<Option<&'a [u8]>> {
    while !decoder.has_frame().map_err(wire_to_io)? {
        if decoder.read_from(stream)? == 0 {
            return match decoder.pending() {
                0 => Ok(None),
                pending => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("stream ended {pending} bytes into a frame"),
                )),
            };
        }
    }
    decoder.next_frame_ref().map_err(wire_to_io)
}

/// A worker's connection to the hub. Cheap to clone handles off
/// ([`SocketConn::transport`], [`SocketConn::client`]); all share the one
/// underlying stream in strict lockstep.
pub struct SocketConn {
    conn: Arc<Mutex<Conn>>,
}

impl SocketConn {
    /// Connect to the hub, retrying until `retry_for` elapses — worker
    /// processes race the hub's bind, so the first connects may refuse.
    /// Retries back off exponentially (2 ms doubling to a 50 ms cap), with
    /// every sleep clamped to the remaining budget so the deadline is never
    /// overshot; on expiry the last OS error is wrapped into the returned
    /// failure instead of being discarded.
    pub fn connect(addr: &SocketAddrSpec, retry_for: Duration) -> std::io::Result<Self> {
        const BACKOFF_CAP: Duration = Duration::from_millis(50);
        let deadline = Instant::now() + retry_for;
        let mut backoff = Duration::from_millis(2);
        loop {
            let attempt: std::io::Result<Box<dyn Stream>> = match addr {
                SocketAddrSpec::Unix(path) => {
                    UnixStream::connect(path).map(|s| Box::new(s) as Box<dyn Stream>)
                }
                SocketAddrSpec::Tcp(addr) => TcpStream::connect(addr).and_then(tcp_stream),
            };
            match attempt {
                Ok(stream) => {
                    return Ok(SocketConn {
                        conn: Arc::new(Mutex::new(Conn::new(stream))),
                    })
                }
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(std::io::Error::new(
                            e.kind(),
                            format!(
                                "connect to {addr} failed after retrying for {retry_for:?}: {e}"
                            ),
                        ));
                    }
                    std::thread::sleep(backoff.min(deadline - now));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
    }

    /// A [`Transport`] that moves every frame through this connection.
    pub fn transport(&self) -> SocketTransport {
        SocketTransport {
            conn: Arc::clone(&self.conn),
        }
    }

    /// An RPC handle for hub-side service calls from worker `worker`.
    pub fn client(&self, worker: u32) -> HubClient {
        HubClient {
            conn: Arc::clone(&self.conn),
            worker,
        }
    }
}

/// [`Transport`] over a hub connection: the frame is owed to the hub and rides
/// ahead of the connection's next RPC, whose call checks the hub's verbatim echo
/// of it. Always exactly one punctual delivery — weather is layered on by
/// composing [`crate::FaultyTransport`] *over* this transport, so fault fates
/// stay pure functions of the link key and never depend on socket timing.
pub struct SocketTransport {
    conn: Arc<Mutex<Conn>>,
}

impl Transport for SocketTransport {
    fn deliver(&self, _link: Link, frame: &[u8]) -> Vec<Delivery> {
        self.conn.lock().owed.extend_from_slice(frame);
        vec![Delivery {
            frame: frame.to_vec(),
            delayed: false,
        }]
    }
}

/// Blocking RPC handle: one request envelope out, one reply envelope in.
pub struct HubClient {
    conn: Arc<Mutex<Conn>>,
    worker: u32,
}

impl HubClient {
    /// Call the hub service and return its reply payload.
    pub fn rpc(&self, round: u64, payload: Vec<u8>) -> Vec<u8> {
        self.call(round, |request| request.put(&payload), <[u8]>::to_vec)
    }

    /// Call the hub service without intermediate buffers: `request` appends
    /// the payload to the outgoing frame (`put` / `put_f32s`), `reply` reads
    /// the validated reply payload where it was received. The transport legs
    /// owed to the hub go out ahead of the request, in the same write, and their
    /// echoes must come back byte for byte before the reply.
    pub fn call<R>(
        &self,
        round: u64,
        request: impl FnOnce(&mut FrameBuf),
        reply: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let mut conn = self.conn.lock();
        let Conn {
            stream,
            decoder,
            out,
            owed,
        } = &mut *conn;
        out.begin(MsgKind::Rpc, round, self.worker);
        request(out);
        write_frames(&mut **stream, owed, out.finish())
            .unwrap_or_else(|e| panic!("rpc write failed (worker {}): {e}", self.worker));
        let mut at = 0;
        while at < owed.len() {
            let echo = read_frame(&mut **stream, decoder)
                .unwrap_or_else(|e| panic!("echo read failed (worker {}): {e}", self.worker))
                .unwrap_or_else(|| {
                    panic!(
                        "hub closed the connection mid-echo (worker {})",
                        self.worker
                    )
                });
            assert!(
                owed.get(at..at + echo.len()) == Some(echo),
                "hub echo of the owed leg at byte {at} differs from what was sent (worker {})",
                self.worker
            );
            at += echo.len();
        }
        owed.clear();
        let frame = read_frame(&mut **stream, decoder)
            .unwrap_or_else(|e| panic!("rpc read failed (worker {}): {e}", self.worker))
            .unwrap_or_else(|| {
                panic!("hub closed the connection mid-rpc (worker {})", self.worker)
            });
        let answer = EnvelopeRef::parse(frame)
            .unwrap_or_else(|e| panic!("rpc reply failed to decode (worker {}): {e}", self.worker));
        assert_eq!(answer.kind, MsgKind::Rpc, "rpc reply kind");
        assert_eq!(answer.round, round, "rpc reply round");
        assert_eq!(answer.sender, HUB_SENDER, "rpc reply sender");
        reply(answer.payload)
    }
}

/// Box a connected TCP stream with Nagle's algorithm off: the protocol is
/// strict request/reply, so a small frame must leave at once instead of
/// waiting for the peer's delayed ACK.
fn tcp_stream(stream: TcpStream) -> std::io::Result<Box<dyn Stream>> {
    stream.set_nodelay(true)?;
    Ok(Box::new(stream))
}

/// The hub process's listener: accepts exactly one connection per worker and
/// serves each on its own thread until the worker hangs up.
pub struct HubServer {
    listener: Listener,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl HubServer {
    /// Bind the listen socket (removing a stale UDS path first).
    pub fn bind(addr: &SocketAddrSpec) -> std::io::Result<Self> {
        let listener = match addr {
            SocketAddrSpec::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Listener::Unix(UnixListener::bind(path)?)
            }
            SocketAddrSpec::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
        };
        Ok(HubServer { listener })
    }

    /// Accept `workers` connections and serve them until every stream reaches
    /// EOF. Non-RPC frames are echoed verbatim; RPC frames are dispatched to
    /// `service` and answered with the reply payload. Returns the first
    /// connection error, after all threads have finished.
    pub fn serve(&self, workers: usize, service: Arc<dyn RpcService>) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let stream: Box<dyn Stream> = match &self.listener {
                    Listener::Unix(l) => Box::new(l.accept()?.0),
                    Listener::Tcp(l) => tcp_stream(l.accept()?.0)?,
                };
                let service = Arc::clone(&service);
                handles.push(scope.spawn(move || serve_connection(stream, service)));
            }
            let mut result = Ok(());
            for handle in handles {
                let outcome = handle.join().expect("hub connection thread panicked");
                if result.is_ok() {
                    result = outcome;
                }
            }
            result
        })
    }
}

/// Byte offset of the sender id inside an encoded frame (the u32 length, the
/// kind byte and the u64 round precede it — see [`crate::wire`]).
const FRAME_SENDER_AT: usize = 4 + 1 + 8;

/// The sender id a frame carries on the wire, if the frame is long enough to
/// hold one. Reliable even under `[comm_faults]` weather: corruption is applied
/// worker-side to the delivered copy, so the bytes the hub *reads* are always
/// the ones the worker's layer sent.
fn frame_sender(frame: &[u8]) -> Option<u32> {
    frame
        .get(FRAME_SENDER_AT..FRAME_SENDER_AT + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

fn serve_connection(
    mut stream: Box<dyn Stream>,
    service: Arc<dyn RpcService>,
) -> std::io::Result<()> {
    let mut decoder = FrameDecoder::new();
    let mut out = FrameBuf::new();
    // The worker behind this connection, learned from the first frame's sender
    // field (of an RPC frame only once it validated). Before identification a
    // failure is a hub-fatal error; after it, any termination — clean EOF,
    // mid-frame EOF, broken pipe, an undecodable RPC frame, a refused request —
    // is a worker death, reported to the service (which models it as a
    // deterministic eviction) instead of tearing the whole cluster down or
    // leaving it waiting.
    let mut worker: Option<u32> = None;
    let ended = |worker: Option<u32>, cause: std::io::Result<()>| match worker {
        Some(w) => {
            service.connection_closed(w);
            Ok(())
        }
        None => cause,
    };
    loop {
        let frame = match read_frame(&mut *stream, &mut decoder) {
            Ok(Some(frame)) => frame,
            Ok(None) => return ended(worker, Ok(())),
            Err(e) => return ended(worker, Err(e)),
        };
        // Only RPC frames are interpreted; everything else — including frames a
        // worker-side fault decorator corrupted — is echoed back untouched. The
        // worker's message layer does the checksum validation, exactly as it
        // does over the in-memory transports.
        let is_rpc = frame.len() > 4 && frame[4] == MsgKind::Rpc.as_u8();
        let reply = if is_rpc {
            let request = match EnvelopeRef::parse(frame) {
                Ok(request) => request,
                Err(e) => return ended(worker, Err(wire_to_io(e))),
            };
            worker.get_or_insert(request.sender);
            out.begin(MsgKind::Rpc, request.round, HUB_SENDER);
            let (sender, round) = (request.sender, request.round);
            if let Err(e) = service.handle_into(sender, round, request.payload, &mut out) {
                eprintln!("hub: refused worker {sender}'s request for round {round}: {e}");
                return ended(worker, Ok(()));
            }
            out.finish()
        } else {
            if worker.is_none() {
                worker = frame_sender(frame);
            }
            frame
        };
        if let Err(e) = write_frame(&mut *stream, reply) {
            return ended(worker, Err(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CommFaultSchedule, CommFaultSpec, Leg};
    use crate::transport::MessageLayer;
    use crate::wire::Envelope;

    /// A service that answers with the request payload reversed.
    struct Reverser;
    impl RpcService for Reverser {
        fn handle(&self, _worker: u32, _round: u64, request: &[u8]) -> Vec<u8> {
            request.iter().rev().copied().collect()
        }
    }

    /// An echo service that records every `connection_closed` call.
    struct Recorder {
        closed: Mutex<Vec<u32>>,
    }
    impl RpcService for Recorder {
        fn handle(&self, _worker: u32, _round: u64, request: &[u8]) -> Vec<u8> {
            request.to_vec()
        }
        fn connection_closed(&self, worker: u32) {
            self.closed.lock().push(worker);
        }
    }

    fn temp_sock(tag: &str) -> SocketAddrSpec {
        SocketAddrSpec::Unix(
            std::env::temp_dir().join(format!("selsync-socket-test-{tag}-{}", std::process::id())),
        )
    }

    fn with_hub<R>(tag: &str, workers: usize, f: impl FnOnce(&SocketAddrSpec) -> R) -> R {
        let addr = temp_sock(tag);
        let server = HubServer::bind(&addr).expect("bind");
        let serving = std::thread::spawn(move || server.serve(workers, Arc::new(Reverser)));
        let out = f(&addr);
        serving.join().unwrap().expect("hub serves cleanly");
        if let SocketAddrSpec::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        out
    }

    #[test]
    fn address_spec_parses_uds_paths_and_tcp_addresses() {
        assert_eq!(
            SocketAddrSpec::parse("/tmp/hub.sock"),
            SocketAddrSpec::Unix(PathBuf::from("/tmp/hub.sock"))
        );
        assert_eq!(
            SocketAddrSpec::parse("127.0.0.1:9044"),
            SocketAddrSpec::Tcp("127.0.0.1:9044".into())
        );
    }

    #[test]
    fn socket_transport_echoes_frames_and_rpc_dispatches() {
        with_hub("echo", 1, |addr| {
            let conn = SocketConn::connect(addr, Duration::from_secs(5)).expect("connect");
            let transport = conn.transport();
            let frame = Envelope {
                kind: MsgKind::Flags,
                round: 3,
                sender: 0,
                payload: vec![1],
            }
            .encode();
            let link = Link {
                worker: 0,
                round: 3,
                attempt: 0,
                leg: Leg::Request,
            };
            let got = transport.deliver(link, &frame);
            assert_eq!(
                got,
                vec![Delivery {
                    frame,
                    delayed: false
                }]
            );
            let client = conn.client(0);
            assert_eq!(client.rpc(4, vec![1, 2, 3]), vec![3, 2, 1]);
        });
    }

    #[test]
    fn message_layer_over_the_socket_matches_lossless_outcomes() {
        with_hub("layer", 1, |addr| {
            let conn = SocketConn::connect(addr, Duration::from_secs(5)).expect("connect");
            let layer = MessageLayer::over(Box::new(conn.transport()), 1);
            for round in 0..8u64 {
                let out = layer
                    .exchange(0, round, MsgKind::Flags, &[1])
                    .expect("socket exchange succeeds");
                assert_eq!(out.attempts, 1);
                assert_eq!(out.duplicates_absorbed, 0);
                assert_eq!(out.corrupt_rejected, 0);
            }
            // Sixteen legs are owed; the call reads back and compares every
            // echo before its own reply.
            assert_eq!(conn.client(0).rpc(8, vec![1, 2]), vec![2, 1]);
        });
    }

    #[test]
    fn faulty_decorator_composes_over_the_socket_with_scheduled_outcomes() {
        // The same weather over the socket must produce the same exchange
        // outcomes as over memory: fates are keyed by the link, not the wire.
        let spec = CommFaultSpec {
            seed: 17,
            drop: 0.25,
            duplicate: 0.15,
            corrupt: 0.15,
            delay: 0.1,
            delay_rounds: 0,
            retry_budget: 4,
            timeout_s: 1e-3,
        };
        let schedule = CommFaultSchedule::new(spec);
        let memory = MessageLayer::faulty(schedule);
        let mut expected = Vec::new();
        for round in 0..24u64 {
            expected.push(memory.exchange(0, round, MsgKind::Flags, &[1]));
        }
        with_hub("faulty", 1, |addr| {
            let conn = SocketConn::connect(addr, Duration::from_secs(5)).expect("connect");
            let layer = MessageLayer::faulty_over(schedule, Box::new(conn.transport()));
            for round in 0..24u64 {
                let got = layer.exchange(0, round, MsgKind::Flags, &[1]);
                assert_eq!(got, expected[round as usize], "round {round}");
            }
            // Every leg the weather did not drop went out on the socket: the
            // call writes them ahead of its request and checks each echo.
            assert_eq!(conn.client(0).rpc(24, vec![1, 2]), vec![2, 1]);
        });
        // A corrupt-fated leg still crosses the socket intact: the decorator
        // flips a byte of the copy it delivers to the layer.
        assert!(
            expected.iter().any(|r| match r {
                Ok(out) => out.corrupt_rejected > 0,
                Err(_) => true,
            }),
            "the drawn weather must exercise the reject path somewhere"
        );
    }

    #[test]
    fn connect_failure_reports_the_os_cause_and_respects_the_deadline() {
        let addr = temp_sock("nobody-listening");
        let retry_for = Duration::from_millis(60);
        let started = Instant::now();
        let err = match SocketConn::connect(&addr, retry_for) {
            Ok(_) => panic!("no hub is bound there, connect must fail"),
            Err(e) => e,
        };
        let elapsed = started.elapsed();
        // Clamped sleeps: the deadline may be exceeded only by the cost of the
        // final connect attempt, not by a whole backoff sleep.
        assert!(
            elapsed < retry_for + Duration::from_millis(200),
            "connect retried past its deadline: {elapsed:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("failed after retrying for"),
            "missing retry context: {msg}"
        );
        assert!(
            msg.contains(&addr.to_string()),
            "missing target address: {msg}"
        );
        // The final OS error must ride along instead of being discarded.
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(
            msg.to_lowercase().contains("no such file"),
            "missing the OS cause: {msg}"
        );
    }

    #[test]
    fn worker_hangup_after_identification_fires_connection_closed_once() {
        let addr = temp_sock("hangup");
        let server = HubServer::bind(&addr).expect("bind");
        let service = Arc::new(Recorder {
            closed: Mutex::new(Vec::new()),
        });
        let svc: Arc<dyn RpcService> = Arc::clone(&service) as _;
        let serving = std::thread::spawn(move || server.serve(3, svc));
        // Two workers identify themselves over one RPC each, then hang up at a
        // frame boundary (the clean-EOF death shape).
        for worker in [7u32, 9] {
            let conn = SocketConn::connect(&addr, Duration::from_secs(5)).expect("connect");
            let client = conn.client(worker);
            assert_eq!(client.rpc(0, vec![worker as u8]), vec![worker as u8]);
        }
        // A third identifies itself, then dies mid-frame: the hub maps the
        // illegal EOF to the same callback instead of a fatal serve error.
        let SocketAddrSpec::Unix(path) = &addr else {
            unreachable!()
        };
        let mut raw = UnixStream::connect(path).expect("raw connect");
        let hello = Envelope {
            kind: MsgKind::Flags,
            round: 0,
            sender: 11,
            payload: vec![0xEE],
        }
        .encode();
        raw.write_all(&hello).expect("raw write");
        let mut echo = vec![0u8; hello.len()];
        raw.read_exact(&mut echo).expect("raw echo");
        assert_eq!(echo, hello);
        raw.write_all(&[1, 2, 3]).expect("partial frame");
        drop(raw);

        serving
            .join()
            .unwrap()
            .expect("hub survives worker hangups");
        let mut closed = service.closed.lock().clone();
        closed.sort_unstable();
        assert_eq!(closed, vec![7, 9, 11]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn undecodable_rpc_frame_from_an_identified_worker_is_a_death_not_a_hang() {
        let addr = temp_sock("bad-rpc");
        let server = HubServer::bind(&addr).expect("bind");
        let service = Arc::new(Recorder {
            closed: Mutex::new(Vec::new()),
        });
        let svc: Arc<dyn RpcService> = Arc::clone(&service) as _;
        let serving = std::thread::spawn(move || server.serve(1, svc));
        let SocketAddrSpec::Unix(path) = &addr else {
            unreachable!()
        };
        let mut raw = UnixStream::connect(path).expect("raw connect");
        let rpc = |round: u64| {
            Envelope {
                kind: MsgKind::Rpc,
                round,
                sender: 5,
                payload: vec![1, 2, 3],
            }
            .encode()
        };
        // One good RPC identifies worker 5 ...
        raw.write_all(&rpc(0)).expect("good frame");
        let mut reply = vec![0u8; rpc(0).len()];
        raw.read_exact(&mut reply).expect("reply");
        assert_eq!(
            Envelope::decode(&reply).expect("reply decodes").payload,
            vec![1, 2, 3]
        );
        // ... then one whose trailer is wrong. The hub must report the death —
        // a round barrier would otherwise wait for worker 5 forever — and hang
        // up, without failing the whole serve.
        let mut bad = rpc(1);
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        raw.write_all(&bad).expect("bad frame");
        assert_eq!(raw.read(&mut [0u8; 1]).expect("hub hangs up"), 0);
        serving
            .join()
            .unwrap()
            .expect("an identified worker's bad frame is not hub-fatal");
        assert_eq!(*service.closed.lock(), vec![5]);
        let _ = std::fs::remove_file(path);
    }

    /// A stream double that moves 1..=7 bytes per call in either direction —
    /// the worst chunking a byte stream may legally produce. It records what
    /// was written, one entry per flush.
    struct Trickle {
        incoming: Vec<u8>,
        read_at: usize,
        calls: usize,
        pending: Vec<u8>,
        flushed: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Trickle {
        fn step(&mut self) -> usize {
            self.calls += 1;
            1 + self.calls * 5 % 7
        }

        /// A connection reading `incoming`; `flushed` collects its writes.
        fn conn(incoming: Vec<u8>, flushed: &Arc<Mutex<Vec<Vec<u8>>>>) -> SocketConn {
            let stream = Trickle {
                incoming,
                read_at: 0,
                calls: 0,
                pending: Vec::new(),
                flushed: Arc::clone(flushed),
            };
            SocketConn {
                conn: Arc::new(Mutex::new(Conn::new(Box::new(stream)))),
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self
                .step()
                .min(buf.len())
                .min(self.incoming.len() - self.read_at);
            buf[..n].copy_from_slice(&self.incoming[self.read_at..self.read_at + n]);
            self.read_at += n;
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.step().min(buf.len());
            self.pending.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed.lock().push(std::mem::take(&mut self.pending));
            Ok(())
        }
    }

    #[test]
    fn frames_survive_seven_byte_reads_short_writes_and_eof_mid_frame_is_an_error() {
        let reply = |round: u64, payload: Vec<u8>| Envelope {
            kind: MsgKind::Rpc,
            round,
            sender: HUB_SENDER,
            payload,
        };
        // What the "hub" will have sent: two replies back to back, the echo of
        // an owed leg and the third reply, then a frame cut off one byte short.
        let echo = Envelope {
            kind: MsgKind::Flags,
            round: 3,
            sender: 2,
            payload: vec![1],
        }
        .encode();
        let mut incoming = reply(1, (0u8..200).collect()).encode();
        incoming.extend(reply(2, vec![]).encode());
        incoming.extend(&echo);
        incoming.extend(reply(3, vec![5, 6]).encode());
        let cut = reply(4, vec![7; 40]).encode();
        incoming.extend(&cut[..cut.len() - 1]);
        let flushed = Arc::new(Mutex::new(Vec::new()));
        let conn = Trickle::conn(incoming, &flushed);
        let client = conn.client(2);
        // Reassembly across many tiny reads; the second reply arrives
        // coalesced behind the first as far as the decoder is concerned.
        let sum = client.call(
            1,
            |request| request.put_f32s(&[1.0, -2.0]),
            |payload| payload.iter().map(|&b| u32::from(b)).sum::<u32>(),
        );
        assert_eq!(sum, (0..200).sum::<u32>());
        assert_eq!(client.rpc(2, vec![9]), Vec::<u8>::new());
        let link = Link {
            worker: 2,
            round: 3,
            attempt: 0,
            leg: Leg::Request,
        };
        // The leg is delivered at once and owed to the hub: nothing is written
        // until the next call, which reads the echo back before its reply.
        assert_eq!(conn.transport().deliver(link, &echo)[0].frame, echo);
        assert_eq!(flushed.lock().len(), 2);
        assert_eq!(client.rpc(3, vec![4]), vec![5, 6]);
        // Short writes lost nothing: one flush per call, the piecewise-built
        // frames are what `Envelope::encode` produces, and the owed leg went
        // out in the third call's write, ahead of its request.
        let request = |round: u64, payload: Vec<u8>| Envelope {
            kind: MsgKind::Rpc,
            round,
            sender: 2,
            payload,
        };
        let floats = [1.0f32.to_le_bytes(), (-2.0f32).to_le_bytes()].concat();
        let third = [echo, request(3, vec![4]).encode()].concat();
        assert_eq!(
            *flushed.lock(),
            vec![
                request(1, floats).encode(),
                request(2, vec![9]).encode(),
                third
            ]
        );
        // The stream ends inside the fifth frame.
        let mut guard = conn.conn.lock();
        let Conn {
            stream, decoder, ..
        } = &mut *guard;
        let err = read_frame(&mut **stream, decoder).expect_err("EOF mid-frame");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(err
            .to_string()
            .contains(&format!("{} bytes into a frame", cut.len() - 1)));
    }

    #[test]
    #[should_panic(expected = "hub echo of the owed leg at byte 0 differs")]
    fn an_echo_that_differs_from_the_owed_leg_fails_the_next_call() {
        let leg = Envelope {
            kind: MsgKind::Flags,
            round: 0,
            sender: 1,
            payload: vec![1],
        }
        .encode();
        // The "hub" flips one byte of the echo; its reply is intact.
        let mut incoming = leg.clone();
        incoming[FRAME_SENDER_AT + 4] ^= 0x01;
        let reply = Envelope {
            kind: MsgKind::Rpc,
            round: 0,
            sender: HUB_SENDER,
            payload: vec![],
        };
        incoming.extend(reply.encode());
        let conn = Trickle::conn(incoming, &Arc::new(Mutex::new(Vec::new())));
        let link = Link {
            worker: 1,
            round: 0,
            attempt: 0,
            leg: Leg::Request,
        };
        conn.transport().deliver(link, &leg);
        conn.client(1).rpc(0, vec![]);
    }

    #[test]
    fn bulk_rpc_round_trips_every_f32_bit_pattern_exactly() {
        use crate::wire::f32s_from_le_bytes;
        /// Answers a parameter vector with the same words in reverse order.
        struct Mirror;
        impl RpcService for Mirror {
            fn handle(&self, _worker: u32, _round: u64, _request: &[u8]) -> Vec<u8> {
                unreachable!("the hub calls handle_into")
            }
            fn handle_into(
                &self,
                _worker: u32,
                _round: u64,
                request: &[u8],
                reply: &mut FrameBuf,
            ) -> Result<(), String> {
                let mut values = f32s_from_le_bytes(request);
                values.reverse();
                reply.put_f32s(&values);
                Ok(())
            }
        }
        // 100 000 words: the special values first, then a bit-pattern sweep that
        // lands on quiet and signalling NaNs with payloads, infinities and
        // subnormals of both signs.
        let mut sent: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFFA5_5A5A),
            f32::from_bits(0x7F80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        sent.extend(
            (sent.len()..100_000).map(|i| f32::from_bits((i as u32).wrapping_mul(0x9E37_79B9))),
        );
        let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let addr = temp_sock("bulk");
        let server = HubServer::bind(&addr).expect("bind");
        let serving = std::thread::spawn(move || server.serve(1, Arc::new(Mirror)));
        let conn = SocketConn::connect(&addr, Duration::from_secs(5)).expect("connect");
        let client = conn.client(0);
        for round in 0..3u64 {
            let got = client.call(round, |request| request.put_f32s(&sent), f32s_from_le_bytes);
            let mut expected = bits(&sent);
            expected.reverse();
            assert_eq!(bits(&got), expected, "round {round}");
        }
        drop((client, conn));
        serving.join().unwrap().expect("hub serves cleanly");
        if let SocketAddrSpec::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn both_ends_of_a_tcp_connection_run_with_nagle_off() {
        // `connect` and `serve` both box their TCP streams through `tcp_stream`.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let connected = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        for stream in [connected, accepted] {
            let probe = stream.try_clone().expect("clone shares the socket");
            assert!(!probe.nodelay().expect("getsockopt"));
            let _boxed = tcp_stream(stream).expect("setsockopt");
            assert!(probe.nodelay().expect("getsockopt"));
        }
    }

    #[test]
    fn multiple_workers_are_served_concurrently() {
        with_hub("multi", 3, |addr| {
            let mut joins = Vec::new();
            for worker in 0..3u32 {
                let addr = addr.clone();
                joins.push(std::thread::spawn(move || {
                    let conn = SocketConn::connect(&addr, Duration::from_secs(5)).expect("connect");
                    let client = conn.client(worker);
                    for round in 0..16u64 {
                        let payload = vec![worker as u8, round as u8];
                        assert_eq!(
                            client.rpc(round, payload.clone()),
                            vec![round as u8, worker as u8],
                        );
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        });
    }
}
