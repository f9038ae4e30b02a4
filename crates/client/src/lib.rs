//! # zsdb-client — pooled network client for the prediction service
//!
//! A blocking client over the [`zsdb_protocol`] framed wire protocol.
//! Design:
//!
//! * **Pipelined connections** — each pooled connection has one writer
//!   (mutex-serialised frame writes) and one background reader thread
//!   that routes response frames to waiting callers by request id, so
//!   *many* in-flight requests share one TCP connection.  Submitting is
//!   non-blocking on the response: [`Client::submit`] returns a
//!   [`PendingPrediction`] ticket immediately, enabling client-side
//!   pipelining (and server-side request coalescing off the socket).
//! * **Connection pool with reconnect** — [`ClientConfig::connections`]
//!   sockets are opened lazily and handed out round-robin.  A broken
//!   pipe (server restart, dropped connection) marks the slot dead; the
//!   next request transparently reconnects and connection-level failures
//!   are retried once on a fresh socket.
//! * **Per-request timeout** — every wait is bounded by
//!   [`ClientConfig::request_timeout`]; a timed-out request abandons its
//!   ticket without poisoning the connection (late responses are
//!   discarded by id).
//!
//! ```no_run
//! use zsdb_client::{Client, ClientConfig};
//! # fn demo(plan: zsdb_engine::PlanNode) -> Result<(), zsdb_client::ClientError> {
//! let client = Client::connect("127.0.0.1:7878", ClientConfig::tenant("analytics"))?;
//! let prediction = client.predict(&plan)?;
//! println!("predicted {:.3}s (model v{})", prediction.runtime_secs, prediction.model_version);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use zsdb_engine::PlanNode;
use zsdb_protocol::{
    encode_frame, read_frame, ErrorCode, ExplainRequest, Frame, GatewayMetrics, HealthResponse,
    HelloRequest, Message, ProtocolError, ProvenanceRecord, SlowLogRequest, WirePrediction,
    WireSloStatus, PROTOCOL_VERSION,
};

/// Client-side trace-id mint: nonzero, process-wide unique.  The id is
/// attached to prediction request frames so the server's tracer records
/// the request under an id the client already knows.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

fn mint_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read or write).
    Io(std::io::Error),
    /// The peer sent bytes that do not form a valid frame.
    Protocol(ProtocolError),
    /// The server rejected the connection handshake.
    Handshake(String),
    /// The server answered with a structured error frame.
    Server {
        /// Machine-readable failure category.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// No response arrived within [`ClientConfig::request_timeout`].
    Timeout,
    /// The connection died while the request was in flight; the request
    /// may or may not have executed server-side.
    ConnectionLost,
    /// The server answered with a well-formed frame of the wrong type.
    UnexpectedResponse {
        /// What the caller was waiting for.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Protocol(e) => write!(f, "client protocol error: {e}"),
            ClientError::Handshake(detail) => write!(f, "handshake rejected: {detail}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::ConnectionLost => write!(f, "connection lost with request in flight"),
            ClientError::UnexpectedResponse { expected, got } => {
                write!(f, "expected a {expected} response, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl ClientError {
    /// Whether the failure is connection-level, i.e. retrying on a fresh
    /// connection is meaningful (the request was never accepted).
    fn is_connection_level(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::ConnectionLost)
    }
}

/// Tunables of a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Tenant id sent in the connection handshake; the gateway meters
    /// admission and metrics per tenant.
    pub tenant: String,
    /// Pooled connections (opened lazily, handed out round-robin).
    pub connections: usize,
    /// Timeout for establishing and handshaking one connection.
    pub connect_timeout: Duration,
    /// Timeout for one request's response.
    pub request_timeout: Duration,
}

impl ClientConfig {
    /// Default configuration for the given tenant: 1 pooled connection,
    /// 5 s connect timeout, 30 s request timeout.
    pub fn tenant(tenant: impl Into<String>) -> Self {
        ClientConfig {
            tenant: tenant.into(),
            connections: 1,
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// A prediction as received over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemotePrediction {
    /// Predicted runtime in seconds — bit-identical to the in-process
    /// prediction for the same plan and model version.
    pub runtime_secs: f64,
    /// Structural fingerprint of the request plan.
    pub fingerprint: u64,
    /// Whether the server's feature cache answered the featurization.
    pub cache_hit: bool,
    /// Server-side enqueue-to-response latency.
    pub server_latency: Duration,
    /// Version of the model that answered.
    pub model_version: u32,
    /// Trace id echoed on the response frame — the id the server's
    /// tracer recorded this request under.  `0` when the server's tracer
    /// was disabled.
    pub trace_id: u64,
}

impl From<WirePrediction> for RemotePrediction {
    fn from(p: WirePrediction) -> Self {
        RemotePrediction {
            runtime_secs: p.runtime_secs,
            fingerprint: p.fingerprint,
            cache_hit: p.cache_hit,
            server_latency: Duration::from_micros(p.server_latency_micros),
            model_version: p.model_version,
            trace_id: 0,
        }
    }
}

type ReplySender = mpsc::Sender<Result<(Message, u64), ClientError>>;
type ReplyReceiver = mpsc::Receiver<Result<(Message, u64), ClientError>>;

/// One live connection: a shared writer and a reader thread demuxing
/// responses to waiting callers by request id.
struct Connection {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, ReplySender>>,
    next_id: AtomicU64,
    alive: AtomicBool,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    model_version: u32,
    tenant_quota: u64,
}

impl Connection {
    /// Open and handshake.
    fn open(addr: SocketAddr, config: &ClientConfig) -> Result<Arc<Connection>, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_nodelay(true)?;

        // Handshake synchronously before the reader thread exists: write
        // Hello, wait (bounded) for HelloAck.
        let mut handshake = stream.try_clone()?;
        handshake.set_read_timeout(Some(config.connect_timeout))?;
        let hello = Frame::new(
            0,
            Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: config.tenant.clone(),
            }),
        );
        handshake.write_all(&encode_frame(&hello)?)?;
        handshake.flush()?;
        let ack = match read_frame(&mut handshake)? {
            Some(frame) => frame,
            None => {
                return Err(ClientError::Handshake(
                    "server closed during handshake".into(),
                ))
            }
        };
        let (model_version, tenant_quota) = match ack.message {
            Message::HelloAck(ack) => (ack.model_version, ack.tenant_quota),
            Message::Error(e) => {
                return Err(ClientError::Handshake(format!(
                    "{:?}: {}",
                    e.code, e.message
                )))
            }
            other => {
                return Err(ClientError::Handshake(format!(
                    "expected HelloAck, got {}",
                    other.op_name()
                )))
            }
        };
        handshake.set_read_timeout(None)?;

        let conn = Arc::new(Connection {
            writer: Mutex::new(stream.try_clone()?),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            alive: AtomicBool::new(true),
            reader: Mutex::new(None),
            model_version,
            tenant_quota,
        });
        let reader_conn = Arc::clone(&conn);
        let handle = std::thread::Builder::new()
            .name("zsdb-client-reader".into())
            .spawn(move || reader_loop(&reader_conn, handshake))
            .map_err(|e| ClientError::Io(std::io::Error::other(e)))?;
        *conn.reader.lock().expect("reader handle lock") = Some(handle);
        Ok(conn)
    }

    /// Write one request frame (carrying `trace_id` when nonzero) and
    /// register a reply slot for its id.
    fn send(
        self: &Arc<Connection>,
        message: Message,
        trace_id: u64,
    ) -> Result<(u64, ReplyReceiver), ClientError> {
        if !self.alive.load(Ordering::Acquire) {
            return Err(ClientError::ConnectionLost);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.pending.lock().expect("pending lock").insert(id, tx);
        let bytes = encode_frame(&Frame::traced(id, trace_id, message))?;
        let write_result = {
            let mut writer = self.writer.lock().expect("writer lock");
            writer.write_all(&bytes).and_then(|()| writer.flush())
        };
        if let Err(e) = write_result {
            self.pending.lock().expect("pending lock").remove(&id);
            self.alive.store(false, Ordering::Release);
            return Err(ClientError::Io(e));
        }
        Ok((id, rx))
    }

    fn forget(&self, id: u64) {
        self.pending.lock().expect("pending lock").remove(&id);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Shut the socket so the reader thread unblocks and exits; the
        // handle is detached (joining from drop could deadlock a reader
        // that is mid-route).
        self.alive.store(false, Ordering::Release);
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn reader_loop(conn: &Arc<Connection>, stream: TcpStream) {
    let mut reader = std::io::BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        // An error on the reserved id 0 is connection-level: the server
        // could not attribute the failure to any request (request ids
        // start at 1) and is about to hang up.  Fan the structured error
        // out to every pending caller rather than letting them discover
        // a bare ConnectionLost or time out.
        if frame.request_id == 0 {
            if let Message::Error(e) = frame.message {
                conn.alive.store(false, Ordering::Release);
                let pending: Vec<ReplySender> = conn
                    .pending
                    .lock()
                    .expect("pending lock")
                    .drain()
                    .map(|(_, tx)| tx)
                    .collect();
                for tx in pending {
                    let _ = tx.send(Err(ClientError::Server {
                        code: e.code,
                        message: e.message.clone(),
                    }));
                }
                break;
            }
            continue;
        }
        // A sender may be gone (caller timed out) — discard late
        // responses silently.
        if let Some(tx) = conn
            .pending
            .lock()
            .expect("pending lock")
            .remove(&frame.request_id)
        {
            let _ = tx.send(Ok((frame.message, frame.trace_id)));
        }
    }
    conn.alive.store(false, Ordering::Release);
    // Every still-waiting caller learns the connection died.
    let pending: Vec<ReplySender> = conn
        .pending
        .lock()
        .expect("pending lock")
        .drain()
        .map(|(_, tx)| tx)
        .collect();
    for tx in pending {
        let _ = tx.send(Err(ClientError::ConnectionLost));
    }
}

/// Claim ticket for one in-flight network request; redeem with the typed
/// `wait` of the wrapper ([`PendingPrediction`], [`PendingBatch`]).
struct PendingReply {
    conn: Arc<Connection>,
    id: u64,
    rx: ReplyReceiver,
    timeout: Duration,
}

impl PendingReply {
    fn wait_message(self) -> Result<(Message, u64), ClientError> {
        match self.rx.recv_timeout(self.timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Abandon the slot: a late response is dropped by id.
                self.conn.forget(self.id);
                Err(ClientError::Timeout)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ClientError::ConnectionLost),
        }
    }
}

fn expect_prediction(message: Message, trace_id: u64) -> Result<RemotePrediction, ClientError> {
    match message {
        Message::PredictOk(p) => {
            let mut prediction = RemotePrediction::from(p);
            prediction.trace_id = trace_id;
            Ok(prediction)
        }
        Message::Error(e) => Err(ClientError::Server {
            code: e.code,
            message: e.message,
        }),
        other => Err(ClientError::UnexpectedResponse {
            expected: "PredictOk",
            got: other.op_name(),
        }),
    }
}

/// In-flight single prediction (see [`Client::submit`]).
pub struct PendingPrediction(PendingReply);

impl PendingPrediction {
    /// Block (bounded by the request timeout) until the prediction is in.
    pub fn wait(self) -> Result<RemotePrediction, ClientError> {
        let (message, trace_id) = self.0.wait_message()?;
        expect_prediction(message, trace_id)
    }
}

/// In-flight batch prediction (see [`Client::submit_batch`]).
pub struct PendingBatch(PendingReply);

impl PendingBatch {
    /// Block (bounded by the request timeout) until all predictions of
    /// the batch are in, in submission order.
    pub fn wait(self) -> Result<Vec<RemotePrediction>, ClientError> {
        let (message, trace_id) = self.0.wait_message()?;
        match message {
            Message::PredictBatchOk(ps) => Ok(ps
                .into_iter()
                .map(|p| {
                    let mut prediction = RemotePrediction::from(p);
                    prediction.trace_id = trace_id;
                    prediction
                })
                .collect()),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "PredictBatchOk",
                got: other.op_name(),
            }),
        }
    }
}

/// A blocking, connection-pooled client of one prediction service.
///
/// Cloneable-by-`Arc` and safe to share across threads: every method
/// takes `&self`.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    slots: Vec<Mutex<Option<Arc<Connection>>>>,
    round_robin: AtomicUsize,
}

impl Client {
    /// Resolve `addr`, open the first pooled connection and perform the
    /// tenant handshake (the remaining pool connections open lazily).
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(std::io::Error::other("address resolved to nothing")))?;
        let client = Client {
            addr,
            slots: (0..config.connections.max(1))
                .map(|_| Mutex::new(None))
                .collect(),
            round_robin: AtomicUsize::new(0),
            config,
        };
        // Fail fast on an unreachable server / rejected tenant.
        client.connection_for_slot(0)?;
        Ok(client)
    }

    /// The tenant this client authenticates as.
    pub fn tenant(&self) -> &str {
        &self.config.tenant
    }

    /// Model version reported by the most recently opened connection's
    /// handshake.
    pub fn handshake_model_version(&self) -> Result<u32, ClientError> {
        Ok(self.connection()?.model_version)
    }

    /// The tenant's admission quota reported by the handshake.
    pub fn handshake_tenant_quota(&self) -> Result<u64, ClientError> {
        Ok(self.connection()?.tenant_quota)
    }

    fn connection_for_slot(&self, slot: usize) -> Result<Arc<Connection>, ClientError> {
        let mut guard = self.slots[slot].lock().expect("pool slot lock");
        if let Some(conn) = guard.as_ref() {
            if conn.alive.load(Ordering::Acquire) {
                return Ok(Arc::clone(conn));
            }
        }
        // Dead or never opened: (re)connect — this is the broken-pipe
        // recovery path.
        let conn = Connection::open(self.addr, &self.config)?;
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn connection(&self) -> Result<Arc<Connection>, ClientError> {
        let slot = self.round_robin.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.connection_for_slot(slot)
    }

    /// Send one request, retrying once on a fresh connection if the
    /// failure was connection-level (the send never reached the server).
    /// A nonzero `trace_id` rides on the request frame.
    fn send(&self, make: impl Fn() -> Message, trace_id: u64) -> Result<PendingReply, ClientError> {
        let mut last_err = None;
        for _attempt in 0..2 {
            let conn = match self.connection() {
                Ok(c) => c,
                Err(e) if e.is_connection_level() => {
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match conn.send(make(), trace_id) {
                Ok((id, rx)) => {
                    return Ok(PendingReply {
                        conn,
                        id,
                        rx,
                        timeout: self.config.request_timeout,
                    })
                }
                Err(e) if e.is_connection_level() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(ClientError::ConnectionLost))
    }

    /// Enqueue one prediction without waiting — the pipelined entry
    /// point.  Many pending tickets can share one connection.  The
    /// request carries a fresh trace id; the server echoes it on the
    /// response
    /// ([`RemotePrediction::trace_id`]) and records the per-stage trace
    /// under it.
    pub fn submit(&self, plan: &PlanNode) -> Result<PendingPrediction, ClientError> {
        Ok(PendingPrediction(self.send(
            || Message::Predict(Box::new(plan.clone())),
            mint_trace_id(),
        )?))
    }

    /// Enqueue a batch of plans answered by one batched forward pass.
    pub fn submit_batch(&self, plans: &[PlanNode]) -> Result<PendingBatch, ClientError> {
        Ok(PendingBatch(self.send(
            || Message::PredictBatch(plans.to_vec()),
            mint_trace_id(),
        )?))
    }

    /// Predict one plan and wait for the answer.
    pub fn predict(&self, plan: &PlanNode) -> Result<RemotePrediction, ClientError> {
        self.submit(plan)?.wait()
    }

    /// Predict a batch of plans and wait for all answers (submission
    /// order).
    pub fn predict_batch(&self, plans: &[PlanNode]) -> Result<Vec<RemotePrediction>, ClientError> {
        self.submit_batch(plans)?.wait()
    }

    /// Fetch the gateway + per-tenant metrics snapshot.
    pub fn metrics(&self) -> Result<GatewayMetrics, ClientError> {
        let (message, _) = self.send(|| Message::Metrics, 0)?.wait_message()?;
        match message {
            Message::MetricsOk(m) => Ok(*m),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "MetricsOk",
                got: other.op_name(),
            }),
        }
    }

    /// Fetch the Prometheus text exposition of the gateway + serving
    /// metrics.
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        let (message, _) = self.send(|| Message::MetricsText, 0)?.wait_message()?;
        match message {
            Message::MetricsTextOk(text) => Ok(text),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "MetricsTextOk",
                got: other.op_name(),
            }),
        }
    }

    /// Fetch the full provenance of one served prediction by its trace
    /// id (see [`RemotePrediction::trace_id`]): plan fingerprint, model
    /// name/version, cache hit, shard placement and the per-stage
    /// latency breakdown.  The server answers `BadRequest` when no record
    /// with that id is retained.
    pub fn explain(&self, trace_id: u64) -> Result<ProvenanceRecord, ClientError> {
        let (message, _) = self
            .send(|| Message::Explain(ExplainRequest { trace_id }), 0)?
            .wait_message()?;
        match message {
            Message::ExplainOk(record) => Ok(*record),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "ExplainOk",
                got: other.op_name(),
            }),
        }
    }

    /// Fetch the server's slow-request log: the retained slow/failed
    /// requests' provenance, worst (longest total latency) first, up to
    /// `limit` records.
    pub fn slow_log(&self, limit: u64) -> Result<Vec<ProvenanceRecord>, ClientError> {
        let (message, _) = self
            .send(|| Message::SlowLog(SlowLogRequest { limit }), 0)?
            .wait_message()?;
        match message {
            Message::SlowLogOk(records) => Ok(records),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "SlowLogOk",
                got: other.op_name(),
            }),
        }
    }

    /// Fetch the server's SLO burn-rate position: configured objective +
    /// target and the rolling windows' good/bad counts, error rates and
    /// burn rates.
    pub fn slo_status(&self) -> Result<WireSloStatus, ClientError> {
        let (message, _) = self.send(|| Message::SloStatus, 0)?.wait_message()?;
        match message {
            Message::SloStatusOk(status) => Ok(status),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "SloStatusOk",
                got: other.op_name(),
            }),
        }
    }

    /// Liveness probe.
    pub fn health(&self) -> Result<HealthResponse, ClientError> {
        let (message, _) = self.send(|| Message::Health, 0)?.wait_message()?;
        match message {
            Message::HealthOk(h) => Ok(h),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::UnexpectedResponse {
                expected: "HealthOk",
                got: other.op_name(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = ClientConfig::tenant("t1");
        assert_eq!(config.tenant, "t1");
        assert_eq!(config.connections, 1);
        assert!(config.request_timeout > config.connect_timeout);
    }

    #[test]
    fn connect_to_nothing_fails_cleanly() {
        // Port 1 on localhost is essentially never listening.
        let result = Client::connect(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Duration::from_millis(200),
                ..ClientConfig::tenant("t")
            },
        );
        assert!(matches!(result, Err(ClientError::Io(_))));
    }

    #[test]
    fn id_zero_error_frames_fail_all_pending_requests() {
        use zsdb_protocol::{write_frame, ErrorResponse, HelloAck};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let hello = read_frame(&mut stream).expect("read hello").expect("hello");
            assert!(matches!(hello.message, Message::Hello(_)));
            write_frame(
                &mut stream,
                &Frame::new(
                    hello.request_id,
                    Message::HelloAck(HelloAck {
                        protocol_version: PROTOCOL_VERSION,
                        model_version: 1,
                        tenant_quota: 7,
                    }),
                ),
            )
            .expect("ack");
            // Wait for the first real request so the caller's pending slot
            // exists, then fail the connection with an error on the
            // reserved id 0 — the way the server reports unframeable
            // bytes before hanging up.
            let _request = read_frame(&mut stream).expect("read request").expect("req");
            write_frame(
                &mut stream,
                &Frame::new(
                    0,
                    Message::Error(ErrorResponse {
                        code: ErrorCode::BadRequest,
                        message: "unreadable frame: fake".into(),
                    }),
                ),
            )
            .expect("error frame");
            stream.flush().expect("flush");
        });
        let client = Client::connect(
            addr,
            ClientConfig {
                request_timeout: Duration::from_secs(5),
                ..ClientConfig::tenant("t")
            },
        )
        .expect("handshake with fake server");
        match client.metrics() {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("unreadable"), "got: {message}");
            }
            other => panic!(
                "expected the structured connection-level error, got {:?}",
                other.map(|_| "MetricsOk")
            ),
        }
        server.join().expect("fake server thread");
    }

    #[test]
    fn error_display_is_informative() {
        let e = ClientError::Server {
            code: ErrorCode::QuotaExceeded,
            message: "tenant over quota".into(),
        };
        assert!(e.to_string().contains("QuotaExceeded"));
        assert!(ClientError::Timeout.to_string().contains("timed out"));
        assert!(ClientError::UnexpectedResponse {
            expected: "PredictOk",
            got: "HealthOk"
        }
        .to_string()
        .contains("PredictOk"));
    }
}
