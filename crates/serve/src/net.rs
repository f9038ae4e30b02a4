//! TCP front-end over the prediction worker pool: the network half of
//! the serving stack.
//!
//! [`NetServer`] listens on a socket and speaks the framed
//! [`zsdb_protocol`] wire protocol.  Design:
//!
//! * **Thread-per-connection, two threads each** — a *reader* decodes
//!   request frames off the socket and a *responder* is the sole socket
//!   writer, so responses never interleave mid-frame.  Requests are
//!   pipelined: the reader admits work without waiting for earlier
//!   answers, and the client matches responses by request id.
//! * **Tenant handshake** — the first frame must be `Hello` carrying a
//!   tenant id, in a payload of at most `MAX_HANDSHAKE_PAYLOAD_LEN`
//!   bytes.  Unknown tenants (when no default policy is configured) and
//!   empty tenant ids are turned away with `Unauthenticated` before any
//!   prediction work is possible.
//! * **Two-level admission control** — a plan naming a table or column
//!   outside the served catalog, or carrying a non-finite estimate, is
//!   answered `BadRequest`.  Every other
//!   request first charges the tenant's in-flight quota
//!   ([`TenantPolicy::max_in_flight`], answered with `QuotaExceeded`
//!   when full), then enters the worker pool
//!   through the non-blocking `try_submit` path (answered with
//!   `Overloaded` when the bounded queue sheds it).  The reader thread
//!   never blocks on the queue, so one overloaded tenant cannot stall
//!   another tenant's socket.
//! * **Socket-driven batching** — when several `Predict` frames are
//!   already buffered on a connection (a pipelining client), the reader
//!   coalesces up to [`NetServerConfig::max_coalesce`] of them into one
//!   [`submit_batch`](crate::PredictionServer::submit_batch)-style group
//!   answered by a single batched forward pass.  Coalescing never reads
//!   the socket itself — it drains the frames a blocking read already
//!   pulled into the decode buffer — so the reader can never perturb the
//!   responder's writes.  The group size is clamped to the worker pool's
//!   `max_batch_size`, so a coalesced group is exactly one bounded-queue
//!   slot and its admission is all-or-nothing.  Predictions stay
//!   bit-identical to the in-process path either way.
//! * **Per-tenant metrics** — admitted/completed/rejected counts (quota
//!   and shed separately), in-flight gauge and latency percentiles per
//!   tenant, served over the wire via the `Metrics` op.

use crate::error::ServeError;
use crate::metrics::{
    STAGE_ADMISSION, STAGE_CACHE_LOOKUP, STAGE_FEATURIZE, STAGE_FORWARD, STAGE_QUEUE_WAIT,
    STAGE_RESPOND,
};
use crate::provenance::ProvenanceSeed;
use crate::server::{BatchPredictionTicket, PredictionServer, PredictionTicket};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zsdb_engine::PlanNode;
use zsdb_nn::percentile_of_sorted;
use zsdb_obs::{ActiveTrace, LatencyWindow, Trace, Tracer};
use zsdb_protocol::{
    decode_frame, decode_header, encode_frame, ErrorCode, ErrorResponse, Frame, GatewayMetrics,
    HealthResponse, HelloAck, Message, ProtocolError, TenantMetrics, WirePrediction,
    MAX_HANDSHAKE_PAYLOAD_LEN, PROTOCOL_VERSION,
};

/// Per-tenant latency samples retained for the percentile estimates
/// (bounded ring, like the server-wide window but smaller).
const TENANT_LATENCY_WINDOW: usize = 8_192;

/// The request stages broken down per tenant (exposition order).
const TENANT_STAGES: [&str; 6] = [
    STAGE_ADMISSION,
    STAGE_QUEUE_WAIT,
    STAGE_CACHE_LOOKUP,
    STAGE_FEATURIZE,
    STAGE_FORWARD,
    STAGE_RESPOND,
];

fn tenant_stage_index(name: &str) -> Option<usize> {
    TENANT_STAGES.iter().position(|&s| s == name)
}

/// Admission policy of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Maximum requests the tenant may have in flight (admitted but not
    /// yet answered) across all of its connections.  Requests beyond the
    /// quota are rejected with `QuotaExceeded` — retryable backpressure,
    /// not an error.
    pub max_in_flight: u64,
}

/// Tunables of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Explicit per-tenant policies.
    pub tenants: HashMap<String, TenantPolicy>,
    /// Policy applied to tenants without an explicit entry; `None`
    /// rejects unknown tenants at the handshake (`Unauthenticated`).
    pub default_policy: Option<TenantPolicy>,
    /// Most pipelined `Predict` frames coalesced into one batched
    /// submission (clamped to the worker pool's `max_batch_size` at
    /// startup, so a coalesced group is one atomic queue slot).
    pub max_coalesce: usize,
    /// How long a fresh connection may take to send its `Hello`.
    pub handshake_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            tenants: HashMap::new(),
            default_policy: Some(TenantPolicy {
                max_in_flight: 1024,
            }),
            max_coalesce: 32,
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

impl NetServerConfig {
    /// Add (or replace) an explicit policy for `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<String>, policy: TenantPolicy) -> Self {
        self.tenants.insert(tenant.into(), policy);
        self
    }
}

/// Live accounting of one tenant, shared by all its connections.
struct TenantState {
    name: String,
    quota: u64,
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_shed: AtomicU64,
    in_flight: AtomicU64,
    /// Recent latencies (striped bounded rings) + lifetime min/max.
    latencies: LatencyWindow,
    /// Per-stage cumulative nanoseconds / sample counts, indexed by
    /// [`TENANT_STAGES`] — the tenant's latency-breakdown exposition.
    stage_ns: [AtomicU64; TENANT_STAGES.len()],
    stage_count: [AtomicU64; TENANT_STAGES.len()],
}

impl TenantState {
    fn new(name: String, quota: u64) -> Self {
        TenantState {
            name,
            quota,
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_shed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            latencies: LatencyWindow::new(TENANT_LATENCY_WINDOW),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Charge `n` requests against the in-flight quota; `false` leaves
    /// the gauge untouched.
    fn try_reserve(&self, n: u64) -> bool {
        let prev = self.in_flight.fetch_add(n, Ordering::Relaxed);
        if prev.saturating_add(n) > self.quota {
            self.in_flight.fetch_sub(n, Ordering::Relaxed);
            false
        } else {
            true
        }
    }

    fn release(&self, n: u64) {
        self.in_flight.fetch_sub(n, Ordering::Relaxed);
    }

    fn record_latency(&self, latency: Duration, count: usize) {
        let ns = latency.as_nanos() as u64;
        for _ in 0..count {
            self.latencies.record(ns);
        }
    }

    /// Fold a finished trace's stages into the tenant's breakdown.
    fn record_stages(&self, trace: &Trace) {
        for stage in &trace.stages {
            if let Some(i) = tenant_stage_index(stage.name) {
                self.stage_ns[i].fetch_add(stage.duration_ns, Ordering::Relaxed);
                self.stage_count[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Wire-format snapshot.  Percentiles are milliseconds and *finite*:
    /// the wire encoding maps non-finite floats to `null`, so an empty
    /// sample reports `0.0` rather than `NaN`.
    fn wire_metrics(&self) -> TenantMetrics {
        let window = self.latencies.snapshot();
        let mut ms: Vec<f64> = window.samples.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        TenantMetrics {
            tenant: self.name.clone(),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            rejected_shed: self.rejected_shed.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            quota: self.quota,
            latency_p50_ms: finite_or_zero(percentile_of_sorted(&ms, 50.0)),
            latency_p95_ms: finite_or_zero(percentile_of_sorted(&ms, 95.0)),
            latency_p99_ms: finite_or_zero(percentile_of_sorted(&ms, 99.0)),
            latency_min_ms: window.min.map_or(0.0, |ns| ns as f64 / 1e6),
            latency_max_ms: if window.count == 0 {
                0.0
            } else {
                window.max as f64 / 1e6
            },
        }
    }
}

/// The wire carries only finite floats (non-finite encodes as `null` and
/// fails decoding into `f64`); empty-sample `NaN` percentiles become 0.
fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn error_code_of(reason: &ServeError) -> ErrorCode {
    match reason {
        ServeError::Overloaded => ErrorCode::Overloaded,
        ServeError::Closed => ErrorCode::Closed,
        ServeError::InvalidPlan(_) => ErrorCode::BadRequest,
        _ => ErrorCode::Internal,
    }
}

fn error_frame(request_id: u64, code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::new(
        request_id,
        Message::Error(ErrorResponse {
            code,
            message: message.into(),
        }),
    )
}

/// What answers a request whose model output is not a finite number.
const NON_FINITE: &str = "the model predicted a non-finite runtime";

/// The reply frame of one served prediction.  JSON has no non-finite
/// numbers: the encoder writes `null`, the client cannot decode that into
/// an `f64`, and a frame it cannot decode ends the connection with every
/// request in flight on it.  A non-finite prediction therefore answers its
/// own request with an `Internal` error.
fn predict_reply(id: u64, trace_id: u64, prediction: &crate::Prediction) -> Frame {
    if prediction.runtime_secs.is_finite() {
        Frame::traced(
            id,
            trace_id,
            Message::PredictOk(wire_prediction(prediction)),
        )
    } else {
        error_frame(id, ErrorCode::Internal, NON_FINITE)
    }
}

fn wire_prediction(p: &crate::Prediction) -> WirePrediction {
    WirePrediction {
        runtime_secs: p.runtime_secs,
        fingerprint: p.fingerprint,
        cache_hit: p.cache_hit,
        server_latency_micros: p.latency.as_micros() as u64,
        model_version: p.model_version,
    }
}

/// State shared by the acceptor, every connection thread and the
/// [`NetServer`] handle.
struct NetShared {
    server: PredictionServer,
    config: NetServerConfig,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    shutting_down: AtomicBool,
    /// Clones of live connection sockets, for forced close on shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Join handles of live connection threads.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl NetShared {
    fn tenant_state(&self, tenant: &str) -> Option<Arc<TenantState>> {
        let quota = match self.config.tenants.get(tenant) {
            Some(policy) => policy.max_in_flight,
            None => self.config.default_policy?.max_in_flight,
        };
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        Some(Arc::clone(
            tenants
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(TenantState::new(tenant.to_string(), quota))),
        ))
    }

    fn gateway_metrics(&self) -> GatewayMetrics {
        let snap = self.server.metrics();
        let mut tenants: Vec<TenantMetrics> = self
            .tenants
            .lock()
            .expect("tenant table poisoned")
            .values()
            .map(|t| t.wire_metrics())
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        GatewayMetrics {
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            server_total_requests: snap.total_requests,
            server_rejected_requests: snap.rejected_requests,
            server_throughput_qps: finite_or_zero(snap.throughput_qps),
            server_latency_p50_ms: finite_or_zero(snap.latency_p50_ms),
            server_latency_p95_ms: finite_or_zero(snap.latency_p95_ms),
            server_latency_p99_ms: finite_or_zero(snap.latency_p99_ms),
            model_version: self.server.model_version(),
            tenants,
            uptime_seconds: snap.uptime_seconds,
            queue_depth: snap.queue_depth,
            server_latency_min_ms: finite_or_zero(snap.latency_min_ms),
            server_latency_max_ms: finite_or_zero(snap.latency_max_ms),
            window_occupancy: snap.window_occupancy as u64,
            window_capacity: snap.window_capacity as u64,
        }
    }

    /// Prometheus text exposition: the worker pool's metrics plus gateway
    /// connection gauges and the per-tenant latency/stage breakdowns.
    fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.server.prometheus_text();
        let _ = writeln!(out, "# TYPE zsdb_gateway_connections_total counter");
        let _ = writeln!(
            out,
            "zsdb_gateway_connections_total {}",
            self.connections_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE zsdb_gateway_connections_active gauge");
        let _ = writeln!(
            out,
            "zsdb_gateway_connections_active {}",
            self.connections_active.load(Ordering::Relaxed)
        );
        let tenants: Vec<Arc<TenantState>> = self
            .tenants
            .lock()
            .expect("tenant table poisoned")
            .values()
            .cloned()
            .collect();
        let _ = writeln!(out, "# TYPE zsdb_tenant_completed_total counter");
        let _ = writeln!(out, "# TYPE zsdb_tenant_stage_ns_total counter");
        let _ = writeln!(out, "# TYPE zsdb_tenant_stage_samples_total counter");
        for tenant in tenants {
            let label = escape_label(&tenant.name);
            let _ = writeln!(
                out,
                "zsdb_tenant_completed_total{{tenant=\"{label}\"}} {}",
                tenant.completed.load(Ordering::Relaxed)
            );
            for (i, stage) in TENANT_STAGES.iter().enumerate() {
                let count = tenant.stage_count[i].load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "zsdb_tenant_stage_ns_total{{tenant=\"{label}\",stage=\"{stage}\"}} {}",
                    tenant.stage_ns[i].load(Ordering::Relaxed)
                );
                let _ = writeln!(
                    out,
                    "zsdb_tenant_stage_samples_total{{tenant=\"{label}\",stage=\"{stage}\"}} {count}",
                );
            }
        }
        out
    }
}

/// Escape a string for use as a Prometheus label value (backslash, quote
/// and newline per the text-exposition grammar).
fn escape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// A running TCP gateway in front of a [`PredictionServer`].
///
/// ```no_run
/// use zsdb_serve::{NetServer, NetServerConfig, PredictionServer, ServerConfig};
/// # fn demo(model: zsdb_core::train::TrainedModel, catalog: zsdb_catalog::SchemaCatalog)
/// # -> std::io::Result<()> {
/// let pool = PredictionServer::start(model, catalog, ServerConfig::default());
/// let gateway = NetServer::start("127.0.0.1:0", pool, NetServerConfig::default())?;
/// println!("serving on {}", gateway.local_addr());
/// # Ok(()) }
/// ```
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` and start accepting connections in front of `server`
    /// (the gateway takes ownership; reach it through
    /// [`NetServer::server`] for hot-swaps).
    pub fn start(
        addr: impl ToSocketAddrs,
        server: PredictionServer,
        mut config: NetServerConfig,
    ) -> io::Result<NetServer> {
        // Clamp so a coalesced group is exactly one bounded-queue chunk,
        // making its admission all-or-nothing.
        config.max_coalesce = config.max_coalesce.clamp(1, server.config().max_batch_size);
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            config,
            tenants: Mutex::new(HashMap::new()),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("zsdb-net-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(NetServer {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The address the gateway is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The worker pool behind the gateway (e.g. for
    /// [`swap_model`](PredictionServer::swap_model)).
    pub fn server(&self) -> &PredictionServer {
        &self.shared.server
    }

    /// Gateway-wide metrics including every tenant seen so far — the
    /// same payload the `Metrics` wire op serves.
    pub fn gateway_metrics(&self) -> GatewayMetrics {
        self.shared.gateway_metrics()
    }

    /// Prometheus text exposition of the full gateway (worker pool,
    /// connection gauges, per-tenant latency/stage breakdowns) — the same
    /// payload the `MetricsText` wire op serves.
    pub fn prometheus_text(&self) -> String {
        self.shared.prometheus_text()
    }

    /// The trace collector of the underlying worker pool.  A finished
    /// request is found by the trace id echoed on its response frame
    /// through [`Server::explain`](crate::Server::explain) (the `Explain`
    /// op).
    pub fn tracer(&self) -> &Tracer {
        self.shared.server.tracer()
    }

    /// Stop accepting, force-close live connections, join every
    /// connection thread and return the final metrics.  The inner
    /// [`PredictionServer`] shuts down when the returned value and all
    /// clones are dropped.
    pub fn shutdown(mut self) -> GatewayMetrics {
        self.stop();
        self.shared.gateway_metrics()
    }

    fn stop(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let conns: Vec<TcpStream> = self
            .shared
            .conns
            .lock()
            .expect("connection table poisoned")
            .drain()
            .map(|(_, s)| s)
            .collect();
        for conn in conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = self
            .shared
            .handles
            .lock()
            .expect("connection handles poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Arc<NetShared>, listener: &TcpListener) {
    for incoming in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        // A socket we cannot clone cannot be registered for forced close,
        // and shutdown() would then block joining a connection it has no
        // way to interrupt — refuse service instead.
        let clone = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let conn_id = shared.connections_total.fetch_add(1, Ordering::Relaxed);
        shared
            .conns
            .lock()
            .expect("connection table poisoned")
            .insert(conn_id, clone);
        shared.connections_active.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("zsdb-net-conn-{conn_id}"))
            .spawn(move || {
                let _ = serve_connection(&conn_shared, stream);
                conn_shared
                    .conns
                    .lock()
                    .expect("connection table poisoned")
                    .remove(&conn_id);
                conn_shared
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => {
                let mut handles = shared.handles.lock().expect("connection handles poisoned");
                // Reap finished connection threads as we go, or a
                // long-lived gateway accumulates one handle per
                // connection ever served.
                let mut i = 0;
                while i < handles.len() {
                    if handles[i].is_finished() {
                        let _ = handles.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                handles.push(handle);
            }
            Err(_) => {
                shared
                    .conns
                    .lock()
                    .expect("connection table poisoned")
                    .remove(&conn_id);
                shared.connections_active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Work the responder thread turns into response frames, in admission
/// order.
enum Outbound {
    /// A frame that needs no waiting (errors, metrics, health).
    Ready(Frame),
    /// One admitted single prediction.
    Single {
        id: u64,
        ticket: PredictionTicket,
        tenant: Arc<TenantState>,
        accepted: Instant,
        /// Trace id echoed on the response frame (0 = untraced).
        trace_id: u64,
    },
    /// A coalesced group of pipelined singles answered by one batch
    /// ticket — one `PredictOk` per original request id.
    Coalesced {
        ids: Vec<u64>,
        ticket: BatchPredictionTicket,
        tenant: Arc<TenantState>,
        accepted: Instant,
        /// The group shares one batched span, so every member's response
        /// echoes the group's trace id (0 = untraced).
        trace_id: u64,
    },
    /// One admitted client batch answered as `PredictBatchOk`.
    Batch {
        id: u64,
        n: u64,
        ticket: BatchPredictionTicket,
        tenant: Arc<TenantState>,
        accepted: Instant,
        /// Trace id echoed on the response frame (0 = untraced).
        trace_id: u64,
    },
    /// A client batch whose admission failed part-way: the admitted
    /// prefix still runs (and must be awaited for honest accounting)
    /// but the client gets a retryable error for the whole batch.
    BatchFailed {
        id: u64,
        admitted: u64,
        answered: Option<BatchPredictionTicket>,
        code: ErrorCode,
        detail: String,
        tenant: Arc<TenantState>,
        accepted: Instant,
    },
}

fn serve_connection(shared: &Arc<NetShared>, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;

    // --- Handshake -------------------------------------------------------
    stream.set_read_timeout(Some(shared.config.handshake_timeout))?;
    // The peer is still anonymous: it gets a handshake-sized payload, not
    // the 32 MiB a tenant's `PredictBatch` may need.
    let hello = match zsdb_protocol::read_frame_limited(&mut stream, MAX_HANDSHAKE_PAYLOAD_LEN) {
        Ok(Some(frame)) => frame,
        Ok(None) => return Ok(()), // connected and left silently
        Err(ProtocolError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            // The handshake timer (SO_RCVTIMEO) expired: a slow client,
            // not a protocol violation — hang up without a BadRequest.
            return Ok(());
        }
        Err(_) => {
            write_frame_ignore_proto(
                &mut stream,
                &error_frame(0, ErrorCode::BadRequest, "malformed handshake frame"),
            );
            return Ok(());
        }
    };
    let tenant = match hello.message {
        Message::Hello(h) if h.protocol_version != PROTOCOL_VERSION => {
            write_frame_ignore_proto(
                &mut stream,
                &error_frame(
                    hello.request_id,
                    ErrorCode::BadRequest,
                    format!(
                        "unsupported protocol version {} (server speaks {PROTOCOL_VERSION})",
                        h.protocol_version
                    ),
                ),
            );
            return Ok(());
        }
        Message::Hello(h) if h.tenant.is_empty() => {
            write_frame_ignore_proto(
                &mut stream,
                &error_frame(
                    hello.request_id,
                    ErrorCode::Unauthenticated,
                    "empty tenant id",
                ),
            );
            return Ok(());
        }
        Message::Hello(h) => h.tenant,
        other => {
            write_frame_ignore_proto(
                &mut stream,
                &error_frame(
                    hello.request_id,
                    ErrorCode::BadRequest,
                    format!("expected Hello, got {}", other.op_name()),
                ),
            );
            return Ok(());
        }
    };
    let tenant = match shared.tenant_state(&tenant) {
        Some(state) => state,
        None => {
            write_frame_ignore_proto(
                &mut stream,
                &error_frame(
                    hello.request_id,
                    ErrorCode::Unauthenticated,
                    format!("unknown tenant {tenant:?}"),
                ),
            );
            return Ok(());
        }
    };
    write_frame_ignore_proto(
        &mut stream,
        &Frame::new(
            hello.request_id,
            Message::HelloAck(HelloAck {
                protocol_version: PROTOCOL_VERSION,
                model_version: shared.server.model_version(),
                tenant_quota: tenant.quota,
            }),
        ),
    );
    stream.set_read_timeout(None)?;

    // --- Steady state: reader (this thread) + responder ------------------
    let (out_tx, out_rx) = mpsc::channel::<Outbound>();
    let responder = {
        let write_stream = stream.try_clone()?;
        let resp_shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("zsdb-net-respond".into())
            .spawn(move || responder_loop(&out_rx, write_stream, &resp_shared))?
    };
    read_requests(shared, &stream, &tenant, &out_tx);
    drop(out_tx); // responder drains what is left, then exits
    let _ = responder.join();
    Ok(())
}

/// Decode and admit request frames until the client disconnects, the
/// server shuts down, or the stream turns to garbage.
fn read_requests(
    shared: &Arc<NetShared>,
    stream: &TcpStream,
    tenant: &Arc<TenantState>,
    out: &mpsc::Sender<Outbound>,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut scratch = [0u8; 16 * 1024];
    loop {
        // Next complete frame, blocking as needed.
        let frame = loop {
            match decode_frame(&buf) {
                Ok(Some((frame, used))) => {
                    buf.drain(..used);
                    break frame;
                }
                Ok(None) => match read_into(stream, &mut buf, &mut scratch) {
                    Ok(0) | Err(_) => return, // EOF or dead socket
                    Ok(_) => {}
                },
                Err(e) => {
                    // A payload that does not parse sits behind a valid
                    // header: answer that frame alone, on its own id, skip
                    // exactly its bytes and read on.
                    if let (ProtocolError::MalformedPayload { .. }, Ok(Some(header))) =
                        (&e, decode_header(&buf))
                    {
                        buf.drain(..header.frame_len());
                        let _ = out.send(Outbound::Ready(error_frame(
                            header.request_id,
                            ErrorCode::BadRequest,
                            e.to_string(),
                        )));
                        continue;
                    }
                    // Unframeable bytes: tell the client why, then hang
                    // up.  Request ids are unrecoverable at this point, so
                    // the error goes out on the reserved id 0 (client ids
                    // start at 1) — a connection-level failure the client
                    // reader fans out to every pending request.
                    let _ = out.send(Outbound::Ready(error_frame(
                        0,
                        ErrorCode::BadRequest,
                        format!("unreadable frame: {e}"),
                    )));
                    return;
                }
            }
        };
        // A trace begins at frame decode, under the client-supplied id
        // when one rode the frame header (the tracer mints one otherwise).
        let tracer = shared.server.tracer();
        let begin_trace = |trace_id: u64| -> Option<ActiveTrace> {
            tracer.enabled().then(|| tracer.begin_with_id(trace_id))
        };
        match frame.message {
            Message::Predict(plan) => {
                let trace = begin_trace(frame.trace_id);
                let mut group: Vec<(u64, PlanNode)> = vec![(frame.request_id, *plan)];
                coalesce_predicts(&mut buf, shared.config.max_coalesce, &mut group);
                if group.len() > 1 {
                    tracer.event(
                        "net.coalesced_batch",
                        group.len() as f64,
                        format!("tenant {:?}", tenant.name),
                    );
                }
                admit_group(shared, tenant, out, group, trace);
            }
            Message::PredictBatch(plans) => {
                let trace = begin_trace(frame.trace_id);
                admit_batch(shared, tenant, out, frame.request_id, plans, trace)
            }
            Message::Metrics => {
                let _ = out.send(Outbound::Ready(Frame::new(
                    frame.request_id,
                    Message::MetricsOk(Box::new(shared.gateway_metrics())),
                )));
            }
            Message::MetricsText => {
                let _ = out.send(Outbound::Ready(Frame::new(
                    frame.request_id,
                    Message::MetricsTextOk(shared.prometheus_text()),
                )));
            }
            Message::Health => {
                let _ = out.send(Outbound::Ready(Frame::new(
                    frame.request_id,
                    Message::HealthOk(HealthResponse {
                        healthy: true,
                        model_version: shared.server.model_version(),
                    }),
                )));
            }
            Message::Explain(req) => {
                let response = match shared.server.explain(req.trace_id) {
                    Some(record) => {
                        Frame::new(frame.request_id, Message::ExplainOk(Box::new(record)))
                    }
                    None => error_frame(
                        frame.request_id,
                        ErrorCode::BadRequest,
                        format!(
                            "no provenance retained for trace id {} (never traced, or aged out)",
                            req.trace_id
                        ),
                    ),
                };
                let _ = out.send(Outbound::Ready(response));
            }
            Message::SlowLog(req) => {
                // The slow ring is bounded server-side; cap the ask so a
                // hostile limit cannot make the response frame huge.
                let limit = req.limit.min(256) as usize;
                let _ = out.send(Outbound::Ready(Frame::new(
                    frame.request_id,
                    Message::SlowLogOk(shared.server.slow_log(limit)),
                )));
            }
            Message::SloStatus => {
                let _ = out.send(Outbound::Ready(Frame::new(
                    frame.request_id,
                    Message::SloStatusOk(shared.server.slo_status()),
                )));
            }
            other => {
                let _ = out.send(Outbound::Ready(error_frame(
                    frame.request_id,
                    ErrorCode::BadRequest,
                    format!("unexpected {} after handshake", other.op_name()),
                )));
            }
        }
    }
}

/// Pull further `Predict` frames already decoded-buffer-side into
/// `group` — the pipelining client's burst becomes one batched
/// submission.  A non-`Predict` frame stays in the buffer for the main
/// loop.
///
/// This deliberately never touches the socket: the responder thread
/// writes through a `try_clone` of it, and an opportunistic
/// `set_nonblocking(true)` read here would be shared with that clone
/// (non-blocking mode is a property of the underlying file description),
/// so a concurrent response write could spuriously fail with
/// `WouldBlock` and look like a dead client.  The main loop's blocking
/// read pulls up to 16 KiB per syscall, so a burst lands in `buf`
/// wholesale anyway.
fn coalesce_predicts(buf: &mut Vec<u8>, max_coalesce: usize, group: &mut Vec<(u64, PlanNode)>) {
    while group.len() < max_coalesce {
        match decode_frame(buf) {
            Ok(Some((frame, used))) => match frame.message {
                Message::Predict(plan) => {
                    buf.drain(..used);
                    group.push((frame.request_id, *plan));
                }
                _ => return, // leave it for the main loop
            },
            Ok(None) => return, // nothing more buffered right now
            Err(_) => return,   // main loop reports the framing error
        }
    }
}

/// Admit a group of pipelined single predictions: per-request catalog
/// check and quota charge, then one atomic queue submission for the
/// whole group.
fn admit_group(
    shared: &Arc<NetShared>,
    tenant: &Arc<TenantState>,
    out: &mpsc::Sender<Outbound>,
    group: Vec<(u64, PlanNode)>,
    mut trace: Option<ActiveTrace>,
) {
    let accepted = Instant::now();
    let mut ids = Vec::with_capacity(group.len());
    let mut plans = Vec::with_capacity(group.len());
    for (id, plan) in group {
        // A table or column outside the catalog would index out of bounds
        // in the featurizer and kill the worker.
        if let Err(e) = plan.validate(shared.server.catalog()) {
            let _ = out.send(Outbound::Ready(error_frame(
                id,
                ErrorCode::BadRequest,
                e.to_string(),
            )));
        } else if tenant.try_reserve(1) {
            ids.push(id);
            plans.push(plan);
        } else {
            tenant.rejected_quota.fetch_add(1, Ordering::Relaxed);
            let _ = out.send(Outbound::Ready(error_frame(
                id,
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {:?} exceeded its in-flight quota of {}",
                    tenant.name, tenant.quota
                ),
            )));
        }
    }
    if ids.is_empty() {
        return;
    }
    // The admission stage closes here: quota charged, about to enqueue.
    if let Some(t) = trace.as_mut() {
        t.mark(STAGE_ADMISSION);
    }
    let trace_id = trace.as_ref().map_or(0, ActiveTrace::id);
    if ids.len() == 1 {
        match shared
            .server
            .try_submit_traced(plans.pop().expect("one plan"), trace)
        {
            Ok(ticket) => {
                tenant.admitted.fetch_add(1, Ordering::Relaxed);
                let _ = out.send(Outbound::Single {
                    id: ids[0],
                    ticket,
                    tenant: Arc::clone(tenant),
                    accepted,
                    trace_id,
                });
            }
            Err(rejected) => {
                tenant.release(1);
                tenant.rejected_shed.fetch_add(1, Ordering::Relaxed);
                let _ = out.send(Outbound::Ready(error_frame(
                    ids[0],
                    error_code_of(&rejected.reason),
                    rejected.reason.to_string(),
                )));
            }
        }
        return;
    }
    let n = ids.len() as u64;
    match shared.server.try_submit_batch_traced(plans, trace) {
        Ok(ticket) => {
            tenant.admitted.fetch_add(n, Ordering::Relaxed);
            let _ = out.send(Outbound::Coalesced {
                ids,
                ticket,
                tenant: Arc::clone(tenant),
                accepted,
                trace_id,
            });
        }
        Err(rejected) => {
            // The group is clamped to one queue chunk, so a rejection is
            // normally all-or-nothing — but honour a partial admission if
            // it ever happens.
            let sent = ids.len() - rejected.plans.len();
            let code = error_code_of(&rejected.reason);
            let detail = rejected.reason.to_string();
            let err_ids = ids.split_off(sent);
            if let Some(ticket) = rejected.answered {
                tenant.admitted.fetch_add(sent as u64, Ordering::Relaxed);
                let _ = out.send(Outbound::Coalesced {
                    ids,
                    ticket,
                    tenant: Arc::clone(tenant),
                    accepted,
                    trace_id,
                });
            }
            tenant.release(err_ids.len() as u64);
            tenant
                .rejected_shed
                .fetch_add(err_ids.len() as u64, Ordering::Relaxed);
            for id in err_ids {
                let _ = out.send(Outbound::Ready(error_frame(id, code, detail.clone())));
            }
        }
    }
}

/// Admit one explicit client batch (`PredictBatch`): the whole batch is
/// checked against the catalog, charges the quota at once and answers
/// with one frame.
fn admit_batch(
    shared: &Arc<NetShared>,
    tenant: &Arc<TenantState>,
    out: &mpsc::Sender<Outbound>,
    id: u64,
    plans: Vec<PlanNode>,
    mut trace: Option<ActiveTrace>,
) {
    let accepted = Instant::now();
    let n = plans.len() as u64;
    if n == 0 {
        let _ = out.send(Outbound::Ready(Frame::new(
            id,
            Message::PredictBatchOk(Vec::new()),
        )));
        return;
    }
    let catalog = shared.server.catalog();
    if let Err(e) = plans.iter().try_for_each(|plan| plan.validate(catalog)) {
        let _ = out.send(Outbound::Ready(error_frame(
            id,
            ErrorCode::BadRequest,
            e.to_string(),
        )));
        return;
    }
    if !tenant.try_reserve(n) {
        tenant.rejected_quota.fetch_add(n, Ordering::Relaxed);
        let _ = out.send(Outbound::Ready(error_frame(
            id,
            ErrorCode::QuotaExceeded,
            format!(
                "batch of {n} exceeds tenant {:?} in-flight quota of {}",
                tenant.name, tenant.quota
            ),
        )));
        return;
    }
    if let Some(t) = trace.as_mut() {
        t.mark(STAGE_ADMISSION);
    }
    let trace_id = trace.as_ref().map_or(0, ActiveTrace::id);
    match shared.server.try_submit_batch_traced(plans, trace) {
        Ok(ticket) => {
            tenant.admitted.fetch_add(n, Ordering::Relaxed);
            let _ = out.send(Outbound::Batch {
                id,
                n,
                ticket,
                tenant: Arc::clone(tenant),
                accepted,
                trace_id,
            });
        }
        Err(rejected) => {
            let sent = n - rejected.plans.len() as u64;
            tenant.admitted.fetch_add(sent, Ordering::Relaxed);
            tenant.rejected_shed.fetch_add(n - sent, Ordering::Relaxed);
            tenant.release(n - sent); // the admitted prefix releases on completion
            let _ = out.send(Outbound::BatchFailed {
                id,
                admitted: sent,
                answered: rejected.answered,
                code: error_code_of(&rejected.reason),
                detail: rejected.reason.to_string(),
                tenant: Arc::clone(tenant),
                accepted,
            });
        }
    }
}

/// Sole socket writer: turns admitted work into response frames in
/// admission order (the client demultiplexes by request id).  Keeps
/// draining for accounting even after the socket dies, so a client that
/// disconnects mid-flight never wedges tenant gauges.
fn responder_loop(rx: &mpsc::Receiver<Outbound>, stream: TcpStream, shared: &NetShared) {
    let tracer = shared.server.tracer();
    let metrics = shared.server.recorder();
    let stages = metrics.stage_recorder();
    let mut writer = io::BufWriter::new(stream);
    let mut socket_dead = false;
    // Close the respond stage (response encode + write) and finish the
    // trace: per-stage histograms globally (with the trace id as
    // exemplar), stage sums per tenant — and, when the work carried a
    // provenance seed, the request enters the provenance log.
    // All of this is the cold (post-response) path.
    let finish_trace =
        |trace: Option<ActiveTrace>, tenant: &TenantState, seed: Option<ProvenanceSeed>| {
            if let Some(mut t) = trace {
                t.mark(STAGE_RESPOND);
                let done = tracer.finish(t);
                match seed {
                    Some(seed) => metrics.record_completed_trace(&seed, &done),
                    None => stages.record_trace(&done),
                }
                tenant.record_stages(&done);
            }
        };
    loop {
        // Batch flushes: only flush when there is momentarily nothing to
        // write, so a pipelined burst goes out in few syscalls.
        let item = match rx.try_recv() {
            Ok(item) => item,
            Err(mpsc::TryRecvError::Empty) => {
                if !socket_dead && writer.flush().is_err() {
                    socket_dead = true;
                }
                match rx.recv() {
                    Ok(item) => item,
                    Err(_) => break,
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
        let mut emit = |frame: &Frame, dead: &mut bool| {
            if *dead {
                return;
            }
            match encode_frame(frame) {
                Ok(bytes) => {
                    if writer.write_all(&bytes).is_err() {
                        *dead = true;
                    }
                }
                Err(_) => *dead = true,
            }
        };
        match item {
            Outbound::Ready(frame) => emit(&frame, &mut socket_dead),
            Outbound::Single {
                id,
                ticket,
                tenant,
                accepted,
                trace_id,
            } => {
                match ticket.wait_traced() {
                    Ok((prediction, trace)) => {
                        tenant.completed.fetch_add(1, Ordering::Relaxed);
                        tenant.record_latency(accepted.elapsed(), 1);
                        emit(&predict_reply(id, trace_id, &prediction), &mut socket_dead);
                        finish_trace(trace, &tenant, Some(prediction.provenance_seed()));
                    }
                    Err(e) => emit(
                        &error_frame(id, error_code_of(&e), e.to_string()),
                        &mut socket_dead,
                    ),
                }
                tenant.release(1);
            }
            Outbound::Coalesced {
                ids,
                ticket,
                tenant,
                accepted,
                trace_id,
            } => {
                let n = ids.len();
                match ticket.wait_traced() {
                    Ok((predictions, trace)) => {
                        tenant.completed.fetch_add(n as u64, Ordering::Relaxed);
                        tenant.record_latency(accepted.elapsed(), n);
                        for (id, prediction) in ids.iter().zip(&predictions) {
                            emit(&predict_reply(*id, trace_id, prediction), &mut socket_dead);
                        }
                        // The group shares one trace/span; its provenance
                        // is seeded from the first member (same shard,
                        // class and model version for the whole chunk).
                        finish_trace(
                            trace,
                            &tenant,
                            predictions.first().map(|p| p.provenance_seed()),
                        );
                    }
                    Err(e) => {
                        for id in &ids {
                            emit(
                                &error_frame(*id, error_code_of(&e), e.to_string()),
                                &mut socket_dead,
                            );
                        }
                    }
                }
                tenant.release(n as u64);
            }
            Outbound::Batch {
                id,
                n,
                ticket,
                tenant,
                accepted,
                trace_id,
            } => {
                match ticket.wait_traced() {
                    Ok((predictions, trace)) => {
                        tenant.completed.fetch_add(n, Ordering::Relaxed);
                        tenant.record_latency(accepted.elapsed(), n as usize);
                        let frame = if predictions.iter().all(|p| p.runtime_secs.is_finite()) {
                            let wire = predictions.iter().map(wire_prediction).collect();
                            Frame::traced(id, trace_id, Message::PredictBatchOk(wire))
                        } else {
                            error_frame(id, ErrorCode::Internal, NON_FINITE)
                        };
                        emit(&frame, &mut socket_dead);
                        finish_trace(
                            trace,
                            &tenant,
                            predictions.first().map(|p| p.provenance_seed()),
                        );
                    }
                    Err(e) => emit(
                        &error_frame(id, error_code_of(&e), e.to_string()),
                        &mut socket_dead,
                    ),
                }
                tenant.release(n);
            }
            Outbound::BatchFailed {
                id,
                admitted,
                answered,
                code,
                detail,
                tenant,
                accepted,
            } => {
                // Await the admitted prefix so the in-flight gauge is
                // honest, even though the client sees one retryable error.
                if let Some(ticket) = answered {
                    if ticket.wait().is_ok() {
                        tenant.completed.fetch_add(admitted, Ordering::Relaxed);
                        tenant.record_latency(accepted.elapsed(), admitted as usize);
                    }
                    tenant.release(admitted);
                }
                emit(&error_frame(id, code, detail), &mut socket_dead);
            }
        }
    }
    if !socket_dead {
        let _ = writer.flush();
    }
}

/// Write one frame, swallowing protocol/IO errors (used on paths where
/// the connection is being torn down anyway).
fn write_frame_ignore_proto(stream: &mut TcpStream, frame: &Frame) {
    if let Ok(bytes) = encode_frame(frame) {
        let _ = stream.write_all(&bytes);
        let _ = stream.flush();
    }
}

/// Blocking read of some bytes from `stream` into `buf`; waits for at
/// least one byte, `Ok(0)` = EOF.  The stream's blocking mode is never
/// altered — the responder thread writes through a clone of this socket.
fn read_into(stream: &TcpStream, buf: &mut Vec<u8>, scratch: &mut [u8]) -> io::Result<usize> {
    let n = (&mut (&*stream)).read(scratch)?;
    buf.extend_from_slice(&scratch[..n]);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use zsdb_catalog::{presets, SchemaCatalog};
    use zsdb_client::{Client, ClientConfig, ClientError};
    use zsdb_core::features::{featurize_plan, FeaturizerConfig};
    use zsdb_core::model::ModelConfig;
    use zsdb_core::train::{TrainedModel, Trainer, TrainingConfig};
    use zsdb_engine::QueryRunner;
    use zsdb_protocol::HelloRequest;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn tiny_net_fixture() -> (TrainedModel, SchemaCatalog, Vec<PlanNode>) {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let runner = QueryRunner::with_defaults(&db);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 15, 1);
        let graphs: Vec<_> = runner
            .run_workload(&queries, 0)
            .iter()
            .map(|e| {
                zsdb_core::features::featurize_execution(db.catalog(), e, FeaturizerConfig::exact())
            })
            .collect();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 2,
                validation_fraction: 0.0,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let model = trainer.train(&graphs);
        let plans = runner.plan_workload(&queries);
        (model, db.catalog().clone(), plans)
    }

    fn start_gateway(
        server_config: ServerConfig,
        net_config: NetServerConfig,
    ) -> (NetServer, TrainedModel, SchemaCatalog, Vec<PlanNode>) {
        let (model, catalog, plans) = tiny_net_fixture();
        let pool = PredictionServer::start(model.clone(), catalog.clone(), server_config);
        let gateway =
            NetServer::start("127.0.0.1:0", pool, net_config).expect("bind localhost gateway");
        (gateway, model, catalog, plans)
    }

    fn wait_until(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if probe() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        probe()
    }

    #[test]
    fn remote_predictions_are_bit_identical_to_in_process() {
        let (gateway, model, catalog, plans) =
            start_gateway(ServerConfig::default(), NetServerConfig::default());
        let client =
            Client::connect(gateway.local_addr(), ClientConfig::tenant("t1")).expect("connect");
        assert_eq!(client.handshake_model_version().unwrap(), 1);
        for plan in &plans {
            let remote = client.predict(plan).expect("remote prediction");
            let reference = model.predict(&featurize_plan(&catalog, plan, model.featurizer));
            assert_eq!(remote.runtime_secs.to_bits(), reference.to_bits());
            assert_eq!(remote.model_version, 1);
        }
        // Explicit client batches are bit-identical too.
        let batch = client.predict_batch(&plans).expect("remote batch");
        assert_eq!(batch.len(), plans.len());
        for (plan, remote) in plans.iter().zip(&batch) {
            let reference = model.predict(&featurize_plan(&catalog, plan, model.featurizer));
            assert_eq!(remote.runtime_secs.to_bits(), reference.to_bits());
        }
        let health = client.health().expect("health");
        assert!(health.healthy);
        assert_eq!(health.model_version, 1);
    }

    #[test]
    fn pipelined_submissions_are_all_answered_and_accounted() {
        let (gateway, model, catalog, plans) =
            start_gateway(ServerConfig::default(), NetServerConfig::default());
        let client = Client::connect(gateway.local_addr(), ClientConfig::tenant("pipeliner"))
            .expect("connect");
        // Many requests in flight on ONE connection before any response is
        // consumed: this is what exercises pipelining + coalescing.
        let rounds = 4usize;
        let mut tickets = Vec::new();
        for _ in 0..rounds {
            for plan in &plans {
                tickets.push(client.submit(plan).expect("submit"));
            }
        }
        let total = tickets.len();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let remote = ticket.wait().expect("pipelined answer");
            let plan = &plans[i % plans.len()];
            let reference = model.predict(&featurize_plan(&catalog, plan, model.featurizer));
            assert_eq!(remote.runtime_secs.to_bits(), reference.to_bits());
        }
        assert!(
            wait_until(Duration::from_secs(5), || {
                gateway
                    .gateway_metrics()
                    .tenants
                    .iter()
                    .any(|t| t.tenant == "pipeliner" && t.in_flight == 0)
            }),
            "in-flight gauge drains once all responses are out"
        );
        let metrics = gateway.gateway_metrics();
        let tenant = metrics
            .tenants
            .iter()
            .find(|t| t.tenant == "pipeliner")
            .expect("tenant tracked");
        assert_eq!(tenant.admitted, total as u64);
        assert_eq!(tenant.completed, total as u64);
        assert_eq!(tenant.rejected_quota + tenant.rejected_shed, 0);
        assert!(tenant.latency_p50_ms > 0.0);
        assert_eq!(metrics.server_total_requests, total as u64);
    }

    #[test]
    fn quota_rejections_are_retryable_and_counted_per_tenant() {
        let (gateway, _model, _catalog, plans) = start_gateway(
            ServerConfig::default(),
            NetServerConfig::default().with_tenant("starved", TenantPolicy { max_in_flight: 0 }),
        );
        let client = Client::connect(gateway.local_addr(), ClientConfig::tenant("starved"))
            .expect("quota-0 tenants may still connect");
        assert_eq!(client.handshake_tenant_quota().unwrap(), 0);
        match client.predict(&plans[0]) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::QuotaExceeded);
                assert!(code.is_retryable());
            }
            other => panic!("expected a quota rejection, got {other:?}"),
        }
        match client.predict_batch(&plans) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
            other => panic!("expected a batch quota rejection, got {other:?}"),
        }
        let metrics = client.metrics().expect("metrics over the wire");
        let tenant = metrics
            .tenants
            .iter()
            .find(|t| t.tenant == "starved")
            .expect("tenant visible over the wire");
        assert_eq!(tenant.admitted, 0);
        assert_eq!(tenant.rejected_quota, 1 + plans.len() as u64);
        assert_eq!(tenant.quota, 0);
    }

    #[test]
    fn unknown_tenants_are_rejected_at_the_handshake() {
        let (gateway, _model, _catalog, _plans) = start_gateway(
            ServerConfig::default(),
            NetServerConfig {
                default_policy: None,
                ..NetServerConfig::default()
            }
            .with_tenant("vip", TenantPolicy { max_in_flight: 8 }),
        );
        match Client::connect(gateway.local_addr(), ClientConfig::tenant("interloper")) {
            Err(ClientError::Handshake(detail)) => {
                assert!(detail.contains("Unauthenticated"), "got: {detail}")
            }
            other => panic!("expected a handshake rejection, got {:?}", other.is_ok()),
        }
        // The configured tenant still gets in.
        let vip =
            Client::connect(gateway.local_addr(), ClientConfig::tenant("vip")).expect("vip in");
        assert_eq!(vip.handshake_tenant_quota().unwrap(), 8);
    }

    #[test]
    fn client_disconnecting_mid_flight_does_not_wedge_the_gateway() {
        let (gateway, model, catalog, plans) = start_gateway(
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            NetServerConfig::default(),
        );
        // A rude client: handshake, fire a pile of pipelined requests and
        // a batch, then vanish without reading a single response.
        {
            let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect raw");
            zsdb_protocol::write_frame(
                &mut stream,
                &Frame::new(
                    0,
                    Message::Hello(HelloRequest {
                        protocol_version: PROTOCOL_VERSION,
                        tenant: "rude".into(),
                    }),
                ),
            )
            .expect("hello");
            stream.flush().unwrap();
            let ack = zsdb_protocol::read_frame(&mut stream)
                .expect("ack read")
                .expect("ack frame");
            assert!(matches!(ack.message, Message::HelloAck(_)));
            for (i, plan) in plans.iter().enumerate() {
                zsdb_protocol::write_frame(
                    &mut stream,
                    &Frame::new(i as u64 + 1, Message::Predict(Box::new(plan.clone()))),
                )
                .expect("predict");
            }
            zsdb_protocol::write_frame(
                &mut stream,
                &Frame::new(99, Message::PredictBatch(plans.clone())),
            )
            .expect("batch");
            stream.flush().unwrap();
            // Dropping the stream closes the socket with everything in
            // flight.
        }
        // The abandoned work must still drain: no wedged worker, no leaked
        // queue slot, in-flight gauge back to zero.
        assert!(
            wait_until(Duration::from_secs(10), || {
                gateway
                    .gateway_metrics()
                    .tenants
                    .iter()
                    .any(|t| t.tenant == "rude" && t.in_flight == 0 && t.admitted > 0)
            }),
            "rude tenant's in-flight work drains after disconnect"
        );
        // And the gateway still serves new clients, bit-identically.
        let client = Client::connect(gateway.local_addr(), ClientConfig::tenant("polite"))
            .expect("connect after rude disconnect");
        let remote = client.predict(&plans[0]).expect("still serving");
        let reference = model.predict(&featurize_plan(&catalog, &plans[0], model.featurizer));
        assert_eq!(remote.runtime_secs.to_bits(), reference.to_bits());
        assert!(
            wait_until(Duration::from_secs(5), || {
                gateway.gateway_metrics().connections_active == 1
            }),
            "only the live client's connection remains"
        );
        let final_metrics = gateway.shutdown();
        let rude = final_metrics
            .tenants
            .iter()
            .find(|t| t.tenant == "rude")
            .expect("rude tenant tracked");
        assert_eq!(rude.admitted, rude.completed + rude.rejected_shed);
    }

    #[test]
    fn hot_swap_is_visible_over_the_wire() {
        let (gateway, model, catalog, plans) =
            start_gateway(ServerConfig::default(), NetServerConfig::default());
        let client =
            Client::connect(gateway.local_addr(), ClientConfig::tenant("t")).expect("connect");
        assert_eq!(client.predict(&plans[0]).unwrap().model_version, 1);
        // Fine-tune into a distinguishable v2 and swap it in.
        let graphs: Vec<_> = plans
            .iter()
            .map(|p| {
                let mut g = featurize_plan(&catalog, p, model.featurizer);
                g.runtime_secs = Some(1.0);
                g
            })
            .collect();
        let tuned = zsdb_core::Trainer::finetune_from(
            &model,
            &graphs,
            zsdb_core::FinetuneConfig {
                epochs: 3,
                learning_rate: 1e-3,
                ..zsdb_core::FinetuneConfig::default()
            },
        );
        gateway.server().swap_model(tuned.clone(), 2);
        let after = client.predict(&plans[0]).unwrap();
        assert_eq!(after.model_version, 2);
        let reference = tuned.predict(&featurize_plan(&catalog, &plans[0], tuned.featurizer));
        assert_eq!(after.runtime_secs.to_bits(), reference.to_bits());
        assert_eq!(client.metrics().unwrap().model_version, 2);
    }
}
