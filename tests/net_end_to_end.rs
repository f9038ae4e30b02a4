//! End-to-end network serving test (ISSUE 6 acceptance): train a tiny
//! model, put a [`NetServer`] gateway in front of the worker pool, and
//! talk to it through the pooled `zsdb_client` over real TCP sockets,
//! asserting
//!
//! (a) every remote prediction — single and batched — is bit-identical
//!     to the in-process `predict_blocking` path,
//! (b) the gateway meters each tenant separately (admitted / completed /
//!     in-flight visible over the wire through the `Metrics` op), and
//! (c) quota rejections surface as structured, retryable error frames
//!     and are counted per tenant,
//!
//! plus the ISSUE 7 observability acceptance:
//!
//! (d) a traced remote `predict` decomposes into named pipeline stages
//!     whose durations sum to the end-to-end latency, and
//! (e) latency/stage recording stays striped (no shared lock) under
//!     concurrent tenants and snapshot pressure,
//!
//! plus the ISSUE 9 provenance acceptance:
//!
//! (f) a deliberately slow request driven over TCP is retrievable via
//!     the `SlowLog` op, its full `ProvenanceRecord` via `Explain`, the
//!     record's stage durations tile the end-to-end latency, and the
//!     record names the serving model (name + version).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use zero_shot_db::catalog::presets;
use zero_shot_db::client::{Client, ClientConfig, ClientError};
use zero_shot_db::protocol::{ErrorCode, GatewayMetrics, TenantMetrics};
use zero_shot_db::serve::{
    NetServer, NetServerConfig, PredictionServer, ServerConfig, TenantPolicy, STAGE_ADMISSION,
    STAGE_FEATURIZE, STAGE_FORWARD, STAGE_QUEUE_WAIT, STAGE_RESPOND,
};
use zero_shot_db::storage::Database;
use zsdb_bench::tiny_serving_fixture;

/// Poll the gateway's metrics until `done` accepts a snapshot (the
/// responder decrements `in_flight` *after* writing the response, so a
/// client can observe its own answer a beat before the gauges settle).
fn wait_for_metrics(client: &Client, done: impl Fn(&GatewayMetrics) -> bool) -> GatewayMetrics {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = client.metrics().expect("metrics over the wire");
        if done(&snapshot) || Instant::now() > deadline {
            return snapshot;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn tenant<'a>(metrics: &'a GatewayMetrics, name: &str) -> &'a TenantMetrics {
    metrics
        .tenants
        .iter()
        .find(|t| t.tenant == name)
        .unwrap_or_else(|| panic!("tenant {name} missing from gateway metrics"))
}

#[test]
fn remote_predictions_match_in_process_and_tenants_are_metered() {
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 20, 5);

    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(
            model,
            db.catalog().clone(),
            ServerConfig {
                workers: 2,
                queue_capacity: 64,
                cache_capacity: 128,
                ..ServerConfig::default()
            },
        ),
        NetServerConfig::default()
            .with_tenant("alpha", TenantPolicy { max_in_flight: 64 })
            .with_tenant("beta", TenantPolicy { max_in_flight: 64 }),
    )
    .expect("bind gateway");
    let addr = gateway.local_addr();

    // In-process reference through the same worker pool, keyed by the
    // structural fingerprint the wire protocol echoes back.
    let reference: HashMap<u64, u64> = plans
        .iter()
        .map(|p| {
            let r = gateway
                .server()
                .predict_blocking(p.clone())
                .expect("in-process prediction");
            (r.fingerprint, r.runtime_secs.to_bits())
        })
        .collect();

    // (a) Bit-identity for the single-request path…
    let alpha = Client::connect(
        addr,
        ClientConfig {
            connections: 2,
            ..ClientConfig::tenant("alpha")
        },
    )
    .expect("connect alpha");
    assert_eq!(alpha.handshake_model_version().unwrap(), 1);
    assert_eq!(alpha.handshake_tenant_quota().unwrap(), 64);
    for plan in &plans {
        let remote = alpha.predict(plan).expect("remote predict");
        assert_eq!(
            remote.runtime_secs.to_bits(),
            reference[&remote.fingerprint],
            "remote single prediction diverged from predict_blocking"
        );
        assert_eq!(remote.model_version, 1);
    }
    // …and for the batched path.
    let batch = alpha.predict_batch(&plans).expect("remote batch");
    assert_eq!(batch.len(), plans.len());
    for remote in &batch {
        assert_eq!(
            remote.runtime_secs.to_bits(),
            reference[&remote.fingerprint],
            "remote batched prediction diverged from predict_blocking"
        );
    }

    // A second tenant on the same gateway.
    let beta = Client::connect(addr, ClientConfig::tenant("beta")).expect("connect beta");
    for plan in plans.iter().take(5) {
        let remote = beta.predict(plan).expect("beta predict");
        assert_eq!(
            remote.runtime_secs.to_bits(),
            reference[&remote.fingerprint]
        );
    }

    // (b) Per-tenant accounting over the wire.
    let alpha_total = (plans.len() * 2) as u64; // singles + batch
    let metrics = wait_for_metrics(&alpha, |m| {
        let a = tenant(m, "alpha");
        let b = tenant(m, "beta");
        a.completed == alpha_total && b.completed == 5 && a.in_flight == 0 && b.in_flight == 0
    });
    let a = tenant(&metrics, "alpha");
    assert_eq!(a.admitted, alpha_total);
    assert_eq!(a.completed, alpha_total);
    assert_eq!(a.rejected_quota + a.rejected_shed, 0);
    assert_eq!(a.quota, 64);
    let b = tenant(&metrics, "beta");
    assert_eq!(b.admitted, 5);
    assert_eq!(b.completed, 5);
    assert!(metrics.server_total_requests >= alpha_total + 5 + plans.len() as u64);
    assert_eq!(metrics.model_version, 1);

    let health = alpha.health().expect("health over the wire");
    assert!(health.healthy);
    assert_eq!(health.model_version, 1);

    drop(alpha);
    drop(beta);
    let fin = gateway.shutdown();
    assert_eq!(tenant(&fin, "alpha").completed, alpha_total);
    assert_eq!(tenant(&fin, "beta").completed, 5);
}

#[test]
fn quota_rejections_are_retryable_structured_errors_and_counted() {
    let db = Database::generate(presets::imdb_like(0.02), 13);
    let (model, plans) = tiny_serving_fixture(&db, 6, 2);

    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(
            model,
            db.catalog().clone(),
            ServerConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 16,
                ..ServerConfig::default()
            },
        ),
        // `starved` may never have a request in flight; `vip` is roomy.
        NetServerConfig::default()
            .with_tenant("starved", TenantPolicy { max_in_flight: 0 })
            .with_tenant("vip", TenantPolicy { max_in_flight: 32 }),
    )
    .expect("bind gateway");
    let addr = gateway.local_addr();

    let starved = Client::connect(addr, ClientConfig::tenant("starved")).expect("connect");
    for plan in &plans {
        match starved.predict(plan) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::QuotaExceeded);
                assert!(code.is_retryable(), "quota pressure must be retryable");
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
    }
    // Batches are admitted all-or-nothing against the quota.
    match starved.predict_batch(&plans) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
        other => panic!("expected QuotaExceeded for the batch, got {other:?}"),
    }

    // The starved tenant's rejections don't touch the vip tenant.
    let vip = Client::connect(addr, ClientConfig::tenant("vip")).expect("connect vip");
    let remote = vip.predict(&plans[0]).expect("vip predicts fine");
    let local = gateway
        .server()
        .predict_blocking(plans[0].clone())
        .expect("in-process");
    assert_eq!(remote.runtime_secs.to_bits(), local.runtime_secs.to_bits());

    let metrics = wait_for_metrics(&vip, |m| tenant(m, "vip").completed == 1);
    let s = tenant(&metrics, "starved");
    assert_eq!(s.admitted, 0);
    // Each request counts: 6 singles + every plan of the rejected batch.
    assert_eq!(s.rejected_quota, 2 * plans.len() as u64);
    assert_eq!(s.in_flight, 0);
    let v = tenant(&metrics, "vip");
    assert_eq!(v.completed, 1);
    assert_eq!(v.rejected_quota + v.rejected_shed, 0);

    drop(starved);
    drop(vip);
    gateway.shutdown();
}

/// ISSUE 7 acceptance: a remote `predict` yields an end-to-end trace.
/// The client mints a trace id, the id rides the frame header both
/// ways, and the gateway's tracer decomposes the request into named
/// pipeline stages whose durations tile — and therefore sum to — the
/// reported end-to-end latency.
#[test]
fn remote_predict_trace_decomposes_end_to_end_latency() {
    let db = Database::generate(presets::imdb_like(0.02), 17);
    let (model, plans) = tiny_serving_fixture(&db, 8, 3);

    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(
            model,
            db.catalog().clone(),
            ServerConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 16,
                ..ServerConfig::default()
            },
        ),
        NetServerConfig::default().with_tenant("obs", TenantPolicy { max_in_flight: 16 }),
    )
    .expect("bind gateway");

    let client =
        Client::connect(gateway.local_addr(), ClientConfig::tenant("obs")).expect("connect");

    let started = Instant::now();
    let remote = client.predict(&plans[0]).expect("remote predict");
    let wall_ns = started.elapsed().as_nanos() as u64;
    assert_ne!(
        remote.trace_id, 0,
        "the client mints a trace id per request"
    );

    // The responder finishes the trace just *after* writing the response
    // frame, so the client can see its answer a beat before the trace's
    // provenance record lands in the log — poll briefly.
    let trace = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(t) = gateway.server().explain(remote.trace_id) {
                break t;
            }
            assert!(
                Instant::now() < deadline,
                "trace {} never finished",
                remote.trace_id
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // At least four named stages decompose the request; a cold cache
    // makes featurization explicit.
    let names: Vec<&str> = trace.stages.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.len() >= 4,
        "expected >= 4 pipeline stages, got {names:?}"
    );
    for expected in [
        STAGE_ADMISSION,
        STAGE_QUEUE_WAIT,
        STAGE_FEATURIZE,
        STAGE_FORWARD,
        STAGE_RESPOND,
    ] {
        assert!(
            names.contains(&expected),
            "stage {expected} missing from {names:?}"
        );
    }

    // The stages are checkpoints, so their durations tile start..finish:
    // the sum *is* the reported end-to-end latency (the 20% acceptance
    // bound holds with zero slack), and it can never exceed what the
    // client observed around the whole round trip.
    let stage_sum: u64 = trace.stages.iter().map(|s| s.duration_ns).sum();
    assert_eq!(stage_sum, trace.total_ns, "stage durations tile the trace");
    assert!(
        (stage_sum as f64 - trace.total_ns as f64).abs() <= 0.2 * trace.total_ns as f64,
        "stage sum {stage_sum}ns strays >20% from end-to-end {}ns",
        trace.total_ns
    );
    assert!(
        trace.total_ns <= wall_ns,
        "server-side trace ({}ns) cannot exceed the client's wall clock ({wall_ns}ns)",
        trace.total_ns
    );

    // The gateway's independent end-to-end measurement (admission stamp
    // to response write, surfaced as the tenant's lifetime-max latency —
    // this tenant completed exactly one request) agrees with the stage
    // sum up to the decode/encode edges outside one clock but inside the
    // other: 20% relative or half a millisecond, whichever is larger.
    let metrics = wait_for_metrics(&client, |m| tenant(m, "obs").completed == 1);
    let reported_ns = tenant(&metrics, "obs").latency_max_ms * 1e6;
    assert!(reported_ns > 0.0, "gateway recorded the request's latency");
    let slack = (0.2 * reported_ns).max(500_000.0);
    assert!(
        (stage_sum as f64 - reported_ns).abs() <= slack,
        "stage sum {stage_sum}ns vs gateway-reported {reported_ns}ns exceeds {slack}ns slack"
    );

    drop(client);
    gateway.shutdown();
}

/// ISSUE 9 acceptance: drive a deliberately slow request over TCP,
/// retrieve it through the `SlowLog` wire op and its full provenance
/// through `Explain`.  The flight recorder's threshold is set to 1ns so
/// the request's classification as slow is deterministic, not a race
/// against the scheduler.
#[test]
fn slow_requests_are_retrievable_and_explainable_over_the_wire() {
    use zero_shot_db::obs::{FlightRecorderConfig, SloConfig};
    use zero_shot_db::serve::{ObservabilityConfig, MODEL_NAME};

    let db = Database::generate(presets::imdb_like(0.02), 23);
    let (model, plans) = tiny_serving_fixture(&db, 8, 3);

    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start_observed(
            model,
            5,
            db.catalog().clone(),
            ServerConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 16,
                ..ServerConfig::default()
            },
            ObservabilityConfig {
                flight: FlightRecorderConfig {
                    slow_threshold_ns: 1,
                    ..FlightRecorderConfig::default()
                },
                slo: SloConfig {
                    // Everything violates a 1ns objective, so the burn
                    // rate is deterministically nonzero.
                    latency_objective_ns: 1,
                    ..SloConfig::default()
                },
            },
        ),
        NetServerConfig::default().with_tenant("prov", TenantPolicy { max_in_flight: 16 }),
    )
    .expect("bind gateway");

    let client =
        Client::connect(gateway.local_addr(), ClientConfig::tenant("prov")).expect("connect");
    // The deliberately slow request: a cold cache forces featurization,
    // and the 1ns threshold guarantees retention in the slow ring.
    let remote = client.predict(&plans[0]).expect("remote predict");
    assert_ne!(remote.trace_id, 0, "the client mints a trace id");

    // The responder assembles provenance just after writing the
    // response, so poll briefly for the record to land.
    let record = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.explain(remote.trace_id) {
                Ok(record) => break record,
                Err(ClientError::Server {
                    code: ErrorCode::BadRequest,
                    ..
                }) => {
                    assert!(
                        Instant::now() < deadline,
                        "provenance for trace {} never landed",
                        remote.trace_id
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("explain failed: {e}"),
            }
        }
    };

    // The record names the serving model and carries the prediction.
    assert_eq!(record.trace_id, remote.trace_id);
    assert_eq!(record.model_name, MODEL_NAME);
    assert_eq!(record.model_version, 5, "record names the served version");
    assert_eq!(record.fingerprint, remote.fingerprint);
    assert!(!record.cache_hit, "first request was cold");
    assert_eq!(record.flight_class, "slow_threshold");
    assert!(record.predicted_secs.is_finite());

    // Its stage durations tile the end-to-end latency exactly.
    assert!(
        record.stages.len() >= 4,
        "named stages: {:?}",
        record.stages
    );
    let stage_sum: u64 = record.stages.iter().map(|s| s.duration_ns).sum();
    assert_eq!(
        stage_sum, record.total_ns,
        "stage durations tile the end-to-end latency"
    );

    // The slow log retrieves the same record, worst-first.
    let slow = client.slow_log(16).expect("slow log over the wire");
    assert!(
        slow.iter().any(|r| r.trace_id == remote.trace_id),
        "the slow request is in the slow log"
    );
    assert!(
        slow.windows(2).all(|w| w[0].total_ns >= w[1].total_ns),
        "slow log is sorted worst-first"
    );

    // SLO status over the wire: the 1ns objective makes the request bad,
    // so every window burns.
    let slo = client.slo_status().expect("slo status over the wire");
    assert_eq!(slo.latency_objective_ns, 1);
    assert!(!slo.windows.is_empty());
    for window in &slo.windows {
        assert_eq!(window.good + window.bad, 1, "one request graded");
        assert_eq!(window.bad, 1, "the slow request violates the objective");
        assert!(window.burn_rate > 1.0, "burning through the error budget");
    }

    // The snapshot + prometheus surfaces carry the new series too.
    let text = client.metrics_text().expect("prometheus over the wire");
    assert!(text.contains("serve_slow_requests_retained"));
    assert!(text.contains("serve_slo_burn_rate"));

    // Unknown trace ids answer a structured error, not a hang.
    match client.explain(u64::MAX) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("no provenance"), "got: {message}");
        }
        other => panic!("expected BadRequest for unknown trace, got {other:?}"),
    }

    drop(client);
    gateway.shutdown();
}

/// Latency/stage recording is striped per thread — no lock shared
/// between worker threads — so concurrent tenants hammering the gateway
/// while another thread repeatedly merges snapshots (JSON and
/// Prometheus text over the wire) can never serialize or wedge, and no
/// sample is lost.
#[test]
fn concurrent_recording_under_snapshot_pressure_loses_nothing() {
    let db = Database::generate(presets::imdb_like(0.02), 19);
    let (model, plans) = tiny_serving_fixture(&db, 10, 4);

    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(
            model,
            db.catalog().clone(),
            ServerConfig {
                workers: 2,
                queue_capacity: 64,
                cache_capacity: 64,
                ..ServerConfig::default()
            },
        ),
        NetServerConfig::default()
            .with_tenant("alpha", TenantPolicy { max_in_flight: 64 })
            .with_tenant("beta", TenantPolicy { max_in_flight: 64 }),
    )
    .expect("bind gateway");
    let addr = gateway.local_addr();

    const THREADS_PER_TENANT: usize = 2;
    const ROUNDS: usize = 8;
    let alpha = Client::connect(
        addr,
        ClientConfig {
            connections: 2,
            ..ClientConfig::tenant("alpha")
        },
    )
    .expect("connect alpha");
    let beta = Client::connect(addr, ClientConfig::tenant("beta")).expect("connect beta");

    std::thread::scope(|scope| {
        for client in [&alpha, &beta] {
            for worker in 0..THREADS_PER_TENANT {
                let plans = &plans;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let plan = &plans[(worker + round) % plans.len()];
                        client.predict(plan).expect("remote predict");
                    }
                });
            }
        }
        // Merge snapshots as fast as possible while recording is hot:
        // a shared recording lock would show up here as serialization
        // (or a deadlock); striped shards only ever merge on this path.
        scope.spawn(|| {
            for _ in 0..50 {
                let _ = alpha.metrics().expect("metrics mid-flight");
                let text = alpha.metrics_text().expect("prometheus mid-flight");
                assert!(text.contains("serve_stage_forward_ns"));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });

    let per_tenant = (THREADS_PER_TENANT * ROUNDS) as u64;
    let metrics = wait_for_metrics(&alpha, |m| {
        tenant(m, "alpha").completed == per_tenant && tenant(m, "beta").completed == per_tenant
    });
    for name in ["alpha", "beta"] {
        let t = tenant(&metrics, name);
        assert_eq!(t.completed, per_tenant, "{name} lost completions");
        assert_eq!(t.rejected_quota + t.rejected_shed, 0);
        assert_eq!(t.in_flight, 0);
        assert!(t.latency_max_ms >= t.latency_min_ms);
        assert!(t.latency_min_ms > 0.0, "{name} recorded real latencies");
    }
    assert!(metrics.server_total_requests >= 2 * per_tenant);
    assert!(metrics.window_capacity >= metrics.window_occupancy);

    drop(alpha);
    drop(beta);
    gateway.shutdown();
}

/// ROADMAP do-first (b): before the `Hello` is accepted the peer is
/// anonymous, so the gateway buffers and parses at most
/// `MAX_HANDSHAKE_PAYLOAD_LEN` bytes for it.  The frame that used to
/// abort the process — a 2 MB `Hello` of `[` — is refused from its header
/// alone, a nested payload that fits the cap gets the parser's depth
/// error, a well-formed `Hello` of the refused protocol versions 1 and 2
/// gets `BadRequest` (version 2 also in a version-2 frame), and in every case the connection is closed and the
/// gateway keeps serving.
#[test]
fn hostile_handshakes_are_refused_and_the_gateway_survives() {
    use std::io::Write;
    use std::net::TcpStream;
    use zero_shot_db::protocol::{
        read_frame, Message, HEADER_LEN, MAGIC, MAX_HANDSHAKE_PAYLOAD_LEN, PROTOCOL_VERSION,
    };

    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 4, 5);
    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(model, db.catalog().clone(), ServerConfig::default()),
        NetServerConfig::default().with_tenant("alpha", TenantPolicy { max_in_flight: 8 }),
    )
    .expect("bind gateway");
    let addr = gateway.local_addr();

    let within_cap = MAX_HANDSHAKE_PAYLOAD_LEN as usize - 1;
    let v1_hello = br#"{"protocol_version":1,"tenant":"alpha"}"#.to_vec();
    let v2_hello = br#"{"protocol_version":2,"tenant":"alpha"}"#.to_vec();
    for (version, declared_len, payload) in [
        (PROTOCOL_VERSION, 2_000_000, vec![]),
        (PROTOCOL_VERSION, within_cap, vec![b'['; within_cap]),
        (PROTOCOL_VERSION, v1_hello.len(), v1_hello),
        // A version-2 build's frame: refused from its header alone, so
        // (like the oversized frame) it stops there.
        (2, v2_hello.len(), vec![]),
        (PROTOCOL_VERSION, v2_hello.len(), v2_hello),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A `Hello` (opcode 0x01) header, request id 7.  The
        // oversized frame stops after its header: the refusal must not
        // wait for a payload, and with nothing left unread the gateway's
        // close cannot reset the connection under its own error frame.
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&[version, 0x01, 0, 0]);
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&(declared_len as u32).to_le_bytes());
        assert_eq!(frame.len(), HEADER_LEN);
        frame.extend_from_slice(&payload);
        stream.write_all(&frame).expect("send hello");

        let reply = read_frame(&mut stream)
            .expect("refusal frame")
            .expect("refusal before close");
        match reply.message {
            Message::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
            other => panic!(
                "{declared_len}-byte Hello answered with {}",
                other.op_name()
            ),
        }
        assert!(
            matches!(read_frame(&mut stream), Ok(None)),
            "connection must be closed after a refused handshake"
        );
    }

    let alpha = Client::connect(addr, ClientConfig::tenant("alpha")).expect("gateway alive");
    let served = alpha
        .predict(&plans[0])
        .expect("prediction after the attack");
    assert!(served.runtime_secs.is_finite());
}

/// Set `path` (object keys, then array indices as decimal strings) of a
/// JSON value to `to`.
fn set_json(value: &mut serde::Value, path: &[&str], to: serde::Value) {
    let Some((step, rest)) = path.split_first() else {
        *value = to;
        return;
    };
    let next = match value {
        serde::Value::Object(fields) => fields
            .iter_mut()
            .find(|(key, _)| key == step)
            .map(|(_, v)| v),
        serde::Value::Array(items) => step.parse().ok().and_then(|i: usize| items.get_mut(i)),
        _ => None,
    };
    set_json(
        next.unwrap_or_else(|| panic!("no {step} in the model JSON")),
        rest,
        to,
    );
}

/// A prediction that overflows to infinity has no JSON encoding: the
/// gateway answers that request (or that batch) with an `Internal` error,
/// and the connection stays up for the next request.
#[test]
fn a_non_finite_prediction_fails_its_request_not_the_connection() {
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (healthy, plans) = tiny_serving_fixture(&db, 10, 5);

    // An output bias of 800: exp(log-runtime) overflows for every plan.
    let mut json = serde_json::parse_value(&healthy.model.to_json()).expect("model JSON");
    let last_layer = "1"; // the output head is [hidden, 32, 1]
    set_json(
        &mut json,
        &["output", "layers", last_layer, "b", "data"],
        serde::Value::Array(vec![serde::Value::Float(800.0)]),
    );
    let mut overflowing = healthy.clone();
    overflowing.model = serde::Deserialize::from_value(&json).expect("edited model");
    let graph = zero_shot_db::zeroshot::features::featurize_plan(
        db.catalog(),
        &plans[0],
        overflowing.featurizer,
    );
    assert_eq!(overflowing.predict(&graph), f64::INFINITY);

    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(overflowing, db.catalog().clone(), ServerConfig::default()),
        NetServerConfig::default(),
    )
    .expect("bind gateway");
    let client = Client::connect(gateway.local_addr(), ClientConfig::tenant("t")).expect("connect");

    // Two requests in flight on the one connection, then a batch: each
    // fails on its own, with a structured error.
    let pending: Vec<_> = plans[..2]
        .iter()
        .map(|p| client.submit(p).expect("submit"))
        .collect();
    for ticket in pending {
        match ticket.wait() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Internal),
            other => panic!("a non-finite prediction answered {other:?}"),
        }
    }
    match client.predict_batch(&plans) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("a batch with non-finite predictions answered {other:?}"),
    }

    // The same connection serves the next request.
    gateway.server().swap_model(healthy.clone(), 2);
    let answer = client.predict(&plans[0]).expect("the connection survived");
    assert_eq!(answer.model_version, 2);
    assert_eq!(
        answer.runtime_secs.to_bits(),
        healthy.predict(&graph).to_bits()
    );
    assert_eq!(gateway.gateway_metrics().connections_total, 1);
}

/// A plan naming a table or column outside the served catalog used to
/// index out of bounds in a worker's featurizer: the worker died, its
/// requests and every later one timed out, and shutdown hung. The
/// gateway now checks every decoded plan against the catalog and answers
/// `BadRequest` — per request id inside a coalesced group, and for the
/// whole frame of a `PredictBatch`.
#[test]
fn plans_outside_the_catalog_are_bad_requests_and_kill_no_worker() {
    use zero_shot_db::catalog::{ColumnId, ColumnRef, TableId, Value};
    use zero_shot_db::engine::{PhysOperator, PlanNode};
    use zero_shot_db::query::{CmpOp, Predicate};

    let db = Database::generate(presets::imdb_like(0.02), 29);
    let (model, plans) = tiny_serving_fixture(&db, 8, 3);
    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(
            model,
            db.catalog().clone(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        ),
        NetServerConfig::default(),
    )
    .expect("bind gateway");
    let client = Client::connect(gateway.local_addr(), ClientConfig::tenant("t")).expect("connect");

    let scan = |table, predicates| {
        PlanNode::leaf(PhysOperator::SeqScan { table, predicates }, 1.0, 1.0, 8.0)
    };
    let unknown_table = scan(TableId(9999), vec![]);
    let column = ColumnRef::new(TableId(0), ColumnId(9999));
    let unknown_column = scan(
        TableId(0),
        vec![Predicate::new(column, CmpOp::Eq, Value::Int(1))],
    );
    let bad_request = |result: Result<(), ClientError>, what: &str| match result {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest, "{what}: {message}");
            assert!(message.contains("unknown"), "{what}: {message}");
        }
        other => panic!("{what} answered {other:?}"),
    };
    bad_request(client.predict(&unknown_table).map(drop), "unknown table");
    bad_request(client.predict(&unknown_column).map(drop), "unknown column");
    let mut batch = plans.clone();
    batch.insert(1, unknown_column);
    bad_request(client.predict_batch(&batch).map(drop), "batch");

    // Pipelined singles may coalesce into one group: only the bad
    // request's id fails.
    let group = [&plans[0], &unknown_table, &plans[1]].map(|p| client.submit(p).expect("submit"));
    let [first, bad, second] = group.map(|t| t.wait());
    bad_request(bad.map(drop), "in a group");
    let pipelined = [first, second].map(|r| r.expect("good member of the group"));

    // Every fixture plan still answers, bit-identically to in process.
    for (i, plan) in plans.iter().enumerate() {
        let remote = client.predict(plan).expect("served after the bad plans");
        let local = gateway
            .server()
            .predict_blocking(plan.clone())
            .expect("in-process");
        assert_eq!(remote.runtime_secs.to_bits(), local.runtime_secs.to_bits());
        if let Some(member) = pipelined.get(i) {
            assert_eq!(member.runtime_secs.to_bits(), local.runtime_secs.to_bits());
        }
    }
    drop(client);
    gateway.shutdown();
}

/// Open a raw, handshaken connection to `addr` as tenant `t`.
fn raw_connection(addr: std::net::SocketAddr) -> std::net::TcpStream {
    use std::io::Write;
    use zero_shot_db::protocol::{
        encode_frame, read_frame, Frame, HelloRequest, Message, PROTOCOL_VERSION,
    };
    let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Message::Hello(HelloRequest {
        protocol_version: PROTOCOL_VERSION,
        tenant: "t".into(),
    });
    stream
        .write_all(&encode_frame(&Frame::new(1, hello)).unwrap())
        .expect("send hello");
    match read_frame(&mut stream).expect("handshake reply") {
        Some(Frame {
            message: Message::HelloAck(_),
            ..
        }) => stream,
        other => panic!("handshake answered {other:?}"),
    }
}

/// A payload that does not parse behind a valid header used to be
/// answered on id 0 with the connection closed under every request in
/// flight.  Only that frame fails now: pipelined between two valid plans
/// on one connection, it gets `BadRequest` on its own id, the plans on
/// both sides of it are answered bit-identically to in process, and the
/// connection serves on.
#[test]
fn a_malformed_payload_fails_its_frame_not_the_connection() {
    use std::io::Write;
    use zero_shot_db::protocol::{encode_frame, read_frame, Frame, Message, HEADER_LEN};

    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 4, 5);
    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(model, db.catalog().clone(), ServerConfig::default()),
        NetServerConfig::default(),
    )
    .expect("bind gateway");
    let mut stream = raw_connection(gateway.local_addr());

    let predict = |id, plan: &zero_shot_db::engine::PlanNode| {
        encode_frame(&Frame::new(id, Message::Predict(Box::new(plan.clone())))).unwrap()
    };
    // A `Predict` header over bytes that are no plan (operator tag 9).
    let garbage = b"\x09 is not an operator";
    let mut bad = predict(3, &plans[1])[..HEADER_LEN].to_vec();
    bad[16..20].copy_from_slice(&(garbage.len() as u32).to_le_bytes());
    bad.extend_from_slice(garbage);
    let mut wire = predict(2, &plans[0]);
    wire.extend_from_slice(&bad);
    wire.extend_from_slice(&predict(4, &plans[2]));
    stream.write_all(&wire).expect("send three frames at once");

    let in_process = |plan: &zero_shot_db::engine::PlanNode| {
        gateway
            .server()
            .predict_blocking(plan.clone())
            .expect("in-process")
            .runtime_secs
            .to_bits()
    };
    let mut answered = HashMap::new();
    for _ in 0..3 {
        let frame = read_frame(&mut stream).expect("a reply").expect("open");
        answered.insert(frame.request_id, frame.message);
    }
    for (id, plan) in [(2, &plans[0]), (4, &plans[2])] {
        match &answered[&id] {
            Message::PredictOk(p) => assert_eq!(p.runtime_secs.to_bits(), in_process(plan)),
            other => panic!("valid plan {id} answered {other:?}"),
        }
    }
    match &answered[&3] {
        Message::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}");
            assert!(e.message.contains("malformed Predict payload"), "{e:?}");
        }
        other => panic!("the malformed frame answered {other:?}"),
    }

    // The same connection serves the next request.
    stream.write_all(&predict(5, &plans[3])).expect("send");
    let next = read_frame(&mut stream).expect("a reply").expect("open");
    assert_eq!(next.request_id, 5);
    match next.message {
        Message::PredictOk(p) => assert_eq!(p.runtime_secs.to_bits(), in_process(&plans[3])),
        other => panic!("the next plan answered {other:?}"),
    }
    assert_eq!(gateway.gateway_metrics().connections_total, 1);
}

/// A NaN estimate crosses the wire as its bits (JSON wrote it as `null`,
/// and the gateway's failed decode closed the connection under every
/// request in flight).  Pipelined between two valid plans, the NaN plan
/// is refused on its own id with `BadRequest` naming the NaN estimate —
/// in process it is `InvalidPlan`, since the featurizer would read the
/// NaN as 0 and serve a confident answer — and its neighbours are
/// answered bit-identically on the same connection.
#[test]
fn a_nan_estimate_crosses_exactly_and_answers_only_its_own_request() {
    use zero_shot_db::serve::ServeError;
    use zero_shot_db::zeroshot::plan_fingerprint;

    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 4, 5);
    let gateway = NetServer::start(
        "127.0.0.1:0",
        PredictionServer::start(model, db.catalog().clone(), ServerConfig::default()),
        NetServerConfig::default(),
    )
    .expect("bind gateway");
    let client = Client::connect(gateway.local_addr(), ClientConfig::tenant("t")).expect("connect");

    let mut nan_plan = plans[1].clone();
    nan_plan.est_cardinality = f64::from_bits(0x7FF8_0000_0000_0BAD);
    let [first, nan, third] =
        [&plans[0], &nan_plan, &plans[2]].map(|p| client.submit(p).expect("submit"));
    match nan.wait() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest, "{message}");
            assert!(message.contains("est_cardinality NaN"), "{message}");
        }
        other => panic!("the NaN plan answered {other:?}"),
    }
    let local = gateway.server().predict_blocking(nan_plan.clone());
    assert!(
        matches!(local, Err(ServeError::InvalidPlan(_))),
        "{local:?}"
    );
    for (ticket, plan) in [(first, &plans[0]), (third, &plans[2])] {
        let remote = ticket.wait().expect("answered on its own id");
        let local = gateway
            .server()
            .predict_blocking(plan.clone())
            .expect("in-process");
        assert_eq!(remote.runtime_secs.to_bits(), local.runtime_secs.to_bits());
        assert_eq!(remote.fingerprint, plan_fingerprint(plan));
    }
    assert_eq!(gateway.gateway_metrics().connections_total, 1);
}
