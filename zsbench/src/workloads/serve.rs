//! The four `serve_*` workloads: one model trained in set-up, served to
//! distinct request plans over an unseen database, driven four ways.
//!
//! Every repetition has a *capacity* phase (closed loop → throughput) and
//! a *reference* phase (open loop at the workload's fixed rate → latency
//! from due time).  Every answer is compared bit for bit with the model's
//! own prediction for the plan (computed by the benchmark straight through
//! `core`) under the model version the answer reports.

use super::{peak_rss_mb, timed_setups, Outcome, Settings, SetupClock};
use crate::inputs::{plans_checksum, q_error, serve_fixture, ServeFixture};
use crate::loadgen::{closed_loop, open_loop, OpenLoopReport, Pending, Reply, Target};
use crate::stats::{iqr_share, max, median, min, percentile};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use zsdb_client::{Client, ClientConfig, PendingPrediction};
use zsdb_core::features::{featurize_plan, featurize_plan_into};
use zsdb_core::{GraphArena, InferenceScratch, PlanGraph, TrainedModel};
use zsdb_engine::{plan_fingerprint, PlanNode};
use zsdb_obs::ActiveTrace;
use zsdb_protocol::{decode_frame, encode_frame, Frame, Message, WirePrediction};
use zsdb_serve::{
    BatchPredictionTicket, NetServer, NetServerConfig, Prediction, PredictionServer,
    PredictionTicket, ServerConfig, StageRecorder, TenantPolicy,
};

/// Plans per `submit_batch` of `serve_batch`.
const BATCH_PLANS: usize = 32;

/// `serve_swap_mix` swaps the served model after every this many
/// requests of the swapping generator.
const SWAP_EVERY: u64 = 4_000;

/// Queue capacity of the server and in-flight quota of the benchmark's
/// tenant.  The shared build box stalls a whole process for tens of
/// milliseconds now and then; after such a stall the open loop sends
/// everything that fell due in a burst, and that burst must queue (and
/// show up as tail latency), not be shed (and fail the run).  4096 holds
/// half a second of the highest reference rate.
const ADMISSION_CAPACITY: usize = 4_096;

/// The reference phase is invalid when its windows close with more than
/// this share of their requests (and more than `BACKLOG_FLOOR` of them)
/// unanswered: the system did not keep up with the schedule, so the
/// latencies are not those of the reference rate.  Judged over all
/// windows together: one stall at the end of one 30 ms window is a tail
/// latency, an overloaded system leaves a backlog in every window.
const BACKLOG_SHARE: f64 = 0.05;
const BACKLOG_FLOOR: u64 = 8;

/// Fewest requests a reference window must hold.
const REFERENCE_SAMPLES: f64 = 25.0;

/// Median q-error of the served predictions against executed runtimes
/// above which the served model counts as broken.
const MAX_SERVED_MEDIAN_QERROR: f64 = 10.0;

/// Wall time of one slice of a direct-call microbenchmark, and how many
/// slices each runs.
const DIRECT_CALL_BUDGET: Duration = Duration::from_millis(10);
const DIRECT_CALL_SLICES: usize = 5;

/// Sequential round trips timed for `client.round_trip_p50_us`.
const ROUND_TRIPS: usize = 400;

/// How the served model is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One plan per in-process `submit`.
    Inproc,
    /// `BATCH_PLANS` plans per in-process `submit_batch`.
    Batch,
    /// One plan per pipelined `Client::submit` over loopback TCP.
    Wire,
    /// `Inproc` traffic while the generator hot-swaps the model.
    SwapMix,
}

impl Mode {
    /// Reference-phase rate in requests per second.
    fn reference_rate(self) -> f64 {
        // About a sixth of the capacity the build box reaches in a fast
        // phase; in its slowest phases capacity falls to 40% of that, and
        // the reference rate must stay well below it or the phase measures
        // a growing queue.
        match self {
            Mode::Inproc | Mode::SwapMix => 4_000.0,
            // 125 batches/s of 32 plans: the same 4000 plans/s.
            Mode::Batch => 125.0,
            // Below the rate where the gateway starts coalescing.  (At
            // 1000 req/s every thread of the pipeline sleeps between
            // requests and the p50 is five wake-ups of an idle core: it
            // doubled in a busy minute of the host.)
            Mode::Wire => 2_000.0,
        }
    }

    /// Length of a reference window: the common window, or as long as it
    /// takes for `REFERENCE_SAMPLES` requests to fall due, so that the
    /// window's p50 is a median and not a single request.
    fn reference_window(self, settings: &Settings) -> Duration {
        settings.window().max(Duration::from_secs_f64(
            REFERENCE_SAMPLES / self.reference_rate(),
        ))
    }

    /// Requests each generator keeps in flight in the capacity phase.
    fn in_flight(self) -> usize {
        match self {
            Mode::Inproc | Mode::SwapMix => 64,
            Mode::Batch => 4,
            Mode::Wire => 32,
        }
    }

    fn ops_per_request(self) -> u64 {
        match self {
            Mode::Batch => BATCH_PLANS as u64,
            _ => 1,
        }
    }
}

/// The server under load: in-process, or behind the TCP gateway.
enum Host {
    Local(PredictionServer),
    Net(NetServer),
}

impl Host {
    fn server(&self) -> &PredictionServer {
        match self {
            Host::Local(server) => server,
            Host::Net(net) => net.server(),
        }
    }
}

/// Everything set-up produces.
struct Rig {
    fixture: ServeFixture,
    host: Host,
    /// The models' own predictions per plan as bits, indexed by
    /// model-version parity (odd versions serve the primary model, even
    /// ones the alternate).
    expected: [Vec<u64>; 2],
    /// `predict_blocking` answers in set-up that differed from `expected`.
    reference_mismatches: u64,
    /// Model version serving when set-up ends.
    version: u32,
}

/// What the model itself predicts for each plan, computed on this thread
/// straight through `core` (`featurize_plan` → `predict`): the reference
/// every served answer is compared with, independent of the server.
fn direct_bits(model: &TrainedModel, fixture: &ServeFixture) -> Vec<u64> {
    fixture
        .plans
        .iter()
        .map(|plan| {
            let graph = featurize_plan(&fixture.catalog, plan, model.featurizer);
            model.predict(&graph).to_bits()
        })
        .collect()
}

/// Ask the server for every plan once, one at a time (which also warms
/// the feature cache), and count the answers that differ from `expected`.
fn blocking_mismatches(server: &PredictionServer, plans: &[PlanNode], expected: &[u64]) -> u64 {
    plans
        .iter()
        .zip(expected)
        .filter(|(plan, bits)| {
            server
                .predict_blocking((*plan).clone())
                .map_or(true, |p| p.runtime_secs.to_bits() != **bits)
        })
        .count() as u64
}

fn set_up(mode: Mode, settings: &Settings, clock: &mut SetupClock) -> Rig {
    let fixture = serve_fixture(
        &settings.sizes,
        settings.seed,
        settings.workers,
        mode == Mode::SwapMix,
        clock,
    );
    let server = PredictionServer::start(
        fixture.model.clone(),
        fixture.catalog.clone(),
        ServerConfig {
            workers: settings.workers,
            queue_capacity: ADMISSION_CAPACITY,
            ..ServerConfig::default()
        },
    );
    let mut expected = [Vec::new(), direct_bits(&fixture.model, &fixture)];
    let mut reference_mismatches = 0;
    let mut version = 1;
    if let Some(alternate) = &fixture.alternate {
        expected[0] = direct_bits(alternate, &fixture);
        server.swap_model(alternate.clone(), 2);
        reference_mismatches += blocking_mismatches(&server, &fixture.plans, &expected[0]);
        server.swap_model(fixture.model.clone(), 3);
        version = 3;
    }
    // Last, so that the cache is warm for the model that serves first.
    reference_mismatches += blocking_mismatches(&server, &fixture.plans, &expected[1]);
    clock.lap();
    let host = if mode == Mode::Wire {
        Host::Net(
            NetServer::start(
                "127.0.0.1:0",
                server,
                NetServerConfig {
                    default_policy: Some(TenantPolicy {
                        max_in_flight: ADMISSION_CAPACITY as u64,
                    }),
                    ..NetServerConfig::default()
                },
            )
            .expect("bind a loopback port"),
        )
    } else {
        Host::Local(server)
    };
    Rig {
        fixture,
        host,
        expected,
        reference_mismatches,
        version,
    }
}

/// What generators and their collectors share.
struct Shared<'a> {
    server: &'a PredictionServer,
    plans: &'a [PlanNode],
    expected: &'a [Vec<u64>; 2],
    stages: StageRecorder,
    /// Latest model version whose swap has returned.
    version: AtomicU32,
}

impl Shared<'_> {
    /// An answer is right when its bits are the reference bits of the
    /// version it reports, and that version is not older than the one
    /// serving when the request was sent.
    fn is_right(&self, plan: usize, bits: u64, version: u32, floor: u32) -> bool {
        version >= floor && self.expected[(version % 2) as usize].get(plan) == Some(&bits)
    }

    fn plan_index(&self, n: u64) -> usize {
        (n % self.plans.len() as u64) as usize
    }

    fn finish_trace(&self, trace: Option<ActiveTrace>) {
        if let Some(trace) = trace {
            let done = self.server.tracer().finish(trace);
            self.stages.record_trace(&done);
        }
    }

    fn settle(&self, first_plan: u64, floor: u32, predictions: &[Prediction]) -> Reply {
        let mut reply = Reply {
            ops: predictions.len() as u64,
            server_ns: predictions.first().map(|p| p.latency.as_nanos() as u64),
            ..Reply::default()
        };
        for (i, p) in predictions.iter().enumerate() {
            let plan = self.plan_index(first_plan + i as u64);
            let right = self.is_right(plan, p.runtime_secs.to_bits(), p.model_version, floor);
            reply.failed += u64::from(!right);
            reply.cache_hits += u64::from(p.cache_hit);
            reply.stolen += u64::from(p.stolen);
        }
        reply
    }
}

/// An admitted request of any mode.
enum ServePending<'a> {
    Single {
        shared: &'a Shared<'a>,
        ticket: PredictionTicket,
        plan: u64,
        floor: u32,
    },
    Batch {
        shared: &'a Shared<'a>,
        ticket: BatchPredictionTicket,
        first_plan: u64,
        floor: u32,
    },
    Wire {
        shared: &'a Shared<'a>,
        pending: PendingPrediction,
        plan: u64,
        floor: u32,
    },
}

impl Pending for ServePending<'_> {
    fn wait(self) -> Reply {
        match self {
            ServePending::Single {
                shared,
                ticket,
                plan,
                floor,
            } => match ticket.wait_traced() {
                Ok((prediction, trace)) => {
                    shared.finish_trace(trace);
                    shared.settle(plan, floor, &[prediction])
                }
                Err(_) => Reply::all_failed(1),
            },
            ServePending::Batch {
                shared,
                ticket,
                first_plan,
                floor,
            } => match ticket.wait_traced() {
                Ok((predictions, trace)) => {
                    shared.finish_trace(trace);
                    let mut reply = shared.settle(first_plan, floor, &predictions);
                    // A short answer leaves the missing plans unanswered.
                    reply.failed += (BATCH_PLANS as u64).saturating_sub(reply.ops);
                    reply
                }
                Err(_) => Reply::all_failed(BATCH_PLANS as u64),
            },
            ServePending::Wire {
                shared,
                pending,
                plan,
                floor,
            } => match pending.wait() {
                Ok(p) => {
                    let right = shared.is_right(
                        shared.plan_index(plan),
                        p.runtime_secs.to_bits(),
                        p.model_version,
                        floor,
                    );
                    Reply {
                        ops: 1,
                        failed: u64::from(!right),
                        cache_hits: u64::from(p.cache_hit),
                        stolen: 0,
                        server_ns: Some(p.server_latency.as_nanos() as u64),
                    }
                }
                // Quota and shed rejections arrive as error replies.
                Err(_) => Reply::all_failed(1),
            },
        }
    }
}

/// One generator's handle on the served model.
struct ServeTarget<'a> {
    shared: &'a Shared<'a>,
    mode: Mode,
    /// This generator's connection (`Mode::Wire`).
    client: Option<Client>,
    /// The two models this generator alternates between
    /// (`Mode::SwapMix`, first generator only).
    swap_between: Option<(&'a TrainedModel, &'a TrainedModel)>,
    sent: u64,
    swap_call_ns: Vec<f64>,
}

impl<'a> ServeTarget<'a> {
    fn swap_if_due(&mut self) {
        let Some((primary, alternate)) = self.swap_between else {
            return;
        };
        self.sent += 1;
        if !self.sent.is_multiple_of(SWAP_EVERY) {
            return;
        }
        let next = self.shared.version.load(Ordering::SeqCst) + 1;
        let model = if next % 2 == 1 { primary } else { alternate }.clone();
        let started = Instant::now();
        self.shared.server.swap_model(model, next);
        self.swap_call_ns.push(started.elapsed().as_nanos() as f64);
        // Published after the swap returned: a request sent from now on
        // must be answered by `next` or later.
        self.shared.version.store(next, Ordering::SeqCst);
    }

    fn submit(&mut self, seq: u64, wait_for_room: bool) -> Result<ServePending<'a>, ()> {
        self.swap_if_due();
        let shared = self.shared;
        let floor = shared.version.load(Ordering::SeqCst);
        let server = shared.server;
        match self.mode {
            Mode::Inproc | Mode::SwapMix => {
                let plan = shared.plans[shared.plan_index(seq)].clone();
                let trace = server.tracer().begin();
                let ticket = if wait_for_room {
                    server.submit_traced(plan, trace).map_err(|_| ())?
                } else {
                    server.try_submit_traced(plan, trace).map_err(|_| ())?
                };
                Ok(ServePending::Single {
                    shared,
                    ticket,
                    plan: seq,
                    floor,
                })
            }
            Mode::Batch => {
                let first_plan = seq * BATCH_PLANS as u64;
                let plans: Vec<PlanNode> = (0..BATCH_PLANS as u64)
                    .map(|i| shared.plans[shared.plan_index(first_plan + i)].clone())
                    .collect();
                // Only the non-blocking batch submission carries a trace;
                // with four batches in flight per generator the queue is
                // never full, so it serves the closed loop too.
                let ticket = server
                    .try_submit_batch_traced(plans, server.tracer().begin())
                    .map_err(|_| ())?;
                Ok(ServePending::Batch {
                    shared,
                    ticket,
                    first_plan,
                    floor,
                })
            }
            Mode::Wire => {
                let client = self.client.as_ref().expect("a wire target has a client");
                // The gateway admits with `try_submit`; a shed or
                // over-quota request comes back as an error reply.
                let pending = client
                    .submit(&shared.plans[shared.plan_index(seq)])
                    .map_err(|_| ())?;
                Ok(ServePending::Wire {
                    shared,
                    pending,
                    plan: seq,
                    floor,
                })
            }
        }
    }
}

impl<'a> Target for ServeTarget<'a> {
    type Pending = ServePending<'a>;

    fn ops_per_request(&self) -> u64 {
        self.mode.ops_per_request()
    }

    fn send(&mut self, seq: u64) -> Result<Self::Pending, ()> {
        self.submit(seq, true)
    }

    fn try_send(&mut self, seq: u64) -> Result<Self::Pending, ()> {
        self.submit(seq, false)
    }
}

/// The server's request stages, in pipeline order, with the per-layer
/// metric each is reported as; `other` collects stage names the server
/// might add, so that an untiled total shows.
const STAGES: [(&str, Option<&str>); 7] = [
    ("admission", Some("serve.stage_admission_us")),
    ("queue_wait", Some("serve.stage_queue_wait_us")),
    ("cache_lookup", Some("serve.stage_cache_lookup_us")),
    ("featurize", Some("serve.stage_featurize_us")),
    ("forward", Some("serve.stage_forward_us")),
    ("respond", Some("serve.stage_respond_us")),
    ("other", None),
];
const QUEUE_WAIT: usize = 1;

/// Stage time the server's own histograms hold: Σ ns per stage (indexed
/// like [`STAGES`]) and the number of traces (every trace has a
/// queue-wait stage).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StageTotals {
    ns: [u64; STAGES.len()],
    traces: u64,
}

impl StageTotals {
    fn read(server: &PredictionServer) -> Self {
        let mut totals = StageTotals::default();
        for (name, histogram) in server.recorder().registry().snapshot().histograms {
            let stage = name
                .strip_prefix("serve.stage.")
                .and_then(|rest| rest.strip_suffix("_ns"))
                .and_then(|stage| STAGES.iter().position(|(s, _)| *s == stage));
            if let Some(i) = stage {
                totals.ns[i] = histogram.sum;
                if i == QUEUE_WAIT {
                    totals.traces = histogram.count;
                }
            }
        }
        totals
    }

    fn add_since(&mut self, before: &StageTotals, after: &StageTotals) {
        for (i, ns) in self.ns.iter_mut().enumerate() {
            *ns += after.ns[i] - before.ns[i];
        }
        self.traces += after.traces - before.traces;
    }

    /// Mean µs per traced request spent in a stage.  Dividing every
    /// stage by the same trace count (not by the stage's own sample
    /// count) is what makes the stage means add up to the total.
    fn mean_us(&self, stage_ns: u64) -> f64 {
        stage_ns as f64 / 1e3 / self.traces.max(1) as f64
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Mean µs per call of `call` over `items`: the fastest of
/// `DIRECT_CALL_SLICES` slices, each cycling through the items for a
/// fixed budget.
fn direct_call_us<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    let slices: Vec<f64> = (0..DIRECT_CALL_SLICES)
        .map(|_| {
            let started = Instant::now();
            let mut calls = 0u64;
            while started.elapsed() < DIRECT_CALL_BUDGET {
                for item in items {
                    call(std::hint::black_box(item));
                }
                calls += items.len() as u64;
            }
            started.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    min(&slices)
}

/// Direct calls into `engine`, `core`, `protocol` and `json` over the
/// workload's own plans, on the calling thread: what one request costs
/// each layer with no queue, thread hop or socket in between.
fn direct_calls(outcome: &mut Outcome, fixture: &ServeFixture) {
    use std::hint::black_box;
    let plans = &fixture.plans;
    let model = &fixture.model;
    outcome.set(
        "engine.fingerprint_us",
        direct_call_us(plans, |p| {
            black_box(plan_fingerprint(p));
        }),
    );
    let mut arena = GraphArena::new();
    let mut graph = arena.take_graph();
    outcome.set(
        "core.featurize_plan_us",
        direct_call_us(plans, |p| {
            featurize_plan_into(
                &fixture.catalog,
                p,
                model.featurizer,
                &mut arena,
                &mut graph,
            );
        }),
    );
    let graphs: Vec<PlanGraph> = plans
        .iter()
        .map(|p| {
            let mut g = arena.take_graph();
            featurize_plan_into(&fixture.catalog, p, model.featurizer, &mut arena, &mut g);
            g
        })
        .collect();
    let mut scratch = InferenceScratch::default();
    outcome.set(
        "core.forward_us",
        direct_call_us(&graphs, |g| {
            black_box(model.model.predict_with(g, &mut scratch));
        }),
    );
    let refs: Vec<&PlanGraph> = graphs.iter().collect();
    let batches: Vec<&[&PlanGraph]> = refs.chunks_exact(BATCH_PLANS).collect();
    outcome.set(
        "core.forward_batch_us_per_plan",
        direct_call_us(&batches, |b| {
            black_box(model.model.predict_batch(b));
        }) / BATCH_PLANS as f64,
    );

    let requests: Vec<Frame> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Frame::traced(
                i as u64 + 1,
                i as u64 + 1,
                Message::Predict(Box::new(p.clone())),
            )
        })
        .collect();
    let request_bytes: Vec<Vec<u8>> = requests
        .iter()
        .map(|f| encode_frame(f).expect("encode a predict frame"))
        .collect();
    let replies: Vec<Frame> = (0..plans.len())
        .map(|i| {
            Frame::traced(
                i as u64 + 1,
                i as u64 + 1,
                Message::PredictOk(WirePrediction {
                    runtime_secs: fixture.actual_runtime_secs[i],
                    fingerprint: plan_fingerprint(&plans[i]),
                    cache_hit: true,
                    server_latency_micros: 40,
                    model_version: 1,
                }),
            )
        })
        .collect();
    let reply_bytes: Vec<Vec<u8>> = replies
        .iter()
        .map(|f| encode_frame(f).expect("encode a reply frame"))
        .collect();
    outcome.set(
        "protocol.encode_predict_us",
        direct_call_us(&requests, |f| {
            black_box(encode_frame(f).expect("encode"));
        }),
    );
    outcome.set(
        "protocol.decode_predict_us",
        direct_call_us(&request_bytes, |b| {
            black_box(decode_frame(b).expect("decode"));
        }),
    );
    outcome.set(
        "protocol.encode_reply_us",
        direct_call_us(&replies, |f| {
            black_box(encode_frame(f).expect("encode"));
        }),
    );
    outcome.set(
        "protocol.decode_reply_us",
        direct_call_us(&reply_bytes, |b| {
            black_box(decode_frame(b).expect("decode"));
        }),
    );
    outcome.set(
        "protocol.predict_frame_bytes",
        request_bytes.iter().map(Vec::len).sum::<usize>() as f64 / request_bytes.len() as f64,
    );
    let texts: Vec<String> = plans
        .iter()
        .map(|p| serde_json::to_string(p).expect("plan to JSON"))
        .collect();
    outcome.set(
        "json.plan_to_string_us",
        direct_call_us(plans, |p| {
            black_box(serde_json::to_string(p).expect("plan to JSON"));
        }),
    );
    outcome.set(
        "json.plan_from_str_us",
        direct_call_us(&texts, |t| {
            black_box(serde_json::from_str::<PlanNode>(t).expect("plan from JSON"));
        }),
    );
}

fn targets<'a>(
    shared: &'a Shared<'a>,
    mode: Mode,
    rig: &'a Rig,
    generators: usize,
) -> Vec<ServeTarget<'a>> {
    (0..generators)
        .map(|g| ServeTarget {
            shared,
            mode,
            client: match &rig.host {
                Host::Net(net) if mode == Mode::Wire => Some(
                    Client::connect(net.local_addr(), ClientConfig::tenant("zsbench"))
                        .expect("connect to the loopback gateway"),
                ),
                _ => None,
            },
            swap_between: (mode == Mode::SwapMix && g == 0).then(|| {
                (
                    &rig.fixture.model,
                    rig.fixture
                        .alternate
                        .as_ref()
                        .expect("swap_mix has two models"),
                )
            }),
            sent: 0,
            swap_call_ns: Vec::new(),
        })
        .collect()
}

/// Run one `serve_*` workload.
pub fn run(mode: Mode, settings: &Settings) -> Outcome {
    let (rig, setup_s) = timed_setups(settings, |clock| set_up(mode, settings, clock));
    let server = rig.host.server();
    let shared = Shared {
        server,
        plans: &rig.fixture.plans,
        expected: &rig.expected,
        stages: server.recorder().stage_recorder(),
        version: AtomicU32::new(rig.version),
    };
    let mut generators = targets(&shared, mode, &rig, settings.generators);

    // Untraced: capacity + reference.  Traced: an untraced capacity
    // window first, so the same run yields the tracing overhead.
    let window = settings.window();
    let reference_window = mode.reference_window(settings);
    let capacity_windows = if settings.traced { 2 } else { 1 };
    let reps = settings.repetitions(window * capacity_windows + reference_window);

    let mut outcome = Outcome::default();
    let mut wrong_or_refused = 0u64;
    let mut capacity_ops_s = Vec::new();
    let mut traced_capacity_ops_s = Vec::new();
    let mut p50_ms = Vec::new();
    let mut offered_ops_s = Vec::new();
    let mut reference = OpenLoopReport::default();
    let mut worst_backlog = 0u64;
    let mut reference_stages = StageTotals::default();
    let mut capacity_stages = StageTotals::default();
    let (mut batches, mut batched_requests) = (0u64, 0u64);
    let before_all = server.metrics();

    for _ in 0..reps {
        server.tracer().set_enabled(false);
        let capacity = closed_loop(&mut generators, mode.in_flight(), window);
        outcome.attempted += capacity.attempted;
        wrong_or_refused += capacity.failed;
        capacity_ops_s.push(capacity.throughput_ops_s());

        if settings.traced {
            server.tracer().set_enabled(true);
            let before = StageTotals::read(server);
            let traced = closed_loop(&mut generators, mode.in_flight(), window);
            capacity_stages.add_since(&before, &StageTotals::read(server));
            outcome.attempted += traced.attempted;
            wrong_or_refused += traced.failed;
            traced_capacity_ops_s.push(traced.throughput_ops_s());
        }

        // (Server-side readings around the window only matter to the
        // traced run; they cost a histogram merge each.)
        let before = settings
            .traced
            .then(|| (StageTotals::read(server), server.metrics()));
        let window_report = open_loop(&mut generators, mode.reference_rate(), reference_window);
        if let Some((stages_before, metrics_before)) = before {
            reference_stages.add_since(&stages_before, &StageTotals::read(server));
            let metrics_after = server.metrics();
            batches += metrics_after.batch_size_histogram.iter().sum::<u64>()
                - metrics_before.batch_size_histogram.iter().sum::<u64>();
            batched_requests += metrics_after.total_requests - metrics_before.total_requests;
        }

        outcome.attempted += window_report.attempted;
        wrong_or_refused += window_report.failed;
        p50_ms.push(percentile(&window_report.latency_ns, 50.0) / 1e6);
        offered_ops_s.push(window_report.offered_ops_s());
        worst_backlog = worst_backlog.max(window_report.backlog_end);
        reference.merge(window_report);
    }
    if reference.backlog_end > BACKLOG_FLOOR
        && reference.backlog_end as f64 > BACKLOG_SHARE * reference.requests as f64
    {
        outcome.violate(
            "the reference windows closed with more than 5% of their requests in flight",
            reference.backlog_end * mode.ops_per_request(),
        );
    }
    server.tracer().set_enabled(false);
    let after_all = server.metrics();
    if wrong_or_refused > 0 {
        outcome.violate(
            "answers differ from the model's own prediction for the plan and model version, or requests were refused",
            wrong_or_refused,
        );
    }

    if rig.reference_mismatches > 0 {
        outcome.violate(
            "predict_blocking differs from featurize_plan + predict of the same model",
            outcome.attempted,
        );
    }
    // Sanity of what is being served at all: predictions for a database
    // the model never saw, against the executed runtimes.
    let served_qerror = median(
        &rig.expected[1]
            .iter()
            .zip(&rig.fixture.actual_runtime_secs)
            .map(|(bits, actual)| q_error(f64::from_bits(*bits), *actual))
            .collect::<Vec<f64>>(),
    );
    let too_wrong = served_qerror.is_nan() || served_qerror >= MAX_SERVED_MEDIAN_QERROR;
    if !settings.smoke && too_wrong {
        outcome.violate("served median q-error is not below 10", outcome.attempted);
    }
    let answered = (reference.attempted - reference.failed).max(1) as f64;
    let swap_call_ns: Vec<f64> = generators
        .iter()
        .flat_map(|g| g.swap_call_ns.iter().copied())
        .collect();
    let swaps = after_all.model_swaps - before_all.model_swaps;
    outcome.notes.push(format!(
        "{} plans (stream {:016x}), {} generators, {} workers, {} repetitions of a {:.3} s capacity and a {:.3} s reference window; capacity {:.0} ops/s in a closed loop of {} in flight per generator; reference {:.0} ops/s offered, {} answered, p50 {:.4} ms from due time; {} swaps; served median q-error {:.4}",
        rig.fixture.plans.len(),
        plans_checksum(&rig.fixture.plans),
        settings.generators,
        settings.workers,
        reps,
        window.as_secs_f64(),
        reference_window.as_secs_f64(),
        max(&capacity_ops_s),
        mode.in_flight(),
        median(&offered_ops_s),
        reference.latency_ns.len(),
        min(&p50_ms),
        swaps,
        served_qerror,
    ));

    outcome.notes.push(format!(
        "over the windows: capacity best {:.0} median {:.0} worst {:.0} ops/s; reference p50 best {:.4} median {:.4} worst {:.4} ms",
        max(&capacity_ops_s),
        median(&capacity_ops_s),
        min(&capacity_ops_s),
        min(&p50_ms),
        median(&p50_ms),
        max(&p50_ms),
    ));

    if !settings.traced {
        // The fastest window of each phase (see README, "Noise").  Serving
        // adds no error of its own (every answer is the model's own
        // prediction, bit for bit, or the run fails), so q-error is at its
        // neutral value; how good the model is, is `train_zero_shot`'s
        // business (a model served after five epochs on three databases
        // lands between 1.4 and 2.9 depending on the seed).
        outcome.set_end_to_end(setup_s, max(&capacity_ops_s), min(&p50_ms), 1.0, 1.0);
        return outcome;
    }

    direct_calls(&mut outcome, &rig.fixture);

    let stages = &reference_stages;
    for (i, (_, metric)) in STAGES.iter().enumerate() {
        if let Some(metric) = metric {
            outcome.set(metric, stages.mean_us(stages.ns[i]));
        }
    }
    outcome.set(
        "serve.server_side_mean_us",
        stages.mean_us(stages.total_ns()),
    );
    outcome.set(
        "serve.server_side_p50_us",
        percentile(&reference.server_ns, 50.0) / 1e3,
    );
    outcome.set(
        "serve.capacity_queue_wait_us",
        capacity_stages.mean_us(capacity_stages.ns[QUEUE_WAIT]),
    );
    let cache_hit_share = reference.cache_hits as f64 / answered;
    let forward_us = match mode {
        Mode::Batch => outcome.metrics["core.forward_batch_us_per_plan"] * BATCH_PLANS as f64,
        _ => outcome.metrics["core.forward_us"],
    };
    let featurize_us = outcome.metrics["core.featurize_plan_us"] * mode.ops_per_request() as f64;
    outcome.set(
        "serve.overhead_us",
        min(&p50_ms) * 1e3 - forward_us - (1.0 - cache_hit_share) * featurize_us,
    );
    outcome.set("serve.cache_hit_share", cache_hit_share);
    outcome.set(
        "serve.batch_size_mean",
        batched_requests as f64 / batches.max(1) as f64,
    );
    outcome.set(
        "serve.rejected",
        (after_all.rejected_requests - before_all.rejected_requests) as f64,
    );
    if mode != Mode::Wire {
        outcome.set("serve.stolen_share", reference.stolen as f64 / answered);
    }
    let untraced = max(&capacity_ops_s);
    outcome.set(
        "obs.tracing_overhead_pct",
        (untraced - max(&traced_capacity_ops_s)) / untraced * 100.0,
    );
    outcome.set("loadgen.offered_ops_s", median(&offered_ops_s));
    outcome.set(
        "loadgen.lag_p99_ms",
        percentile(&reference.lag_ns, 99.0) / 1e6,
    );
    outcome.set("loadgen.lag_max_ms", max(&reference.lag_ns) / 1e6);
    outcome.set("loadgen.backlog_end", worst_backlog as f64);
    outcome.set(
        "loadgen.latency_p99_ms",
        percentile(&reference.latency_ns, 99.0) / 1e6,
    );
    outcome.set(
        "loadgen.latency_p999_ms",
        percentile(&reference.latency_ns, 99.9) / 1e6,
    );
    outcome.set("loadgen.latency_max_ms", max(&reference.latency_ns) / 1e6);
    outcome.set("loadgen.rep_iqr_pct", iqr_share(&capacity_ops_s) * 100.0);
    outcome.set("loadgen.peak_rss_mb", peak_rss_mb());
    outcome.notes.push(format!(
        "tail latencies over {} samples; stage means tile {:.3} of {:.3} us server side ({} traces)",
        reference.latency_ns.len(),
        stages.mean_us(stages.total_ns() - stages.ns[STAGES.len() - 1]),
        stages.mean_us(stages.total_ns()),
        stages.traces,
    ));

    if mode == Mode::SwapMix {
        outcome.set("serve.swap_call_us", median(&swap_call_ns) / 1e3);
        outcome.set("serve.swaps", swaps as f64);
        outcome.set(
            "serve.cache_invalidations",
            (after_all.cache_invalidations - before_all.cache_invalidations) as f64,
        );
        outcome.set(
            "serve.misses_per_swap",
            (after_all.cache_misses - before_all.cache_misses) as f64 / swaps.max(1) as f64,
        );
    }

    if let Host::Net(net) = &rig.host {
        let tenant = net
            .gateway_metrics()
            .tenants
            .into_iter()
            .find(|t| t.tenant == "zsbench")
            .expect("the gateway has seen the benchmark's tenant");
        outcome.set("serve.net_admitted", tenant.admitted as f64);
        outcome.set("serve.net_rejected_quota", tenant.rejected_quota as f64);
        outcome.set("serve.net_rejected_shed", tenant.rejected_shed as f64);
        let client = generators[0].client.as_ref().expect("a wire client");
        let round_trips: Vec<f64> = (0..ROUND_TRIPS)
            .map(|i| {
                let started = Instant::now();
                client
                    .predict(&rig.fixture.plans[i % rig.fixture.plans.len()])
                    .expect("a sequential round trip");
                started.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        outcome.set("client.round_trip_p50_us", percentile(&round_trips, 50.0));
        // The same plans at the same rate straight into the pool behind
        // the gateway: what is left of the wire p50 is the wire's.
        let mut inproc = targets(&shared, Mode::Inproc, &rig, settings.generators);
        let direct_p50_us: Vec<f64> = (0..reps.min(20))
            .map(|_| {
                let direct = open_loop(&mut inproc, mode.reference_rate(), reference_window);
                percentile(&direct.latency_ns, 50.0) / 1e3
            })
            .collect();
        outcome.set(
            "client.wire_tax_us",
            min(&p50_ms) * 1e3 - min(&direct_p50_us),
        );
    }
    outcome
}
