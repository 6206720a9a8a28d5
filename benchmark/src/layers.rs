//! The outside-in per-layer ledger: calls into each crate's public
//! functions, timed from here with the inputs the workloads generate.
//!
//! Every row is independent of the workload being run, so the four
//! traced runs each print the same set and a layer's number can be
//! compared across them. Rows are medians over rounds; each is also a
//! span under one `ledger` root in the trace file.

use crate::env::{self, expect_ok, Env};
use crate::stats::{median, percentile, process_cpu_ms};
use crate::trace::SpanLog;
use crate::workload::{spec, Spec, SplitMix64};
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::wait::{calculate_wait_with_grid, QupGrid};
use cedar_core::{AggregatorState, PreparedContexts, TreeSpec};
use cedar_distrib::{fit::fit_lognormal_mle, ContinuousDist, LogNormal};
use cedar_estimate::{fit_right_censored, CedarEstimator, DurationEstimator, Model};
use cedar_mesh::wire::{self as mesh_wire, MeshMsg, StageTiming};
use cedar_runtime::checkpoint::{self, Checkpoint, StageCheckpoint};
use cedar_runtime::{
    run_query_prepared, AggregationService, FailureReport, QueryOptions, RuntimeConfig,
    RuntimeMetrics, ServiceConfig, TimeScale,
};
use cedar_server::proto::{read_frame_raw, QueryResult, Request, Response};
use cedar_server::wire2::encode_frame_into;
use cedar_server::{AdmissionConfig, AdmissionGate, Client, SpillConfig, SpillQueue, WireFormat};
use cedar_sim::{simulate_query, SimConfig};
use cedar_telemetry::{
    FlightEntry, FlightRecorder, QueryTrace, Registry, TraceEventKind, TraceSummary,
};
use cedar_wire::{Reader, Writer};
use cedar_workloads::production;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Wall time spent per timed row.
const ROW_BUDGET: Duration = Duration::from_millis(100);
/// Fewest rounds behind a row's median.
const MIN_ROUNDS: usize = 5;

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The rows measured so far and their spans.
pub struct Ledger {
    pub rows: Vec<Row>,
    pub spans: SpanLog,
    root: u32,
}

impl Ledger {
    fn new(epoch: Instant) -> Self {
        let mut spans = SpanLog::new("ledger", 0, epoch, 128);
        let root = spans.open("ledger", 0, 0, Instant::now());
        Self {
            rows: Vec::new(),
            spans,
            root,
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, start: Instant) {
        self.spans.record(name, self.root, 0, start, Instant::now());
        self.rows.push(Row { name, value, unit });
    }

    /// Times `f` in rounds of `inner` calls until the row budget is
    /// spent and reports the median round, per call and per `elems`
    /// elements, in `unit` (`ns` or `us`).
    fn time(
        &mut self,
        name: &'static str,
        unit: &'static str,
        elems: usize,
        inner: usize,
        mut f: impl FnMut(),
    ) {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < MIN_ROUNDS || start.elapsed() < ROW_BUDGET {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            rounds.push(t.elapsed().as_nanos() as f64 / (inner * elems) as f64);
        }
        let ns = median(&rounds);
        let value = if unit == "us" { ns / 1e3 } else { ns };
        self.push(name, value, unit, start);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.value)
    }
}

/// A workload the rows borrow their inputs from.
fn workload(name: &str) -> &'static Spec {
    spec(name).expect("a workload of SPECS")
}

fn wide_tree() -> TreeSpec {
    workload("rpc_wide")
        .typical_tree()
        .build()
        .expect("generated trees build")
}

fn lognormal_samples(n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(1);
    LogNormal::new(6.5, 0.84)
        .expect("valid parameters")
        .sample_vec(&mut rng, n)
}

/// mathx, distrib, estimate, core, workloads, wire: pure computation.
fn compute_rows(l: &mut Ledger) {
    let lower = LogNormal::new(6.5, 0.84).expect("valid parameters");
    let upper = LogNormal::new(4.0, 1.2).expect("valid parameters");

    let zs: Vec<f64> = (0..512).map(|i| -4.0 + i as f64 / 64.0).collect();
    let mut out = vec![0.0; zs.len()];
    l.time("mathx.norm_cdf_fast_ns_per_elem", "ns", 512, 200, || {
        cedar_mathx::simd::norm_cdf_fast_slice(black_box(&zs), &mut out);
        black_box(out[0]);
    });

    let ts: Vec<f64> = (1..=300).map(|i| i as f64 * 1000.0 / 300.0).collect();
    let mut out = vec![0.0; ts.len()];
    l.time("distrib.cdf_batch_ns_per_elem", "ns", 300, 200, || {
        lower.cdf_batch(black_box(&ts), &mut out);
        black_box(out[0]);
    });

    let mut rng = StdRng::seed_from_u64(7);
    l.time("distrib.sample_ns_per_elem", "ns", 2500, 20, || {
        black_box(lower.sample_vec(&mut rng, 2500));
    });

    let history = lognormal_samples(50_000);
    l.time("distrib.fit_lognormal_mle_us", "us", 1, 1, || {
        black_box(fit_lognormal_mle(black_box(&history)).expect("fit succeeds"));
    });

    let mut arrivals = lognormal_samples(50);
    arrivals.sort_by(f64::total_cmp);
    l.time("estimate.observe_estimate_ns", "ns", 50, 20, || {
        let mut est = CedarEstimator::new(50, Model::LogNormal);
        for &t in &arrivals {
            est.observe(t);
            black_box(est.estimate());
        }
    });

    let censored = vec![3000.0; history.len() / 20];
    l.time("estimate.fit_right_censored_us", "us", 1, 1, || {
        black_box(fit_right_censored(Model::LogNormal, &history, &censored));
    });

    let grid = QupGrid::build(1000.0, 1000.0 / 300.0, |rem| {
        if rem <= 0.0 {
            0.0
        } else {
            upper.cdf(rem)
        }
    });
    l.time("core.wait_scan_us", "us", 1, 100, || {
        black_box(calculate_wait_with_grid(black_box(&lower), 50, &grid));
    });

    let profile = ProfileConfig::default();
    let build = |k1, k2, deadline| {
        let priors = production::facebook_mr(k1, k2).priors;
        move || {
            black_box(PreparedContexts::new(
                &priors,
                deadline,
                WaitPolicyKind::Cedar,
                Model::LogNormal,
                300,
                &profile,
            ))
        }
    };
    let small = build(8, 4, 1e6);
    l.time("core.prepared_contexts_build_us.small", "us", 1, 1, || {
        small();
    });
    let wide = build(50, 50, 1000.0);
    l.time("core.prepared_contexts_build_us.wide", "us", 1, 1, || {
        wide();
    });

    let tree = wide_tree();
    let prepared = wide();
    l.time("core.contexts_for_query_us", "us", 1, 10, || {
        black_box(prepared.for_query(black_box(&tree)));
    });

    // One bottom aggregator's whole pass: 50 arrivals, each updating
    // the estimate and re-scanning the wait; the last one departs.
    let ctx = prepared.for_query(&tree).swap_remove(0);
    let scale = 1000.0 / arrivals[arrivals.len() - 1];
    let times: Vec<f64> = arrivals.iter().map(|t| t * scale * 0.5).collect();
    l.time("core.aggregator_on_output_ns", "ns", 50, 5, || {
        let policy = WaitPolicyKind::Cedar.instantiate(ctx.fanout, Model::LogNormal);
        let mut agg = AggregatorState::new(policy, ctx.clone());
        agg.start();
        for &t in &times {
            black_box(agg.on_output(t));
        }
    });

    let def = workload("rpc_small").typical_tree();
    l.time("workloads.treedef_build_ns", "ns", 1, 1000, || {
        black_box(black_box(&def).build().expect("generated trees build"));
    });

    let mut buf = Vec::with_capacity(64);
    l.time("wire.primitive_roundtrip_ns", "ns", 1, 10_000, || {
        buf.clear();
        let mut w = Writer::new(&mut buf);
        w.uvarint(black_box(300_000));
        w.f64(6.5);
        w.str("rpc_small");
        let mut r = Reader::new(&buf);
        black_box((r.uvarint().ok(), r.f64().ok(), r.str().ok()));
    });
}

/// server (codec, admission, spill) and mesh (codec): no sockets.
fn codec_rows(l: &mut Ledger) -> io::Result<()> {
    let small = workload("rpc_small");
    let req = Request::query(small.typical_tree(), None, Some(7));
    let resp = Response::with_result(QueryResult {
        quality: 1.0,
        included_outputs: 16,
        total_processes: 16,
        root_arrivals: 4,
        value_sum: 16.0,
        latency_ms: 0.31,
        epoch: 12,
        failures: None,
        trace: None,
    });
    let mut buf = Vec::with_capacity(256);
    l.time("server.codec_request_ns", "ns", 1, 2000, || {
        encode_frame_into(black_box(&req), &mut buf).expect("encodes");
        let raw = read_frame_raw(&mut buf.as_slice())
            .expect("frames")
            .expect("one frame");
        black_box(raw.decode_auto::<Request>().expect("decodes"));
    });
    l.time("server.codec_response_ns", "ns", 1, 2000, || {
        encode_frame_into(black_box(&resp), &mut buf).expect("encodes");
        let raw = read_frame_raw(&mut buf.as_slice())
            .expect("frames")
            .expect("one frame");
        black_box(raw.decode_auto::<Response>().expect("decodes"));
    });

    let gate = AdmissionGate::new(AdmissionConfig::default());
    l.time("server.admission_ns", "ns", 1, 10_000, || {
        drop(black_box(gate.try_admit()));
    });

    let dir = env::out_dir().join(format!("spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let spill = SpillQueue::open(&SpillConfig::new(&dir))?;
    let never = AtomicBool::new(false);
    encode_frame_into(&req, &mut buf)?;
    l.time("server.spill_roundtrip_us", "us", 1, 200, || {
        let ticket = spill.push(&buf).expect("spill has room");
        black_box(spill.await_replay(ticket, &gate, &never).expect("replays"));
    });
    drop(spill);
    std::fs::remove_dir_all(&dir)?;

    let mesh = workload("mesh_small");
    let exec = MeshMsg::Exec {
        query_id: 7,
        from: "root".into(),
        target: "agg0".into(),
        agg_index: 0,
        tree: mesh.typical_tree(),
        deadline: mesh.deadline,
        seed: 7,
        fault_plan: None,
        trace: None,
    };
    let partial = MeshMsg::Partial {
        query_id: 7,
        from: "agg0".into(),
        origin: 0,
        payload: mesh.k1,
        value: mesh.k1 as f64,
        duration: 3.25,
        retry: false,
        timings: (0..mesh.k1)
            .map(|origin| StageTiming {
                level: 0,
                origin,
                duration: 2.5,
            })
            .collect(),
        censored: Vec::new(),
        failures: FailureReport::default(),
        segment: None,
    };
    for (name, msg) in [
        ("mesh.codec_exec_ns", &exec),
        ("mesh.codec_partial_ns", &partial),
    ] {
        l.time(name, "ns", 1, 1000, || {
            buf.clear();
            mesh_wire::send_as(&mut buf, black_box(msg), WireFormat::Binary).expect("encodes");
            black_box(mesh_wire::recv(&mut buf.as_slice()).expect("decodes"));
        });
    }
    Ok(())
}

/// telemetry: what each query pays to be observable.
fn telemetry_rows(l: &mut Ledger) {
    let hist = Registry::new().histogram("bench_seconds", "a histogram");
    l.time("telemetry.histogram_record_ns", "ns", 1, 10_000, || {
        hist.record(black_box(12.7e-6));
    });
    // A fresh trace per call: a query's trace holds a few hundred
    // events, not millions.
    l.time("telemetry.trace_record_ns", "ns", 256, 1, || {
        let trace = QueryTrace::new();
        for i in 0..256 {
            trace.record(i as f64, 1, 0, TraceEventKind::InitialWait { wait: 1.0 });
        }
        black_box(&trace);
    });
    let flight = FlightRecorder::new(256);
    l.time("telemetry.flight_record_ns", "ns", 1, 10_000, || {
        flight.record(FlightEntry {
            query_id: 1,
            started_unix_us: 1_700_000_000_000_000,
            latency_us: 370,
            deadline: 1e7,
            quality: 1.0,
            included: 16,
            expected: 16,
            shed: false,
            summary: TraceSummary::default(),
        });
    });
}

fn two_worker_runtime() -> io::Result<tokio::runtime::Runtime> {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
}

/// Median wall microseconds of `n` calls of `f`.
fn p50_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    percentile(&mut us, 50.0)
}

/// tokio: the vendored executor's primitives.
fn tokio_rows(l: &mut Ledger, rt: &tokio::runtime::Runtime) {
    l.time("tokio.spawn_join_ns", "ns", 200, 1, || {
        rt.block_on(async {
            for _ in 0..200 {
                tokio::spawn(async {}).await.expect("task joins");
            }
        });
    });

    // Ping-pong through an echo task: 200 round trips of two hops.
    l.time("tokio.mpsc_send_recv_ns", "ns", 400, 1, || {
        rt.block_on(async {
            let (to_echo, mut echo_rx) = tokio::sync::mpsc::channel::<u64>(4);
            let (to_main, mut main_rx) = tokio::sync::mpsc::channel::<u64>(4);
            let echo = tokio::spawn(async move {
                while let Some(v) = echo_rx.recv().await {
                    if to_main.send(v).await.is_err() {
                        break;
                    }
                }
            });
            for i in 0..200 {
                to_echo.send(i).await.expect("echo task alive");
                black_box(main_rx.recv().await);
            }
            drop(to_echo);
            echo.await.expect("echo task joins");
        });
    });

    // What a connection thread does per query: enter the runtime from
    // outside, have a worker run something, and be woken with the result.
    let handle = rt.handle().clone();
    l.time("tokio.block_on_handoff_us", "us", 1, 100, || {
        handle.block_on(async { tokio::spawn(async {}).await.expect("task joins") });
    });

    let start = Instant::now();
    let asked = Duration::from_micros(200);
    let mut over: Vec<f64> = rt.block_on(async {
        let mut over = Vec::with_capacity(300);
        for _ in 0..300 {
            let t = Instant::now();
            tokio::time::sleep(asked).await;
            over.push((t.elapsed().as_secs_f64() - asked.as_secs_f64()) * 1e6);
        }
        over
    });
    l.push(
        "tokio.sleep_overshoot_p50_us",
        percentile(&mut over, 50.0),
        "us",
        start,
    );
}

fn engine_config(spec: &Spec, tree: TreeSpec, seed: u64) -> RuntimeConfig {
    RuntimeConfig::new(tree, spec.deadline)
        .with_priors(production::facebook_mr(spec.k1, spec.k2).priors)
        .with_scale(TimeScale::new(spec.unit))
        .with_seed(seed)
}

/// The contexts the server would prepare for `cfg`'s priors and deadline.
fn prepared_for(cfg: &RuntimeConfig) -> PreparedContexts {
    PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        WaitPolicyKind::Cedar,
        cfg.model,
        cfg.scan_steps,
        &cfg.profile,
    )
}

/// In-process engine p50 for `spec`'s typical tree, microseconds.
fn engine_p50_us(rt: &tokio::runtime::Runtime, spec: &Spec, n: usize) -> f64 {
    let tree = spec.typical_tree().build().expect("generated trees build");
    let cfg = engine_config(spec, tree, 0);
    let prepared = prepared_for(&cfg);
    let values = cedar_runtime::ones(spec.k1 * spec.k2);
    let mut seeds = SplitMix64::new(11);
    p50_us(n, || {
        let cfg = cfg.clone().with_seed(seeds.next_u64());
        black_box(rt.block_on(run_query_prepared(
            &cfg,
            WaitPolicyKind::Cedar,
            values.clone(),
            &prepared,
        )));
    })
}

fn service(spec: &Spec, refit_interval: usize) -> AggregationService {
    let mut cfg = ServiceConfig::new(
        production::facebook_mr(spec.k1, spec.k2).priors,
        spec.deadline,
    );
    cfg.scale = TimeScale::new(spec.unit);
    cfg.refit_interval = refit_interval;
    cfg.metrics = Some(RuntimeMetrics::detached());
    AggregationService::new(cfg)
}

/// In-process `submit_with` p50 for `spec`'s typical tree, microseconds.
fn submit_p50_us(
    rt: &tokio::runtime::Runtime,
    spec: &Spec,
    refit_interval: usize,
    n: usize,
) -> f64 {
    let svc = service(spec, refit_interval);
    let tree = spec.typical_tree().build().expect("generated trees build");
    let mut seeds = SplitMix64::new(13);
    let mut submit = || {
        let opts = QueryOptions {
            seed: Some(seeds.next_u64()),
            ..QueryOptions::default()
        };
        black_box(rt.block_on(svc.submit_with(tree.clone(), opts)));
    };
    for _ in 0..n / 4 {
        submit();
    }
    p50_us(n, submit)
}

/// runtime: the engine and the service around it, no sockets.
fn runtime_rows(l: &mut Ledger, rt: &tokio::runtime::Runtime) -> io::Result<()> {
    let small = workload("rpc_small");
    let churn = workload("rpc_churn");
    let wide = workload("rpc_wide");
    let mesh = workload("mesh_small");

    let start = Instant::now();
    l.push(
        "runtime.engine_query_us.small",
        engine_p50_us(rt, small, 400),
        "us",
        start,
    );
    let start = Instant::now();
    l.push(
        "runtime.engine_query_us.mesh_tree",
        engine_p50_us(rt, mesh, 400),
        "us",
        start,
    );
    let start = Instant::now();
    l.push(
        "runtime.service_submit_us.small",
        submit_p50_us(rt, small, 0, 400),
        "us",
        start,
    );
    let start = Instant::now();
    let every = submit_p50_us(rt, churn, 1, 300);
    let never = submit_p50_us(rt, churn, 0, 300);
    l.push("runtime.refit_ack_us", every - never, "us", start);

    // The paper-sized query against a binding deadline: CPU per arrival
    // and how far past the deadline the answer leaves.
    let start = Instant::now();
    let tree = wide_tree();
    let cfg = engine_config(wide, tree, 0);
    let prepared = prepared_for(&cfg);
    let values = cedar_runtime::ones(wide.k1 * wide.k2);
    let deadline_us = wide.unit.as_secs_f64() * wide.deadline * 1e6;
    // `wall_elapsed` in the outcome is capped at the deadline, so the
    // overrun is timed from here.
    const QUERIES: u64 = 8;
    let mut overrun = Vec::new();
    let cpu0 = process_cpu_ms();
    for seed in 0..QUERIES {
        let cfg = cfg.clone().with_seed(seed);
        let t = Instant::now();
        black_box(rt.block_on(run_query_prepared(
            &cfg,
            WaitPolicyKind::Cedar,
            values.clone(),
            &prepared,
        )));
        overrun.push(t.elapsed().as_secs_f64() * 1e6 - deadline_us);
    }
    let arrivals = (QUERIES as usize * wide.k1 * wide.k2) as f64;
    let cpu_us = (process_cpu_ms() - cpu0) * 1e3 / arrivals;
    l.push(
        "runtime.engine_cpu_us_per_arrival.wide",
        cpu_us,
        "us",
        start,
    );
    l.push(
        "runtime.deadline_overrun_p50_us.wide",
        percentile(&mut overrun, 50.0),
        "us",
        start,
    );

    let stats = cedar_estimate::EmpiricalEstimator::new(Model::LogNormal).stats();
    let ckpt = Checkpoint {
        epoch: 1000,
        completed: 1000,
        refits: 1000,
        written_unix_ms: 1_700_000_000_000,
        stages: vec![
            StageCheckpoint {
                fanout: churn.k1 as u64,
                fitted: Some((6.5, 0.84)),
                stats,
                censored: 0,
            },
            StageCheckpoint {
                fanout: churn.k2 as u64,
                fitted: Some((4.0, 1.2)),
                stats,
                censored: 0,
            },
        ],
    };
    l.time("runtime.checkpoint_encode_us", "us", 1, 1000, || {
        black_box(black_box(&ckpt).encode());
    });
    let dir = env::out_dir().join(format!("ckpt-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    l.time("runtime.checkpoint_store_us", "us", 1, 5, || {
        checkpoint::store(&dir, &ckpt).expect("checkpoint stores");
    });
    std::fs::remove_dir_all(&dir)
}

/// server and telemetry rows that need a live listener: an idle
/// `rpc_small`-shaped server.
fn server_rows(l: &mut Ledger) -> io::Result<()> {
    let small = workload("rpc_small");
    let env = Env::start(small)?;
    let mut client = env.client()?;
    let tree = small.typical_tree();

    let start = Instant::now();
    let ping = p50_us(2000, || {
        client.ping().expect("ping answers");
    });
    l.push("server.ping_rtt_us", ping, "us", start);

    let start = Instant::now();
    let connect = p50_us(200, || {
        let mut fresh = Client::connect_with(env.addr(), WireFormat::Binary).expect("connects");
        fresh.ping().expect("ping answers");
    });
    l.push("server.connect_us", connect, "us", start);

    let start = Instant::now();
    let render = p50_us(300, || {
        black_box(client.metrics().expect("metrics answers"));
    });
    l.push("telemetry.registry_render_us", render - ping, "us", start);

    // Plain and explained queries alternate so drift hits both alike.
    let start = Instant::now();
    let mut plain = Vec::with_capacity(500);
    let mut explained = Vec::with_capacity(500);
    for i in 0..1000u64 {
        let t = Instant::now();
        let resp = if i % 2 == 0 {
            client.query(&tree, None, Some(i))
        } else {
            client.query_explain(&tree, None, Some(i))
        };
        expect_ok(resp?)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        if i % 2 == 0 {
            &mut plain
        } else {
            &mut explained
        }
        .push(us);
    }
    let overhead = percentile(&mut explained, 50.0) - percentile(&mut plain, 50.0);
    l.push("telemetry.explain_overhead_us", overhead, "us", start);

    drop(client);
    env.shutdown().map_err(io::Error::other)
}

/// mesh rows that need live nodes: an idle `mesh_small` deployment.
fn mesh_rows(l: &mut Ledger) -> io::Result<()> {
    let mesh = workload("mesh_small");
    let env = Env::start(mesh)?;
    let mut client = env.client()?;
    let tree = mesh.typical_tree();
    let before = env.scrape()?;
    let since = Instant::now();

    let start = Instant::now();
    let ping = p50_us(2000, || {
        client.ping().expect("ping answers");
    });
    l.push("mesh.ping_rtt_us", ping, "us", start);

    let start = Instant::now();
    for seed in 0..200 {
        expect_ok(client.query(&tree, Some(mesh.deadline), Some(seed))?)?;
    }
    let mut seeds = SplitMix64::new(17);
    let mut failed = None;
    let query = p50_us(600, || {
        match client.query(&tree, Some(mesh.deadline), Some(seeds.next_u64())) {
            Ok(resp) if resp.ok => {}
            Ok(resp) => failed = Some(io::Error::other(format!("{:?}", resp.error))),
            Err(e) => failed = Some(e),
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    // Two network hops separate the client's root from the leaves.
    let in_process = l.get("runtime.engine_query_us.mesh_tree");
    l.push("mesh.hop_tax_us", (query - in_process) / 2.0, "us", start);

    let sent = env.scrape()?.since(&before).heartbeats;
    let per_s = sent / since.elapsed().as_secs_f64();
    l.push("mesh.heartbeats_per_s", per_s, "1/s", since);

    drop(client);
    env.shutdown().map_err(io::Error::other)
}

/// sim: the third driver of Pseudocode 1.
fn sim_rows(l: &mut Ledger) {
    let wide = workload("rpc_wide");
    let cfg = SimConfig::new(wide_tree(), wide.deadline)
        .with_priors(production::facebook_mr(wide.k1, wide.k2).priors)
        .with_seed(1)
        .with_scan_steps(300);
    l.time("sim.simulate_query_us.wide", "us", 1, 1, || {
        black_box(simulate_query(black_box(&cfg), WaitPolicyKind::Cedar));
    });
}

/// Measures every workload-independent per-layer row.
pub fn run(epoch: Instant) -> io::Result<Ledger> {
    let mut l = Ledger::new(epoch);
    compute_rows(&mut l);
    codec_rows(&mut l)?;
    telemetry_rows(&mut l);
    {
        let rt = two_worker_runtime()?;
        tokio_rows(&mut l, &rt);
        runtime_rows(&mut l, &rt)?;
    }
    server_rows(&mut l)?;
    mesh_rows(&mut l)?;
    sim_rows(&mut l);
    let root = l.root;
    l.spans.close(root, Instant::now());
    Ok(l)
}
