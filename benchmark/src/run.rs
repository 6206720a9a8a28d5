//! One workload run: repeated set-up, the closed-loop measured batches,
//! the correctness checks, and the end-to-end metrics.

use crate::env::{Env, Scrape};
use crate::stats::{
    batch_median, interquartile_mean, median, peak_rss_mib, percentile, process_cpu_ms,
};
use crate::trace::SpanLog;
use crate::workload::Spec;
use cedar_server::proto::{self, Request, Response};
use cedar_server::wire2::encode_frame_into;
use cedar_server::Client;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` rests on their median, as the
/// driver's contract asks.
const SETUPS: usize = 3;

/// Samples per second of `--seconds` the buffers are sized for, so that
/// nothing reallocates while timing.
const MAX_QPS: f64 = 8000.0;

/// How far a binding workload's `quality_mean` may sit from the
/// simulator's over the same trees before the run counts as having
/// measured something else. Late arrivals keep the runtime 0.01 to
/// 0.035 below the simulator.
const SIM_TOLERANCE: f64 = 0.05;

/// Fewest measured batches, however short `--seconds` is.
const MIN_BATCHES: usize = 3;

/// One client's connections and its share of the results.
struct Lane {
    client: Client,
    /// A second connection driven frame by frame in traced batches, so
    /// encode, socket wait and decode can be timed apart.
    raw: Option<TcpStream>,
    buf: Vec<u8>,
    /// Client-observed latency of every measured query, batch after
    /// batch, microseconds.
    latency_us: Vec<f64>,
    /// Client latency minus the latency the front end reports in its
    /// response: what the connection and codec add around the engine.
    overhead_us: Vec<f64>,
    /// `result.quality` of every measured query (0 for a failed one).
    quality: Vec<f64>,
    tally: Tally,
    spans: SpanLog,
}

/// Operations attempted and failed, and why the first one failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Why a warm-up that ended with this tally spoils the run, if it
    /// does.
    fn warmup_problem(&self, setup: usize) -> Option<String> {
        self.first_failure.as_ref().map(|why| {
            format!(
                "set-up {setup}: {} of {} warm-up queries failed, first: {why}",
                self.failed, self.attempted
            )
        })
    }
}

/// Why a response is not a correct answer to a clean all-ones query.
fn violation(spec: &Spec, resp: &Response) -> Option<String> {
    if !resp.ok {
        return Some(format!(
            "{}: {}",
            resp.code.as_deref().unwrap_or("error"),
            resp.error.as_deref().unwrap_or("")
        ));
    }
    let Some(r) = &resp.result else {
        return Some("ok response without a result".into());
    };
    let total = spec.k1 * spec.k2;
    if r.total_processes != total {
        return Some(format!("total_processes {} != {total}", r.total_processes));
    }
    if r.included_outputs > total {
        return Some(format!("included_outputs {} > {total}", r.included_outputs));
    }
    if (r.quality - r.included_outputs as f64 / total as f64).abs() > 1e-12 {
        return Some(format!(
            "quality {} != {}/{total}",
            r.quality, r.included_outputs
        ));
    }
    if r.value_sum != r.included_outputs as f64 {
        return Some(format!(
            "value_sum {} != included_outputs {}",
            r.value_sum, r.included_outputs
        ));
    }
    None
}

impl Lane {
    fn connect(
        env: &Env,
        lane: usize,
        traced: bool,
        epoch: Instant,
        capacity: usize,
    ) -> io::Result<Self> {
        let raw = if traced {
            let stream = TcpStream::connect(env.addr())?;
            stream.set_nodelay(true)?;
            Some(stream)
        } else {
            None
        };
        Ok(Self {
            client: env.client()?,
            raw,
            buf: Vec::with_capacity(256),
            latency_us: Vec::with_capacity(capacity),
            overhead_us: Vec::with_capacity(capacity),
            quality: Vec::with_capacity(capacity),
            tally: Tally::default(),
            spans: SpanLog::new("client", lane, epoch, if traced { 4 * capacity } else { 0 }),
        })
    }

    /// The three steps of `Client::request`, timed apart.
    fn request_traced(&mut self, req: &Request, query: u64) -> io::Result<Response> {
        let stream = self.raw.as_mut().expect("traced lanes hold a raw stream");
        let t0 = Instant::now();
        let root = self.spans.open("query", 0, query, t0);
        encode_frame_into(req, &mut self.buf)?;
        let t1 = Instant::now();
        stream.write_all(&self.buf)?;
        stream.flush()?;
        let raw = proto::read_frame_raw(stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-query")
        })?;
        let t2 = Instant::now();
        let resp = raw.decode_auto::<Response>()?;
        let t3 = Instant::now();
        self.spans.record("client.encode", root, query, t0, t1);
        self.spans.record("client.socket_wait", root, query, t1, t2);
        self.spans.record("client.decode", root, query, t2, t3);
        self.spans.close(root, t3);
        Ok(resp)
    }

    /// Sends `reqs` one after another, each only once the previous reply
    /// is in. `record` is off during warm-up.
    fn run<'a>(
        &mut self,
        spec: &Spec,
        reqs: impl Iterator<Item = (u64, &'a Request)>,
        traced: bool,
        record: bool,
    ) {
        for (query, req) in reqs {
            let start = Instant::now();
            let reply = if traced {
                self.request_traced(req, query)
            } else {
                self.client.request(req)
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            self.tally.attempted += 1;
            let bad = match &reply {
                Ok(resp) => violation(spec, resp),
                Err(e) => Some(format!("transport: {e}")),
            };
            if let Some(why) = bad {
                self.tally.failed += 1;
                self.tally.first_failure.get_or_insert(why);
            }
            if record {
                let result = reply.ok().and_then(|r| r.result);
                self.latency_us.push(us);
                self.overhead_us
                    .push(us - result.as_ref().map_or(0.0, |r| r.latency_ms * 1e3));
                self.quality.push(result.map_or(0.0, |r| r.quality));
            }
        }
    }
}

/// Runs `count` queries split evenly over the lanes, lane `c` taking
/// pool entries `c, c + lanes, ...` (wrapping), one thread per lane.
fn run_batch(
    spec: &Spec,
    lanes: &mut [Lane],
    pool: &[Request],
    count: usize,
    traced: bool,
    record: bool,
) {
    let n = lanes.len();
    std::thread::scope(|s| {
        for (c, lane) in lanes.iter_mut().enumerate() {
            s.spawn(move || {
                let reqs = (0..count / n).map(|i| {
                    let idx = (c + i * n) % pool.len();
                    (idx as u64, &pool[idx])
                });
                lane.run(spec, reqs, traced, record);
            });
        }
    });
}

/// Wall and CPU cost of one measured batch.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_ms: f64,
}

/// Everything a run measured.
pub struct Outcome {
    pub spec: &'static Spec,
    pub attempted: u64,
    pub failed: u64,
    /// Run-level reasons the result is not valid (empty when correct).
    pub problems: Vec<String>,
    pub setup_s: f64,
    pub batches: Vec<Batch>,
    /// Latencies in batch order, all lanes of a batch together.
    pub latency_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
    pub quality_mean: f64,
    pub peak_rss_mb: f64,
    /// Counter deltas over the measured batches.
    pub scraped: Scrape,
    pub measured_s: f64,
    pub span_logs: Vec<SpanLog>,
}

impl Outcome {
    fn batches_of(&self, traced: bool) -> impl Iterator<Item = (usize, &Batch)> {
        self.batches
            .iter()
            .enumerate()
            .filter(move |(_, b)| b.traced == traced)
    }

    /// Latencies of the batches run with (or without) client spans.
    pub fn latencies(&self, traced: bool) -> Vec<f64> {
        let n = self.spec.batch;
        self.batches_of(traced)
            .flat_map(|(i, _)| self.latency_us[i * n..(i + 1) * n].iter().copied())
            .collect()
    }

    /// Per-batch percentile of latency, median over batches.
    pub fn latency_percentile(&self, traced: bool, p: f64) -> f64 {
        batch_median(&self.latencies(traced), self.spec.batch, |b| {
            percentile(b, p)
        })
    }

    pub fn qps(&self) -> f64 {
        let n = self.spec.batch as f64;
        median(
            &self
                .batches_of(false)
                .map(|(_, b)| n / b.wall_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Process CPU per query. `/proc/self/stat` counts 10 ms ticks, so a
    /// batch reads one of a few values and their median would read the
    /// same on every run; the mean of the middle half of the batches is
    /// as robust and resolves the difference.
    pub fn cpu_ms_per_query(&self) -> f64 {
        let n = self.spec.batch as f64;
        let per_batch: Vec<f64> = self.batches_of(false).map(|(_, b)| b.cpu_ms / n).collect();
        interquartile_mean(&per_batch)
    }

    pub fn measured_queries(&self) -> usize {
        self.batches.len() * self.spec.batch
    }

    /// The seven end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("qps", self.qps(), "1/s"),
            ("latency_p50_us", self.latency_percentile(false, 50.0), "us"),
            ("latency_p90_us", self.latency_percentile(false, 90.0), "us"),
            ("quality_mean", self.quality_mean, "ratio"),
            ("cpu_ms_per_query", self.cpu_ms_per_query(), "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Runs one workload for `seconds` of measured batches. With `traced`,
/// every other batch records client spans and only the plain batches
/// feed the comparison figures.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    process_start: Instant,
) -> io::Result<Outcome> {
    let pool = spec.requests(seed);
    let per_lane_capacity = (seconds * MAX_QPS) as usize + spec.batch;
    let mut problems = Vec::new();
    let mut tally = Tally::default();

    // Set-up: listener(s) up, peers handshaken, clients connected and
    // the fixed-count warm-up finished. All but the last are torn down
    // again. Warm-up queries are checked like any other, and a failed
    // one spoils the run, but only measured queries count as attempted.
    // `setup_s` is what came before the first set-up (process start,
    // input generation), paid once, plus the median set-up. A traced run
    // does not report `setup_s` and sets up once.
    let before_setup = process_start.elapsed().as_secs_f64();
    let setup_count = if traced { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(setup_count);
    let mut live = None;
    for rep in 0..setup_count {
        let started = Instant::now();
        let env = Env::start(spec)?;
        let mut lanes = (0..spec.clients)
            .map(|c| Lane::connect(&env, c, traced, process_start, per_lane_capacity))
            .collect::<io::Result<Vec<_>>>()?;
        run_batch(spec, &mut lanes, &pool, spec.warmup, false, false);
        setups.push(started.elapsed().as_secs_f64());
        for lane in &mut lanes {
            problems.extend(std::mem::take(&mut lane.tally).warmup_problem(rep));
        }
        if rep + 1 < setup_count {
            drop(lanes);
            if let Err(left) = env.shutdown() {
                problems.push(format!("set-up {rep} shutdown: {left}"));
            }
        } else {
            live = Some((env, lanes));
        }
    }
    let (env, mut lanes) = live.expect("the last set-up stays up");

    let before = env.scrape()?;
    let mut batches = Vec::new();
    let measure_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while batches.len() < MIN_BATCHES || measure_start.elapsed() < budget {
        let batch_traced = traced && batches.len() % 2 == 1;
        let cpu0 = process_cpu_ms();
        let t0 = Instant::now();
        run_batch(spec, &mut lanes, &pool, spec.batch, batch_traced, true);
        batches.push(Batch {
            traced: batch_traced,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_ms: process_cpu_ms() - cpu0,
        });
    }
    let measured_s = measure_start.elapsed().as_secs_f64();
    let after = env.scrape()?;
    let peak_rss_mb = peak_rss_mib();

    // Interleave the lanes' samples back into batch order.
    let per_lane = spec.batch / spec.clients;
    let mut latency_us = Vec::with_capacity(batches.len() * spec.batch);
    let mut overhead_us = Vec::with_capacity(batches.len() * spec.batch);
    let mut quality = Vec::with_capacity(batches.len() * spec.batch);
    for b in 0..batches.len() {
        let batch = b * per_lane..(b + 1) * per_lane;
        for lane in &lanes {
            latency_us.extend_from_slice(&lane.latency_us[batch.clone()]);
            overhead_us.extend_from_slice(&lane.overhead_us[batch.clone()]);
            quality.extend_from_slice(&lane.quality[batch.clone()]);
        }
    }
    // Every batch answers the same pool, so batch means are comparable
    // and their median shrugs off a disturbed stretch as the timings do.
    let quality_mean = batch_median(&quality, spec.batch, |b| {
        b.iter().sum::<f64>() / b.len() as f64
    });

    let mut span_logs = Vec::new();
    for lane in lanes {
        tally.add(lane.tally);
        span_logs.push(lane.spans);
    }
    if let Err(left) = env.shutdown() {
        problems.push(format!("shutdown: {left}"));
    }
    if let Some(why) = &tally.first_failure {
        problems.push(format!(
            "{} failed operation(s), first: {why}",
            tally.failed
        ));
    }
    if spec.binding {
        let sim = spec.sim_quality(&pool);
        if (quality_mean - sim).abs() > SIM_TOLERANCE {
            problems.push(format!(
                "quality_mean {quality_mean:.4} is not within {SIM_TOLERANCE} of the simulator's {sim:.4}"
            ));
        }
    } else if quality_mean < 0.95 {
        problems.push(format!(
            "quality_mean {quality_mean:.4} < 0.95: the loose deadline became binding"
        ));
    }

    Ok(Outcome {
        spec,
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        setup_s: before_setup + median(&setups),
        batches,
        latency_us,
        overhead_us,
        quality_mean,
        peak_rss_mb,
        scraped: after.since(&before),
        measured_s,
        span_logs,
    })
}
