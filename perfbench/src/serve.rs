//! `serve-*`: the estimation service over TCP, driven open loop at a fixed
//! rate and then up a rate ladder, every reply checked byte for byte
//! against a serial in-process `ServiceCore` reference.

use crate::loadgen::{open_loop, roundtrip, Answer, Pool, Sample};
use crate::probe::{self, Probe};
use crate::report::{metric, sampled, Metric, Outcome};
use crate::stats::{
    backlog_at, generator_lateness, highest_met_rung, ladder, median, p99_within, percentile,
    RungOutcome, Timing,
};
use crate::trace::{self, ObsSink, Tracer};
use crate::Args;
use pet_core::front::Estimator;
use pet_core::monitor::{Monitor, MonitorConfig};
use pet_server::proto::{EstimateParams, MonitorParams};
use pet_server::service::Dispatch;
use pet_server::{
    parse_request, seed_for_id, serve, Client, ServerConfig, ServerHandle, ServiceCore, Verb,
};
use pet_sim::cache::RosterCache;
use pet_tags::dynamics::{ChurnSchedule, Timeline};
use pet_tags::population::TagPopulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Server start-ups timed before the TCP phases, and at each later
/// sampling point; `setup_s` is the median of all of them.
const SETUPS_FIRST: usize = 7;
const SETUPS_PER_POINT: usize = 3;

/// Connections the generator opens.
const CONNECTIONS: usize = 2;

/// Share of `--seconds` spent at the fixed rate, and per ladder rung.
const FIXED_SHARE: f64 = 0.5;
const RUNG_SHARE: f64 = 0.06;

/// Parts the fixed-rate phase is sent in, with a sampling point after
/// each, so the in-process samples spread over the whole run.
const FIXED_SEGMENTS: usize = 12;

/// Requests per latency window at the fixed rate: p50 and p99 are medians
/// over windows of each window's percentile, so a slow spell of the host
/// moves the windows it covers only. A p99 window needs 1000 requests (10
/// beyond the percentile); a p50 window needs far fewer.
const WINDOW: usize = 1000;
const P50_WINDOW: usize = 100;

/// Fewest windows a ladder rung is judged in.
const RUNG_WINDOWS: usize = 8;

/// Chunks the pool is timed in.
const CHUNKS: usize = 20;

/// Monitor updates per `serve-churn` request; the reply has one more line.
const CHURN_UPDATES: usize = 4;

/// One serving workload.
pub struct Spec {
    pub name: &'static str,
    /// Fixed offered rate, requests per second.
    rate: f64,
    /// Latency limit on p99, seconds.
    limit_s: f64,
    /// Rate ladder for `max_rps`: lowest rung, highest rung.
    rungs: (f64, f64),
    lines_per_reply: usize,
    /// Distinct request lines; the schedule cycles through them.
    pool: usize,
    /// Chunks of the pool run serially in process at each sampling point,
    /// each timed for `sweep_s` and checked against the reference.
    point_chunks: usize,
    /// A request line with its id drawn from `rng`.
    request: fn(&mut StdRng) -> String,
    /// Lines that warm the server before measuring.
    warmup: fn() -> Vec<String>,
}

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "serve-tiny",
        rate: 10_000.0,
        limit_s: 0.001,
        rungs: (10_000.0, 80_000.0),
        lines_per_reply: 1,
        pool: 20_000,
        point_chunks: CHUNKS,
        request: |rng| {
            format!(
                "{{\"id\":\"t{:016x}\",\"verb\":\"estimate\",\"tags\":200,\"rounds\":4}}",
                rng.random::<u64>()
            )
        },
        warmup: || vec!["{\"id\":\"warm\",\"verb\":\"estimate\",\"tags\":200,\"rounds\":1}".into()],
    },
    Spec {
        name: "serve-churn",
        rate: 300.0,
        limit_s: 0.025,
        rungs: (300.0, 1_200.0),
        lines_per_reply: CHURN_UPDATES + 1,
        pool: 1_000,
        point_chunks: 2,
        request: |rng| {
            format!(
                "{{\"id\":\"c{:016x}\",\"verb\":\"monitor\",\"tags\":5000,\"updates\":{CHURN_UPDATES},\"window\":4,\"rounds\":128,\"churn_rate\":50}}",
                rng.random::<u64>()
            )
        },
        warmup: || {
            vec![format!(
                "{{\"id\":\"warm\",\"verb\":\"monitor\",\"tags\":5000,\"updates\":{CHURN_UPDATES},\"window\":4,\"rounds\":128,\"churn_rate\":50}}"
            )]
        },
    },
];

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: crate::report::nproc(),
        deterministic: true,
        ..ServerConfig::default()
    }
}

/// How a request ended, judged against the reference reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Overloaded,
    Deadline,
    Internal,
    Lost,
    Malformed,
    Mismatch,
}

const FAILURE_KINDS: [(Verdict, &str); 6] = [
    (Verdict::Overloaded, "server.failed.overloaded"),
    (Verdict::Deadline, "server.failed.deadline"),
    (Verdict::Internal, "server.failed.internal"),
    (Verdict::Lost, "server.failed.lost"),
    (Verdict::Malformed, "server.failed.malformed"),
    (Verdict::Mismatch, "server.failed.mismatch"),
];

fn verdict(answer: &Answer, reference: &str) -> Verdict {
    let reply = match answer {
        Answer::Expected => return Verdict::Ok,
        Answer::Missing => return Verdict::Lost,
        Answer::Other(reply) => reply,
    };
    if reply.contains("\"error\":\"overloaded\"") {
        Verdict::Overloaded
    } else if reply.contains("\"error\":\"deadline_exceeded\"") {
        Verdict::Deadline
    } else if reply.contains("\"error\":\"internal\"") {
        Verdict::Internal
    } else if reply.contains("\"ok\":true") && reply.lines().count() == reference.lines().count() {
        Verdict::Mismatch
    } else {
        Verdict::Malformed
    }
}

/// Starts the server, connects, and warms it.
fn start(spec: &Spec) -> std::io::Result<(ServerHandle, Vec<Client>)> {
    let handle = serve(&server_config())?;
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS.min(crate::report::nproc()) {
        clients.push(Client::connect(handle.addr())?);
    }
    for line in (spec.warmup)() {
        let reply = roundtrip(&mut clients[0], &line, spec.lines_per_reply)?;
        if !reply.contains("\"ok\":true") {
            return Err(std::io::Error::other(format!("warm-up refused: {reply}")));
        }
    }
    Ok((handle, clients))
}

fn stop(handle: ServerHandle, clients: Vec<Client>) {
    drop(clients);
    handle.shutdown();
    handle.join();
}

/// Times `count` start-ups of a fresh server, stopping each.
fn time_setups(spec: &Spec, count: usize, times: &mut Vec<f64>) -> std::io::Result<()> {
    for _ in 0..count {
        let started = Instant::now();
        let (handle, clients) = start(spec)?;
        times.push(started.elapsed().as_secs_f64());
        stop(handle, clients);
    }
    Ok(())
}

fn warm_core(spec: &Spec) -> ServiceCore {
    let core = ServiceCore::new(&server_config());
    for line in (spec.warmup)() {
        let _ = execute(&core, &line);
    }
    core
}

fn execute(core: &ServiceCore, line: &str) -> String {
    match core.handle_line(line.as_bytes()) {
        Some(Dispatch::Work(request)) => core.execute_work(&request, Instant::now()),
        Some(Dispatch::Reply(reply)) => reply,
        _ => String::new(),
    }
}

/// In-process chunk times, set-up times and host-speed probes, sampled at
/// points spread over the whole run: the host's speed drifts from second
/// to second, and a slow spell then moves a few samples rather than their
/// median.
struct Sampler<'a> {
    spec: &'a Spec,
    core: ServiceCore,
    lines: &'a [String],
    reference: &'a [String],
    chunk: usize,
    /// Chunk times as measured, and scaled to the probe's reference speed.
    raw_chunk_s: Vec<f64>,
    chunk_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// The chunk the next sampling point starts at; points cycle through
    /// the pool.
    next: usize,
    probe: Probe,
    probe_s: Vec<f64>,
}

impl Sampler<'_> {
    /// One sampling point: a probe, the next [`Spec::point_chunks`] chunks
    /// of the pool in process, each timed and checked against the
    /// reference, another probe, and [`SETUPS_PER_POINT`] start-ups.
    fn sample(&mut self, out: &mut Outcome) {
        let arrived = self.probe.run();
        let chunks = self.lines.len().div_ceil(self.chunk);
        let mut times = Vec::with_capacity(self.spec.point_chunks);
        for _ in 0..self.spec.point_chunks {
            let from = self.next % chunks * self.chunk;
            let to = (from + self.chunk).min(self.lines.len());
            self.next += 1;
            let started = Instant::now();
            let replies: Vec<String> = self.lines[from..to]
                .iter()
                .map(|line| execute(&self.core, line))
                .collect();
            times.push(started.elapsed().as_secs_f64());
            out.check(replies == self.reference[from..to], || {
                format!("in-process replies to lines {from}..{to} differ from the reference")
            });
        }
        let leaving = self.probe.run();
        let k = probe::scale(arrived, leaving);
        self.chunk_s.extend(times.iter().map(|t| t * k));
        self.raw_chunk_s.extend(times);
        self.probe_s.extend([arrived, leaving]);
        if let Err(e) = time_setups(self.spec, SETUPS_PER_POINT, &mut self.setup_s) {
            out.check(false, || format!("server set-up failed: {e}"));
        }
    }

    /// The time of one pass over the pool: the chunk count times the median
    /// chunk time in `chunk_s`.
    fn pass_s(&self, chunk_s: &[f64]) -> f64 {
        median(chunk_s) * self.lines.len().div_ceil(self.chunk) as f64
    }
}

/// Median over consecutive windows of `window` requests of each window's
/// nearest-rank percentile `q` of their latencies (nanoseconds, `None` for
/// no reply), in milliseconds.
fn windowed_ms(latencies: &[Option<u64>], q: f64, window: usize) -> f64 {
    let per_window: Vec<f64> = latencies
        .chunks_exact(window)
        .filter_map(|w| {
            let mut l: Vec<u64> = w.iter().flatten().copied().collect();
            l.sort_unstable();
            percentile(&l, q)
        })
        .map(|ns| ns as f64 / 1e6)
        .collect();
    if per_window.is_empty() {
        f64::NAN
    } else {
        median(&per_window)
    }
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let fixed_count = (spec.rate * args.seconds as f64 * FIXED_SHARE).round() as usize;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let lines: Vec<String> = (0..spec.pool.min(fixed_count))
        .map(|_| (spec.request)(&mut rng))
        .collect();
    let core = warm_core(spec);
    let reference: Vec<String> = lines.iter().map(|line| execute(&core, line)).collect();
    let pool = Pool {
        lines: &lines,
        expected: &reference,
        lines_per_reply: spec.lines_per_reply,
    };
    let mut setup_s = Vec::new();
    let setup = time_setups(spec, SETUPS_FIRST, &mut setup_s).and_then(|()| start(spec));
    let (handle, mut clients) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("server set-up failed: {e}"));
            return out;
        }
    };
    let mut sampler = Sampler {
        spec,
        core,
        lines: &lines,
        reference: &reference,
        chunk: lines.len().div_ceil(CHUNKS),
        raw_chunk_s: Vec::new(),
        chunk_s: Vec::new(),
        setup_s,
        next: 0,
        probe: Probe::new(),
        probe_s: Vec::new(),
    };
    let connections = clients.len();
    let mut lateness: Vec<u64> = Vec::new();
    let mut fixed: Vec<Sample> = Vec::with_capacity(fixed_count);
    while fixed.len() < fixed_count {
        let count = fixed_count
            .div_ceil(FIXED_SEGMENTS)
            .min(fixed_count - fixed.len());
        let segment = open_loop(&mut clients, pool, fixed.len(), count, spec.rate);
        lateness.extend(segment_lateness(&segment, connections));
        fixed.extend(segment);
        sampler.sample(&mut out);
    }
    let latencies: Vec<Option<u64>> = fixed.iter().map(|s| s.timing.latency()).collect();
    let peak_rss_mb = crate::peak_rss_mb();
    let mut rungs: Vec<(RungOutcome, Vec<Sample>)> = Vec::new();
    let mut best = None;
    if !args.trace {
        let rung_s = args.seconds as f64 * RUNG_SHARE;
        let rates = ladder(spec.rungs.0, spec.rungs.1, 1.05);
        best = highest_met_rung(&rates, |rate| {
            let samples = open_loop(
                &mut clients,
                pool,
                0,
                (rate * rung_s).round() as usize,
                rate,
            );
            let outcome = rung_outcome(rate, &samples, spec.limit_s);
            rungs.push((outcome, samples));
            sampler.sample(&mut out);
            (outcome.meets(spec.limit_s, connections), outcome)
        });
    }
    stop(handle, clients);
    sampler.sample(&mut out);
    let sweep_s = sampler.pass_s(&sampler.chunk_s);
    let setup_s = median(&sampler.setup_s);

    let mut counts = [0u64; FAILURE_KINDS.len()];
    let mut count = |v: Verdict| {
        if let Some(k) = FAILURE_KINDS.iter().position(|(kind, _)| *kind == v) {
            counts[k] += 1;
        }
    };
    let mut fixed_failed = 0u64;
    for s in &fixed {
        let v = verdict(&s.answer, &reference[s.line]);
        if v != Verdict::Ok {
            count(v);
            fixed_failed += 1;
        }
    }
    out.attempted = fixed.len() as u64;
    out.failed = fixed_failed;
    // On the ladder, refusals and lost replies above capacity are what the
    // rungs probe for; a wrong or malformed reply is a failure anywhere.
    for (outcome, samples) in &rungs {
        out.attempted += outcome.attempted as u64;
        for s in samples {
            let v = verdict(&s.answer, &reference[s.line]);
            if matches!(v, Verdict::Mismatch | Verdict::Malformed) {
                count(v);
                out.failed += 1;
            }
        }
    }
    out.check(counts[4] + counts[5] == 0, || {
        format!(
            "{} replies differ from the in-process reference, {} malformed",
            counts[5], counts[4]
        )
    });
    out.check(fixed_failed == 0, || {
        format!(
            "{fixed_failed} of {} requests failed at the fixed rate",
            fixed.len()
        )
    });

    lateness.sort_unstable();
    let late_p99_ms = percentile(&lateness, 0.99).unwrap_or(u64::MAX) as f64 / 1e6;
    // A run whose generator fell behind measured itself, not the server:
    // it is marked invalid, which is not a wrong output.
    let valid = late_p99_ms <= spec.limit_s * 1e3 / 2.0;
    if !valid {
        eprintln!("invalid run: the generator itself ran late (p99 {late_p99_ms:.3} ms)");
    }
    out.notes.push(("valid", valid.to_string()));
    out.notes
        .push(("backend", server_config().backend.name().to_string()));
    out.notes
        .push(("workers", server_config().workers.to_string()));
    out.notes.push(("connections", connections.to_string()));
    out.notes
        .push(("loadgen.late_p99_ms", format!("{late_p99_ms:.4}")));
    out.notes
        .push(("fixed_segments", FIXED_SEGMENTS.to_string()));
    out.notes.push((
        "latency_windows",
        format!("{} of {WINDOW} requests", fixed.len() / WINDOW),
    ));

    if args.trace {
        let untraced = Untraced {
            replies: &reference,
            pass_s: sampler.pass_s(&sampler.raw_chunk_s),
            reply_p50_us: windowed_ms(&latencies, 0.5, P50_WINDOW) * 1e3,
            late_p99_ms,
            counts,
        };
        traced(&mut out, spec, &lines, &untraced);
        return out;
    }

    let (max_rps, rung_requests) = match best {
        Some((i, outcome)) => {
            out.notes.push((
                "max_rps_rung",
                format!("{} ({} of the ladder)", outcome.rate, i),
            ));
            (outcome.achieved_rps, outcome.attempted)
        }
        None => {
            eprintln!("not even the lowest ladder rung met the limit");
            (0.0, 0)
        }
    };
    let probes: Vec<String> = rungs
        .iter()
        .map(|(o, _)| {
            format!(
                "{} req/s met={} failed={} windows_met={}/{} backlog={} achieved={:.1}",
                o.rate,
                o.meets(spec.limit_s, connections),
                o.failed,
                o.windows_met,
                o.windows,
                o.backlog,
                o.achieved_rps,
            )
        })
        .collect();
    out.notes.push(("ladder", probes.join("; ")));
    out.metrics = vec![
        metric("setup_s", setup_s, "s"),
        sampled("sweep_s", sweep_s, "s", sampler.chunk_s.len()),
        sampled(
            "p50_ms",
            windowed_ms(&latencies, 0.5, P50_WINDOW),
            "ms",
            fixed.len(),
        ),
        sampled(
            "ok_ratio",
            1.0 - fixed_failed as f64 / fixed.len() as f64,
            "ratio",
            fixed.len(),
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    out.reported = vec![
        sampled(
            "p99_ms",
            windowed_ms(&latencies, 0.99, WINDOW),
            "ms",
            fixed.len(),
        ),
        sampled("max_rps", max_rps, "1/s", rung_requests),
        sampled(
            "sweep_raw_s",
            sampler.pass_s(&sampler.raw_chunk_s),
            "s",
            sampler.raw_chunk_s.len(),
        ),
        sampled(
            "probe_s",
            median(&sampler.probe_s),
            "s",
            sampler.probe_s.len(),
        ),
    ];
    out.notes.push((
        "sweep_s",
        "the request pool serially through ServiceCore, at the probe's reference speed".into(),
    ));

    out
}

/// How late the generator sent each request of one open-loop schedule,
/// connection by connection.
fn segment_lateness(samples: &[Sample], connections: usize) -> Vec<u64> {
    (0..connections)
        .flat_map(|c| {
            let timings: Vec<Timing> = samples
                .iter()
                .skip(c)
                .step_by(connections)
                .map(|s| s.timing)
                .collect();
            generator_lateness(&timings)
        })
        .collect()
}

/// Judges one ladder rung. Any reply other than the expected one counts
/// as failed.
fn rung_outcome(rate: f64, samples: &[Sample], limit_s: f64) -> RungOutcome {
    let limit_ns = (limit_s * 1e9) as u64;
    let failed = samples
        .iter()
        .filter(|s| s.answer != Answer::Expected)
        .count();
    let window = (samples.len() / RUNG_WINDOWS).clamp(1, WINDOW);
    let latencies: Vec<Option<u64>> = samples.iter().map(|s| s.timing.latency()).collect();
    let timings: Vec<Timing> = samples.iter().map(|s| s.timing).collect();
    let first_due = timings.first().map_or(0, |t| t.due);
    let last_due = timings.last().map_or(0, |t| t.due);
    let last_done = timings
        .iter()
        .filter_map(|t| t.done)
        .max()
        .unwrap_or(first_due);
    RungOutcome {
        rate,
        attempted: samples.len(),
        failed,
        windows: latencies.chunks_exact(window).len(),
        windows_met: latencies
            .chunks_exact(window)
            .filter(|w| p99_within(w, limit_ns))
            .count(),
        backlog: backlog_at(&timings, last_due),
        achieved_rps: (samples.len() - failed) as f64
            / ((last_done - first_due).max(1) as f64 / 1e9),
    }
}

/// What the untraced part of a traced run measured.
struct Untraced<'a> {
    /// The in-process reference reply of each pool line.
    replies: &'a [String],
    /// One untraced in-process pass over the pool.
    pass_s: f64,
    /// Reply latency p50 over TCP at the fixed rate.
    reply_p50_us: f64,
    late_p99_ms: f64,
    counts: [u64; FAILURE_KINDS.len()],
}

/// The traced run: the pool again through `handle_line` → `execute_work`
/// with spans, then through the public pieces those requests use.
fn traced(out: &mut Outcome, spec: &Spec, pool: &[String], untraced: &Untraced<'_>) {
    let reference = untraced.replies;
    let core = warm_core(spec);
    let sink = Arc::new(ObsSink::new());
    pet_obs::install(sink.clone());
    let tracer = Tracer::new();
    let started = Instant::now();
    for (i, line) in pool.iter().enumerate() {
        let req = i as u64;
        let root = tracer.open("server.request", None, req);
        let dispatch = tracer.time("server.parse", Some(&root), req, || {
            core.handle_line(line.as_bytes())
        });
        let reply = match dispatch {
            Some(Dispatch::Work(request)) => {
                tracer.time("server.execute", Some(&root), req, || {
                    core.execute_work(&request, Instant::now())
                })
            }
            _ => String::new(),
        };
        tracer.close(root);
        out.check(reply == reference[i], || {
            format!("traced reply {i} differs from the reference")
        });
    }
    let traced_s = started.elapsed().as_secs_f64();

    let pieces = Pieces::warmed(spec);
    sink.reset();
    let mut codes = 0u64;
    for (i, line) in pool.iter().enumerate() {
        codes += pieces.replay(&tracer, &sink, i as u64, line, &reference[i], out);
    }
    pet_obs::shutdown();

    let spans = tracer.spans();
    let p50_us = |name: &str| {
        let mut v = trace::durations(&spans, name);
        v.sort_unstable();
        percentile(&v, 0.5).unwrap_or(0) as f64 / 1e3
    };
    let mean_us = |name: &str| {
        let v = trace::durations(&spans, name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e3
        }
    };
    let per = |total: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let parse_us = p50_us("server.parse");
    let execute_us = p50_us("server.execute");
    let hits = sink.count("cache.codes.hit");
    let lookups = hits + sink.count("cache.codes.miss");
    let replay_total = trace::total(&spans, "replay.request");
    let accounted = replay_total - trace::total_self_time(&spans, "replay.request");
    let reply_bytes =
        reference.iter().map(|r| r.len() + 1).sum::<usize>() as f64 / pool.len() as f64;
    let mut metrics: Vec<Metric> = vec![
        sampled(
            "server.transport_us",
            untraced.reply_p50_us - (parse_us + execute_us),
            "us",
            pool.len(),
        ),
        sampled("server.parse_us", parse_us, "us", pool.len()),
        sampled("server.execute_us", execute_us, "us", pool.len()),
        metric("server.reply_bytes", reply_bytes, "bytes"),
    ];
    for (k, (_, name)) in FAILURE_KINDS.iter().enumerate() {
        metrics.push(metric(name, untraced.counts[k] as f64, "count"));
    }
    metrics.extend([
        metric("loadgen.late_p99_ms", untraced.late_p99_ms, "ms"),
        metric("sim.cache.hit_ratio", per(hits, lookups), "ratio"),
        metric("sim.cache.bank_us", mean_us("sim.cache.bank"), "us"),
        metric(
            "hash.bulk_ns_per_code",
            per(sink.span_nanos("hash.bulk_hash"), codes),
            "ns",
        ),
        metric(
            "hash.sort_ns_per_code",
            per(sink.span_nanos("hash.radix_sort"), codes),
            "ns",
        ),
        metric("hash.codes", codes as f64, "count"),
        metric("core.estimate_us", mean_us("core.estimate"), "us"),
        metric(
            "core.ns_per_round",
            per(
                sink.span_nanos("core.session.kernel"),
                sink.count("core.rounds"),
            ),
            "ns",
        ),
        metric("core.rounds", sink.count("core.rounds") as f64, "count"),
        metric("core.slots", sink.count("core.round.slots") as f64, "count"),
        metric(
            "core.monitor.observe_us",
            mean_us("core.monitor.observe"),
            "us",
        ),
        metric("tags.churn_us", mean_us("tags.churn"), "us"),
        metric("tags.keys_us", mean_us("tags.keys"), "us"),
        metric(
            "obs.trace_overhead",
            traced_s / untraced.pass_s - 1.0,
            "ratio",
        ),
        metric(
            "unaccounted_share",
            1.0 - accounted as f64 / trace::total(&spans, "server.execute").max(1) as f64,
            "ratio",
        ),
    ]);
    out.metrics = crate::layers(metrics);
    crate::write_trace(&tracer, spec.name);
}

/// The public pieces a request is made of, replayed one span each.
struct Pieces {
    cache: RosterCache,
}

impl Pieces {
    /// A roster cache warmed like the server's.
    fn warmed(spec: &Spec) -> Self {
        let cache = RosterCache::default();
        for line in (spec.warmup)() {
            if let Ok(request) = parse_request(&line) {
                if let Verb::Estimate(p) = &request.verb {
                    let family = Estimator::new(p.config).family();
                    std::hint::black_box(cache.sequential_bank(p.tags, &p.config, family));
                }
            }
        }
        Self { cache }
    }

    /// Replays one request and checks it reproduces the reference; returns
    /// the codes it hashed.
    fn replay(
        &self,
        tracer: &Tracer,
        sink: &ObsSink,
        req: u64,
        line: &str,
        reference: &str,
        out: &mut Outcome,
    ) -> u64 {
        let request = parse_request(line).expect("generated lines parse");
        let seed_of = |explicit: Option<u64>| explicit.unwrap_or_else(|| seed_for_id(&request.id));
        let (field, value, codes) = match &request.verb {
            Verb::Estimate(p) => {
                let (estimate, codes) = self.estimate(tracer, sink, req, p, seed_of(p.seed));
                ("estimate", estimate, codes)
            }
            Verb::Monitor(p) => {
                let (windowed, codes) = monitor(tracer, req, p, seed_of(p.seed));
                ("final_estimate", windowed, codes)
            }
            _ => return 0,
        };
        out.check(
            reference.contains(&format!("\"{field}\":{value:?},")),
            || format!("replay of {} differs from the reference", request.id),
        );
        codes
    }

    fn estimate(
        &self,
        tracer: &Tracer,
        sink: &ObsSink,
        req: u64,
        p: &EstimateParams,
        seed: u64,
    ) -> (f64, u64) {
        let root = tracer.open("replay.request", None, req);
        let estimator = Estimator::new(p.config);
        let rounds = p.rounds.unwrap_or_else(|| p.config.rounds());
        let misses = sink.count("cache.codes.miss");
        let mut bank = tracer.time("sim.cache.bank", Some(&root), req, || {
            self.cache
                .sequential_bank(p.tags, &p.config, estimator.family())
        });
        let codes = if sink.count("cache.codes.miss") > misses {
            p.tags as u64
        } else {
            0
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let report = tracer
            .time("core.estimate", Some(&root), req, || {
                estimator.try_run_bank(&mut bank, rounds, &mut rng)
            })
            .expect("served requests have positive rounds");
        tracer.close(root);
        (report.estimate, codes)
    }
}

/// Replays one `monitor` request: per update, the churn events, the key
/// collection and the re-estimate, one span each.
fn monitor(tracer: &Tracer, req: u64, p: &MonitorParams, seed: u64) -> (f64, u64) {
    let root = tracer.open("replay.request", None, req);
    let mut monitor = Monitor::new(MonitorConfig {
        config: p.config,
        rounds: p.rounds,
        window: p.window,
        alarm_fraction: p.alarm_fraction,
        reference: None,
        base_seed: seed,
    })
    .expect("parsed monitor parameters are valid");
    let schedule = ChurnSchedule {
        rate: p.churn_rate,
        burst_at: p.burst_at.map(|u| u as usize),
        burst_size: p.burst_size,
    };
    let mut timeline = Timeline::new(TagPopulation::sequential(p.tags));
    let mut windowed = 0.0;
    let mut codes = 0;
    for update in 0..p.updates as usize {
        tracer.time("tags.churn", Some(&root), req, || {
            for event in schedule.events_at(update) {
                timeline.apply(event);
            }
        });
        let keys: Vec<u64> = tracer.time("tags.keys", Some(&root), req, || {
            timeline.population().keys().collect()
        });
        codes += keys.len() as u64;
        let u = tracer
            .time("core.monitor.observe", Some(&root), req, || {
                monitor.observe_keys(&keys)
            })
            .expect("monitor update runs");
        windowed = u.windowed;
    }
    tracer.close(root);
    (windowed, codes)
}
