//! The serve workloads, measured from outside the daemon over
//! keep-alive HTTP:
//!
//! - `serve-loops-cold` — a closed loop over two connections; every
//!   request is a loop-heavy bench program made unique by a trailing
//!   comment, so every request is a cold miss. The run is sized by
//!   request count, so the cache's fill state is the same on every run.
//! - `serve-realistic-mix` — an open loop at a fixed offered rate over
//!   four connections, on the realistic corpus pre-filled into the
//!   cache: most requests repeat known bytes (full hits), a fixed share
//!   is new bytes (cold misses), and formats rotate human/JSON/SARIF.
//!   Latency runs from each request's due time.

use crate::corpus::{self, Expect, Input};
use crate::host::{self, StealSampler, StealTrace};
use crate::http::{request_bytes, Conn, Daemon, Reply};
use crate::report::Report;
use crate::stats::{self, percentile, sorted, Windows};
use crate::trace::{self, Format, TraceOp};
use crate::verify::{self, compare, Observed};
use crate::Env;
use cundef_fuzz::rng::SplitMix64;
use cundef_ub::json::{escaped, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Daemon worker threads.
const JOBS: usize = 2;

/// Daemon start-ups timed for `setup_s` (the median is reported; the
/// last daemon serves the run).
const SETUP_RUNS: usize = 15;

/// `serve-loops-cold`: requests per `--seconds`, and client connections.
const LOOPS_PER_SECOND: usize = 1500;
const LOOPS_CONNECTIONS: usize = 2;

/// `serve-realistic-mix`: offered rate (requests/s), client
/// connections, and one new-bytes request in every `MIX_NEW_EVERY`.
const MIX_RATE: usize = 1500;
const MIX_CONNECTIONS: usize = 4;
const MIX_NEW_EVERY: usize = 10;

/// Requests replayed in-process by the traced run.
const TRACED_LOOPS: usize = 600;
const TRACED_MIX: usize = 3000;

/// Requests re-sent after the cold loop to time hits.
const LOOPS_HIT_PROBE: usize = 64;

/// One planned request.
struct Req {
    /// Index into the workload's inputs (for the expectation).
    input: usize,
    label: String,
    source: String,
    format: Format,
    /// The prepared HTTP request.
    bytes: Vec<u8>,
}

impl Req {
    fn new(input: usize, label: String, source: String, format: Format) -> Req {
        let body = format!(
            "{{\"path\": {}, \"source\": {}, \"format\": \"{}\"}}",
            escaped(&label),
            escaped(&source),
            format.name()
        );
        Req {
            input,
            bytes: request_bytes("POST", "/check", body.as_bytes()),
            label,
            source,
            format,
        }
    }

    fn trace_op(&self, disk: std::path::PathBuf) -> TraceOp {
        TraceOp {
            label: self.label.clone(),
            source: self.source.clone(),
            format: self.format,
            disk,
        }
    }
}

/// The cache outcome a reply reports in `X-Cundef-Cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Hit,
    Miss,
    Other,
}

/// One measured request.
struct Sample {
    req: usize,
    /// From due time (open loop) or send time (closed loop) to reply.
    latency_ns: u64,
    /// From send to reply.
    service_ns: u64,
    /// How late the request was sent.
    late_ns: u64,
    /// When the reply arrived.
    done: Instant,
    cache: Cache,
    seen: Observed,
    error: Option<String>,
}

/// Check one reply against the expectation.
fn check_reply(reply: &Reply, req: &Req, expect: &Expect) -> (Observed, Cache, Option<String>) {
    let cache = match reply.header("X-Cundef-Cache") {
        Some("hit") => Cache::Hit,
        Some("miss") => Cache::Miss,
        _ => Cache::Other,
    };
    if reply.status != 200 {
        return (
            Observed::default(),
            cache,
            Some(format!("status {}", reply.status)),
        );
    }
    let body = reply.text();
    let mut seen = match req.format {
        Format::Human => verify::parse_human(body),
        Format::Json => verify::parse_jsonl(body)
            .remove(&req.label)
            .unwrap_or_default(),
        Format::Sarif => verify::parse_sarif(body),
    };
    seen.verdict = reply
        .header("X-Cundef-Verdict")
        .and_then(verify::verdict_of);
    let want_exit = verify::process_exit([expect.verdict]).to_string();
    let error = match compare(expect, &seen) {
        Err(e) => Some(format!("{}: {e}", req.label)),
        Ok(()) if reply.header("X-Cundef-Exit") != Some(want_exit.as_str()) => Some(format!(
            "{}: X-Cundef-Exit {:?}, expected {want_exit}",
            req.label,
            reply.header("X-Cundef-Exit")
        )),
        Ok(()) => None,
    };
    (seen, cache, error)
}

/// Send `req` on `conn` and check the reply.
fn exchange(conn: &mut Conn, k: usize, req: &Req, inputs: &[Input], due: Instant) -> Sample {
    let sent = Instant::now();
    let reply = conn.call(&req.bytes);
    let done = Instant::now();
    let (seen, cache, error) = match reply {
        Ok(r) => check_reply(&r, req, &inputs[req.input].expect),
        Err(e) => (
            Observed::default(),
            Cache::Other,
            Some(format!("{}: {e}", req.label)),
        ),
    };
    Sample {
        req: k,
        latency_ns: (done - due).as_nanos() as u64,
        service_ns: (done - sent).as_nanos() as u64,
        late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
        done,
        cache,
        seen,
        error,
    }
}

/// Start [`SETUP_RUNS`] daemons, each until its first correct answer
/// (plus `prefill`); keep the last. Returns it and the median set-up
/// time in seconds.
fn set_up(env: &Env, prefill: &[Req], inputs: &[Input]) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_RUNS {
        if let Some(d) = kept.take() {
            Daemon::shutdown(d).map_err(|e| format!("daemon shutdown: {e}"))?;
        }
        let t = Instant::now();
        let d = Daemon::start(&env.cundef, JOBS).map_err(|e| format!("daemon start: {e}"))?;
        if !prefill.is_empty() {
            let mut conn = Conn::connect(d.addr()).map_err(|e| format!("connect: {e}"))?;
            for (k, r) in prefill.iter().enumerate() {
                let s = exchange(&mut conn, k, r, inputs, Instant::now());
                if let Some(e) = s.error {
                    return Err(format!("pre-fill: {e}"));
                }
            }
        }
        times.push(t.elapsed().as_secs_f64());
        kept = Some(d);
    }
    Ok((kept.expect("at least one set-up"), stats::median(times)))
}

/// Counter deltas between two `/stats` snapshots.
fn stat(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Record the cache counters served between two snapshots and print
/// the served composition.
fn cache_metrics(workload: &str, before: &Json, after: &Json, report: &mut Report) {
    let d = |path: &[&str]| stat(after, path) - stat(before, path);
    let requests = d(&["requests"]).max(1.0);
    println!(
        "served {workload}: requests {} full hits {:.4} cold misses {:.4} warm hits {} \
         result-cache evictions {}",
        requests,
        d(&["full_hits"]) / requests,
        d(&["cold_misses"]) / requests,
        d(&["warm_hits"]),
        d(&["results", "evictions"])
    );
    report.set("cache.full_hit_ratio", d(&["full_hits"]) / requests);
    report.set("cache.warm_hits", d(&["warm_hits"]));
    report.set("cache.evictions", d(&["results", "evictions"]));
}

/// Record hit and miss service medians, and the miss time spent
/// outside the in-process check and render of the same bytes.
fn serve_split(hits_ns: &[u64], misses: &[(u64, Option<u64>)], report: &mut Report) {
    let us = |v: Vec<f64>| stats::median(v) / 1e3;
    report.set(
        "serve.hit_us_p50",
        us(hits_ns.iter().map(|&n| n as f64).collect()),
    );
    report.set(
        "serve.miss_us_p50",
        us(misses.iter().map(|&(n, _)| n as f64).collect()),
    );
    report.set(
        "serve.outside_check_us_p50",
        us(misses
            .iter()
            .filter_map(|&(n, check)| Some(n as f64 - check? as f64))
            .collect()),
    );
}

/// Service time of every miss, each paired with the median traced
/// check-and-render time of the same input (traced operation `k`
/// replays `reqs[k]`).
fn traced_misses(
    samples: &[Sample],
    reqs: &[Req],
    outs: &[trace::OpOut],
) -> Vec<(u64, Option<u64>)> {
    let mut per_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (req, out) in reqs.iter().zip(outs) {
        if let Some(ns) = out.check_render_ns {
            per_input.entry(req.input).or_default().push(ns as f64);
        }
    }
    let check: BTreeMap<usize, u64> = per_input
        .into_iter()
        .map(|(input, ns)| (input, stats::median(ns) as u64))
        .collect();
    samples
        .iter()
        .filter(|s| s.cache == Cache::Miss)
        .map(|s| (s.service_ns, check.get(&reqs[s.req].input).copied()))
        .collect()
}

/// Print and record the end-to-end metrics of a serve run, per window
/// of replies in arrival order.
fn end_to_end(
    workload: &str,
    samples: &[Sample],
    steal: &StealTrace,
    setup_s: f64,
    rss_kib: u64,
    report: &mut Report,
) {
    let mut by_done: Vec<&Sample> = samples.iter().collect();
    by_done.sort_by_key(|s| s.done);
    let span_s = (by_done[by_done.len() - 1].done - by_done[0].done).as_secs_f64();
    let lat: Vec<f64> = by_done.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
    let late = sorted(samples.iter().map(|s| s.late_ns as f64 / 1e3).collect());
    println!(
        "{workload}: {} requests in {span_s:.3} s; generator late p50 {:.1} us p99 {:.1} us",
        samples.len(),
        percentile(&late, 50),
        percentile(&late, 99),
    );
    let windows = Windows::new(
        by_done.len(),
        |r| {
            let first = by_done[r.start];
            (
                first.done - Duration::from_nanos(first.latency_ns),
                by_done[r.end - 1].done,
            )
        },
        steal,
        host::cpus(),
    );
    windows.print(workload);
    // Replies after a window's first one, per second.
    let rps = windows.figure(workload, "rps", &by_done, |w| {
        (w.len() - 1) as f64 / (w[w.len() - 1].done - w[0].done).as_secs_f64()
    });
    report.set("files_per_s", rps);
    report.set("rps", rps);
    for (name, pct) in [("p50_ms", 50), ("p99_ms", 99)] {
        let value = windows.figure(workload, name, &lat, |l| stats::window_percentile(l, pct));
        report.set(name, value);
    }
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", rss_kib as f64 / 1024.0);
}

/// Count failures, and check traced verdicts against the served ones.
fn account(samples: &[Sample], report: &mut Report) {
    report.attempted += samples.len() as u64;
    for s in samples {
        if let Some(e) = &s.error {
            report.fail(format!("request {}: {e}", s.req));
        }
    }
}

fn compare_traced(samples: &[Sample], reqs: &[Req], outs: &[trace::OpOut], report: &mut Report) {
    for (s, out) in samples.iter().zip(outs) {
        // SARIF carries no exit, human no first code for defined files:
        // compare what the served format reports.
        let mut traced = out.seen;
        if s.seen.exit.is_none() {
            traced.exit = None;
        }
        if s.seen.code.is_none() {
            traced.code = None;
        }
        if traced != s.seen {
            report.problem(format!(
                "{}: traced verdict {:?} differs from the served {:?}",
                reqs[s.req].label, out.seen, s.seen
            ));
        }
    }
}

/// The request order of `serve-loops-cold`: blocks of every loop
/// program, each block in a seeded order.
pub fn loops_plan(n: usize, programs: usize, seed: u64) -> Vec<usize> {
    (0..n.div_ceil(programs))
        .flat_map(|b| corpus::shuffled(programs, seed ^ (b as u64).wrapping_mul(0x9E37_79B9)))
        .take(n)
        .collect()
}

/// Run `serve-loops-cold`.
pub fn run_loops(env: &Env, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let mut inputs = corpus::loops();
    env.native.fill(&mut inputs)?;
    let dir = env.write_inputs(&format!("loops-{seed}"), &inputs)?;
    let n = (LOOPS_PER_SECOND * seconds as usize).max(stats::min_run_samples());
    let reqs: Vec<Req> = loops_plan(n, inputs.len(), seed)
        .into_iter()
        .enumerate()
        .map(|(k, i)| {
            let source = format!(
                "{}/* perfbench seed {seed} request {k} */\n",
                inputs[i].source
            );
            Req::new(i, inputs[i].name.clone(), source, Format::Json)
        })
        .collect();
    corpus::print_composition("serve-loops-cold", &inputs);
    println!(
        "composition serve-loops-cold: {n} requests, every one new bytes, format json, \
         closed loop over {LOOPS_CONNECTIONS} connections"
    );

    let mut report = Report::default();
    let (daemon, setup_s) = set_up(env, &[], &inputs)?;
    let before = daemon.stats().map_err(|e| format!("/stats: {e}"))?;
    let next = AtomicUsize::new(0);
    let steal = StealSampler::start();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..LOOPS_CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> Result<Vec<Sample>, String> {
                    let mut conn =
                        Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(k) else {
                            return Ok(out);
                        };
                        out.push(exchange(&mut conn, k, req, &inputs, Instant::now()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
            .map(|v| v.into_iter().flatten().collect())
    })?;
    let steal = steal.finish();
    samples.sort_by_key(|s| s.req);
    let after = daemon.stats().map_err(|e| format!("/stats: {e}"))?;
    let rss = daemon.peak_rss_kib().map_err(|e| format!("VmHWM: {e}"))?;
    account(&samples, &mut report);
    end_to_end(
        "serve-loops-cold",
        &samples,
        &steal,
        setup_s,
        rss,
        &mut report,
    );
    cache_metrics("serve-loops-cold", &before, &after, &mut report);

    if traced {
        // Hits: the last requests are still cached; send them again.
        let mut conn = Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut hits = Vec::new();
        for (k, req) in reqs.iter().enumerate().skip(n - LOOPS_HIT_PROBE.min(n)) {
            let s = exchange(&mut conn, k, req, &inputs, Instant::now());
            if s.error.is_some() || s.cache != Cache::Hit {
                report.problem(format!("hit probe {k}: {:?} {:?}", s.cache, s.error));
            }
            hits.push(s.service_ns);
        }
        let m = TRACED_LOOPS.min(n);
        let ops: Vec<TraceOp> = reqs[..m]
            .iter()
            .map(|r| r.trace_op(dir.join(&inputs[r.input].name)))
            .collect();
        let spans = env
            .work
            .join(format!("spans-serve-loops-cold-{seed}.jsonl"));
        let outs = trace::run(&ops, &[], true, &spans, &mut report)?;
        compare_traced(&samples[..m], &reqs, &outs, &mut report);
        serve_split(&hits, &traced_misses(&samples, &reqs, &outs), &mut report);
        report.set(
            "process.start_ms",
            crate::batch::process_start_ms(&env.cundef).map_err(|e| format!("{e}"))?,
        );
    }
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    Ok(report)
}

/// The request plan of `serve-realistic-mix`: `(input, new bytes?,
/// format)` per request. Every [`MIX_NEW_EVERY`]th request is new bytes;
/// inputs are drawn uniformly; formats rotate.
pub fn mix_plan(n: usize, inputs: usize, seed: u64) -> Vec<(usize, bool, Format)> {
    let mut rng = SplitMix64::new(seed ^ 0x006D_6978);
    (0..n)
        .map(|k| {
            let input = (rng.next_u64() % inputs as u64) as usize;
            (
                input,
                k % MIX_NEW_EVERY == MIX_NEW_EVERY - 1,
                Format::ALL[k % 3],
            )
        })
        .collect()
}

/// Wait until `due`: sleep most of the way, then spin.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Run `serve-realistic-mix`.
pub fn run_mix(env: &Env, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let mut inputs = corpus::realistic(&env.root, seed)?;
    env.native.fill(&mut inputs)?;
    let dir = env.write_inputs(&format!("mix-{seed}"), &inputs)?;
    let n = (MIX_RATE * seconds as usize).max(stats::min_run_samples());
    let plan = mix_plan(n, inputs.len(), seed);
    let reqs: Vec<Req> = plan
        .iter()
        .enumerate()
        .map(|(k, &(i, new, format))| {
            let mut source = inputs[i].source.clone();
            if new {
                source.push_str(&format!("/* perfbench seed {seed} request {k} */\n"));
            }
            Req::new(i, inputs[i].name.clone(), source, format)
        })
        .collect();
    let prefill: Vec<Req> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Req::new(i, input.name.clone(), input.source.clone(), Format::Json))
        .collect();
    corpus::print_composition("serve-realistic-mix", &inputs);
    let share = |f: Format| plan.iter().filter(|p| p.2 == f).count() as f64 / n as f64;
    println!(
        "composition serve-realistic-mix: {n} requests at {MIX_RATE}/s over {MIX_CONNECTIONS} \
         connections, hot set {} files pre-filled, new-bytes share {:.3}, formats human {:.3} \
         json {:.3} sarif {:.3}",
        inputs.len(),
        plan.iter().filter(|p| p.1).count() as f64 / n as f64,
        share(Format::Human),
        share(Format::Json),
        share(Format::Sarif)
    );

    let mut report = Report::default();
    let (daemon, setup_s) = set_up(env, &prefill, &inputs)?;
    let before = daemon.stats().map_err(|e| format!("/stats: {e}"))?;
    let interval = Duration::from_secs(1).as_nanos() as f64 / MIX_RATE as f64;
    let steal = StealSampler::start();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |k: usize| t0 + Duration::from_nanos((k as f64 * interval) as u64);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..MIX_CONNECTIONS)
            .map(|c| {
                let (reqs, inputs, daemon) = (&reqs, &inputs, &daemon);
                s.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut conn =
                        Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    for k in (c..reqs.len()).step_by(MIX_CONNECTIONS) {
                        wait_until(due(k));
                        out.push(exchange(&mut conn, k, &reqs[k], inputs, due(k)));
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
            .map(|v| v.into_iter().flatten().collect())
    })?;
    let steal = steal.finish();
    samples.sort_by_key(|s| s.req);
    let after = daemon.stats().map_err(|e| format!("/stats: {e}"))?;
    let rss = daemon.peak_rss_kib().map_err(|e| format!("VmHWM: {e}"))?;
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    account(&samples, &mut report);
    end_to_end(
        "serve-realistic-mix",
        &samples,
        &steal,
        setup_s,
        rss,
        &mut report,
    );
    cache_metrics("serve-realistic-mix", &before, &after, &mut report);

    if traced {
        let m = TRACED_MIX.min(n);
        let ops: Vec<TraceOp> = reqs[..m]
            .iter()
            .map(|r| r.trace_op(dir.join(&inputs[r.input].name)))
            .collect();
        let warm: Vec<TraceOp> = prefill
            .iter()
            .map(|r| r.trace_op(dir.join(&inputs[r.input].name)))
            .collect();
        let spans = env
            .work
            .join(format!("spans-serve-realistic-mix-{seed}.jsonl"));
        let outs = trace::run(&ops, &warm, true, &spans, &mut report)?;
        compare_traced(&samples[..m], &reqs, &outs, &mut report);
        let hits: Vec<u64> = samples
            .iter()
            .filter(|s| s.cache == Cache::Hit)
            .map(|s| s.service_ns)
            .collect();
        serve_split(&hits, &traced_misses(&samples, &reqs, &outs), &mut report);
        report.set(
            "process.start_ms",
            crate::batch::process_start_ms(&env.cundef).map_err(|e| format!("{e}"))?,
        );
    }
    Ok(report)
}

/// Serve each `(label, input)` twice through a fresh daemon, cold then
/// hit, in JSON, and record the serve and cache per-layer metrics.
/// `cold_ns` maps labels to their traced in-process check and render
/// time.
pub fn probe_twice(
    env: &Env,
    checks: &[(String, &Input)],
    cold_ns: &BTreeMap<String, u64>,
    report: &mut Report,
) -> Result<(), String> {
    let inputs: Vec<Input> = checks.iter().map(|(_, i)| (*i).clone()).collect();
    let reqs: Vec<Req> = checks
        .iter()
        .enumerate()
        .map(|(k, (label, input))| Req::new(k, label.clone(), input.source.clone(), Format::Json))
        .collect();
    let daemon = Daemon::start(&env.cundef, JOBS).map_err(|e| format!("daemon start: {e}"))?;
    let before = daemon.stats().map_err(|e| format!("/stats: {e}"))?;
    let mut conn = Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for _pass in 0..2 {
        for (k, req) in reqs.iter().enumerate() {
            let s = exchange(&mut conn, k, req, &inputs, Instant::now());
            if let Some(e) = s.error {
                report.problem(format!("serve probe: {e}"));
            }
            match s.cache {
                Cache::Hit => hits.push(s.service_ns),
                Cache::Miss => misses.push((s.service_ns, cold_ns.get(&req.label).copied())),
                Cache::Other => report.problem(format!("serve probe: {} uncached", req.label)),
            }
        }
    }
    let after = daemon.stats().map_err(|e| format!("/stats: {e}"))?;
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    cache_metrics("batch-realistic probe", &before, &after, report);
    serve_split(&hits, &misses, report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_balanced() {
        assert_eq!(loops_plan(100, 12, 5), loops_plan(100, 12, 5));
        assert_ne!(loops_plan(100, 12, 5), loops_plan(100, 12, 6));
        let p = loops_plan(120, 12, 5);
        for prog in 0..12 {
            assert_eq!(p.iter().filter(|&&i| i == prog).count(), 10);
        }
        let m = mix_plan(3000, 332, 9);
        assert_eq!(m, mix_plan(3000, 332, 9));
        assert_ne!(m, mix_plan(3000, 332, 10));
        assert_eq!(m.iter().filter(|r| r.1).count(), 300);
        assert_eq!(m.iter().filter(|r| r.2 == Format::Sarif).count(), 1000);
    }

    #[test]
    fn request_bodies_are_byte_identical_per_seed() {
        let a = Req::new(
            0,
            "a.c".into(),
            "int main(void){return 0;}".into(),
            Format::Sarif,
        );
        let b = Req::new(
            0,
            "a.c".into(),
            "int main(void){return 0;}".into(),
            Format::Sarif,
        );
        assert_eq!(a.bytes, b.bytes);
        let text = String::from_utf8(a.bytes).unwrap();
        assert!(text.ends_with(
            "{\"path\": \"a.c\", \"source\": \"int main(void){return 0;}\", \"format\": \"sarif\"}"
        ));
    }
}
