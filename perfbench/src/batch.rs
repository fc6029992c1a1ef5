//! `batch-realistic`: one-shot `cundef --batch --jobs 2 --format json`
//! invocations, one after another, each over a pre-commit-sized slice
//! of the realistic corpus written to disk at set-up.

use crate::corpus::{self, Input};
use crate::host::{self, StealSampler};
use crate::report::Report;
use crate::stats::{self, Windows};
use crate::trace::{self, Format, TraceOp};
use crate::verify::{self, compare};
use crate::Env;
use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Files per invocation: a pre-commit-sized change set.
pub const SLICE_FILES: usize = 10;

/// First invocations timed for `setup_s` (the median is reported).
const SETUP_RUNS: usize = 15;

/// `cundef --version` spawns timed for `process.start_ms`.
const START_PROBES: usize = 50;

/// Failed invocations after which the run stops: the result is wrong
/// already, and a binary that cannot be spawned would loop forever.
const MAX_FAILED: u64 = 100;

/// Resource usage of one reaped child, in the layout of Linux's
/// `struct rusage` on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `child` with `wait4`, returning its exit code (or `-signal`)
/// and peak resident set in KiB. The caller must not wait on `child`
/// through `std` afterwards.
fn reap(child: &Child) -> io::Result<(i32, u64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types `wait4` writes (an int and a 64-bit `struct rusage`,
        // whose 144-byte layout `Rusage` reproduces); `pid` is our own
        // unreaped child, so no other process's status is consumed.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok((code, u64::try_from(usage.maxrss_kib).unwrap_or(0)))
}

/// One measured invocation.
struct Run {
    /// Wall time from spawn to reaping, in ms.
    ms: f64,
    /// Files checked.
    files: usize,
    /// When it was reaped.
    end: Instant,
}

/// One finished invocation.
struct Invocation {
    wall: Duration,
    exit: i32,
    rss_kib: u64,
    stdout: String,
}

fn invoke(cundef: &Path, files: &[String]) -> io::Result<Invocation> {
    let t = Instant::now();
    let mut child = Command::new(cundef)
        .args(["--batch", "--jobs", "2", "--format", "json"])
        .args(files)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (exit, rss_kib) = reap(&child)?;
    let wall = t.elapsed();
    read?;
    Ok(Invocation {
        wall,
        exit,
        rss_kib,
        stdout,
    })
}

/// Check one invocation's verdicts and exit code against the corpus.
fn check(inv: &Invocation, files: &[String], expect: &[&Input]) -> Result<(), String> {
    let seen = verify::parse_jsonl(&inv.stdout);
    for (path, input) in files.iter().zip(expect) {
        let got = seen.get(path).copied().unwrap_or_default();
        compare(&input.expect, &got).map_err(|e| format!("{}: {e}", input.name))?;
    }
    let want = verify::process_exit(expect.iter().map(|i| i.expect.verdict));
    if inv.exit != i32::from(want) {
        return Err(format!("exit code {}, expected {want}", inv.exit));
    }
    Ok(())
}

/// The median `cundef --version` wall time, in ms.
pub fn process_start_ms(cundef: &Path) -> io::Result<f64> {
    let mut ms = Vec::new();
    for _ in 0..START_PROBES {
        let t = Instant::now();
        let status = Command::new(cundef)
            .arg("--version")
            .stdout(Stdio::null())
            .status()?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !status.success() {
            return Err(io::Error::other("cundef --version failed"));
        }
    }
    Ok(stats::median(ms))
}

/// The invocation slices for `seed`: a seeded permutation of the
/// corpus, cut into [`SLICE_FILES`]-file slices.
pub fn slices(n: usize, seed: u64) -> Vec<Vec<usize>> {
    corpus::shuffled(n, seed)
        .chunks(SLICE_FILES)
        .map(<[usize]>::to_vec)
        .collect()
}

/// Run the workload.
pub fn run(env: &Env, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let mut inputs = corpus::realistic(&env.root, seed)?;
    env.native.fill(&mut inputs)?;
    let dir = env.write_inputs(&format!("batch-{seed}"), &inputs)?;
    let paths: Vec<String> = inputs
        .iter()
        .map(|i| dir.join(&i.name).to_string_lossy().into_owned())
        .collect();
    let plan = slices(inputs.len(), seed);
    corpus::print_composition("batch-realistic", &inputs);
    println!(
        "composition batch-realistic: {} invocations per pass of {} files each, format json",
        plan.len(),
        SLICE_FILES
    );
    let slice = |k: usize| -> (Vec<String>, Vec<&Input>) {
        let s = &plan[k % plan.len()];
        (
            s.iter().map(|&i| paths[i].clone()).collect(),
            s.iter().map(|&i| &inputs[i]).collect(),
        )
    };

    let mut report = Report::default();
    // Set-up: the first invocations, untimed in the measurement.
    let mut setup = Vec::new();
    for k in 0..SETUP_RUNS {
        let (files, expect) = slice(k);
        let inv = invoke(&env.cundef, &files).map_err(|e| format!("spawning cundef: {e}"))?;
        check(&inv, &files, &expect).map_err(|e| format!("set-up invocation: {e}"))?;
        setup.push(inv.wall.as_secs_f64());
    }

    let mut runs: Vec<Run> = Vec::new();
    let mut peak_kib = 0u64;
    let mut observed = std::collections::BTreeMap::new();
    let steal = StealSampler::start();
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut k = SETUP_RUNS;
    while (start.elapsed() < budget || runs.len() < stats::min_run_samples())
        && report.failed < MAX_FAILED
    {
        let (files, expect) = slice(k);
        k += 1;
        report.attempted += 1;
        let inv = match invoke(&env.cundef, &files) {
            Ok(inv) => inv,
            Err(e) => {
                report.fail(format!("spawning cundef: {e}"));
                continue;
            }
        };
        runs.push(Run {
            ms: inv.wall.as_secs_f64() * 1e3,
            files: files.len(),
            end: Instant::now(),
        });
        peak_kib = peak_kib.max(inv.rss_kib);
        if let Err(e) = check(&inv, &files, &expect) {
            report.fail(format!("invocation {k}: {e}"));
        }
        if traced {
            for (path, seen) in verify::parse_jsonl(&inv.stdout) {
                observed.insert(path, seen);
            }
        }
    }
    let steal = steal.finish();
    if runs.is_empty() {
        return Err(format!("no invocation completed: {:?}", report.problems));
    }
    // Throughput counts invocation time only: checking the output
    // between invocations is the benchmark's work, not the system's.
    let busy_s = |w: &[Run]| w.iter().map(|r| r.ms).sum::<f64>() / 1e3;
    let files = |w: &[Run]| w.iter().map(|r| r.files).sum::<usize>() as f64;
    println!(
        "batch-realistic: {} invocations, {} files, {:.3} s in invocations",
        runs.len(),
        files(&runs),
        busy_s(&runs),
    );
    let windows = Windows::new(
        runs.len(),
        |r| {
            let first = &runs[r.start];
            (
                first.end - Duration::from_secs_f64(first.ms / 1e3),
                runs[r.end - 1].end,
            )
        },
        &steal,
        host::cpus(),
    );
    let w = "batch-realistic";
    windows.print(w);
    let files_per_s = windows.figure(w, "files_per_s", &runs, |r| files(r) / busy_s(r));
    report.set("files_per_s", files_per_s);
    let rps = windows.figure(w, "rps", &runs, |r| r.len() as f64 / busy_s(r));
    report.set("rps", rps);
    let lat: Vec<f64> = runs.iter().map(|r| r.ms).collect();
    for (name, pct) in [("p50_ms", 50), ("p99_ms", 99)] {
        let value = windows.figure(w, name, &lat, |l| stats::window_percentile(l, pct));
        report.set(name, value);
    }
    report.set("setup_s", stats::median(setup));
    report.set("peak_rss_mb", peak_kib as f64 / 1024.0);

    if traced {
        trace_layers(env, seed, &inputs, &paths, &plan, &observed, &mut report)?;
    }
    Ok(report)
}

/// The traced run's part: the in-process pass over one round of the
/// invocation slices, a serve probe over the same files, and the
/// process-start probe.
fn trace_layers(
    env: &Env,
    seed: u64,
    inputs: &[Input],
    paths: &[String],
    plan: &[Vec<usize>],
    observed: &std::collections::BTreeMap<String, verify::Observed>,
    report: &mut Report,
) -> Result<(), String> {
    let order: Vec<usize> = plan.iter().flatten().copied().collect();
    let ops: Vec<TraceOp> = order
        .iter()
        .map(|&i| TraceOp {
            label: paths[i].clone(),
            source: inputs[i].source.clone(),
            format: Format::Json,
            disk: paths[i].clone().into(),
        })
        .collect();
    let spans = env.work.join(format!("spans-batch-realistic-{seed}.jsonl"));
    let outs = trace::run(&ops, &[], false, &spans, report)?;
    for (op, out) in ops.iter().zip(&outs) {
        match observed.get(&op.label) {
            Some(seen) if *seen == out.seen => {}
            other => report.problem(format!(
                "{}: traced verdict {:?} differs from the end-to-end {other:?}",
                op.label, out.seen
            )),
        }
    }
    // The one-shot CLI has no cache: the serve and cache figures come
    // from a daemon that serves each corpus file twice (cold, then hit).
    let checks: Vec<(String, &Input)> = order
        .iter()
        .map(|&i| (paths[i].clone(), &inputs[i]))
        .collect();
    let cold: std::collections::BTreeMap<String, u64> = ops
        .iter()
        .zip(&outs)
        .filter_map(|(op, o)| Some((op.label.clone(), o.check_render_ns?)))
        .collect();
    crate::serve::probe_twice(env, &checks, &cold, report)?;
    report.set(
        "process.start_ms",
        process_start_ms(&env.cundef).map_err(|e| format!("process probe: {e}"))?,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_the_corpus_once_in_seeded_order() {
        let a = slices(332, 11);
        assert_eq!(a, slices(332, 11));
        assert_ne!(a, slices(332, 12));
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        assert!(a.iter().all(|s| !s.is_empty() && s.len() <= SLICE_FILES));
        all.sort();
        assert_eq!(all, (0..332).collect::<Vec<_>>());
    }
}
