//! `cundef-perfbench` — the cundef benchmark.
//!
//! Runs one workload against the `cundef` binary, checks every verdict
//! against an expectation fixed at set-up, and prints the end-to-end
//! metrics (`--trace 0`) or, from a traced in-process run over the same
//! inputs, the per-layer metrics (`--trace 1`). The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod batch;
mod corpus;
mod host;
mod http;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use corpus::{Input, Native};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cundef-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--cundef PATH]

workloads: batch-realistic, serve-loops-cold, serve-realistic-mix
Run from the repository root; `perfbench/run.sh` builds and runs it.";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `--batch` invocations over realistic slices.
    BatchRealistic,
    /// Closed-loop cold serve requests of loop-heavy programs.
    ServeLoopsCold,
    /// Open-loop cached serve traffic on the realistic corpus.
    ServeRealisticMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchRealistic,
        Workload::ServeLoopsCold,
        Workload::ServeRealisticMix,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchRealistic => "batch-realistic",
            Workload::ServeLoopsCold => "serve-loops-cold",
            Workload::ServeRealisticMix => "serve-realistic-mix",
        }
    }
}

/// Where the benchmark runs: the binary under test, the repository
/// root, its scratch directory, and the native oracle.
pub struct Env {
    /// The `cundef` binary.
    pub cundef: PathBuf,
    /// The repository root (the current directory).
    pub root: PathBuf,
    /// Scratch space for inputs, spans and oracle results.
    pub work: PathBuf,
    /// The native-compiler oracle.
    pub native: Native,
}

impl Env {
    /// Write `inputs` under `<work>/<tag>/<name>`; returns that
    /// directory.
    pub fn write_inputs(&self, tag: &str, inputs: &[Input]) -> Result<PathBuf, String> {
        let dir = self.work.join(tag);
        for i in inputs {
            let path = dir.join(&i.name);
            let parent = path.parent().expect("input paths have a directory");
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
            if std::fs::read_to_string(&path).ok().as_deref() != Some(i.source.as_str()) {
                std::fs::write(&path, &i.source).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        Ok(dir)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    cundef: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cundef = PathBuf::from("target/release/cundef");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "`--seed` needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("`--seconds` needs an integer from 1 to 600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` needs 0 or 1".into()),
                })
            }
            "--cundef" => cundef = PathBuf::from(value),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
        cundef,
    })
}

fn run(args: &Args) -> Result<report::Report, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    for needed in ["examples", "trophy-case"] {
        if !root.join(needed).is_dir() {
            return Err(format!(
                "run from the repository root (no `{needed}/` here)"
            ));
        }
    }
    if !Path::new(&args.cundef).is_file() {
        return Err(format!("no cundef binary at {}", args.cundef.display()));
    }
    let work = root.join(".perfbench");
    let native = Native::detect(work.join("native"));
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} native oracle {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        if native.available() {
            "gcc"
        } else {
            "absent (exits unchecked)"
        }
    );
    let env = Env {
        cundef: args.cundef.clone(),
        root,
        work,
        native,
    };
    let stolen = host::steal_s();
    let report = match args.workload {
        Workload::BatchRealistic => batch::run(&env, args.seed, args.seconds, args.trace),
        Workload::ServeLoopsCold => serve::run_loops(&env, args.seed, args.seconds, args.trace),
        Workload::ServeRealisticMix => serve::run_mix(&env, args.seed, args.seconds, args.trace),
    };
    // On a shared virtual machine the host may run other guests on this
    // one's CPUs; a run during which it did reads slow for that reason.
    println!(
        "host: {} CPUs, {:.2} CPU-s stolen by the hypervisor during the run",
        host::cpus(),
        host::steal_s() - stolen
    );
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for p in &report.problems {
                println!("problem: {p}");
            }
            println!("{}", report.result_line(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
