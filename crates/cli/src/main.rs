//! `cundef` — a kcc-style undefined-behavior checker.
//!
//! Runs `.c` snippets (in the supported subset) through a two-phase
//! pipeline mirroring the paper's split between the *semantics of
//! translation* and the *semantics of execution*:
//!
//! 1. **translation phase** — `cundef-analysis` checks the resolved AST
//!    for statically detectable undefinedness (declaration/scope rules,
//!    the type system, label/switch constraints, undefined constant
//!    expressions). Files with no `main` — headers, libraries, code you
//!    cannot run — are fully checkable here.
//! 2. **execution phase** — the `cundef-semantics` evaluator runs the
//!    program and gets stuck on dynamic undefinedness.
//!
//! `--phase translation|execution|all` selects the phases (default
//! `all`). A file whose translation phase already found undefinedness is
//! *not* executed: it is statically doomed, and running it would only
//! duplicate or shadow the report.
//!
//! Checking and rendering are split: each file reduces to a
//! [`FileResult`](cundef_ub::render::FileResult) (the structured
//! verdict + findings + notes), and a pluggable
//! [`Renderer`](cundef_ub::render::Renderer) — selected by
//! `--format human|json|sarif` — turns results into bytes.
//! `--stats[=json]` reports per-phase wall times and `--profile` the
//! VM's execution telemetry, both on stderr so every stdout format
//! stays clean. `--fail-on error|ub|never` moves the exit-code
//! threshold for CI gating without changing any report.
//!
//! With `--batch`, many files are checked in parallel across a worker
//! pool (see [`pool`]); duplicate paths are checked once and replayed.
//! `cundef serve` keeps that pool alive as a daemon behind a
//! content-hash incremental cache (see [`serve`]).

mod check;
mod pool;
mod serve;

use check::{check_file, render_profile, CheckOptions, Checked, FailOn, Format, Phase, PhaseStats};
use cundef_ub::render::{Rendered, Verdict};
use cundef_ub::{catalog, catalog_counts, Detectability};
use pool::{check_batch, WorkerPool};
use std::io::Write;
use std::process::ExitCode;

/// Print to stdout, ignoring broken pipes (`cundef … | head` must not
/// panic; the exit code still reflects the analysis).
macro_rules! say {
    ($($t:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($t)*);
    };
}

/// Print to stderr, ignoring broken pipes.
macro_rules! complain {
    ($($t:tt)*) => {
        let _ = writeln!(std::io::stderr(), $($t)*);
    };
}

const USAGE: &str = "\
cundef — undefined-behavior checker for C snippets
(reproduction of `kcc` from \"Defining the Undefinedness of C\", PLDI 2015)

USAGE:
    cundef [OPTIONS] <FILE>...
    cundef serve [SERVE OPTIONS]    (see `cundef serve --help`)
    cundef fuzz [FUZZ OPTIONS]      (see `cundef fuzz --help`)

OPTIONS:
    --phase PHASE Which phase(s) to run: `translation` (static checks
                  only — works on files with no `main`), `execution`
                  (run the program), or `all` (default: translation
                  first; a statically doomed file is not executed)
    --format F    Output format: `human` (default, kcc-style reports),
                  `json` (JSON Lines: one event object per line), or
                  `sarif` (one SARIF 2.1.0 document on stdout, rule
                  metadata from the §5.2.1 catalog)
    --fail-on T   Exit-code threshold: `ub` (default — exit 1 on any
                  undefined file, 2 on engine failure), `error` (reports
                  still print, but only engine failures exit nonzero),
                  or `never` (always exit 0 once the run completes);
                  verdicts and reports are unaffected
    --stats[=json] Report per-phase wall times (read, lex, parse,
                  resolve, analyze, compile, execute) per file and
                  aggregated, on stderr; `=json` for machine readers
    --profile     Collect and report execution telemetry on stderr:
                  opcode histogram, superinstruction and word fast-path
                  hit rates, footprint-elision rate, steps, memory
                  counters (off by default and costs nothing when off)
    --catalog     Print the paper's §5.2.1 catalog summary and exit
    --batch       Check the files in parallel across worker threads;
                  verdicts and output order are identical to a
                  sequential run, and duplicate paths are checked once
    --jobs N      Worker threads for --batch (default: the machine's
                  available parallelism)
    -q, --quiet   Only print reports, no per-file success lines
    -h, --help    Print this help
    --version     Print version

EXIT STATUS:
    0  every file checked clean in the selected phases (or the
       `--fail-on` threshold demoted the failures)
    1  undefined behavior was detected in at least one file
    2  usage error, unreadable file, or input outside the subset";

/// `--stats` reporting mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    Off,
    Human,
    Json,
}

const SERVE_USAGE: &str = "\
cundef serve — long-running checking service with an incremental cache

Accepts translation units as JSONL requests on stdin or over a local
HTTP endpoint, shards them across a persistent worker pool, and
memoizes results in a content-hash cache so repeat traffic is nearly
free. Responses are byte-identical to one-shot `cundef` output for the
same file and options, in every format.

USAGE:
    cundef serve [OPTIONS]

REQUEST (one JSON object per stdin line, or POST /check body):
    {\"path\": \"examples/defined.c\"}            check a file on disk (stdin only)
    {\"source\": \"int main(void){return 0;}\"}   check inline source
    optional per-request fields: \"id\" (echoed), \"path\" (label for
    inline source), \"phase\", \"format\", \"quiet\", \"fail_on\",
    \"profile\"
    commands: {\"cmd\": \"stats\"}  {\"cmd\": \"shutdown\"}

HTTP (with --listen): POST /check (request object with inline
    \"source\" as body; rendered report as response body,
    verdict/exit/cache in X-Cundef-* headers), GET /stats, GET /health,
    POST /shutdown. Without --listen the daemon serves stdin, and EOF
    shuts it down.

OPTIONS:
    --listen ADDR      Serve HTTP on ADDR (e.g. 127.0.0.1:8123; port 0
                       picks a free port; the bound address is printed
                       on stderr)
    --jobs N           Worker threads (default: available parallelism)
    --cache-capacity N Entries in the result cache (default 4096)
    -h, --help         Print this help

EXIT STATUS:
    0  clean shutdown          2  usage error or bind failure";

const FUZZ_USAGE: &str = "\
cundef fuzz — deterministic differential fuzzing sweep

Generates programs from a seed and cross-checks five oracles:
consteval-vs-eval on constant expressions, translation-phase verdicts
vs execution outcomes on statically doomed programs, exit codes of
UB-free programs (optionally against a native compiler),
tree-walker-vs-bytecode engine parity on every generated program, and
JSON-renderer round-trips against the human verdict.
Output is byte-for-byte reproducible for a given seed/count,
independent of --jobs and shard layout.

USAGE:
    cundef fuzz [OPTIONS]

OPTIONS:
    --seed N         Sweep seed (default 42)
    --count N        Case indices to sweep (default 500)
    --shard I/M      Run only indices with index % M == I (machine-level
                     sharding; every shard sees every oracle)
    --jobs N         Worker threads (default: available parallelism)
    --cross-check    Also compile eligible defined cases with gcc/clang
                     from PATH and compare exit codes
    --trophy-dir D   Write minimized .c + .expected pairs for every
                     divergence into D
    --exits          Also print the `case I exit E` golden-snapshot log
                     for passing defined cases
    --serve-replay   Replay the generated corpus through the serve
                     pipeline (cold + hit) and assert every response is
                     byte-identical to one-shot output (a sixth,
                     service-path oracle; skips the sweep)
    -h, --help       Print this help

EXIT STATUS:
    0  no divergence          1  at least one divergence    2  usage error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]).map_err(|e| (e, SERVE_USAGE)),
        Some("fuzz") => fuzz_main(&args[1..]).map_err(|e| (e, FUZZ_USAGE)),
        _ => check_main(&args).map_err(|e| (e, USAGE)),
    };
    run.unwrap_or_else(|(message, usage)| {
        complain!("error: {message}\n\n{usage}");
        ExitCode::from(2)
    })
}

/// The value after the flag `flag`, parsed by `parse`. A missing or
/// unparsable value is the usage error that says what `flag` needs.
fn value<'a, T>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    needs: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    args.next()
        .and_then(|v| parse(v))
        .ok_or_else(|| format!("`{flag}` needs {needs}"))
}

/// A positive integer flag value.
fn positive<T: std::str::FromStr + Default + PartialOrd>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// One-shot checking: parse flags, check every file, render, and
/// return the exit code.
fn check_main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut quiet = false;
    let mut batch = false;
    let mut jobs: Option<usize> = None;
    let mut opts = CheckOptions::default();
    let mut format = Format::default();
    let mut fail_on = FailOn::default();
    let mut stats = StatsMode::Off;
    let mut no_more_options = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if no_more_options {
            files.push(arg.clone());
            continue;
        }
        match arg.as_str() {
            "--" => no_more_options = true,
            "--phase" => {
                opts.phase = value(
                    &mut args,
                    arg,
                    "`translation`, `execution`, or `all`",
                    Phase::parse,
                )?
            }
            "--format" => {
                format = value(&mut args, arg, "`human`, `json`, or `sarif`", Format::parse)?
            }
            "--fail-on" => {
                fail_on = value(&mut args, arg, "`error`, `ub`, or `never`", FailOn::parse)?
            }
            "--stats" => stats = StatsMode::Human,
            "--stats=json" => stats = StatsMode::Json,
            "--profile" => opts.profile = true,
            "-h" | "--help" => {
                say!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--version" => {
                say!("cundef {}", env!("CARGO_PKG_VERSION"));
                return Ok(ExitCode::SUCCESS);
            }
            "--catalog" => {
                print_catalog_summary();
                return Ok(ExitCode::SUCCESS);
            }
            "-q" | "--quiet" => quiet = true,
            "--batch" => batch = true,
            "--jobs" => jobs = Some(value(&mut args, arg, "a positive integer", positive)?),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err("no input files".into());
    }
    if jobs.is_some() && !batch {
        return Err("`--jobs` only applies to `--batch` runs".into());
    }

    let mut renderer = format.renderer(quiet);
    let mut any_undefined = false;
    let mut any_engine_failure = false;
    let mut agg = PhaseStats::default();
    let mut emit = |checked: &Checked| {
        let Rendered { stdout, stderr } = renderer.render_file(&checked.result);
        let _ = std::io::stdout().write_all(stdout.as_bytes());
        let _ = std::io::stderr().write_all(stderr.as_bytes());
        match stats {
            StatsMode::Off => {}
            StatsMode::Human => {
                complain!("{}", checked.stats.render_human(&checked.result.path));
            }
            StatsMode::Json => {
                complain!(
                    "{}",
                    checked.stats.render_json(Some(&checked.result.path), 1)
                );
            }
        }
        agg.add(&checked.stats);
        if let Some(p) = &checked.profile {
            let _ = std::io::stderr().write_all(render_profile(&checked.result.path, p).as_bytes());
        }
        match checked.result.verdict {
            Verdict::Defined => {}
            Verdict::Undefined => any_undefined = true,
            Verdict::EngineFailure => any_engine_failure = true,
        }
    };
    if batch {
        for checked in &check_batch(&files, jobs, &opts) {
            emit(checked);
        }
    } else {
        // Sequential mode streams on the main thread: each verdict
        // prints as its file finishes, and nothing accumulates across
        // files (the SARIF renderer buffers internally by design — one
        // document per run).
        for f in &files {
            emit(&check_file(f, &opts));
        }
    }
    let tail = renderer.finish();
    let _ = std::io::stdout().write_all(tail.as_bytes());
    if stats != StatsMode::Off && files.len() > 1 {
        match stats {
            StatsMode::Human => {
                complain!(
                    "{}",
                    agg.render_human(&format!("total ({} files)", files.len()))
                );
            }
            StatsMode::Json => {
                complain!("{}", agg.render_json(None, files.len()));
            }
            StatsMode::Off => unreachable!(),
        }
    }
    Ok(ExitCode::from(
        fail_on.exit_code(any_undefined, any_engine_failure),
    ))
}

/// The `cundef serve` subcommand: parse flags and run the daemon.
fn serve_main(args: &[String]) -> Result<ExitCode, String> {
    let mut listen = None;
    let mut jobs = None;
    let mut cache_capacity = serve::DEFAULT_CACHE_CAPACITY;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                say!("{SERVE_USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--listen" => {
                listen = Some(value(&mut args, arg, "an address", |a| {
                    Some(a.to_string())
                })?)
            }
            "--jobs" => jobs = Some(value(&mut args, arg, "a positive integer", positive)?),
            "--cache-capacity" => {
                cache_capacity = value(&mut args, arg, "a positive integer", positive)?
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    let workers = jobs.unwrap_or_else(WorkerPool::default_workers);
    Ok(ExitCode::from(serve::run_serve(
        listen.as_deref(),
        workers,
        cache_capacity,
    )))
}

/// The `cundef fuzz` subcommand: run one deterministic sweep.
fn fuzz_main(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = cundef_fuzz::SweepConfig::new(42, 500);
    cfg.jobs = 0; // available parallelism
    let mut print_exits = false;
    let mut serve_replay = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                say!("{FUZZ_USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--seed" => cfg.seed = value(&mut args, arg, "an integer", |v| v.parse().ok())?,
            "--count" => cfg.count = value(&mut args, arg, "a positive integer", positive)?,
            "--shard" => {
                let shard = value(&mut args, arg, "I/M with I < M", |v| {
                    let (i, m) = v.split_once('/')?;
                    Some((i.parse::<u64>().ok()?, m.parse::<u64>().ok()?)).filter(|&(i, m)| i < m)
                })?;
                cfg.shard = Some(shard);
            }
            "--jobs" => cfg.jobs = value(&mut args, arg, "a positive integer", positive)?,
            "--cross-check" => cfg.cross_check = true,
            "--trophy-dir" => {
                cfg.trophy_dir = Some(value(&mut args, arg, "a directory", |d| {
                    Some(std::path::PathBuf::from(d))
                })?)
            }
            "--exits" => print_exits = true,
            "--serve-replay" => serve_replay = true,
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
    }
    if serve_replay {
        let clean = serve::serve_replay(cfg.seed, cfg.count);
        return Ok(ExitCode::from(if clean { 0 } else { 1 }));
    }
    let report = cundef_fuzz::run_sweep(&cfg);
    let _ = std::io::stdout().write_all(report.render().as_bytes());
    if print_exits {
        let _ = std::io::stdout().write_all(report.render_exits().as_bytes());
    }
    Ok(ExitCode::from(if report.findings.is_empty() {
        0
    } else {
        1
    }))
}

fn print_catalog_summary() {
    let counts = catalog_counts();
    say!(
        "C11 undefined behaviors (per \"Defining the Undefinedness of C\", §5.2.1): {}",
        counts.total
    );
    say!(
        "  statically detectable:   {}",
        counts.statically_detectable
    );
    say!(
        "  dynamically detectable:  {}",
        counts.dynamically_detectable
    );
    let covered: Vec<_> = catalog()
        .iter()
        .filter(|e| e.detected_by.is_some())
        .collect();
    say!(
        "  covered by a detector:   {} ({} dynamic, {} static)",
        covered.len(),
        covered
            .iter()
            .filter(|e| e.detect == Detectability::Dynamic)
            .count(),
        covered
            .iter()
            .filter(|e| e.detect == Detectability::Static)
            .count(),
    );
}
