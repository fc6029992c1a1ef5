//! The per-file checking pipeline, factored out of `main` so every
//! driver — the one-shot CLI, the `--batch` worker pool, and the
//! `cundef serve` daemon — runs the *same* code path and produces the
//! same [`FileResult`] for the same bytes and options.
//!
//! The pipeline is split at the one seam the serve cache needs:
//!
//! - [`check_file`] — read from disk ([`read_source`]), then
//!   [`check_source`];
//! - [`check_source`] — lex/parse/resolve, translation-phase analysis
//!   and (when selected) execution of already-loaded source text. The
//!   daemon hashes the bytes and consults its result cache first.
//!
//! Execution always runs on the bytecode VM. The tree-walker stays in
//! `cundef-semantics` as the reference engine the parity suites and the
//! fuzzer hold the VM to.

use cundef_analysis::analyze;
use cundef_semantics::eval::{Interp, Limits};
use cundef_semantics::intern::kw;
use cundef_semantics::{compile_unit, parser, ExecProfile};
use cundef_ub::render::{
    FileResult, HumanRenderer, JsonRenderer, Renderer, SarifRenderer, Verdict,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Which checking phases to run on each file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Static analysis only; nothing is executed.
    Translation,
    /// Execution only (the pre-analysis behavior).
    Execution,
    /// Translation first; execution only for files that pass it.
    #[default]
    All,
}

impl Phase {
    /// Parse the `--phase` / request spelling.
    pub fn parse(s: &str) -> Option<Phase> {
        match s {
            "translation" => Some(Phase::Translation),
            "execution" => Some(Phase::Execution),
            "all" => Some(Phase::All),
            _ => None,
        }
    }
}

/// Output format behind `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// kcc-style terminal reports.
    #[default]
    Human,
    /// JSON Lines.
    Json,
    /// One SARIF 2.1.0 document per run.
    Sarif,
}

impl Format {
    /// Parse the `--format` / request spelling.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "human" => Some(Format::Human),
            "json" => Some(Format::Json),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }

    /// A fresh renderer for one run (or one serve response).
    pub fn renderer(self, quiet: bool) -> Box<dyn Renderer> {
        match self {
            Format::Human => Box::new(HumanRenderer::new(quiet)),
            Format::Json => Box::new(JsonRenderer::new()),
            Format::Sarif => Box::new(SarifRenderer::new(env!("CARGO_PKG_VERSION"))),
        }
    }
}

/// The `--fail-on` severity threshold gating the exit code (the
/// verdicts and reports themselves are never affected).
///
/// - [`FailOn::Ub`] (default) — the historical contract: exit 1 on any
///   undefined file, else 2 on any engine failure, else 0.
/// - [`FailOn::Error`] — CI mode for advisory sweeps: undefined
///   verdicts report but exit 0; only engine failures (the tool could
///   not finish) exit 2.
/// - [`FailOn::Never`] — always exit 0 once the run completes (usage
///   errors still exit 2 before any checking starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailOn {
    /// Fail only on engine failures.
    Error,
    /// Fail on undefined behavior (and engine failures) — the default.
    #[default]
    Ub,
    /// Never fail.
    Never,
}

impl FailOn {
    /// Parse the `--fail-on` / request spelling.
    pub fn parse(s: &str) -> Option<FailOn> {
        match s {
            "error" => Some(FailOn::Error),
            "ub" => Some(FailOn::Ub),
            "never" => Some(FailOn::Never),
            _ => None,
        }
    }

    /// The exit code for a run that saw the given verdict mix, under
    /// this threshold. Shared by the one-shot CLI, `--batch`, and every
    /// `serve` response so the contract cannot drift between drivers.
    pub fn exit_code(self, any_undefined: bool, any_engine_failure: bool) -> u8 {
        match self {
            FailOn::Never => 0,
            FailOn::Error => {
                if any_engine_failure {
                    2
                } else {
                    0
                }
            }
            FailOn::Ub => {
                if any_undefined {
                    1
                } else if any_engine_failure {
                    2
                } else {
                    0
                }
            }
        }
    }
}

/// Per-file checking knobs (everything except rendering).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptions {
    /// Which phases run.
    pub phase: Phase,
    /// Collect execution telemetry.
    pub profile: bool,
}

impl CheckOptions {
    /// The options fingerprint for cache keying: every knob that can
    /// change a [`FileResult`] for the same source bytes must land in
    /// here. That is the phase alone: `profile` adds telemetry, not a
    /// different result, and profiling requests bypass the cache.
    pub fn fingerprint(&self) -> u64 {
        match self.phase {
            Phase::Translation => 0,
            Phase::Execution => 1,
            Phase::All => 2,
        }
    }
}

/// Wall-clock spans around each pipeline phase of one file's check
/// (zero for phases that did not run).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Reading the file from disk.
    pub read: Duration,
    /// Lexing.
    pub lex: Duration,
    /// Parsing.
    pub parse: Duration,
    /// Name resolution.
    pub resolve: Duration,
    /// Translation-phase analysis.
    pub analyze: Duration,
    /// Bytecode lowering.
    pub compile: Duration,
    /// Execution.
    pub execute: Duration,
}

impl PhaseStats {
    /// Sum of all phase spans.
    pub fn total(&self) -> Duration {
        self.read
            + self.lex
            + self.parse
            + self.resolve
            + self.analyze
            + self.compile
            + self.execute
    }

    /// Accumulate another file's spans into this aggregate.
    pub fn add(&mut self, other: &PhaseStats) {
        self.read += other.read;
        self.lex += other.lex;
        self.parse += other.parse;
        self.resolve += other.resolve;
        self.analyze += other.analyze;
        self.compile += other.compile;
        self.execute += other.execute;
    }

    /// The human `--stats` line.
    pub fn render_human(&self, label: &str) -> String {
        format!(
            "{label}: stats: read {:?}, lex {:?}, parse {:?}, resolve {:?}, analyze {:?}, \
             compile {:?}, execute {:?}, total {:?}",
            self.read,
            self.lex,
            self.parse,
            self.resolve,
            self.analyze,
            self.compile,
            self.execute,
            self.total()
        )
    }

    /// One JSON object (`"file": null` marks the per-run aggregate).
    pub fn render_json(&self, file: Option<&str>, files: usize) -> String {
        let mut out = String::from("{\"type\": \"stats\", \"file\": ");
        match file {
            Some(f) => out.push_str(&cundef_ub::json::escaped(f)),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"files\": {files}, \"read_ns\": {}, \"lex_ns\": {}, \"parse_ns\": {}, \
             \"resolve_ns\": {}, \"analyze_ns\": {}, \"compile_ns\": {}, \"execute_ns\": {}, \
             \"total_ns\": {}}}",
            self.read.as_nanos(),
            self.lex.as_nanos(),
            self.parse.as_nanos(),
            self.resolve.as_nanos(),
            self.analyze.as_nanos(),
            self.compile.as_nanos(),
            self.execute.as_nanos(),
            self.total().as_nanos(),
        );
        out
    }
}

/// Everything one file's check produced: the structured result for the
/// renderer, phase times for `--stats`, telemetry for `--profile`.
///
/// `Clone` exists so batch-mode duplicate paths and serve cache hits
/// can replay a result without re-checking.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The structured verdict + findings for the render seam.
    pub result: FileResult,
    /// Per-phase wall times.
    pub stats: PhaseStats,
    /// Execution telemetry, when profiling was on.
    pub profile: Option<ExecProfile>,
}

impl Checked {
    /// An engine-failure result (unreadable file, parse error, …).
    pub fn failed(path: &str, stats: PhaseStats, error: String) -> Checked {
        Checked {
            result: FileResult {
                path: path.to_string(),
                verdict: Verdict::EngineFailure,
                findings: Vec::new(),
                notes: Vec::new(),
                success: None,
                exit: None,
                errors: vec![error],
            },
            stats,
            profile: None,
        }
    }
}

/// Read `path` from disk into `stats.read`'s span. The error is the
/// engine-failure message for an unreadable file.
pub fn read_source(path: &str, stats: &mut PhaseStats) -> Result<String, String> {
    let t = Instant::now();
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read file: {e}"));
    stats.read = t.elapsed();
    source
}

/// Check one file from disk: [`read_source`], then [`check_source`].
pub fn check_file(path: &str, opts: &CheckOptions) -> Checked {
    let mut stats = PhaseStats::default();
    match read_source(path, &mut stats) {
        Ok(source) => check_source(path, &source, stats, opts),
        Err(e) => Checked::failed(path, stats, e),
    }
}

/// Check already-loaded source text: lex/parse/resolve,
/// translation-phase analysis, then (when selected) execution. `path`
/// is the label used in every diagnostic.
pub fn check_source(
    path: &str,
    source: &str,
    mut stats: PhaseStats,
    opts: &CheckOptions,
) -> Checked {
    let unit = match parser::parse_timed(source) {
        Err(parse_err) => {
            return Checked::failed(path, stats, parse_err.to_string());
        }
        Ok((unit, timing)) => {
            stats.lex = timing.lex;
            stats.parse = timing.parse;
            stats.resolve = timing.resolve;
            unit
        }
    };
    let mut result = FileResult {
        path: path.to_string(),
        verdict: Verdict::Defined,
        findings: Vec::new(),
        notes: Vec::new(),
        success: None,
        exit: None,
        errors: Vec::new(),
    };

    // Translation phase: static checks over the resolved AST. A file
    // that fails here is statically doomed — running it would duplicate
    // (or shadow) the report, so execution is skipped.
    if opts.phase != Phase::Execution {
        let t = Instant::now();
        let findings = analyze(&unit);
        stats.analyze = t.elapsed();
        if !findings.is_empty() {
            result.verdict = Verdict::Undefined;
            result.findings = findings.iter().map(|f| f.to_diagnostic()).collect();
            return Checked {
                result,
                stats,
                profile: None,
            };
        }
        if opts.phase == Phase::Translation {
            result.success = Some("translation phase found no undefined behavior".to_string());
            return Checked {
                result,
                stats,
                profile: None,
            };
        }
    }

    // Execution phase. A unit with no `main` has nothing to execute —
    // that is a note, not an error, so translation-only inputs (headers,
    // libraries) pass through the default pipeline cleanly.
    if unit.function(kw::MAIN).is_none() {
        let note = if opts.phase == Phase::All {
            "nothing to execute (no `main`); translation phase found no undefined behavior"
        } else {
            "nothing to execute (translation unit defines no `main`)"
        };
        result.success = Some(note.to_string());
        return Checked {
            result,
            stats,
            profile: None,
        };
    }
    let mut interp = Interp::new(&unit, Limits::default());
    if opts.profile {
        interp.enable_profiling();
    }
    let t = Instant::now();
    let compiled = compile_unit(&unit);
    stats.compile = t.elapsed();
    let t = Instant::now();
    let outcome = interp.run_main_compiled(&compiled);
    stats.execute = t.elapsed();
    // Implementation-defined conversion notes (§6.3.1.3:3 — narrowing
    // conversions this implementation resolves by two's-complement wrap)
    // print before the verdict: they describe defined behavior the
    // program relied on, whatever the verdict turns out to be.
    Checked {
        result: outcome.into_result(path, interp.notes().to_vec()),
        stats,
        profile: interp.profile(),
    }
}

/// Render one file's `--profile` telemetry (stderr, human-oriented but
/// stable enough to grep).
pub fn render_profile(path: &str, p: &ExecProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: profile: steps {}, ops {}, superinstruction hits {}",
        p.steps,
        p.ops_executed,
        p.superinstruction_hits()
    );
    let _ = writeln!(
        out,
        "{path}: profile: word fast-path {} hit / {} fallback{}",
        p.word_fast_hits,
        p.word_fast_fallbacks,
        match p.word_fast_hit_rate() {
            Some(r) => format!(" ({:.1}% hit)", r * 100.0),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "{path}: profile: footprint elision {} elided / {} tree-fallback{}",
        p.elided_boundaries(),
        p.tree_fallback_ops(),
        match p.footprint_elision_rate() {
            Some(r) => format!(" ({:.1}% elided)", r * 100.0),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "{path}: profile: objects {}, peak live bytes {}, heap allocs {} / frees {} / bytes {}",
        p.objects_allocated, p.peak_live_bytes, p.heap_allocs, p.heap_frees, p.heap_bytes_allocated
    );
    let _ = writeln!(
        out,
        "{path}: profile: arena {} recycled / {} grown{}, frame pool {} hit / {} miss{}",
        p.arena_recycles,
        p.arena_misses,
        match p.arena_recycle_rate() {
            Some(r) => format!(" ({:.1}% recycled)", r * 100.0),
            None => String::new(),
        },
        p.frame_pool_hits,
        p.frame_pool_misses,
        match p.frame_pool_hit_rate() {
            Some(r) => format!(" ({:.1}% hit)", r * 100.0),
            None => String::new(),
        }
    );
    if p.sweep_hits + p.sweep_fallbacks > 0 {
        let _ = writeln!(
            out,
            "{path}: profile: byte sweeps {} fused / {} fallback{}",
            p.sweep_hits,
            p.sweep_fallbacks,
            match p.sweep_hit_rate() {
                Some(r) => format!(" ({:.1}% fused)", r * 100.0),
                None => String::new(),
            }
        );
    }
    let mut ops: Vec<(&str, u64)> = p.op_counts.iter().map(|(m, n)| (*m, *n)).collect();
    ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    if !ops.is_empty() {
        let top: Vec<String> = ops
            .iter()
            .take(8)
            .map(|(m, n)| format!("{m}×{n}"))
            .collect();
        let _ = writeln!(out, "{path}: profile: top ops: {}", top.join(" "));
    }
    out
}
