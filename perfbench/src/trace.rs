//! The traced run: the workload's operations replayed in-process, with
//! a span around every call into a layer's public functions.
//!
//! Each operation (one file of a batch, or one serve request) gets a
//! root span; its children time `lexer::lex` (with a fresh
//! `Interner`), `parser::parse`, `analyze`, `compile_unit`,
//! `Interp::run_main_compiled`, the `cundef_ub::render` renderers, and
//! for serve workloads `content_hash` and the `LruCache` lookup and
//! insert, mirroring the daemon's cache. Spans stay in memory and are
//! written out at the end. A layer's self time is its span's duration,
//! except the parser's: `parse` lexes internally, so its self time is
//! the `parse` span minus the `lex` span of the same operation.
//!
//! Side probes, outside the operation spans, measure what a workload's
//! own pipeline may skip (every render format, hashing and the LRU for
//! the batch workload, reading files for serve workloads), and a
//! profiling pass, whose timings are discarded, collects the VM's
//! counters.

use crate::report::Report;
use crate::stats::Summary;
use crate::verify::Observed;
use cundef_analysis::analyze;
use cundef_cache::{content_hash, CacheKey, LruCache};
use cundef_semantics::eval::{Engine, Interp, Limits, Outcome};
use cundef_semantics::intern::{kw, Interner};
use cundef_semantics::{compile_unit, lexer, parser};
use cundef_ub::render::{
    FileResult, HumanRenderer, JsonRenderer, Renderer, SarifRenderer, Verdict,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The daemon's default entries per cache level.
pub const DAEMON_CACHE_CAPACITY: usize = 4096;

/// The options fingerprint every benchmark request carries (phase
/// `all`, bytecode engine, no profiling), as the daemon computes it.
const FINGERPRINT: u64 = 2 | (1 << 2);

/// An output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// kcc-style text.
    Human,
    /// JSON Lines.
    Json,
    /// SARIF 2.1.0.
    Sarif,
}

impl Format {
    /// Every format, in rotation order.
    pub const ALL: [Format; 3] = [Format::Human, Format::Json, Format::Sarif];

    /// The `--format` / request spelling.
    pub fn name(self) -> &'static str {
        match self {
            Format::Human => "human",
            Format::Json => "json",
            Format::Sarif => "sarif",
        }
    }
}

/// Render one result as a one-shot run prints it on stdout.
pub fn render(result: &FileResult, format: Format) -> String {
    let mut r: Box<dyn Renderer> = match format {
        Format::Human => Box::new(HumanRenderer::new(false)),
        Format::Json => Box::new(JsonRenderer::new()),
        Format::Sarif => Box::new(SarifRenderer::new(env!("CARGO_PKG_VERSION"))),
    };
    let mut out = r.render_file(result).stdout;
    out.push_str(&r.finish());
    out
}

/// What a result says, in the shape the end-to-end checks use.
pub fn observed(r: &FileResult) -> Observed {
    Observed {
        verdict: Some(r.verdict),
        code: r.findings.first().map(|d| d.code),
        exit: r.exit,
    }
}

/// One operation of the traced pass.
#[derive(Debug, Clone)]
pub struct TraceOp {
    /// The path label the request or invocation used.
    pub label: String,
    /// The exact bytes checked.
    pub source: String,
    /// The output format the workload asked for.
    pub format: Format,
    /// The input file on disk the bytes come from. The batch pass
    /// reads it (as `cundef` does); serve requests carry their bytes
    /// inline, so for them only the side probe reads it.
    pub disk: PathBuf,
}

/// What the traced pass concluded for one operation.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    /// The verdict, first code and exit.
    pub seen: Observed,
    /// In-process check-plus-render time, for operations that checked
    /// (not cache hits).
    pub check_render_ns: Option<u64>,
}

struct Span {
    parent: Option<usize>,
    name: &'static str,
    op: usize,
    start: u64,
    end: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            parent,
            name,
            op,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    fn time<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent].op;
        let id = self.begin(name, op, Some(parent));
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    fn write(&self, path: &Path, ops: &[TraceOp]) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"input\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                cundef_ub::json::escaped(&ops[s.op].label),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

/// Input facts counted while checking.
#[derive(Default)]
struct Facts {
    bytes: u64,
    tokens: Vec<f64>,
    nodes: Vec<f64>,
    findings: Vec<f64>,
}

/// The one-shot pipeline (as `cundef` runs it with default options),
/// with a span around every layer call.
fn check(t: &mut Tracer, root: usize, label: &str, source: &str, facts: &mut Facts) -> FileResult {
    let mut result = FileResult {
        path: label.to_string(),
        verdict: Verdict::Defined,
        findings: Vec::new(),
        notes: Vec::new(),
        success: None,
        exit: None,
        errors: Vec::new(),
    };
    let mut interner = Interner::new();
    if let Ok(toks) = t.time(root, "lex", || lexer::lex(source, &mut interner)) {
        facts.tokens.push(toks.len() as f64);
        facts.bytes += source.len() as u64;
    }
    let unit = match t.time(root, "parse", || parser::parse(source)) {
        Ok(unit) => unit,
        Err(e) => {
            result.verdict = Verdict::EngineFailure;
            result.errors.push(e.to_string());
            return result;
        }
    };
    facts
        .nodes
        .push((unit.exprs.len() + unit.stmts.len()) as f64);
    let findings = t.time(root, "analyze", || analyze(&unit));
    facts.findings.push(findings.len() as f64);
    if !findings.is_empty() {
        result.verdict = Verdict::Undefined;
        result.findings = findings.iter().map(|f| f.to_diagnostic()).collect();
        return result;
    }
    if unit.function(kw::MAIN).is_none() {
        result.success = Some(
            "nothing to execute (no `main`); translation phase found no undefined behavior".into(),
        );
        return result;
    }
    let compiled = t.time(root, "compile", || compile_unit(&unit));
    let mut interp = Interp::with_engine(&unit, Limits::default(), Engine::default());
    let outcome = t.time(root, "eval", || interp.run_main_compiled(&compiled));
    result.notes = interp.notes().to_vec();
    match outcome {
        Outcome::Completed(exit) => {
            result.success = Some(format!(
                "no undefined behavior detected (program returned {exit})"
            ));
            result.exit = Some(exit);
        }
        Outcome::Undefined(report) => {
            result.verdict = Verdict::Undefined;
            result.findings = vec![report.to_diagnostic()];
        }
        Outcome::Unsupported { message, loc } => {
            result.verdict = Verdict::EngineFailure;
            result
                .errors
                .push(format!("checker limitation at {loc}: {message}"));
        }
    }
    result
}

/// Self times per layer, in nanoseconds, from the operation spans.
/// Layers, in report order, with the span names they cover.
const LAYERS: &[(&str, &[&str])] = &[
    ("read", &["read"]),
    ("cache", &["hash", "lru"]),
    ("lexer", &["lex"]),
    ("parser", &["parse"]),
    ("analysis", &["analyze"]),
    ("compile", &["compile"]),
    ("eval", &["eval"]),
    ("render", &["render"]),
];

/// Per-layer self-time samples (ns), one per operation that ran the
/// layer.
fn self_times(t: &Tracer) -> Vec<Vec<f64>> {
    let mut per_op: Vec<[Option<u64>; 9]> = Vec::new();
    let slot = |name: &str| -> usize {
        [
            "read", "hash", "lru", "lex", "parse", "analyze", "compile", "eval", "render",
        ]
        .iter()
        .position(|n| *n == name)
        .expect("known span name")
    };
    for s in t.spans.iter().filter(|s| s.parent.is_some()) {
        if per_op.len() <= s.op {
            per_op.resize(s.op + 1, [None; 9]);
        }
        let cell = &mut per_op[s.op][slot(s.name)];
        *cell = Some(cell.unwrap_or(0) + (s.end - s.start));
    }
    let mut out = vec![Vec::new(); LAYERS.len()];
    for op in &per_op {
        let lex = op[slot("lex")].unwrap_or(0);
        for (k, (_, names)) in LAYERS.iter().enumerate() {
            let mut total = None;
            for n in names.iter() {
                if let Some(d) = op[slot(n)] {
                    let d = if *n == "parse" {
                        d.saturating_sub(lex)
                    } else {
                        d
                    };
                    total = Some(total.unwrap_or(0) + d);
                }
            }
            if let Some(d) = total {
                out[k].push(d as f64);
            }
        }
    }
    out
}

/// Run the traced pass over `ops` and record every in-process
/// per-layer metric in `report`. Without `cached`, each operation reads
/// its file from disk, as a one-shot run does; with it, operations go
/// through a daemon-shaped result cache first filled with `prefill`.
/// Spans are written to `spans_path`.
pub fn run(
    ops: &[TraceOp],
    prefill: &[TraceOp],
    cached: bool,
    spans_path: &Path,
    report: &mut Report,
) -> Result<Vec<OpOut>, String> {
    let mut cache: LruCache<FileResult> = LruCache::new(DAEMON_CACHE_CAPACITY);
    let mut facts = Facts::default();
    let mut scratch = Tracer::new();
    for (k, op) in prefill.iter().enumerate() {
        let root = scratch.begin("prefill", k, None);
        let r = check(
            &mut scratch,
            root,
            &op.label,
            &op.source,
            &mut Facts::default(),
        );
        let key = CacheKey {
            content: content_hash(op.source.as_bytes()),
            fingerprint: FINGERPRINT,
        };
        cache.insert(key, r);
    }

    let mut t = Tracer::new();
    let mut outs = Vec::with_capacity(ops.len());
    let mut checked: Vec<FileResult> = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        let root = t.begin(if cached { "request" } else { "file" }, k, None);
        let source = if cached {
            op.source.clone()
        } else {
            t.time(root, "read", || std::fs::read_to_string(&op.disk))
                .map_err(|e| format!("{}: {e}", op.disk.display()))?
        };
        let mut key = None;
        let mut hit = None;
        if cached {
            let k = CacheKey {
                content: t.time(root, "hash", || content_hash(source.as_bytes())),
                fingerprint: FINGERPRINT,
            };
            hit = t.time(root, "lru", || cache.get(&k).cloned());
            key = Some(k);
        }
        let (result, was_checked) = match hit {
            Some(mut r) => {
                r.path = op.label.clone();
                (r, false)
            }
            None => {
                let r = check(&mut t, root, &op.label, &source, &mut facts);
                if let Some(k) = key {
                    let mut stored = r.clone();
                    stored.path = String::new();
                    t.time(root, "lru", || cache.insert(k, stored));
                }
                (r, true)
            }
        };
        let _bytes = t.time(root, "render", || render(&result, op.format));
        t.end(root);
        let check_render_ns = was_checked.then(|| {
            t.spans
                .iter()
                .filter(|s| s.parent == Some(root))
                // `parse` lexes again internally, so the separate `lex`
                // span is left out of the sum.
                .filter(|s| !matches!(s.name, "read" | "hash" | "lru" | "lex"))
                .map(|s| s.end - s.start)
                .sum()
        });
        outs.push(OpOut {
            seen: observed(&result),
            check_render_ns,
        });
        if was_checked {
            checked.push(result);
        }
    }
    t.write(spans_path, ops)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Self time per layer: medians with quartiles, and shares.
    let samples = self_times(&t);
    let total: f64 = samples.iter().flatten().sum();
    println!("trace: {} operations, {} spans", ops.len(), t.spans.len());
    println!("trace: layer      n     q1_us  median_us     q3_us  share");
    for ((layer, _), s) in LAYERS.iter().zip(&samples) {
        let sum: f64 = s.iter().sum::<f64>() + 0.0;
        let share = if total > 0.0 { sum / total } else { 0.0 };
        let q = Summary::of(s.iter().map(|ns| ns / 1e3).collect());
        println!(
            "trace: {layer:<9} {:>5} {:>9.2} {:>10.2} {:>9.2} {:>6.3}",
            q.n, q.q1, q.median, q.q3, share
        );
        report.set(&format!("share.{layer}"), share);
    }
    let median_us = |layer: &str| {
        let k = LAYERS.iter().position(|(l, _)| *l == layer).expect("layer");
        Summary::of(samples[k].iter().map(|ns| ns / 1e3).collect()).median
    };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    report.set("lexer.us_per_file", median_us("lexer"));
    let lex_ns: f64 = samples[2].iter().sum();
    report.set(
        "lexer.ns_per_byte",
        if facts.bytes > 0 {
            lex_ns / facts.bytes as f64
        } else {
            0.0
        },
    );
    report.set("lexer.tokens_per_file", mean(&facts.tokens));
    report.set("parser.us_per_file", median_us("parser"));
    report.set("parser.nodes_per_file", mean(&facts.nodes));
    report.set("analysis.us_per_file", median_us("analysis"));
    report.set("analysis.findings_per_file", mean(&facts.findings));
    report.set("compile.us_per_file", median_us("compile"));
    report.set("eval.us_per_file", median_us("eval"));

    side_probes(ops, &checked, report)?;
    Ok(outs)
}

/// Measurements outside the operation spans: every render format over
/// the checked results, hashing, the LRU, reading each distinct input
/// from disk, and the VM's profiling counters.
fn side_probes(ops: &[TraceOp], checked: &[FileResult], report: &mut Report) -> Result<(), String> {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    let mut sarif_bytes = Vec::new();
    for format in Format::ALL {
        let mut us = Vec::new();
        for r in checked {
            let mut len = 0;
            us.push(time(&mut || len = std::hint::black_box(render(r, format)).len()) / 1e3);
            if format == Format::Sarif {
                sarif_bytes.push(len as f64);
            }
        }
        report.set(
            &format!("render.us_per_file.{}", format.name()),
            Summary::of(us).median,
        );
    }
    report.set(
        "render.bytes_per_file.sarif",
        sarif_bytes.iter().sum::<f64>() / sarif_bytes.len().max(1) as f64,
    );

    let mut hash_ns = Vec::new();
    let mut lru_ns = Vec::new();
    let mut cache: LruCache<FileResult> = LruCache::new(DAEMON_CACHE_CAPACITY);
    let sample = checked.first().cloned();
    for op in ops {
        let mut content = 0;
        hash_ns.push(time(&mut || {
            content = std::hint::black_box(content_hash(op.source.as_bytes()))
        }));
        let key = CacheKey {
            content,
            fingerprint: FINGERPRINT,
        };
        if let Some(r) = &sample {
            lru_ns.push(time(&mut || {
                if std::hint::black_box(cache.get(&key)).is_none() {
                    cache.insert(key, r.clone());
                }
            }));
        }
    }
    report.set("cache.hash_ns_per_file", Summary::of(hash_ns).median);
    report.set("cache.lru_ns_per_op", Summary::of(lru_ns).median);

    let mut read_us = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for op in ops {
        if seen.insert(&op.disk) {
            let mut ok = true;
            read_us.push(time(&mut || ok = std::fs::read_to_string(&op.disk).is_ok()) / 1e3);
            if !ok {
                return Err(format!("cannot read {}", op.disk.display()));
            }
        }
    }
    report.set("read.us_per_file", Summary::of(read_us).median);

    // Profiling pass over each distinct executed program; its timings
    // are discarded, only the counters are kept.
    let mut programs: Vec<&str> = ops.iter().map(|o| o.source.as_str()).collect();
    programs.sort_unstable();
    programs.dedup();
    let (mut steps, mut runs) = (0u64, 0u64);
    let (mut fast, mut slow, mut recycled, mut grown) = (0u64, 0u64, 0u64, 0u64);
    for src in programs {
        let Ok(unit) = parser::parse(src) else {
            continue;
        };
        if !analyze(&unit).is_empty() || unit.function(kw::MAIN).is_none() {
            continue;
        }
        let compiled = compile_unit(&unit);
        let mut interp = Interp::with_engine(&unit, Limits::default(), Engine::default());
        interp.enable_profiling();
        let _ = interp.run_main_compiled(&compiled);
        if let Some(p) = interp.profile() {
            runs += 1;
            steps += p.steps;
            fast += p.word_fast_hits;
            slow += p.word_fast_fallbacks;
            recycled += p.arena_recycles;
            grown += p.arena_misses;
        }
    }
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    report.set("eval.steps_per_file", steps as f64 / runs.max(1) as f64);
    report.set("eval.word_fast_hit_rate", ratio(fast, slow));
    report.set("eval.arena_recycle_rate", ratio(recycled, grown));
    Ok(())
}
