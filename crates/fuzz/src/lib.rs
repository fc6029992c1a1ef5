//! Differential fuzzing for the `cundef` checker: a seeded csmith-lite
//! generator, five cross-checking oracles, a trace-level minimizer, and
//! a committed trophy case.
//!
//! The crate's unit of work is the **sweep** ([`run_sweep`]): generate
//! `count` programs deterministically from one seed, run each through
//! the oracle for its class, minimize every divergence, and render a
//! byte-for-byte reproducible report. Determinism is structural:
//!
//! - case `i` is generated from `case_seed(seed, i)`
//!   ([`rng::case_seed`]), a pure function of the sweep seed and the
//!   case index — never of thread scheduling, shard layout, or job
//!   count;
//! - the class of case `i` is `i % 3` ([`gen::Class::of_case`]), so
//!   every shard sees every class-specific oracle (the engine-parity
//!   and JSON-round-trip oracles, [`oracle::check_engines`] and
//!   [`oracle::check_json_roundtrip`], run on every case regardless of
//!   class);
//! - whether a defined case is cross-checked against a native compiler
//!   is again a pure per-index rule;
//! - findings are reported in case-index order no matter which worker
//!   found them first.
//!
//! Consequently `cundef fuzz --seed 42 --count 500` prints the same
//! bytes at `--jobs 1` and `--jobs 8`, and sharding the index space
//! across machines (`--shard i/m`) partitions the *same* program set.
//!
//! Findings are shrunk by [`minimize::minimize`] (replaying truncated /
//! zeroed decision traces, preserving the divergence category) and can
//! be committed under `trophy-case/` (see [`trophy`]), where
//! `crates/fuzz/tests/trophies.rs` replays them on every `cargo test`.

#![deny(missing_docs)]

pub mod decision;
pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod rng;
pub mod trophy;

use cundef_semantics::eval::CHECK_STACK_BYTES;
use decision::DecisionSource;
use gen::{generate, Class, GenCase};
use oracle::{check, check_defined, check_engines, check_json_roundtrip, CrossCheck};
use rng::case_seed;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Configuration for one fuzzing sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The sweep seed; every case derives from it and its index.
    pub seed: u64,
    /// Number of case indices in the sweep (the full index space, even
    /// when sharded — a shard runs its slice of `0..count`).
    pub count: u64,
    /// `Some((i, m))` runs only indices with `index % m == i`.
    pub shard: Option<(u64, u64)>,
    /// Worker threads (as in `cundef --jobs`); 0 means one per core.
    pub jobs: usize,
    /// Cross-check eligible defined cases against a native compiler when
    /// one is on `PATH`.
    pub cross_check: bool,
    /// Directory to write minimized `.c` + `.expected` trophy pairs
    /// into; `None` skips writing (findings are still minimized and
    /// reported).
    pub trophy_dir: Option<PathBuf>,
}

impl SweepConfig {
    /// A sweep over `count` cases from `seed`, single shard, one job,
    /// no cross-check, no trophy writing.
    pub fn new(seed: u64, count: u64) -> SweepConfig {
        SweepConfig {
            seed,
            count,
            shard: None,
            jobs: 1,
            cross_check: false,
            trophy_dir: None,
        }
    }

    /// Does this sweep run case `index`?
    fn runs(&self, index: u64) -> bool {
        match self.shard {
            Some((i, m)) => index % m == i,
            None => true,
        }
    }
}

/// Whether case `index` of a sweep is cross-checked natively (given a
/// compiler and `--cross-check`): every 8th defined case. A pure
/// function of the index so shard layout cannot change program
/// semantics.
pub fn cross_check_case(index: u64) -> bool {
    Class::of_case(index) == Class::Defined && (index / 3).is_multiple_of(8)
}

/// One divergence found by a sweep, with its minimized reproduction.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The case index within the sweep.
    pub index: u64,
    /// The per-case seed (`case_seed(sweep_seed, index)`).
    pub case_seed: u64,
    /// The program class / oracle.
    pub class: Class,
    /// Stable divergence category (see
    /// [`oracle::Divergence::category`]).
    pub category: String,
    /// Human-readable description of the original divergence.
    pub describe: String,
    /// The minimized decision trace (replayable via
    /// [`DecisionSource::replay`]).
    pub min_trace: Vec<u64>,
    /// The regenerated minimized case.
    pub min_case: GenCase,
    /// Trophy stem if a pair was written (`--trophy-dir`).
    pub trophy: Option<String>,
}

/// The result of one sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// The sweep seed.
    pub seed: u64,
    /// The full index-space size.
    pub count: u64,
    /// How many cases this shard actually ran.
    pub checked: u64,
    /// How many of those were cross-checked against a native compiler.
    pub cross_checked: u64,
    /// Divergences in case-index order.
    pub findings: Vec<Finding>,
    /// Exit code of every passing defined case, keyed by index — the
    /// golden-snapshot data for oracle (c).
    pub exits: BTreeMap<u64, i64>,
}

impl SweepReport {
    /// Render the deterministic sweep report (identical across job
    /// counts; shards render their own slice).
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz sweep: seed {} cases {} checked {} cross-checked {}\n",
            self.seed, self.count, self.checked, self.cross_checked
        );
        for f in &self.findings {
            out.push_str(&format!(
                "DIVERGENCE case {} [{}] {}: {}\n",
                f.index,
                f.class.name(),
                f.category,
                f.describe
            ));
            out.push_str(&format!(
                "  minimized to {} decisions{}\n",
                f.min_trace.len(),
                match &f.trophy {
                    Some(stem) => format!(", trophy {stem}"),
                    None => String::new(),
                }
            ));
        }
        out.push_str(&format!(
            "result: {} divergence(s) in {} case(s)\n",
            self.findings.len(),
            self.checked
        ));
        out
    }

    /// Render the defined-case exit log, one `case <i> exit <e>` line
    /// per passing defined case — compared against committed golden
    /// snapshots (`crates/fuzz/goldens/`).
    pub fn render_exits(&self) -> String {
        let mut out = String::new();
        for (i, e) in &self.exits {
            out.push_str(&format!("case {i} exit {e}\n"));
        }
        out
    }
}

/// Turn a divergence category into a filename-safe slug.
fn slug(category: &str) -> String {
    category
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Run one sweep. See the crate docs for the determinism contract.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let cc = if cfg.cross_check {
        CrossCheck::detect(std::env::temp_dir().join("cundef-fuzz"))
    } else {
        CrossCheck::off()
    };

    let jobs = if cfg.jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.jobs
    };

    let cursor = AtomicU64::new(0);
    let findings: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let exits: Mutex<BTreeMap<u64, i64>> = Mutex::new(BTreeMap::new());
    let checked = AtomicU64::new(0);
    let cross_checked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            // The evaluator recurses through the AST once per C call
            // frame; minimized-but-legal deep call chains need more than
            // the 2 MiB default worker stack, so workers get the check
            // stack a one-shot run has.
            let worker = || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= cfg.count {
                    break;
                }
                if !cfg.runs(index) {
                    continue;
                }
                checked.fetch_add(1, Ordering::Relaxed);

                let class = Class::of_case(index);
                let seed = case_seed(cfg.seed, index);
                let mut d = DecisionSource::from_seed(seed);
                let case = generate(class, &mut d);
                let trace = d.trace().to_vec();
                let cross = cross_check_case(index) && cc.compiler.is_some();
                if cross {
                    cross_checked.fetch_add(1, Ordering::Relaxed);
                }

                // Defined passes record their exit for golden snapshots;
                // check() re-derives the same verdict for divergences.
                // Engine parity (oracle d) and the JSON round-trip
                // (oracle e) gate the shortcut: a case where the VM
                // disagrees with the tree-walker, or whose structured
                // rendering drifts, must reach the divergence path even
                // if the default engine happens to complete it.
                if class == Class::Defined
                    && check_engines(&case.source).is_ok()
                    && check_json_roundtrip(&case.source).is_ok()
                {
                    let this_cc = if cross { cc.clone() } else { CrossCheck::off() };
                    if let Ok(exit) = check_defined(&case.source, &this_cc) {
                        exits.lock().unwrap().insert(index, exit);
                        continue;
                    }
                    // Divergent: fall through to the shared path, which
                    // re-derives the same verdict for the report.
                }
                let div = match check(&case, &cc, cross) {
                    Ok(()) => continue,
                    Err(div) => div,
                };

                let category = div.category();
                let (min_trace, min_case) =
                    minimize::minimize(class, &trace, &category, &cc, cross);
                findings.lock().unwrap().push(Finding {
                    index,
                    case_seed: seed,
                    class,
                    category: category.clone(),
                    describe: div.describe(),
                    min_trace,
                    min_case,
                    trophy: None,
                });
            };
            std::thread::Builder::new()
                .stack_size(CHECK_STACK_BYTES)
                .spawn_scoped(scope, worker)
                .expect("spawn fuzz worker");
        }
    });

    let mut findings = findings.into_inner().unwrap();
    findings.sort_by_key(|f| f.index);

    // Trophy writing happens after the parallel phase, in index order,
    // so stems are deterministic too.
    if let Some(dir) = &cfg.trophy_dir {
        for f in &mut findings {
            let stem = format!("seed{}-case{}-{}", cfg.seed, f.index, slug(&f.category));
            let expected = trophy::render_expected(
                f.class,
                &f.category,
                f.min_case.expr.as_deref(),
                f.min_case.injected,
                &format!("seed {} case {}", cfg.seed, f.index),
                &f.describe,
            );
            match trophy::write_trophy(dir, &stem, &f.min_case.source, &expected) {
                Ok(_) => f.trophy = Some(stem),
                Err(e) => eprintln!("warning: could not write trophy {stem}: {e}"),
            }
        }
    }

    SweepReport {
        seed: cfg.seed,
        count: cfg.count,
        checked: checked.into_inner(),
        cross_checked: cross_checked.into_inner(),
        findings,
        exits: exits.into_inner().unwrap(),
    }
}
