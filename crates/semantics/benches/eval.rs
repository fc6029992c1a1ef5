//! Criterion-style benchmark suite over the generated corpus.
//!
//! Run with `cargo bench -p cundef-semantics`. Each corpus program is
//! measured twice: `parse/…` (lexer + parser + resolver only) and
//! `check/…` (the full pipeline including evaluation); the
//! analyzer-facing corpus is measured as `analyze/…` (the translation
//! phase over a pre-parsed unit, the hot path of
//! `cundef --phase translation` over a codebase). Results are written
//! to `BENCH_eval.json` at the workspace root, together with the
//! recorded pre-refactor baseline (`benches/baseline.json`) and the
//! per-benchmark speedup, so the performance trajectory is tracked in
//! the repository itself.
//!
//! Flags: `--test` (CI smoke mode: run once, no timing, no JSON),
//! `--samples N`, `--record-baseline` (rewrite `benches/baseline.json`
//! instead of `BENCH_eval.json`), `--min-check-geomean X` and
//! `--min-parse-geomean Y` (exit 1 when a group's geomean speedup vs the
//! baseline falls below its floor).

use cundef_bench::{
    black_box, corpus, measurements_json, parse_measurements, Criterion, Measurement,
};
use cundef_semantics::eval::Engine;
use cundef_semantics::{check_translation_unit, compile_unit, parser, Interp, Limits};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/semantics -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .parent()
        .expect("workspace root")
        .to_path_buf()
}

fn main() {
    let mut c = Criterion::from_args();
    let record_baseline = std::env::args().any(|a| a == "--record-baseline");
    // `--min-check-geomean X` and `--min-parse-geomean Y` (used by CI):
    // after a real run, fail unless the geomean speedup of the `check/*`
    // (evaluator) and `parse/*` (frontend) groups vs the recorded
    // baseline is at least X and Y. Guards against a refactor regressing
    // either hot path by whole factors while tolerating runner-to-runner
    // variance.
    let floors: Vec<(&str, f64)> = {
        let args: Vec<String> = std::env::args().collect();
        [
            ("check/", "--min-check-geomean"),
            ("parse/", "--min-parse-geomean"),
        ]
        .into_iter()
        .filter_map(|(group, flag)| {
            let at = args.iter().position(|a| a == flag)?;
            Some((group, args.get(at + 1)?.parse::<f64>().ok()?))
        })
        .collect()
    };
    let programs = corpus::standard();
    let typed = corpus::typed();
    let mem = corpus::mem();
    let calls = corpus::calls();

    // The corpus exercises the *defined* fast path: a program that
    // aborts with UB mid-measurement would benchmark much less work, so
    // `checked` fails loudly — inside the timed closure, naming the
    // program — rather than letting a miscompiled fast path masquerade
    // as a speedup. (The assert costs one branch against a millisecond-
    // scale body.)
    fn checked(name: &str, source: &str) -> i64 {
        let outcome = check_translation_unit(source)
            .unwrap_or_else(|e| panic!("{name}: corpus program failed to parse: {e}"));
        outcome.exit_code().unwrap_or_else(|| {
            panic!("{name}: corpus program must run to completion, got {outcome:?}")
        })
    }

    for p in &programs {
        c.bench_function(&format!("parse/{}", p.name), |b| {
            b.iter(|| parser::parse(black_box(&p.source)).expect("corpus parses"))
        });
        c.bench_function(&format!("check/{}", p.name), |b| {
            b.iter(|| checked(&p.name, black_box(&p.source)))
        });
    }
    // The typed-scalar group: promotion-heavy and mixed-width programs
    // through the full pipeline, so the lattice's cost is tracked
    // separately from the historic all-`int` corpus.
    for p in &typed {
        c.bench_function(&format!("types/{}", p.name), |b| {
            b.iter(|| checked(&p.name, black_box(&p.source)))
        });
    }

    // The byte-model group: char sweeps, byte-sized heap churn, and
    // mixed-width access over the byte-addressable memory core.
    for p in &mem {
        c.bench_function(&format!("mem/{}", p.name), |b| {
            b.iter(|| checked(&p.name, black_box(&p.source)))
        });
    }

    // The call-machinery group: deep recursion through the full
    // pipeline, so frame construction/teardown cost is tracked apart
    // from the shallow-call program in `check/*`.
    for p in &calls {
        c.bench_function(&format!("calls/{}", p.name), |b| {
            b.iter(|| checked(&p.name, black_box(&p.source)))
        });
    }

    // The engine seam, measured apart: `exec/compile/*` is the cost of
    // lowering to bytecode (paid once per unit), `exec/run/*` is pure
    // bytecode execution over a pre-compiled unit, and `exec/tree/*` is
    // the reference tree-walker over the same unit — so compile overhead
    // is visible instead of smeared into `check/*`, and the engines'
    // gap is measured in one run under identical conditions.
    for p in programs.iter().chain(&typed).chain(&mem).chain(&calls) {
        let unit = parser::parse(&p.source).expect("corpus parses");
        c.bench_function(&format!("exec/compile/{}", p.name), |b| {
            b.iter(|| compile_unit(black_box(&unit)))
        });
        let compiled = compile_unit(&unit);
        c.bench_function(&format!("exec/run/{}", p.name), |b| {
            b.iter(|| {
                let out =
                    Interp::new(black_box(&unit), Limits::default()).run_main_compiled(&compiled);
                out.exit_code()
                    .unwrap_or_else(|| panic!("{}: UB mid-measurement: {out:?}", p.name))
            })
        });
        c.bench_function(&format!("exec/tree/{}", p.name), |b| {
            b.iter(|| {
                let out = Interp::with_engine(black_box(&unit), Limits::default(), Engine::Tree)
                    .run_main();
                out.exit_code()
                    .unwrap_or_else(|| panic!("{}: UB mid-measurement: {out:?}", p.name))
            })
        });
    }

    // Translation-phase throughput: the analyzer over pre-parsed units —
    // the hot path of `cundef --phase translation` across a codebase.
    // The standard corpus must stay analysis-clean (it is executed
    // above); the analysis corpus includes statically-violating programs
    // so reporting is measured too.
    for p in programs.iter().chain(&typed).chain(&mem).chain(&calls) {
        let unit = parser::parse(&p.source).expect("corpus parses");
        assert!(
            cundef_analysis::analyze(&unit).is_empty(),
            "{}: evaluator corpus must be analysis-clean",
            p.name
        );
    }
    for p in &corpus::analysis() {
        let unit = parser::parse(&p.source)
            .unwrap_or_else(|e| panic!("{}: analysis corpus failed to parse: {e}", p.name));
        c.bench_function(&format!("analyze/{}", p.name), |b| {
            b.iter(|| cundef_analysis::analyze(black_box(&unit)))
        });
    }

    if c.test_mode {
        return;
    }

    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/baseline.json");
    if record_baseline {
        // Note: describes how the file was produced, not which engine it
        // measured — anyone re-recording on their machine measures the
        // evaluator as of their checkout.
        let json = format!(
            "{{\n  \"note\": \"baseline recorded by `cargo bench -p cundef-semantics -- \
             --record-baseline`; BENCH_eval.json speedups are relative to this file, so \
             re-record it before comparing across machines or commits\",\n  \
             \"benchmarks\": {}\n}}\n",
            c.summary_json()
        );
        std::fs::write(&baseline_path, json).expect("write baseline.json");
        eprintln!("recorded baseline to {}", baseline_path.display());
        return;
    }

    let mut out = String::from("{\n  \"suite\": \"eval\",\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo bench -p cundef-semantics\","
    );
    let _ = writeln!(out, "  \"benchmarks\": {},", c.summary_json());

    let baseline_json = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let baseline = parse_measurements(&baseline_json);
    if baseline.is_empty() {
        out.push_str("  \"baseline\": null\n");
    } else {
        // Carry the baseline file's own provenance note through, so the
        // comparison is labeled by whatever was actually recorded.
        let note = baseline_json
            .split("\"note\":")
            .nth(1)
            .and_then(|rest| rest.split('"').nth(1))
            .unwrap_or("benches/baseline.json");
        let _ = writeln!(
            out,
            "  \"baseline\": {{\n    \"source\": \"{note}\",\n    \"benchmarks\": {}\n  }},",
            measurements_json(&baseline)
        );
        out.push_str("  \"speedup_vs_baseline\": {");
        let mut first = true;
        for b in &baseline {
            let Some(cur) = c.results().iter().find(|m| m.name == b.name) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {:.2}",
                b.name,
                b.median_ns / cur.median_ns
            );
        }
        for (key, group) in [
            ("geomean", ""),
            ("check_geomean", "check/"),
            ("parse_geomean", "parse/"),
        ] {
            let in_group = baseline.iter().filter(|b| b.name.starts_with(group));
            if let Some(geomean) = geomean_speedup(in_group, c.results()) {
                let _ = write!(out, ",\n    \"{key}\": {geomean:.2}");
            }
        }
        out.push_str("\n  }\n");
    }
    out.push_str("}\n");

    let out_path = workspace_root().join("BENCH_eval.json");
    std::fs::write(&out_path, out).expect("write BENCH_eval.json");
    eprintln!("wrote {}", out_path.display());

    for (group, min) in floors {
        let geomean = geomean_speedup(
            baseline.iter().filter(|b| b.name.starts_with(group)),
            c.results(),
        )
        .unwrap_or_else(|| {
            panic!("a {group}* floor requires {group}* entries in benches/baseline.json")
        });
        eprintln!("{group}* geomean speedup vs recorded baseline: {geomean:.2} (floor {min})");
        if geomean < min {
            eprintln!(
                "FAIL: the {group}* geomean fell below the floor — \
                 the refactor regressed the hot path"
            );
            std::process::exit(1);
        }
    }
}

/// The geometric mean of `baseline / current` median times over the
/// baseline entries that were measured again, or `None` if none were.
fn geomean_speedup<'a>(
    baseline: impl Iterator<Item = &'a Measurement>,
    current: &[Measurement],
) -> Option<f64> {
    let ratios: Vec<f64> = baseline
        .filter_map(|b| {
            let cur = current.iter().find(|m| m.name == b.name)?;
            Some(b.median_ns / cur.median_ns)
        })
        .collect();
    (!ratios.is_empty())
        .then(|| (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}
