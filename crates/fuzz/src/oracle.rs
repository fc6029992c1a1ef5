//! The five cross-checking oracles.
//!
//! 1. **consteval-vs-eval** ([`check_const_expr`]) — fold the generated
//!    constant expression at translation time and evaluate it at run
//!    time; the phases must agree on *verdict* (defined vs which
//!    [`UbKind`]) and, when defined, on *value and type* bit-for-bit.
//!    The value/type comparison is itself performed by the evaluator:
//!    the expression is compared against a literal of the folded value
//!    with an equality + `sizeof` + signedness witness.
//! 2. **phase agreement** ([`check_doomed`]) — a program carrying an
//!    injected statically detectable defect must be flagged by
//!    `cundef-analysis`, and executing it anyway must *not* reach a
//!    clean exit (the paper's translation-phase semantics refuse such
//!    programs; an evaluator that runs one to completion has lost a
//!    defect the type system promised).
//! 3. **defined exit codes** ([`check_defined`]) — a UB-free-by-
//!    construction program must pass the translation phase with no
//!    findings, run to completion under the evaluator, and (when a C
//!    compiler is on `PATH` and cross-checking is requested) exit with
//!    the same status when compiled and executed natively.
//! 4. **engine parity** ([`check_engines`]) — every generated program,
//!    whatever its class, must produce the identical [`Outcome`] (same
//!    variant, UB kind, location, and detail text) and identical
//!    implementation-defined conversion notes under the tree-walking
//!    reference interpreter and the bytecode VM. The one masked
//!    difference is the step limit: the VM batches its step accounting,
//!    so a "step limit exceeded" stop on either side is a resource
//!    verdict, not a semantic one.
//! 5. **JSON round-trip** ([`check_json_roundtrip`]) — the structured
//!    renderer must agree with the human oracle on every generated
//!    program: building the CLI's
//!    [`FileResult`](cundef_ub::render::FileResult) with
//!    [`Outcome::into_result`], rendering it with the [`JsonRenderer`],
//!    and re-parsing the JSONL must reproduce the verdict and, for
//!    undefined programs, the finding's kind, code, line, column, and
//!    detail bit-for-bit. A
//!    drift here means `--format json` and `--format human` would tell
//!    two different stories about the same run.

use crate::gen::GenCase;
use cundef_analysis::analyze;
use cundef_semantics::ast::{ExprId, Stmt, TranslationUnit};
use cundef_semantics::consteval::{const_eval, ConstStop};
use cundef_semantics::ctype::{CInt, IntTy};
use cundef_semantics::eval::{Engine, Interp, Limits, Outcome};
use cundef_semantics::parser::parse;
use cundef_ub::json::Json;
use cundef_ub::render::{JsonRenderer, Renderer};
use cundef_ub::UbKind;

/// A divergence between two of the checker's views of one program — the
/// fuzzer's unit of failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The program does not parse, though the generator only emits the
    /// supported subset.
    ParseError(String),
    /// consteval and eval disagree on the verdict for a constant
    /// expression.
    VerdictMismatch {
        /// The translation-time verdict, rendered.
        translation: String,
        /// The run-time verdict, rendered.
        execution: String,
    },
    /// consteval refuses (`NotConst`) an expression that is an integer
    /// constant expression by construction (§6.6 gap).
    NotConst {
        /// Where the fold stopped.
        detail: String,
    },
    /// Both phases call the expression defined, but the run-time value
    /// or type differs from the translation-time fold.
    ValueMismatch {
        /// The folded value and type.
        folded: String,
        /// What the witness program observed.
        observed: String,
    },
    /// A statically doomed program that the translation phase does not
    /// flag.
    StaticMiss {
        /// The defect that was injected.
        injected: UbKind,
    },
    /// A statically doomed program that executes to a clean exit.
    CleanExit {
        /// The defect that was injected (and statically reported).
        injected: UbKind,
        /// The exit code the evaluator let through.
        exit: i64,
    },
    /// A doomed program whose dynamic verdict names a different defect
    /// than the injected one.
    KindMismatch {
        /// The injected (and statically reported) defect.
        injected: UbKind,
        /// What execution reported instead.
        executed: UbKind,
    },
    /// A UB-free-by-construction program that the translation phase
    /// flags (static false positive).
    SpuriousFinding {
        /// The first reported kind.
        kind: UbKind,
    },
    /// A UB-free-by-construction program that the evaluator refuses to
    /// run to completion.
    DefinedRejected {
        /// The outcome, rendered.
        outcome: String,
    },
    /// The tree-walking interpreter and the bytecode VM disagree on the
    /// outcome (or notes) of one program.
    EngineMismatch {
        /// The tree-walker's view, rendered.
        tree: String,
        /// The bytecode VM's view, rendered.
        bytecode: String,
    },
    /// The JSON renderer's view of a run, re-parsed, does not match the
    /// human-oracle verdict (or drops a finding field on the floor).
    FormatDrift {
        /// What drifted, rendered.
        detail: String,
    },
    /// The evaluator and a native compiler disagree on the exit code of
    /// a defined program.
    ExitMismatch {
        /// The evaluator's exit code.
        ours: i64,
        /// The native binary's exit status.
        native: i64,
        /// Which compiler produced the native binary.
        compiler: String,
    },
}

impl Divergence {
    /// A short, stable category string: the minimizer shrinks while the
    /// category is preserved, and trophy replays match on it.
    pub fn category(&self) -> String {
        match self {
            Divergence::ParseError(_) => "parse-error".into(),
            Divergence::VerdictMismatch { .. } => "verdict-mismatch".into(),
            Divergence::NotConst { .. } => "not-const".into(),
            Divergence::ValueMismatch { .. } => "value-mismatch".into(),
            Divergence::StaticMiss { injected } => format!("static-miss:{injected:?}"),
            Divergence::CleanExit { injected, .. } => format!("clean-exit:{injected:?}"),
            Divergence::KindMismatch { injected, .. } => format!("kind-mismatch:{injected:?}"),
            Divergence::SpuriousFinding { kind } => format!("spurious-finding:{kind:?}"),
            Divergence::DefinedRejected { .. } => "defined-rejected".into(),
            Divergence::EngineMismatch { .. } => "engine-mismatch".into(),
            Divergence::FormatDrift { .. } => "format-drift".into(),
            Divergence::ExitMismatch { .. } => "exit-mismatch".into(),
        }
    }

    /// One human-readable line for sweep output.
    pub fn describe(&self) -> String {
        match self {
            Divergence::ParseError(e) => format!("generated program failed to parse: {e}"),
            Divergence::VerdictMismatch {
                translation,
                execution,
            } => format!(
                "phases disagree: translation says {translation}, execution says {execution}"
            ),
            Divergence::NotConst { detail } => {
                format!("consteval refuses a constant expression: {detail}")
            }
            Divergence::ValueMismatch { folded, observed } => {
                format!("constant fold {folded} but dynamic witness observed {observed}")
            }
            Divergence::StaticMiss { injected } => {
                format!("translation phase missed injected {injected:?}")
            }
            Divergence::CleanExit { injected, exit } => {
                format!("statically doomed ({injected:?}) yet executed to a clean exit {exit}")
            }
            Divergence::KindMismatch { injected, executed } => {
                format!("injected {injected:?} but execution reported {executed:?}")
            }
            Divergence::SpuriousFinding { kind } => {
                format!("static false positive {kind:?} on a UB-free program")
            }
            Divergence::DefinedRejected { outcome } => {
                format!("UB-free program rejected: {outcome}")
            }
            Divergence::EngineMismatch { tree, bytecode } => {
                format!("engines disagree: tree-walker {tree}, bytecode VM {bytecode}")
            }
            Divergence::FormatDrift { detail } => {
                format!("JSON round-trip disagrees with the human verdict: {detail}")
            }
            Divergence::ExitMismatch {
                ours,
                native,
                compiler,
            } => format!("evaluator exited {ours} but {compiler} binary exited {native}"),
        }
    }
}

/// How (whether) to cross-check defined programs against a native
/// compiler.
#[derive(Debug, Clone, Default)]
pub struct CrossCheck {
    /// Compiler command (`gcc` or `clang`), if one was found on `PATH`.
    pub compiler: Option<String>,
    /// Scratch directory for sources and binaries.
    pub scratch: Option<std::path::PathBuf>,
}

impl CrossCheck {
    /// A disabled cross-checker (evaluator-only oracle).
    pub fn off() -> CrossCheck {
        CrossCheck::default()
    }

    /// Probe `PATH` for `gcc` then `clang`; returns a checker that
    /// compiles into `scratch`.
    pub fn detect(scratch: std::path::PathBuf) -> CrossCheck {
        for cc in ["gcc", "clang"] {
            let found = std::process::Command::new(cc)
                .arg("--version")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .map(|s| s.success())
                .unwrap_or(false);
            if found {
                return CrossCheck {
                    compiler: Some(cc.to_string()),
                    scratch: Some(scratch),
                };
            }
        }
        CrossCheck::off()
    }
}

/// Run the class-appropriate oracle on one generated case. `Ok(())`
/// means every applicable check agreed. Engine parity (oracle d) and
/// the JSON round-trip (oracle e) run first on every class — a VM that
/// disagrees with the reference tree-walker, or a renderer that
/// misreports the verdict, makes any further comparison meaningless.
pub fn check(
    case: &GenCase,
    cc: &CrossCheck,
    cross_check_this_case: bool,
) -> Result<(), Divergence> {
    check_engines(&case.source)?;
    check_json_roundtrip(&case.source)?;
    match case.class {
        crate::gen::Class::ConstExpr => {
            check_const_expr(case.expr.as_deref().expect("const case has expr"))
        }
        crate::gen::Class::Defined => check_defined(
            &case.source,
            if cross_check_this_case {
                cc
            } else {
                &CrossCheck {
                    compiler: None,
                    scratch: None,
                }
            },
        )
        .map(|_| ()),
        crate::gen::Class::Doomed => {
            check_doomed(&case.source, case.injected.expect("doomed case has kind"))
        }
    }
}

/// Parse `int main(void) { <expr>; return 0; }` and return the unit and
/// the expression's id.
fn parse_expr_stmt(expr: &str) -> Result<(TranslationUnit, ExprId), Divergence> {
    let src = format!("int main(void) {{ {expr}; return 0; }}");
    let unit = parse(&src).map_err(|e| Divergence::ParseError(e.to_string()))?;
    let main = unit.function_named("main").expect("main exists");
    let Stmt::Expr(e) = unit.stmt(main.body[0]) else {
        return Err(Divergence::ParseError(
            "expected an expression statement".into(),
        ));
    };
    let e = *e;
    Ok((unit, e))
}

/// Render a [`CInt`] as a C expression of exactly its own value *and*
/// type — including sub-`int` types (via a cast) and most-negative
/// values (via the `-MAX - 1` spelling, since `2147483648` would be a
/// `long` literal).
pub fn literal_of(v: CInt) -> String {
    let m = v.math();
    let suffix = match v.ty {
        IntTy::Int => "",
        IntTy::UInt => "u",
        IntTy::Long => "L",
        IntTy::ULong => "uL",
        IntTy::LongLong => "LL",
        IntTy::ULongLong => "uLL",
        // Sub-int types only arise from casts; spell them the same way.
        sub => {
            let name = match sub {
                IntTy::Bool => "_Bool",
                IntTy::Char => "char",
                IntTy::UChar => "unsigned char",
                IntTy::Short => "short",
                IntTy::UShort => "unsigned short",
                _ => unreachable!(),
            };
            // The inner value always fits in `int`, and the conversion
            // is exact (no implementation-defined wrap, no note).
            return format!("(({name})({m}))");
        }
    };
    if m == v.ty.min() && v.ty.is_signed() {
        // `-9223372036854775808L` does not exist as a literal; spell the
        // most negative value as an expression of the same type.
        format!("((-{}{suffix}) - 1{suffix})", v.ty.max())
    } else if m < 0 {
        format!("(-{}{suffix})", -m)
    } else {
        format!("{m}{suffix}")
    }
}

/// Render a run-time outcome for divergence messages.
fn render_outcome(o: &Outcome) -> String {
    match o {
        Outcome::Completed(e) => format!("completed with exit {e}"),
        Outcome::Undefined(e) => format!("{:?} ({})", e.kind(), e.kind().title()),
        Outcome::Unsupported { message, .. } => format!("engine limit: {message}"),
    }
}

/// Oracle (a): translation-time fold vs run-time evaluation of one
/// constant expression.
pub fn check_const_expr(expr: &str) -> Result<(), Divergence> {
    let (unit, e) = parse_expr_stmt(expr)?;
    let translation = const_eval(&unit, e);
    let execution = Interp::new(&unit, Limits::default()).run_main();

    match (&translation, &execution) {
        (Err(ConstStop::NotConst(loc)), _) => Err(Divergence::NotConst {
            detail: format!("stopped at {loc}"),
        }),
        (Err(ConstStop::Ub { kind, .. }), Outcome::Undefined(err)) => {
            if *kind == err.kind() {
                Ok(())
            } else {
                Err(Divergence::VerdictMismatch {
                    translation: format!("{kind:?}"),
                    execution: format!("{:?}", err.kind()),
                })
            }
        }
        (Err(ConstStop::Ub { kind, .. }), other) => Err(Divergence::VerdictMismatch {
            translation: format!("{kind:?}"),
            execution: render_outcome(other),
        }),
        (Ok(_), Outcome::Undefined(err)) => Err(Divergence::VerdictMismatch {
            translation: "defined".into(),
            execution: format!("{:?}", err.kind()),
        }),
        (Ok(_), Outcome::Unsupported { message, .. }) => Err(Divergence::VerdictMismatch {
            translation: "defined".into(),
            execution: format!("engine limit: {message}"),
        }),
        (Ok(v), Outcome::Completed(_)) => check_const_value(expr, *v),
    }
}

/// The dynamic witness for a defined constant: value equality after the
/// usual conversions, equal `sizeof`, and matching signedness (`-1 <
/// e`), which together pin value and type.
fn check_const_value(expr: &str, v: CInt) -> Result<(), Divergence> {
    let lit = literal_of(v);
    let src = format!(
        "int main(void) {{ \
           if (({expr}) == ({lit}) \
               && sizeof({expr}) == sizeof({lit}) \
               && ((-1 < ({expr})) == (-1 < ({lit})))) return 42; \
           return 7; }}"
    );
    let unit = parse(&src).map_err(|e| Divergence::ParseError(e.to_string()))?;
    let outcome = Interp::new(&unit, Limits::default()).run_main();
    match outcome {
        Outcome::Completed(42) => Ok(()),
        other => Err(Divergence::ValueMismatch {
            folded: format!("{} of type {}", v.math(), v.ty),
            observed: render_outcome(&other),
        }),
    }
}

/// Does this outcome report the evaluation step limit? The engines
/// count steps differently (the VM batches bookkeeping per basic block),
/// so hitting the limit on one side only is expected, not a divergence.
fn is_step_limit(o: &Outcome) -> bool {
    matches!(o, Outcome::Unsupported { message, .. } if message.contains("step limit"))
}

/// Oracle (d): engine parity. Run `source` under both the tree-walking
/// reference interpreter and the bytecode VM; outcome and notes must be
/// identical (step-limit stops excepted — the engines count steps
/// differently, so a "step limit exceeded" stop on one side only is a
/// resource verdict, not a semantic one).
pub fn check_engines(source: &str) -> Result<(), Divergence> {
    let unit = parse(source).map_err(|e| Divergence::ParseError(e.to_string()))?;
    let mut tree = Interp::with_engine(&unit, Limits::default(), Engine::Tree);
    let tree_out = tree.run_main();
    let mut vm = Interp::with_engine(&unit, Limits::default(), Engine::Bytecode);
    let vm_out = vm.run_main();
    if is_step_limit(&tree_out) || is_step_limit(&vm_out) {
        return Ok(());
    }
    if tree_out != vm_out {
        return Err(Divergence::EngineMismatch {
            tree: format!("{tree_out:?}"),
            bytecode: format!("{vm_out:?}"),
        });
    }
    if tree.notes() != vm.notes() {
        return Err(Divergence::EngineMismatch {
            tree: format!("notes {:?}", tree.notes()),
            bytecode: format!("notes {:?}", vm.notes()),
        });
    }
    Ok(())
}

/// Oracle (e): JSON round-trip. Build the
/// [`FileResult`](cundef_ub::render::FileResult) the CLI would build
/// for `source`, render it with the JSONL renderer, re-parse the
/// lines, and require the structured view to match the human-oracle
/// verdict — and, for undefined programs, the finding's kind, code,
/// line, column, and detail — field-for-field.
pub fn check_json_roundtrip(source: &str) -> Result<(), Divergence> {
    let unit = parse(source).map_err(|e| Divergence::ParseError(e.to_string()))?;
    let mut interp = Interp::new(&unit, Limits::default());
    let drift = |detail: String| Divergence::FormatDrift { detail };

    // The FileResult the CLI's execution phase builds (the fuzzer skips
    // the translation phase: generated doomed programs re-detect
    // dynamically, which is what oracle (b) already checks).
    let result = interp
        .run_main()
        .into_result("fuzz-case.c", interp.notes().to_vec());
    // The renderer debug-asserts the location contract; report the
    // violation as a divergence instead of panicking a sweep worker.
    if let Some(d) = result.findings.first() {
        match d.loc {
            Some(loc) if loc.line >= 1 && loc.col >= 1 => {}
            other => {
                return Err(drift(format!(
                    "finding {:05} carries placeholder location {other:?}",
                    d.code
                )))
            }
        }
    }

    let rendered = JsonRenderer::new().render_file(&result);
    let mut events = Vec::new();
    for line in rendered.stdout.lines() {
        events.push(Json::parse(line).ok_or_else(|| drift(format!("unparsable JSONL {line:?}")))?);
    }
    let of_type = |ty: &'static str| {
        events
            .iter()
            .filter(move |e| e.get("type").and_then(Json::as_str) == Some(ty))
    };

    let verdicts: Vec<&Json> = of_type("verdict").collect();
    if verdicts.len() != 1 {
        return Err(drift(format!("{} verdict records", verdicts.len())));
    }
    let got = verdicts[0].get("verdict").and_then(Json::as_str);
    if got != Some(result.verdict.as_str()) {
        return Err(drift(format!(
            "verdict record says {got:?}, human oracle says {:?}",
            result.verdict.as_str()
        )));
    }
    if let Some(exit) = result.exit {
        if verdicts[0].get("exit").and_then(Json::as_f64) != Some(exit as f64) {
            return Err(drift("exit code dropped from the verdict record".into()));
        }
    }

    let records: Vec<&Json> = of_type("finding").collect();
    if records.len() != result.findings.len() {
        return Err(drift(format!(
            "{} finding records for {} findings",
            records.len(),
            result.findings.len()
        )));
    }
    for (event, d) in records.iter().zip(&result.findings) {
        let loc = d.loc.expect("contract checked above");
        let same = event.get("code").and_then(Json::as_u32) == Some(u32::from(d.code))
            && event.get("kind").and_then(Json::as_str)
                == d.kind.map(|k| format!("{k:?}")).as_deref()
            && event.get("line").and_then(Json::as_u32) == Some(loc.line)
            && event.get("column").and_then(Json::as_u32) == Some(loc.col)
            && event.get("detail").and_then(Json::as_str) == d.detail.as_deref();
        if !same {
            return Err(drift(format!(
                "record {event:?} does not round-trip diagnostic {:05} at {loc}",
                d.code
            )));
        }
    }

    if of_type("note").count() != result.notes.len() {
        return Err(drift("conversion notes dropped or invented".into()));
    }
    Ok(())
}

/// Oracle (b): phase agreement on a statically doomed program.
pub fn check_doomed(source: &str, injected: UbKind) -> Result<(), Divergence> {
    let unit = parse(source).map_err(|e| Divergence::ParseError(e.to_string()))?;
    let findings = analyze(&unit);
    if findings.is_empty() {
        return Err(Divergence::StaticMiss { injected });
    }
    // Execution of a statically doomed program must never reach a clean
    // exit; the injected defect sits on the guaranteed execution path.
    match Interp::new(&unit, Limits::default()).run_main() {
        Outcome::Completed(exit) => Err(Divergence::CleanExit { injected, exit }),
        Outcome::Undefined(err) if err.kind() != injected => Err(Divergence::KindMismatch {
            injected,
            executed: err.kind(),
        }),
        // The injected kind dynamically re-detected, or an engine limit:
        // either way, not a clean exit.
        _ => Ok(()),
    }
}

/// Oracle (c): a UB-free program must analyze clean, complete under the
/// evaluator, and (optionally) exit identically when compiled natively.
/// Returns the evaluator's exit code on success so sweeps can record
/// golden snapshots.
pub fn check_defined(source: &str, cc: &CrossCheck) -> Result<i64, Divergence> {
    let unit = parse(source).map_err(|e| Divergence::ParseError(e.to_string()))?;
    let findings = analyze(&unit);
    if let Some(first) = findings.first() {
        return Err(Divergence::SpuriousFinding { kind: first.kind() });
    }
    let outcome = Interp::new(&unit, Limits::default()).run_main();
    let exit = match outcome {
        Outcome::Completed(e) => e,
        other => {
            return Err(Divergence::DefinedRejected {
                outcome: render_outcome(&other),
            })
        }
    };
    if let (Some(compiler), Some(scratch)) = (&cc.compiler, &cc.scratch) {
        let native = native_exit(compiler, scratch, source)?;
        if native != (exit & 0xFF) {
            return Err(Divergence::ExitMismatch {
                ours: exit,
                native,
                compiler: compiler.clone(),
            });
        }
    }
    Ok(exit)
}

/// Compile `source` with `compiler` and run the binary, returning its
/// exit status. The generated subset calls `malloc`/`free` without
/// headers, so a `<stdlib.h>` prelude is added for the native build.
fn native_exit(compiler: &str, scratch: &std::path::Path, source: &str) -> Result<i64, Divergence> {
    use std::process::Command;
    let _ = std::fs::create_dir_all(scratch);
    let tag = format!("{}-{:x}", std::process::id(), fxhash(source));
    let c_path = scratch.join(format!("cc-{tag}.c"));
    let bin_path = scratch.join(format!("cc-{tag}.bin"));
    let full = format!("#include <stdlib.h>\n{source}");
    std::fs::write(&c_path, full).map_err(|e| Divergence::ParseError(format!("io: {e}")))?;
    let status = Command::new(compiler)
        .arg("-std=c11")
        .arg("-O1")
        .arg("-o")
        .arg(&bin_path)
        .arg(&c_path)
        .output()
        .map_err(|e| Divergence::ParseError(format!("{compiler}: {e}")))?;
    if !status.status.success() {
        return Err(Divergence::ParseError(format!(
            "{compiler} rejected a generated program: {}",
            String::from_utf8_lossy(&status.stderr)
        )));
    }
    let run = Command::new(&bin_path)
        .output()
        .map_err(|e| Divergence::ParseError(format!("run: {e}")))?;
    let code = run.status.code().unwrap_or(-1) as i64;
    let _ = std::fs::remove_file(&c_path);
    let _ = std::fs::remove_file(&bin_path);
    Ok(code)
}

/// A tiny stable hash for scratch-file names (not exposed; determinism
/// only matters within one process).
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
