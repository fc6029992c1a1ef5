//! End-to-end tests of the structured output formats.
//!
//! The render seam promises that `--format human`, `--format json`, and
//! `--format sarif` are three views of the *same* [`FileResult`]s: every
//! finding agrees across formats on (kind, file, line, column, detail),
//! and sequential and `--batch` output are byte-identical. These tests
//! pin that promise on every shipped example, and consolidate the CLI
//! exit-code contract (0 defined / 1 undefined / 2 engine failure or
//! usage error) in one place.
//!
//! Running the binary here also exercises the location contract: the
//! test binary is a debug build, so [`FileResult::assert_real_locs`]
//! panics (exit != 0..=2, no verdict) on any `0:0` placeholder.

use cundef_ub::json::Json;
use cundef_ub::UbKind;
use std::path::PathBuf;
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    // crates/cli -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn cundef(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .args(args)
        .output()
        .expect("binary should run")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

/// Every `examples/*.c`, workspace-relative, sorted.
fn all_examples() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(workspace_root().join("examples"))
        .expect("examples/ exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".c").then(|| format!("examples/{name}"))
        })
        .collect();
    files.sort();
    assert!(files.len() > 20, "expected the full example corpus");
    files
}

// --------------------------------------------------------------------
// The exit-code contract, consolidated
// --------------------------------------------------------------------

/// The documented contract: 0 — every file defined; 1 — undefined
/// behavior found in any file (wins over engine failures); 2 — engine
/// failure (unreadable file, unsupported input) or usage error, with
/// no undefinedness found.
#[test]
fn exit_code_contract() {
    // 0: a defined program, and a multi-file all-defined run.
    assert_eq!(cundef(&["examples/defined.c"]).status.code(), Some(0));
    assert_eq!(
        cundef(&["examples/defined.c", "examples/goto_loop.c"])
            .status
            .code(),
        Some(0)
    );

    // 1: undefined behavior, dynamic and static, single and batch.
    assert_eq!(cundef(&["examples/unsequenced.c"]).status.code(), Some(1));
    assert_eq!(cundef(&["examples/static_redecl.c"]).status.code(), Some(1));
    assert_eq!(
        cundef(&["--batch", "examples/defined.c", "examples/unsequenced.c"])
            .status
            .code(),
        Some(1)
    );

    // 2: engine failures — unreadable file, with and without clean
    // company.
    assert_eq!(cundef(&["examples/no_such_file.c"]).status.code(), Some(2));
    assert_eq!(
        cundef(&["examples/defined.c", "examples/no_such_file.c"])
            .status
            .code(),
        Some(2)
    );

    // 1 beats 2: undefinedness anywhere wins over an engine failure
    // elsewhere, in both drivers.
    for mode in [&[][..], &["--batch"][..]] {
        let mut args = mode.to_vec();
        args.extend(["examples/no_such_file.c", "examples/unsequenced.c"]);
        assert_eq!(cundef(&args).status.code(), Some(1), "mode {mode:?}");
    }

    // 2: usage errors — no files, unknown flag, bad flag values.
    assert_eq!(cundef(&[]).status.code(), Some(2));
    assert_eq!(cundef(&["--nonsense"]).status.code(), Some(2));
    assert_eq!(
        cundef(&["--format", "yaml", "examples/defined.c"])
            .status
            .code(),
        Some(2)
    );
    // One bad value per valued flag of every subcommand: exit 2, and the
    // first stderr line names the flag and what it needs.
    for (args, first_line) in [
        (
            &["--phase", "x", "examples/defined.c"][..],
            "error: `--phase` needs `translation`, `execution`, or `all`",
        ),
        (
            &["--format", "x", "examples/defined.c"],
            "error: `--format` needs `human`, `json`, or `sarif`",
        ),
        (
            &["--fail-on", "x", "examples/defined.c"],
            "error: `--fail-on` needs `error`, `ub`, or `never`",
        ),
        (
            &["--batch", "--jobs", "0", "examples/defined.c"],
            "error: `--jobs` needs a positive integer",
        ),
        (
            &["serve", "--jobs", "0"],
            "error: `--jobs` needs a positive integer",
        ),
        (
            &["serve", "--cache-capacity", "0"],
            "error: `--cache-capacity` needs a positive integer",
        ),
        (&["serve", "--listen"], "error: `--listen` needs an address"),
        (&["fuzz", "--seed", "x"], "error: `--seed` needs an integer"),
        (
            &["fuzz", "--count", "0"],
            "error: `--count` needs a positive integer",
        ),
        (
            &["fuzz", "--shard", "3/2"],
            "error: `--shard` needs I/M with I < M",
        ),
        (
            &["fuzz", "--trophy-dir"],
            "error: `--trophy-dir` needs a directory",
        ),
    ] {
        let out = cundef(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(stderr_of(&out).lines().next(), Some(first_line), "{args:?}");
    }
    // The execution engine is not a user option: `--engine` is unknown.
    let engine = cundef(&["--engine", "tree", "examples/defined.c"]);
    assert_eq!(engine.status.code(), Some(2));
    assert!(
        stderr_of(&engine).starts_with("error: unknown option `--engine`"),
        "{}",
        stderr_of(&engine)
    );

    // The contract holds in every format: the verdict drives the code,
    // not the renderer.
    for format in ["human", "json", "sarif"] {
        assert_eq!(
            cundef(&["--format", format, "examples/defined.c"])
                .status
                .code(),
            Some(0),
            "format {format}"
        );
        assert_eq!(
            cundef(&["--format", format, "examples/unsequenced.c"])
                .status
                .code(),
            Some(1),
            "format {format}"
        );
        assert_eq!(
            cundef(&["--format", format, "examples/no_such_file.c"])
                .status
                .code(),
            Some(2),
            "format {format}"
        );
    }
}

/// `--fail-on` moves the exit threshold without touching reports:
/// `ub` (default) is the historical contract above, `error` fails only
/// on engine failures, `never` always exits 0 — identically for
/// one-shot and `--batch` drivers.
#[test]
fn fail_on_exit_thresholds() {
    for mode in [&[][..], &["--batch"][..]] {
        let run = |fail_on: &str, files: &[&str]| {
            let mut args = mode.to_vec();
            args.extend(["--fail-on", fail_on]);
            args.extend(files);
            cundef(&args).status.code()
        };
        // Undefined file: ub -> 1, error demotes to 0, never -> 0.
        assert_eq!(run("ub", &["examples/unsequenced.c"]), Some(1), "{mode:?}");
        assert_eq!(
            run("error", &["examples/unsequenced.c"]),
            Some(0),
            "{mode:?}"
        );
        assert_eq!(
            run("never", &["examples/unsequenced.c"]),
            Some(0),
            "{mode:?}"
        );
        // Engine failure: ub and error both -> 2, never -> 0.
        assert_eq!(run("ub", &["examples/no_such_file.c"]), Some(2), "{mode:?}");
        assert_eq!(
            run("error", &["examples/no_such_file.c"]),
            Some(2),
            "{mode:?}"
        );
        assert_eq!(
            run("never", &["examples/no_such_file.c"]),
            Some(0),
            "{mode:?}"
        );
        // Mixed UB + failure: under `error` the failure resurfaces (UB
        // no longer masks it); under `ub` the historical 1 wins.
        let mixed = &["examples/no_such_file.c", "examples/unsequenced.c"][..];
        assert_eq!(run("ub", mixed), Some(1), "{mode:?}");
        assert_eq!(run("error", mixed), Some(2), "{mode:?}");
        assert_eq!(run("never", mixed), Some(0), "{mode:?}");
    }

    // The report itself is unaffected by the threshold.
    let loud = cundef(&["examples/unsequenced.c"]);
    let demoted = cundef(&["--fail-on", "never", "examples/unsequenced.c"]);
    assert_eq!(stdout_of(&loud), stdout_of(&demoted));
    assert_eq!(stderr_of(&loud), stderr_of(&demoted));

    // Usage errors are never demoted — they always exit 2.
    assert_eq!(
        cundef(&["--fail-on", "never", "--nonsense"]).status.code(),
        Some(2)
    );
    assert_eq!(
        cundef(&["--fail-on", "warnings", "examples/defined.c"])
            .status
            .code(),
        Some(2),
        "unknown threshold is a usage error"
    );
}

/// `--batch` checks duplicate paths once and replays the result: the
/// output is byte-identical to the sequential run over the same
/// (repeated) inputs, in every format.
#[test]
fn batch_dedups_duplicate_paths() {
    let files = [
        "examples/unsequenced.c",
        "examples/defined.c",
        "examples/unsequenced.c",
        "examples/unsequenced.c",
        "examples/defined.c",
    ];
    for format in ["human", "json", "sarif"] {
        let mut sequential = vec!["--format", format];
        sequential.extend(files);
        let mut batch = vec!["--batch", "--format", format];
        batch.extend(files);
        let seq_out = cundef(&sequential);
        let batch_out = cundef(&batch);
        assert_eq!(
            stdout_of(&seq_out),
            stdout_of(&batch_out),
            "format {format}: dedup replay must be byte-identical"
        );
        assert_eq!(seq_out.status.code(), batch_out.status.code());
    }
}

// --------------------------------------------------------------------
// Cross-format parity
// --------------------------------------------------------------------

/// A finding as seen through one format, normalized for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    file: String,
    code: u32,
    line: u32,
    detail: Option<String>,
    function: Option<String>,
}

/// Parse the human format's kcc-style error blocks.
fn human_findings(stdout: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut file = String::new();
    let mut cur: Option<Finding> = None;
    let field = |line: &str, key: &str| line.strip_prefix(key).map(str::to_string);
    for line in stdout.lines() {
        if let Some(f) = line.strip_suffix(':') {
            if !line.contains(' ') {
                file = f.to_string();
            }
        } else if line == "ERROR! KCC encountered an error." {
            cur = Some(Finding {
                file: file.clone(),
                code: 0,
                line: 0,
                detail: None,
                function: None,
            });
        } else if let Some(cur) = cur.as_mut() {
            if let Some(code) = field(line, "Error: ") {
                cur.code = code.parse().expect("numeric code");
            } else if let Some(detail) = field(line, "Detail: ") {
                cur.detail = Some(detail);
            } else if let Some(function) = field(line, "Function: ") {
                cur.function = Some(function);
            } else if let Some(l) = field(line, "Line: ") {
                cur.line = l.parse().expect("numeric line");
            }
        }
        // A block is complete once its trailing `Line:` has been seen;
        // flush lazily when the next block (or EOF) arrives.
        if cur.as_ref().is_some_and(|c| c.line != 0) {
            findings.push(cur.take().unwrap());
        }
    }
    findings
}

/// Parse `--format json` stdout; returns findings plus every
/// (file, verdict) pair, asserting the column contract along the way.
fn json_findings(stdout: &str) -> (Vec<Finding>, Vec<(String, String)>) {
    let mut findings = Vec::new();
    let mut verdicts = Vec::new();
    for line in stdout.lines() {
        let v = Json::parse(line).unwrap_or_else(|| panic!("bad JSONL line {line:?}"));
        let ty = v.get("type").and_then(Json::as_str).expect("typed event");
        let file = v
            .get("file")
            .and_then(Json::as_str)
            .expect("every event names its file")
            .to_string();
        match ty {
            "finding" => {
                let line_no = v.get("line").and_then(Json::as_u32).expect("line");
                let column = v.get("column").and_then(Json::as_u32).expect("column");
                assert!(line_no >= 1, "{file}: placeholder line");
                assert!(column >= 1, "{file}: placeholder column");
                // The JSON kind/code pair must be internally consistent
                // with the Rust catalog.
                let code = v.get("code").and_then(Json::as_u32).expect("code");
                if let Some(kind) = v.get("kind").and_then(Json::as_str) {
                    let known = UbKind::ALL
                        .iter()
                        .find(|k| format!("{k:?}") == kind)
                        .unwrap_or_else(|| panic!("unknown kind {kind}"));
                    assert_eq!(u32::from(known.code()), code, "kind/code drift");
                }
                findings.push(Finding {
                    file,
                    code,
                    line: line_no,
                    detail: v.get("detail").and_then(Json::as_str).map(str::to_string),
                    function: v.get("function").and_then(Json::as_str).map(str::to_string),
                });
            }
            "verdict" => verdicts.push((
                file,
                v.get("verdict")
                    .and_then(Json::as_str)
                    .expect("verdict string")
                    .to_string(),
            )),
            "note" | "error" => {}
            other => panic!("unexpected event type {other}"),
        }
    }
    (findings, verdicts)
}

/// Parse a SARIF document; returns error-level results as findings
/// (note-level results are conversion notes, not findings) plus the
/// per-finding columns for the JSON-vs-SARIF column check.
fn sarif_findings(stdout: &str) -> (Vec<Finding>, Vec<u32>) {
    let doc = Json::parse(stdout).expect("SARIF must be one valid JSON document");
    let run = &doc.get("runs").and_then(Json::as_arr).expect("runs")[0];
    let mut findings = Vec::new();
    let mut columns = Vec::new();
    for res in run.get("results").and_then(Json::as_arr).expect("results") {
        if res.get("level").and_then(Json::as_str) == Some("note") {
            continue;
        }
        let rule_id = res.get("ruleId").and_then(Json::as_str).expect("ruleId");
        let code: u32 = rule_id
            .strip_prefix("UB")
            .expect("UBnnnnn rule id")
            .parse()
            .expect("numeric rule id");
        let loc = &res
            .get("locations")
            .and_then(Json::as_arr)
            .expect("locations")[0];
        let phys = loc.get("physicalLocation").expect("physicalLocation");
        let file = phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str)
            .expect("uri")
            .to_string();
        let region = phys.get("region").expect("findings carry a region");
        let line = region
            .get("startLine")
            .and_then(Json::as_u32)
            .expect("startLine");
        let column = region
            .get("startColumn")
            .and_then(Json::as_u32)
            .expect("startColumn");
        assert!(line >= 1 && column >= 1, "{file}: placeholder region");
        let function = loc
            .get("logicalLocations")
            .and_then(Json::as_arr)
            .and_then(|l| l[0].get("name"))
            .and_then(Json::as_str)
            .map(str::to_string);
        findings.push(Finding {
            file,
            code,
            line,
            detail: res
                .get("properties")
                .and_then(|p| p.get("detail"))
                .and_then(Json::as_str)
                .map(str::to_string),
            function,
        });
        columns.push(column);
    }
    (findings, columns)
}

/// On every example: the three formats agree on every finding's
/// (kind/code, file, line, detail, function), JSON and SARIF agree on
/// column, and the JSON verdict matches what the human format implies.
/// This is also the SourceLoc audit: every structured location must be
/// ≥ 1:1, and the debug-build renderer asserts it.
#[test]
fn formats_agree_on_every_example() {
    for file in all_examples() {
        let human = cundef(&[&file]);
        let json = cundef(&["--format", "json", &file]);
        let sarif = cundef(&["--format", "sarif", &file]);
        assert_eq!(
            human.status.code(),
            json.status.code(),
            "{file}: exit drift human vs json"
        );
        assert_eq!(
            human.status.code(),
            sarif.status.code(),
            "{file}: exit drift human vs sarif"
        );

        let hf = human_findings(&stdout_of(&human));
        let (jf, verdicts) = json_findings(&stdout_of(&json));
        let (sf, s_columns) = sarif_findings(&stdout_of(&sarif));
        assert_eq!(hf, jf, "{file}: human vs json findings");
        assert_eq!(jf, sf, "{file}: json vs sarif findings");
        assert_eq!(s_columns.len(), jf.len());

        // Exactly one verdict per file, consistent with the human
        // view: findings ⇔ undefined, exit code 2 ⇔ error.
        assert_eq!(verdicts.len(), 1, "{file}: one verdict record");
        let expected = match human.status.code() {
            Some(0) => "defined",
            Some(1) => "undefined",
            Some(2) => "error",
            other => panic!("{file}: unexpected exit {other:?}"),
        };
        assert_eq!(verdicts[0].1, expected, "{file}: verdict");
        assert_eq!(verdicts[0].0, file);
        assert_eq!((expected == "undefined"), !jf.is_empty(), "{file}");
    }
}

/// JSON columns equal SARIF columns finding-for-finding (the human
/// format does not print columns, so the two structured formats pin
/// each other).
#[test]
fn structured_columns_agree() {
    let files = all_examples();
    let args: Vec<&str> = files.iter().map(String::as_str).collect();
    let mut json_args = vec!["--format", "json"];
    json_args.extend(&args);
    let mut sarif_args = vec!["--format", "sarif"];
    sarif_args.extend(&args);
    let (jf, _) = json_findings(&stdout_of(&cundef(&json_args)));
    let json_columns: Vec<u32> = {
        // Re-parse columns in order; `json_findings` already asserted
        // they are ≥ 1.
        stdout_of(&cundef(&json_args))
            .lines()
            .filter_map(|l| {
                let v = Json::parse(l)?;
                (v.get("type").and_then(Json::as_str) == Some("finding"))
                    .then(|| v.get("column").and_then(Json::as_u32).unwrap())
            })
            .collect()
    };
    let (sf, sarif_columns) = sarif_findings(&stdout_of(&cundef(&sarif_args)));
    assert_eq!(jf, sf, "multi-file findings agree");
    assert_eq!(json_columns, sarif_columns, "columns agree");
    assert!(!json_columns.is_empty(), "the corpus has findings");
}

// --------------------------------------------------------------------
// Batch byte-identity per format
// --------------------------------------------------------------------

/// For every format, `--batch` stdout is byte-identical to sequential
/// stdout over the full example corpus.
#[test]
fn batch_output_is_byte_identical_per_format() {
    let files = all_examples();
    for format in ["human", "json", "sarif"] {
        let mut seq_args = vec!["--format", format];
        seq_args.extend(files.iter().map(String::as_str));
        let mut batch_args = vec!["--format", format, "--batch", "--jobs", "4"];
        batch_args.extend(files.iter().map(String::as_str));
        let seq = cundef(&seq_args);
        let batch = cundef(&batch_args);
        assert_eq!(
            stdout_of(&seq),
            stdout_of(&batch),
            "format {format}: batch stdout differs from sequential"
        );
        assert_eq!(seq.status.code(), batch.status.code(), "format {format}");
    }
}

// --------------------------------------------------------------------
// SARIF document structure
// --------------------------------------------------------------------

/// The SARIF document carries the full rule catalog and well-formed
/// result records, whatever the mix of verdicts.
#[test]
fn sarif_document_structure() {
    let files = all_examples();
    let mut args = vec!["--format", "sarif"];
    args.extend(files.iter().map(String::as_str));
    let out = cundef(&args);
    let doc = Json::parse(&stdout_of(&out)).expect("valid JSON");
    assert_eq!(
        doc.get("$schema").and_then(Json::as_str),
        Some(cundef_ub::render::SARIF_SCHEMA_URI)
    );
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let run = &doc.get("runs").and_then(Json::as_arr).expect("runs")[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("driver");
    assert_eq!(driver.get("name").and_then(Json::as_str), Some("cundef"));
    let rules = driver.get("rules").and_then(Json::as_arr).expect("rules");
    assert_eq!(
        rules.len(),
        UbKind::ALL.len(),
        "one reporting rule per detectable kind"
    );
    // Every result's ruleId resolves into the rules array, and its
    // ruleIndex points at that very rule.
    let rule_ids: Vec<&str> = rules
        .iter()
        .map(|r| r.get("id").and_then(Json::as_str).expect("rule id"))
        .collect();
    for res in run.get("results").and_then(Json::as_arr).expect("results") {
        let Some(rule_id) = res.get("ruleId").and_then(Json::as_str) else {
            continue; // note-level results carry no rule
        };
        let index = res
            .get("ruleIndex")
            .and_then(Json::as_u32)
            .expect("ruleIndex") as usize;
        assert_eq!(rule_ids[index], rule_id, "ruleIndex points at ruleId");
    }
    // The corpus contains an unreadable-free, undefined-heavy mix, so
    // the invocation must report success and plenty of results.
    let inv = &run
        .get("invocations")
        .and_then(Json::as_arr)
        .expect("invocations")[0];
    assert_eq!(inv.get("executionSuccessful"), Some(&Json::Bool(true)));
}

// --------------------------------------------------------------------
// --stats and --profile telemetry
// --------------------------------------------------------------------

/// `--stats` reports phase timings on stderr without disturbing
/// stdout; `--stats=json` emits machine-readable records; multi-file
/// runs add an aggregate.
#[test]
fn stats_report_phases_on_stderr() {
    let plain = cundef(&["examples/defined.c"]);
    let stats = cundef(&["--stats", "examples/defined.c"]);
    assert_eq!(stdout_of(&plain), stdout_of(&stats), "stdout undisturbed");
    let err = stderr_of(&stats);
    assert!(
        err.contains("examples/defined.c: stats: read "),
        "missing stats line: {err}"
    );
    for phase in [
        "lex ", "parse ", "resolve ", "analyze ", "compile ", "execute ", "total ",
    ] {
        assert!(err.contains(phase), "missing phase {phase}: {err}");
    }

    // JSON stats: every record parses, names its file, and the
    // aggregate (file: null) covers both files.
    let two = cundef(&["--stats=json", "examples/defined.c", "examples/goto_loop.c"]);
    let mut per_file = 0;
    let mut aggregate = 0;
    for line in stderr_of(&two).lines() {
        let v = Json::parse(line).unwrap_or_else(|| panic!("bad stats line {line:?}"));
        assert_eq!(v.get("type").and_then(Json::as_str), Some("stats"));
        let total = v.get("total_ns").and_then(Json::as_f64).expect("total_ns");
        assert!(total > 0.0);
        match v.get("file").and_then(Json::as_str) {
            Some(_) => per_file += 1,
            None => {
                aggregate += 1;
                assert_eq!(v.get("files").and_then(Json::as_u32), Some(2));
            }
        }
    }
    assert_eq!(per_file, 2);
    assert_eq!(aggregate, 1);
}

/// `--profile` reports nonzero VM counters on stderr for an executed
/// program, and is silent when off.
#[test]
fn profile_reports_nonzero_counters() {
    let plain = cundef(&["examples/defined.c"]);
    assert!(
        !stderr_of(&plain).contains("profile:"),
        "profiling must be off by default"
    );
    let out = cundef(&["--profile", "examples/defined.c"]);
    assert_eq!(stdout_of(&plain), stdout_of(&out), "stdout undisturbed");
    let err = stderr_of(&out);
    let field = |key: &str| -> u64 {
        let tail = err
            .split(key)
            .nth(1)
            .unwrap_or_else(|| panic!("missing `{key}` in: {err}"));
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no number after `{key}` in: {err}"))
    };
    assert!(field("steps ") > 0, "steps counted: {err}");
    assert!(field("ops ") > 0, "ops counted: {err}");
    assert!(
        field("superinstruction hits ") > 0,
        "fusion observed: {err}"
    );
    assert!(field("word fast-path ") > 0, "word fast-path hits: {err}");
    assert!(err.contains("footprint elision"), "{err}");
    assert!(err.contains("top ops:"), "{err}");
    assert!(field("objects ") > 0, "allocations observed: {err}");
    assert!(field("peak live bytes ") > 0, "{err}");
}
