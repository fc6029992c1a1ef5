//! Nesting limits end to end: the deepest accepted programs and the
//! first refused ones, plus inputs far past every limit, give the same
//! bytes from a one-shot run (on the main thread), `--batch --jobs 2`
//! and `cundef serve` (on worker threads with the same stack), and
//! never abort. A refused input is a parse error naming the limit
//! (exit 2), and the daemon goes on answering the requests behind it.

use cundef_semantics::parser::{MAX_EXPR_DEPTH, MAX_STMT_DEPTH};
use cundef_ub::json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn workspace_root() -> PathBuf {
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

/// Write each `(name, source)` into the test target's temporary
/// directory and return the absolute paths.
fn write_inputs(dir: &str, inputs: &[(&str, String)]) -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    inputs
        .iter()
        .map(|(name, source)| {
            let path = dir.join(format!("{name}.c"));
            std::fs::write(&path, source).expect("write input");
            path.display().to_string()
        })
        .collect()
}

fn main_returning(e: &str) -> String {
    format!("int main(void) {{ return {e}; }}\n")
}

fn parens(n: usize) -> String {
    main_returning(&format!("{}0{}", "(".repeat(n), ")".repeat(n)))
}

fn plus_chain(levels: usize) -> String {
    main_returning(&vec!["0"; levels + 1].join("+"))
}

fn blocks(n: usize) -> String {
    format!(
        "int main(void) {{ {}return 0;{} }}\n",
        "{".repeat(n - 1),
        "}".repeat(n - 1)
    )
}

/// A call 250 deep through 100 nested blocks per call. The engine's
/// native recursion is call depth × nesting, which overflowed a 2 MiB
/// worker stack on the tree-walker.
fn nested_recursion() -> String {
    format!(
        "int f(int n) {{ {} if (n > 0) return f(n - 1); {} return 0; }}\n\
         int main(void) {{ return f(250); }}\n",
        "{".repeat(100),
        "}".repeat(100)
    )
}

/// A call `k` deep whose every level nests 250 conditionals inside a
/// full expression with two side effects, so the engine recurses
/// natively through each level, and a worker with a smaller stack than
/// one-shot's main thread aborts on it.
fn deep_conditional_recursion(k: usize) -> String {
    format!(
        "int f(int n) {{ int a; int b; return (a = 1) + (b = 1) + ({}f(n - 1){}); }}\n\
         int main(void) {{ return f({k}) != 7; }}\n",
        "n ? ".repeat(250),
        " : 0".repeat(250)
    )
}

/// One-shot, `--batch --jobs 2` and serve agree byte for byte on every
/// path, each exits as `want`, and the daemon still answers a request
/// queued behind them.
fn assert_same_everywhere(paths: &[String], want: &[i32]) {
    let mut one_shot = Vec::new();
    for (path, &exit) in paths.iter().zip(want) {
        let single = cundef(&[path]);
        assert_eq!(single.status.code(), Some(exit), "{path}: {single:?}");
        let batch = cundef(&["--batch", "--jobs", "2", path]);
        assert_eq!(batch.status.code(), Some(exit), "{path} --batch: {batch:?}");
        assert_eq!(batch.stdout, single.stdout, "{path}: --batch stdout");
        assert_eq!(batch.stderr, single.stderr, "{path}: --batch stderr");
        one_shot.push(single);
    }

    let mut input = String::new();
    for path in paths {
        input.push_str(&format!(
            "{{\"path\": {}}}\n",
            cundef_ub::json::escaped(path)
        ));
    }
    input.push_str("{\"path\": \"examples/defined.c\"}\n{\"cmd\": \"shutdown\"}\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .args(["serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon should spawn");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon should exit");
    assert_eq!(out.status.code(), Some(0), "daemon exit: {out:?}");
    let responses: Vec<Json> = String::from_utf8(out.stdout)
        .expect("UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("response line is JSON"))
        .collect();
    assert_eq!(responses.len(), paths.len() + 2, "one response per request");
    let text = |r: &Json, key: &str| r.get(key).and_then(Json::as_str).unwrap().to_string();
    for ((path, single), resp) in paths.iter().zip(&one_shot).zip(&responses) {
        assert_eq!(
            text(resp, "stdout").as_bytes(),
            single.stdout,
            "{path}: serve stdout"
        );
        assert_eq!(
            text(resp, "stderr").as_bytes(),
            single.stderr,
            "{path}: serve stderr"
        );
        let exit = resp.get("exit").and_then(Json::as_f64).unwrap() as i32;
        assert_eq!(Some(exit), single.status.code(), "{path}: serve exit");
    }
    assert_eq!(text(&responses[paths.len()], "verdict"), "defined");
}

#[test]
fn limits_are_accepted_at_and_refused_one_past_in_every_mode() {
    let e = MAX_EXPR_DEPTH as usize;
    let s = MAX_STMT_DEPTH as usize;
    let paths = write_inputs(
        "limits-edge",
        &[
            ("parens-at", parens(e)),
            ("parens-past", parens(e + 1)),
            ("chain-at", plus_chain(e)),
            ("chain-past", plus_chain(e + 1)),
            ("blocks-at", blocks(s)),
            ("blocks-past", blocks(s + 1)),
            ("recursion", nested_recursion()),
            ("conditional-recursion", deep_conditional_recursion(3)),
        ],
    );
    assert_same_everywhere(&paths, &[0, 2, 0, 2, 0, 2, 0, 0]);
    let refused = cundef(&[&paths[1]]);
    let stderr = String::from_utf8(refused.stderr).unwrap();
    assert!(
        stderr.ends_with("expression nesting exceeds the limit of 256 levels\n"),
        "{stderr}"
    );
    let refused = cundef(&[&paths[5]]);
    let stderr = String::from_utf8(refused.stderr).unwrap();
    assert!(
        stderr.ends_with("statement nesting exceeds the limit of 256 levels\n"),
        "{stderr}"
    );
}

/// Inputs that used to overflow the stack of the parser or of a later
/// pass, on the main thread or on a 2 MiB worker.
#[test]
fn hostile_nesting_is_a_parse_error_in_every_mode() {
    let paths = write_inputs(
        "limits-hostile",
        &[
            ("parens-5000", parens(5_000)),
            ("parens-1000", parens(1_000)),
            ("blocks-50000", blocks(50_000)),
            (
                "neg-200000",
                main_returning(&format!("{}0", "- ".repeat(200_000))),
            ),
            ("plus-100000", plus_chain(100_000)),
            ("plus-20000", plus_chain(20_000)),
            (
                "assign-20000",
                format!(
                    "int main(void) {{ int a = 0; {}0; return a; }}\n",
                    "a=".repeat(20_000)
                ),
            ),
            (
                "stars-100000",
                format!(
                    "int main(void) {{ int {}p; return 0; }}\n",
                    "*".repeat(100_000)
                ),
            ),
        ],
    );
    assert_same_everywhere(&paths, &[2; 8]);
    let translation = cundef(&[
        "--batch",
        "--jobs",
        "2",
        "--phase",
        "translation",
        &paths[1],
    ]);
    assert_eq!(translation.status.code(), Some(2), "{translation:?}");
}
