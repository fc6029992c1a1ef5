//! End-to-end tests of `cundef serve` over the stdin-JSONL transport,
//! plus the HTTP transport's request limits (body size, inline
//! `source` only).
//!
//! The daemon's contract: a serve response's rendered bytes are
//! **byte-identical** to what a one-shot `cundef` run prints for the
//! same file and options — in every format, whether the answer came
//! from a cold check or a cache hit. These tests pin that contract over
//! the whole example corpus, plus the cache semantics themselves:
//! repeats hit, one-byte mutations invalidate, bytes that share a
//! content hash never share an answer, option fingerprints never
//! cross-contaminate, and eviction under a tiny capacity changes
//! performance, not answers.
//!
//! Cache-outcome assertions run the daemon with `--jobs 1`: with
//! parallel workers two identical in-flight requests can race to a
//! double miss (benign — both compute the same bytes), so outcome
//! labels are only deterministic single-threaded.

use cundef_cache::content_hash;
use cundef_ub::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

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

/// Run `cundef serve` with `args`, feed `input` JSONL on stdin, and
/// return the response lines (the trailing shutdown line included).
/// When `input` ends with the shutdown command, the daemon's last line
/// must acknowledge it.
fn serve(args: &[&str], input: &str) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .arg("serve")
        .args(args)
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
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if input.ends_with("{\"cmd\": \"shutdown\"}\n") {
        assert_eq!(
            stdout.lines().last(),
            Some("{\"type\": \"shutdown\"}"),
            "shutdown acknowledged last"
        );
    }
    stdout
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|| panic!("response line is JSON: {l}")))
        .collect()
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("field `{key}` in {v:?}"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key).as_str().expect("string field")
}

fn num_field(v: &Json, key: &str) -> u64 {
    field(v, key).as_f64().expect("number field") as u64
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
// Parity: serve responses == one-shot output, everywhere
// --------------------------------------------------------------------

/// Over every example and every format, a serve response carries
/// exactly the stdout, stderr, and exit code of a one-shot run — both
/// cold and as a cache hit.
#[test]
fn serve_parity_all_examples_all_formats() {
    let examples = all_examples();
    let mut input = String::new();
    let mut expected = Vec::new();
    for format in ["human", "json", "sarif"] {
        for file in &examples {
            // Two passes per (file, format): the second must answer
            // from the cache with the same bytes.
            for _ in 0..2 {
                input.push_str(&format!(
                    "{{\"path\": \"{file}\", \"format\": \"{format}\"}}\n"
                ));
            }
            expected.push((file.clone(), format, cundef(&["--format", format, file])));
        }
    }
    input.push_str("{\"cmd\": \"shutdown\"}\n");
    let responses = serve(&["--jobs", "1"], &input);
    assert_eq!(responses.len(), examples.len() * 3 * 2 + 1);
    for (i, (file, format, one_shot)) in expected.iter().enumerate() {
        let cold = &responses[i * 2];
        let hit = &responses[i * 2 + 1];
        let want_stdout = String::from_utf8(one_shot.stdout.clone()).unwrap();
        let want_stderr = String::from_utf8(one_shot.stderr.clone()).unwrap();
        let want_exit = one_shot.status.code().expect("one-shot exit") as u64;
        for (pass, resp) in [("cold", cold), ("hit", hit)] {
            assert_eq!(
                str_field(resp, "stdout"),
                want_stdout,
                "{file} ({format}, {pass}) stdout diverges from one-shot"
            );
            assert_eq!(
                str_field(resp, "stderr"),
                want_stderr,
                "{file} ({format}, {pass}) stderr diverges from one-shot"
            );
            assert_eq!(
                num_field(resp, "exit"),
                want_exit,
                "{file} ({format}, {pass})"
            );
        }
        assert_eq!(
            str_field(hit, "cache"),
            "hit",
            "{file} ({format}) second pass"
        );
    }
}

/// `--phase` is fingerprinted too, and each response matches the
/// corresponding one-shot phase run byte for byte.
#[test]
fn serve_phase_fingerprint_isolation() {
    let file = "examples/unsequenced.c";
    let input = format!(
        "{{\"path\": \"{file}\", \"phase\": \"translation\"}}\n\
         {{\"path\": \"{file}\"}}\n\
         {{\"path\": \"{file}\", \"phase\": \"translation\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1"], &input);
    let translation = cundef(&["--phase", "translation", file]);
    let full = cundef(&[file]);
    assert_eq!(
        str_field(&responses[0], "stdout"),
        String::from_utf8(translation.stdout).unwrap()
    );
    assert_eq!(
        str_field(&responses[1], "stdout"),
        String::from_utf8(full.stdout).unwrap()
    );
    // Different fingerprints never cross-contaminate: the translation
    // result was cached under its own key and replays as a hit, while
    // the default-phase request in between was a separate entry.
    assert_eq!(str_field(&responses[0], "cache"), "miss");
    assert_eq!(str_field(&responses[1], "cache"), "miss");
    assert_eq!(str_field(&responses[2], "cache"), "hit");
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[2], "stdout")
    );
}

// --------------------------------------------------------------------
// Cache semantics
// --------------------------------------------------------------------

/// A one-byte mutation of inline source invalidates: the mutated
/// request misses and reports its own (different) verdict.
#[test]
fn serve_mutation_invalidates() {
    let input = "\
        {\"source\": \"int main(void) { return 0; }\", \"path\": \"a.c\"}\n\
        {\"source\": \"int main(void) { return 1; }\", \"path\": \"a.c\"}\n\
        {\"source\": \"int main(void) { return 0; }\", \"path\": \"a.c\"}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[0], "cache"), "miss");
    assert_eq!(
        str_field(&responses[1], "cache"),
        "miss",
        "one changed byte must flip the content hash"
    );
    assert_eq!(str_field(&responses[2], "cache"), "hit");
    assert!(str_field(&responses[0], "stdout").contains("program returned 0"));
    assert!(str_field(&responses[1], "stdout").contains("program returned 1"));
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[2], "stdout")
    );
}

/// Two programs whose bytes share a 64-bit content hash: the first is
/// defined and returns 1, the second divides by zero.
const COLLIDING: [&str; 2] = [
    "int main(void) { return 1 / (int)(0xba3baf2af8f20d2d % 2); }",
    "int main(void) { return 1 / (int)(0x0161f1e5799913c2 % 2); }",
];

/// A content-hash match is not enough for a hit: in either order, the
/// second of two colliding programs misses, is counted as a miss, and
/// gets its own one-shot bytes.
#[test]
fn serve_hash_collision_is_a_miss() {
    assert_ne!(COLLIDING[0], COLLIDING[1]);
    assert_eq!(
        content_hash(COLLIDING[0].as_bytes()),
        content_hash(COLLIDING[1].as_bytes()),
        "the fixture must stay a real collision"
    );
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-collision");
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let paths: Vec<String> = COLLIDING
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let path = dir.join(format!("collision-{i}.c"));
            std::fs::write(&path, source).expect("write input");
            path.display().to_string()
        })
        .collect();
    let one_shot: Vec<Output> = paths.iter().map(|p| cundef(&[p])).collect();
    assert_eq!(one_shot[0].status.code(), Some(0));
    assert_eq!(one_shot[1].status.code(), Some(1));
    for order in [[0, 1], [1, 0]] {
        let mut input = String::new();
        for &i in &order {
            input.push_str(&format!(
                "{{\"path\": {}}}\n",
                cundef_ub::json::escaped(&paths[i])
            ));
        }
        input.push_str("{\"cmd\": \"stats\"}\n{\"cmd\": \"shutdown\"}\n");
        let responses = serve(&["--jobs", "1"], &input);
        for (resp, &i) in responses.iter().zip(&order) {
            assert_eq!(str_field(resp, "cache"), "miss", "order {order:?}");
            let want = &one_shot[i];
            assert_eq!(
                str_field(resp, "stdout").as_bytes(),
                want.stdout,
                "order {order:?}: program {i} stdout"
            );
            assert_eq!(str_field(resp, "stderr").as_bytes(), want.stderr);
            assert_eq!(
                Some(num_field(resp, "exit") as i32),
                want.status.code(),
                "order {order:?}: program {i} exit"
            );
        }
        let stats = &responses[2];
        assert_eq!(num_field(stats, "full_hits"), 0, "order {order:?}");
        assert_eq!(num_field(stats, "cold_misses"), 2, "order {order:?}");
    }
}

/// The same bytes under a different label replay from the cache, with
/// the response rendered under the *request's* path.
#[test]
fn serve_hit_rewrites_path() {
    let input = "\
        {\"source\": \"int main(void) { return 7; }\", \"path\": \"first.c\"}\n\
        {\"source\": \"int main(void) { return 7; }\", \"path\": \"second.c\"}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[1], "cache"), "hit");
    assert!(str_field(&responses[0], "stdout").starts_with("first.c:"));
    assert!(str_field(&responses[1], "stdout").starts_with("second.c:"));
}

/// Under `--cache-capacity 1`, alternating files evict each other —
/// every request misses, and the answers stay byte-identical.
#[test]
fn serve_eviction_stays_correct() {
    let a = "examples/defined.c";
    let b = "examples/unsequenced.c";
    let input = format!(
        "{{\"path\": \"{a}\"}}\n{{\"path\": \"{b}\"}}\n{{\"path\": \"{a}\"}}\n\
         {{\"path\": \"{b}\"}}\n{{\"cmd\": \"stats\"}}\n{{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1", "--cache-capacity", "1"], &input);
    for (i, want) in ["miss", "miss", "miss", "miss"].iter().enumerate() {
        assert_eq!(str_field(&responses[i], "cache"), *want, "request {i}");
    }
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[2], "stdout"),
        "evicted-and-recomputed result is byte-identical"
    );
    assert_eq!(
        str_field(&responses[1], "stdout"),
        str_field(&responses[3], "stdout")
    );
    let stats = &responses[4];
    let results = field(stats, "results");
    assert_eq!(num_field(results, "entries"), 1);
    assert_eq!(num_field(results, "capacity"), 1);
    assert!(
        num_field(results, "evictions") >= 2,
        "tiny cache must evict"
    );
}

/// `{"cmd": "stats"}` is a barrier: it reflects exactly the requests
/// that preceded it on stdin, so counters are deterministic, with one
/// worker or with four. The repeats follow a barrier, so even parallel
/// workers find every first pass cached and none can double-miss.
#[test]
fn serve_stats_deterministic() {
    let mut pass = String::from(
        "{\"path\": \"examples/defined.c\"}\n\
         {\"path\": \"examples/unsequenced.c\"}\n\
         {\"path\": \"no/such/file.c\"}\n",
    );
    for i in 0..20 {
        pass.push_str(&format!(
            "{{\"source\": \"int main(void) {{ return {i}; }}\"}}\n"
        ));
    }
    let stats = "{\"cmd\": \"stats\"}\n";
    let input = format!("{pass}{stats}{pass}{stats}{{\"cmd\": \"shutdown\"}}\n");
    for jobs in ["1", "4"] {
        let responses = serve(&["--jobs", jobs], &input);
        assert_eq!(responses.len(), 23 + 1 + 23 + 1 + 1, "--jobs {jobs}");
        for (at, requests, full_hits, cold_misses, uncached) in
            [(23, 23, 0, 22, 1), (47, 46, 22, 22, 2)]
        {
            let stats = &responses[at];
            assert_eq!(str_field(stats, "type"), "stats", "--jobs {jobs}");
            assert_eq!(num_field(stats, "requests"), requests, "--jobs {jobs}");
            assert_eq!(num_field(stats, "full_hits"), full_hits, "--jobs {jobs}");
            assert_eq!(
                num_field(stats, "cold_misses"),
                cold_misses,
                "--jobs {jobs}"
            );
            assert_eq!(num_field(stats, "uncached"), uncached, "--jobs {jobs}");
        }
        for resp in &responses[24..47] {
            let want = if str_field(resp, "verdict") == "error" {
                "uncached"
            } else {
                "hit"
            };
            assert_eq!(str_field(resp, "cache"), want, "--jobs {jobs}: {resp:?}");
        }
    }
}

// --------------------------------------------------------------------
// Per-request fail_on, error envelopes
// --------------------------------------------------------------------

/// `fail_on` maps the same verdict to different exit codes without
/// touching the rendered report.
#[test]
fn serve_fail_on_thresholds() {
    let file = "examples/unsequenced.c"; // undefined
    let input = format!(
        "{{\"path\": \"{file}\"}}\n\
         {{\"path\": \"{file}\", \"fail_on\": \"error\"}}\n\
         {{\"path\": \"{file}\", \"fail_on\": \"never\"}}\n\
         {{\"path\": \"no/such/file.c\"}}\n\
         {{\"path\": \"no/such/file.c\", \"fail_on\": \"never\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1"], &input);
    assert_eq!(str_field(&responses[0], "verdict"), "undefined");
    assert_eq!(num_field(&responses[0], "exit"), 1);
    assert_eq!(
        num_field(&responses[1], "exit"),
        0,
        "fail_on=error demotes UB"
    );
    assert_eq!(num_field(&responses[2], "exit"), 0);
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[1], "stdout"),
        "fail_on changes the exit code, never the report"
    );
    assert_eq!(str_field(&responses[3], "verdict"), "error");
    assert_eq!(num_field(&responses[3], "exit"), 2);
    assert_eq!(str_field(&responses[3], "cache"), "uncached");
    assert_eq!(num_field(&responses[4], "exit"), 0);
}

/// A request `engine` field is ignored like any other unknown field:
/// the program runs on the VM, and the daemon answers the request
/// behind it. The program recurses 250 calls deep through 100 nested
/// blocks per call, which exhausted a worker's stack on the tree-walker.
#[test]
fn serve_ignores_a_request_engine_field() {
    let source = format!(
        "int f(int n) {{ {} if (n > 0) return f(n - 1); {} return 0; }}\n\
         int main(void) {{ return f(250); }}\n",
        "{".repeat(100),
        "}".repeat(100)
    );
    let input = format!(
        "{{\"source\": {}, \"engine\": \"tree\"}}\n\
         {{\"path\": \"examples/defined.c\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n",
        cundef_ub::json::escaped(&source)
    );
    let responses = serve(&["--jobs", "2"], &input);
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert_eq!(str_field(&responses[0], "verdict"), "defined");
    assert_eq!(num_field(&responses[0], "exit"), 0);
    assert_eq!(str_field(&responses[1], "path"), "examples/defined.c");
    assert_eq!(str_field(&responses[1], "verdict"), "defined");
}

/// Malformed lines and unknown commands get error envelopes; the
/// daemon keeps serving afterwards.
#[test]
fn serve_error_envelopes() {
    let input = "\
        this is not json\n\
        {\"cmd\": \"frobnicate\"}\n\
        {\"id\": 9}\n\
        {\"path\": \"examples/defined.c\", \"id\": 10}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[0], "type"), "error");
    assert_eq!(str_field(&responses[1], "type"), "error");
    assert_eq!(str_field(&responses[2], "type"), "error");
    assert_eq!(num_field(&responses[2], "id"), 9, "id echoes on errors");
    assert_eq!(str_field(&responses[3], "type"), "response");
    assert_eq!(num_field(&responses[3], "id"), 10);
    assert_eq!(str_field(&responses[3], "verdict"), "defined");
}

/// stdin is served exactly when `--listen` is absent: there is no
/// `--stdin` switch. Request options live on the request alone: the
/// daemon takes no default phase, format, threshold or quiet flag.
#[test]
fn serve_has_no_stdin_option() {
    for args in [
        &["--stdin"][..],
        &["--phase", "all"],
        &["--format", "json"],
        &["--fail-on", "ub"],
        &["-q"],
    ] {
        let out = cundef(&[&["serve"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown serve option `{}`\n", args[0])),
            "{stderr}"
        );
    }
}

/// A call that returns without a value, used as the left operand of
/// each fused binary shape, is Error 00052 one-shot, under `--batch`
/// and through the daemon.
#[test]
fn missing_return_value_is_caught_in_every_mode() {
    const SHAPES: [&str; 4] = [
        "return f() + x;",
        "int y = 2; return f() * (x + y);",
        "int y; y = f() - x; return y;",
        "while (f() < x) { x = 0; } return 0;",
    ];
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("missing-return");
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let mut input = String::new();
    for (i, shape) in SHAPES.iter().enumerate() {
        let source = format!("int f(void) {{ }}\nint main(void) {{ int x = 1; {shape} }}\n");
        let path = dir.join(format!("shape-{i}.c"));
        std::fs::write(&path, &source).expect("write input");
        let path = path.display().to_string();
        for args in [&[path.as_str()][..], &["--batch", path.as_str()][..]] {
            let out = cundef(args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(1), "{args:?}\n{stdout}");
            assert!(stdout.contains("Error: 00052"), "{args:?}\n{stdout}");
        }
        input.push_str(&format!(
            "{{\"source\": {}}}\n",
            cundef_ub::json::escaped(&source)
        ));
    }
    let responses = serve(&[], &input);
    assert_eq!(responses.len(), SHAPES.len());
    for (resp, shape) in responses.iter().zip(SHAPES) {
        assert_eq!(num_field(resp, "exit"), 1, "{shape}");
        assert!(
            str_field(resp, "stdout").contains("Error: 00052"),
            "{shape}: {resp:?}"
        );
    }
}

/// Responses come back in request order even when many requests are in
/// flight across parallel workers.
#[test]
fn serve_responses_in_request_order() {
    let mut input = String::new();
    for i in 0..40 {
        let file = if i % 2 == 0 {
            "examples/defined.c"
        } else {
            "examples/unsequenced.c"
        };
        input.push_str(&format!("{{\"path\": \"{file}\", \"id\": {i}}}\n"));
    }
    input.push_str("{\"cmd\": \"shutdown\"}\n");
    let responses = serve(&["--jobs", "4"], &input);
    assert_eq!(responses.len(), 41);
    for (i, resp) in responses[..40].iter().enumerate() {
        assert_eq!(num_field(resp, "id"), i as u64, "response {i} out of order");
        let want = if i % 2 == 0 { "defined" } else { "undefined" };
        assert_eq!(str_field(resp, "verdict"), want);
    }
}

// --------------------------------------------------------------------
// HTTP request limits
// --------------------------------------------------------------------

/// Send one raw HTTP request on a new connection and return everything
/// the daemon writes before it closes the connection.
fn http_exchange(addr: &str, request: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to the daemon");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn.write_all(request.as_bytes()).expect("send request");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read reply");
    reply
}

/// A running daemon, killed on drop so a failing test leaves no
/// process behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `cundef serve --listen 127.0.0.1:0 --jobs 1` and return the
/// daemon with the address it printed.
fn http_daemon() -> (Daemon, String) {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .args(["serve", "--listen", "127.0.0.1:0", "--jobs", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon should spawn");
    let mut stderr = BufReader::new(daemon.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("listening banner");
    let addr = banner
        .trim()
        .strip_prefix("cundef serve: listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    // Keep the pipe open: the daemon prints a summary when it exits.
    daemon.stderr = Some(stderr.into_inner());
    (Daemon(daemon), addr)
}

/// `POST /shutdown`, then assert the daemon exits 0.
fn http_shutdown(mut daemon: Daemon, addr: &str) {
    let bye = http_exchange(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(bye.starts_with("HTTP/1.1 200 "), "{bye}");
    let status = daemon.0.wait().expect("daemon should exit");
    assert_eq!(status.code(), Some(0));
}

/// `POST /check` of `body` on a new connection.
fn http_check(addr: &str, body: &str) -> String {
    http_exchange(
        addr,
        &format!(
            "POST /check HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// `GET /health` still answers `ok`.
fn assert_health(addr: &str) {
    let health = http_exchange(addr, "GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 "), "{health}");
    assert!(health.ends_with("\r\n\r\nok\n"), "{health}");
}

/// A `Content-Length` over the body limit is refused with 413 and an
/// unparseable one with 400, each before any body is read and with the
/// connection closed; the daemon goes on answering new connections.
#[test]
fn http_refuses_oversized_and_unparseable_bodies() {
    let (daemon, addr) = http_daemon();
    for (length, status) in [
        ("1099511627776", "413"),
        // One byte over the daemon's `MAX_BODY_BYTES` (1 MiB).
        ("1048577", "413"),
        ("lots", "400"),
        ("-1", "400"),
    ] {
        let reply = http_exchange(
            &addr,
            &format!("POST /check HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"),
        );
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status} ")),
            "Content-Length {length}: {reply}"
        );
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
        assert_health(&addr);
    }
    http_shutdown(daemon, &addr);
}

/// Over HTTP the daemon reads no files: a request without inline
/// `source` gets one fixed 400 reply, so an existing and a missing path
/// are indistinguishable. Inline source is checked as usual.
#[test]
fn http_check_requires_inline_source() {
    let (daemon, addr) = http_daemon();
    let existing = http_check(&addr, "{\"path\": \"examples/defined.c\"}");
    let missing = http_check(&addr, "{\"path\": \"examples/no_such_file.c\"}");
    assert!(existing.starts_with("HTTP/1.1 400 "), "{existing}");
    assert_eq!(existing, missing, "the reply must not tell the paths apart");
    assert_health(&addr);

    let source = std::fs::read_to_string(workspace_root().join("examples/unsequenced.c"))
        .expect("read example");
    let body = format!(
        "{{\"source\": {}, \"path\": \"examples/unsequenced.c\"}}",
        cundef_ub::json::escaped(&source)
    );
    let reply = http_check(&addr, &body);
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    assert!(reply.contains("X-Cundef-Exit: 1\r\n"), "{reply}");
    let one_shot = cundef(&["examples/unsequenced.c"]);
    assert!(
        reply.ends_with(&*String::from_utf8_lossy(&one_shot.stdout)),
        "{reply}"
    );
    http_shutdown(daemon, &addr);
}
