//! `cundef serve` — checking as a service.
//!
//! A long-running daemon that accepts translation units as requests,
//! shards them across the same [`WorkerPool`] that powers `--batch`,
//! and answers through the existing `FileResult` → `Renderer` seam, so
//! a serve response's rendered bytes are **identical** to what a
//! one-shot `cundef` run prints for the same file and options, in every
//! `--format`.
//!
//! Two transports share one core:
//!
//! - **stdin-JSONL** — one JSON request object per line on stdin, one
//!   JSON response object per line on stdout, *in request order* (a
//!   printer thread waits on each request's own result receiver in
//!   turn). In-band commands: `{"cmd": "stats"}` and
//!   `{"cmd": "shutdown"}`. EOF also shuts down.
//! - **HTTP** (`--listen ADDR`, instead of stdin) — `POST /check` with
//!   the same request object as the body returns the rendered report
//!   verbatim as the response body (verdict/exit/cache outcome in
//!   `X-Cundef-*` headers), plus `GET /stats`, `GET /health`, and
//!   `POST /shutdown`. Connections are keep-alive; each parsed request
//!   is dispatched to the worker pool. A request must carry inline
//!   `source`: a `path` alone gets 400, so a peer cannot make the
//!   daemon read its files. A body over [`MAX_BODY_BYTES`] is refused
//!   with 413 and an unparseable `Content-Length` with 400, each
//!   closing the connection before any body byte is read.
//!
//! In front of the workers sits the content-hash incremental cache
//! (`cundef-cache`): one *result* cache keyed by (source-bytes hash,
//! options fingerprint) memoizing the full [`FileResult`] next to the
//! source bytes it was computed from. A repeat file is a hash lookup, a
//! byte comparison and a re-render; bytes that merely share the hash
//! are a miss. The cache is a bounded LRU; hit/miss/eviction counters
//! surface through `{"cmd": "stats"}` / `GET /stats`.

use crate::check::{
    check_source, read_source, render_profile, CheckOptions, Checked, FailOn, Format, Phase,
    PhaseStats,
};
use crate::pool::WorkerPool;
use cundef_cache::{content_hash, CacheKey, LruCache};
use cundef_ub::json::{escaped, Json};
use cundef_ub::render::{FileResult, Rendered, Verdict};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Default bound on the result cache (entries, not bytes): generous
/// for a sweep over a large tree, small enough that a long-lived daemon
/// cannot grow without bound.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Largest HTTP request body accepted, in bytes (1 MiB): far above any
/// request object for a translation unit in the supported subset, and
/// a bound on what one connection can make the daemon allocate.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed check request (transport-independent).
#[derive(Debug, Clone)]
pub struct CheckRequest {
    /// Pass-through correlation id, echoed in the JSONL envelope.
    pub id: Option<u64>,
    /// The label used in diagnostics; over stdin, also the file to read
    /// when no inline `source` is given.
    pub path: String,
    /// Inline source bytes (a translation unit shipped in-band).
    pub source: Option<String>,
    /// Checking options for this request.
    pub opts: CheckOptions,
    /// Output format for this request.
    pub format: Format,
    /// Human-format quiet flag.
    pub quiet: bool,
    /// Exit-code threshold for this request.
    pub fail_on: FailOn,
}

/// One served response: the rendered bytes plus the structured outcome.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Echoed request path.
    pub path: String,
    /// Verdict spelling (`defined`/`undefined`/`error`).
    pub verdict: &'static str,
    /// The exit code a one-shot `cundef` run on this file would return
    /// under the request's `fail_on` threshold.
    pub exit: u8,
    /// Cache outcome: `hit` (stored result for the same bytes), `miss`
    /// (cold check, now cached), `uncached` (not cacheable — read
    /// failure or profiling request).
    pub cache: &'static str,
    /// Exactly the bytes a one-shot run would print to stdout.
    pub stdout: String,
    /// Exactly the bytes a one-shot run would print to stderr.
    pub stderr: String,
}

impl ServeResponse {
    /// The stdin-JSONL envelope (one line, no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::from("{\"type\": \"response\"");
        if let Some(id) = self.id {
            let _ = write!(out, ", \"id\": {id}");
        }
        let _ = write!(out, ", \"path\": {}", escaped(&self.path));
        let _ = write!(out, ", \"verdict\": \"{}\"", self.verdict);
        let _ = write!(out, ", \"exit\": {}", self.exit);
        let _ = write!(out, ", \"cache\": \"{}\"", self.cache);
        let _ = write!(out, ", \"stdout\": {}", escaped(&self.stdout));
        let _ = write!(out, ", \"stderr\": {}", escaped(&self.stderr));
        out.push('}');
        out
    }
}

/// The daemon's shared state: cache and counters.
pub struct ServeCore {
    /// Result cache: (content hash, options fingerprint) → the source
    /// bytes and their path-normalized [`FileResult`].
    results: Mutex<LruCache<CachedResult>>,
    requests: AtomicU64,
    full_hits: AtomicU64,
    cold_misses: AtomicU64,
    uncached: AtomicU64,
    workers: usize,
    started: Instant,
}

/// One result-cache entry. The key's 64-bit hash can collide, so a hit
/// counts only when `source` equals the request's bytes.
struct CachedResult {
    source: String,
    result: FileResult,
}

impl ServeCore {
    /// A fresh core with an empty cache.
    pub fn new(cache_capacity: usize, workers: usize) -> ServeCore {
        ServeCore {
            results: Mutex::new(LruCache::new(cache_capacity)),
            requests: AtomicU64::new(0),
            full_hits: AtomicU64::new(0),
            cold_misses: AtomicU64::new(0),
            uncached: AtomicU64::new(0),
            workers,
            started: Instant::now(),
        }
    }

    /// Serve one request end to end: resolve the source bytes, consult
    /// the caches, check on a miss, and render through the seam.
    pub fn handle(&self, req: &CheckRequest) -> ServeResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (checked, cache) = self.check_cached(req);
        let Rendered { stdout, stderr } = render_one(&checked.result, req.format, req.quiet);
        let mut stderr = stderr;
        if let Some(p) = &checked.profile {
            stderr.push_str(&render_profile(&checked.result.path, p));
        }
        let (verdict, any_ub, any_fail) = match checked.result.verdict {
            Verdict::Defined => ("defined", false, false),
            Verdict::Undefined => ("undefined", true, false),
            Verdict::EngineFailure => ("error", false, true),
        };
        ServeResponse {
            id: req.id,
            path: req.path.clone(),
            verdict,
            exit: req.fail_on.exit_code(any_ub, any_fail),
            cache,
            stdout,
            stderr,
        }
    }

    /// The caching check: a stored result for the same bytes, or a
    /// cold check whose result is then stored.
    fn check_cached(&self, req: &CheckRequest) -> (Checked, &'static str) {
        let mut stats = PhaseStats::default();
        let source = match &req.source {
            Some(s) => s.clone(),
            None => match read_source(&req.path, &mut stats) {
                Ok(s) => s,
                Err(e) => {
                    // Not content-addressable: never cached.
                    self.uncached.fetch_add(1, Ordering::Relaxed);
                    return (Checked::failed(&req.path, stats, e), "uncached");
                }
            },
        };
        if req.opts.profile {
            // Profiling wants fresh telemetry, and cached results carry
            // none — bypass the cache entirely.
            self.uncached.fetch_add(1, Ordering::Relaxed);
            return (
                check_source(&req.path, &source, stats, &req.opts),
                "uncached",
            );
        }
        let key = CacheKey {
            content: content_hash(source.as_bytes()),
            fingerprint: req.opts.fingerprint(),
        };
        if let Some(cached) = self
            .results
            .lock()
            .expect("result cache poisoned")
            .get(&key)
            .filter(|cached| cached.source == source)
        {
            self.full_hits.fetch_add(1, Ordering::Relaxed);
            let mut result = cached.result.clone();
            result.path = req.path.clone();
            return (
                Checked {
                    result,
                    stats,
                    profile: None,
                },
                "hit",
            );
        }
        self.cold_misses.fetch_add(1, Ordering::Relaxed);
        let checked = check_source(&req.path, &source, stats, &req.opts);
        // Memoize the full result, path-normalized so the same bytes
        // under another name replay with that name. A colliding entry
        // for other bytes is replaced.
        let mut result = checked.result.clone();
        result.path = String::new();
        self.results
            .lock()
            .expect("result cache poisoned")
            .insert(key, CachedResult { source, result });
        (checked, "miss")
    }

    /// The `{"cmd": "stats"}` / `GET /stats` body (one JSON object).
    pub fn stats_json(&self) -> String {
        let (len, cap, stats) = {
            let c = self.results.lock().expect("result cache poisoned");
            (c.len(), c.capacity(), c.stats())
        };
        format!(
            "{{\"type\": \"stats\", \"requests\": {}, \"full_hits\": {}, \
             \"cold_misses\": {}, \"uncached\": {}, \"workers\": {}, \"uptime_ms\": {}, \
             \"results\": {{\"entries\": {len}, \"capacity\": {cap}, \"hits\": {}, \
             \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \"replacements\": {}}}}}",
            self.requests.load(Ordering::Relaxed),
            self.full_hits.load(Ordering::Relaxed),
            self.cold_misses.load(Ordering::Relaxed),
            self.uncached.load(Ordering::Relaxed),
            self.workers,
            self.started.elapsed().as_millis(),
            stats.hits,
            stats.misses,
            stats.insertions,
            stats.evictions,
            stats.replacements,
        )
    }

    /// The shutdown summary printed to the daemon's stderr.
    fn summary(&self) -> String {
        format!(
            "cundef serve: {} requests served ({} hits, {} misses, {} uncached)",
            self.requests.load(Ordering::Relaxed),
            self.full_hits.load(Ordering::Relaxed),
            self.cold_misses.load(Ordering::Relaxed),
            self.uncached.load(Ordering::Relaxed),
        )
    }
}

/// Parse one JSON request object. A field left out takes the one-shot
/// CLI's default.
///
/// Recognized fields: `path` (string), `source` (string, inline
/// translation unit), `id` (number), `phase`, `format` (strings),
/// `quiet` (bool), `profile` (bool), `fail_on` (string). Any other
/// field is ignored.
pub fn parse_request(v: &Json) -> Result<CheckRequest, String> {
    let path = v.get("path").and_then(Json::as_str).map(str::to_string);
    let source = v.get("source").and_then(Json::as_str).map(str::to_string);
    let path = match (path, &source) {
        (Some(p), _) => p,
        (None, Some(_)) => "<request>.c".to_string(),
        (None, None) => return Err("request needs a `path` or inline `source`".into()),
    };
    let id = v.get("id").and_then(Json::as_f64).map(|f| f as u64);
    let mut opts = CheckOptions::default();
    if let Some(s) = v.get("phase").and_then(Json::as_str) {
        opts.phase = Phase::parse(s).ok_or_else(|| format!("unknown phase `{s}`"))?;
    }
    if let Some(Json::Bool(b)) = v.get("profile") {
        opts.profile = *b;
    }
    let format = match v.get("format").and_then(Json::as_str) {
        Some(s) => Format::parse(s).ok_or_else(|| format!("unknown format `{s}`"))?,
        None => Format::default(),
    };
    let fail_on = match v.get("fail_on").and_then(Json::as_str) {
        Some(s) => FailOn::parse(s).ok_or_else(|| format!("unknown fail_on `{s}`"))?,
        None => FailOn::default(),
    };
    Ok(CheckRequest {
        id,
        path,
        source,
        opts,
        format,
        quiet: matches!(v.get("quiet"), Some(Json::Bool(true))),
        fail_on,
    })
}

/// Render one result exactly as a one-shot run would: per-file render
/// plus the format's trailing output (the SARIF document).
pub fn render_one(result: &FileResult, format: Format, quiet: bool) -> Rendered {
    let mut renderer = format.renderer(quiet);
    let mut rendered = renderer.render_file(result);
    rendered.stdout.push_str(&renderer.finish());
    rendered
}

/// A `{"type": "error"}` line for a malformed request.
fn error_jsonl(id: Option<u64>, message: &str) -> String {
    let mut out = String::from("{\"type\": \"error\"");
    if let Some(id) = id {
        let _ = write!(out, ", \"id\": {id}");
    }
    let _ = write!(out, ", \"message\": {}", escaped(message));
    out.push('}');
    out
}

/// Run the daemon on `workers` threads with a result cache of
/// `cache_capacity` entries: over HTTP on `listen` (e.g. `127.0.0.1:0`)
/// when given, else over stdin-JSONL. Returns the process exit code.
pub fn run_serve(listen: Option<&str>, workers: usize, cache_capacity: usize) -> u8 {
    let core = Arc::new(ServeCore::new(cache_capacity, workers));
    let pool = Arc::new(WorkerPool::new(workers));

    let Some(addr) = listen else {
        // stdin-JSONL: EOF or `shutdown` ends the service.
        stdin_loop(&core, &pool);
        eprintln!("{}", core.summary());
        return 0;
    };
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cundef serve: cannot listen on {addr}: {e}");
            return 2;
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    eprintln!("cundef serve: listening on http://{local}");
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new((Mutex::new(false), Condvar::new()));
    {
        let core = Arc::clone(&core);
        let done = Arc::clone(&done);
        std::thread::spawn(move || http_accept_loop(listener, core, pool, stop, done));
    }
    // Park until /shutdown.
    let (lock, cv) = &*done;
    let mut finished = lock.lock().expect("shutdown flag poisoned");
    while !*finished {
        finished = cv.wait(finished).expect("shutdown flag poisoned");
    }
    drop(finished);
    eprintln!("{}", core.summary());
    0
}

/// One stdin reply, handed to the printer in request order.
enum Reply {
    /// A line known as soon as the request is read.
    Line(String),
    /// A check on the worker pool: the request id (for the error
    /// envelope if the job ends unanswered) and the job's receiver.
    Check(Option<u64>, mpsc::Receiver<String>),
    /// A `stats` command. The printer answers it once every earlier reply
    /// has printed, then releases the reader, which waits so that the
    /// counters cover exactly the requests before it.
    Stats(mpsc::SyncSender<()>),
}

/// The stdin-JSONL request loop. Responses print in request order: the
/// printer thread takes each request's own receiver in turn.
fn stdin_loop(core: &Arc<ServeCore>, pool: &WorkerPool) {
    let (tx, rx) = mpsc::channel::<Reply>();
    let printer = {
        let core = Arc::clone(core);
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            for reply in rx {
                let line = match reply {
                    Reply::Line(line) => line,
                    Reply::Check(id, response) => response
                        .recv()
                        .unwrap_or_else(|_| error_jsonl(id, "the check ended without a response")),
                    Reply::Stats(release) => {
                        let line = core.stats_json();
                        let _ = release.send(());
                        line
                    }
                };
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
        })
    };
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = Json::parse(&line);
        let id = parsed
            .as_ref()
            .and_then(|v| v.get("id"))
            .and_then(Json::as_f64)
            .map(|f| f as u64);
        let Some(v) = parsed else {
            let _ = tx.send(Reply::Line(error_jsonl(
                id,
                "request line is not valid JSON",
            )));
            continue;
        };
        let reply = match v.get("cmd").and_then(Json::as_str) {
            Some("stats") => {
                let (release, released) = mpsc::sync_channel(1);
                let _ = tx.send(Reply::Stats(release));
                let _ = released.recv();
                continue;
            }
            Some("shutdown") => {
                let _ = tx.send(Reply::Line("{\"type\": \"shutdown\"}".to_string()));
                break;
            }
            Some(other) => Reply::Line(error_jsonl(id, &format!("unknown cmd `{other}`"))),
            None => match parse_request(&v) {
                Err(msg) => Reply::Line(error_jsonl(id, &msg)),
                Ok(req) => {
                    let core = Arc::clone(core);
                    Reply::Check(id, pool.run(move || core.handle(&req).to_jsonl()))
                }
            },
        };
        let _ = tx.send(reply);
    }
    drop(tx);
    let _ = printer.join();
}

// --------------------------------------------------------------------
// HTTP transport
// --------------------------------------------------------------------

/// Accept connections until `stop`; one thread per connection.
fn http_accept_loop(
    listener: TcpListener,
    core: Arc<ServeCore>,
    pool: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    done: Arc<(Mutex<bool>, Condvar)>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let core = Arc::clone(&core);
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        let done = Arc::clone(&done);
        let addr = listener.local_addr().ok();
        std::thread::spawn(move || {
            let _ = handle_connection(stream, core, pool, stop, done, addr);
        });
    }
    let (lock, cv) = &*done;
    *lock.lock().expect("shutdown flag poisoned") = true;
    cv.notify_all();
}

/// Serve HTTP/1.1 requests on one connection (keep-alive) until the
/// peer closes, asks to, or the daemon shuts down.
fn handle_connection(
    stream: TcpStream,
    core: Arc<ServeCore>,
    pool: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    done: Arc<(Mutex<bool>, Condvar)>,
    local_addr: Option<std::net::SocketAddr>,
) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut request_line = String::new();
        if reader.read_line(&mut request_line)? == 0 {
            break; // peer closed
        }
        let mut parts = request_line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next()) {
            (Some(m), Some(t)) => (m.to_string(), t.to_string()),
            _ => {
                write_http(&mut writer, 400, "text/plain", &[], b"bad request\n")?;
                break;
            }
        };
        // `None` once a `Content-Length` fails to parse.
        let mut content_length = Some(0usize);
        let mut close = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Ok(());
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value.parse().ok();
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let body_len = match content_length {
            Some(n) if n <= MAX_BODY_BYTES => n,
            refused => {
                let (status, message) = match refused {
                    Some(_) => (
                        413,
                        format!("request body exceeds {MAX_BODY_BYTES} bytes\n"),
                    ),
                    None => (400, "bad Content-Length\n".to_string()),
                };
                let close = ["Connection: close".to_string()];
                write_http(
                    &mut writer,
                    status,
                    "text/plain",
                    &close,
                    message.as_bytes(),
                )?;
                break;
            }
        };
        let mut body = vec![0u8; body_len];
        reader.read_exact(&mut body)?;

        match (method.as_str(), target.as_str()) {
            ("POST", "/check") => {
                let parsed = std::str::from_utf8(&body)
                    .ok()
                    .and_then(Json::parse)
                    .ok_or_else(|| "request body is not valid JSON".to_string())
                    .and_then(|v| match v.get("source").and_then(Json::as_str) {
                        Some(_) => parse_request(&v),
                        // The daemon reads no files for a remote peer:
                        // one fixed answer, whatever the `path`.
                        None => Err("an HTTP request needs inline `source`".to_string()),
                    });
                match parsed {
                    Err(msg) => {
                        let body = format!("{}\n", error_jsonl(None, &msg));
                        write_http(&mut writer, 400, "application/json", &[], body.as_bytes())?;
                    }
                    Ok(req) => {
                        let content_type = match req.format {
                            Format::Human => "text/plain; charset=utf-8",
                            Format::Json => "application/x-ndjson",
                            Format::Sarif => "application/json",
                        };
                        // The check runs on the worker pool; this
                        // connection thread waits for its answer.
                        let job_core = Arc::clone(&core);
                        let Ok(resp) = pool.run(move || job_core.handle(&req)).recv() else {
                            write_http(
                                &mut writer,
                                500,
                                "text/plain",
                                &[],
                                b"worker pool unavailable\n",
                            )?;
                            break;
                        };
                        let mut extra = vec![
                            format!("X-Cundef-Verdict: {}", resp.verdict),
                            format!("X-Cundef-Exit: {}", resp.exit),
                            format!("X-Cundef-Cache: {}", resp.cache),
                        ];
                        if !resp.stderr.is_empty() {
                            extra.push(format!("X-Cundef-Stderr: {}", escaped(&resp.stderr)));
                        }
                        write_http(
                            &mut writer,
                            200,
                            content_type,
                            &extra,
                            resp.stdout.as_bytes(),
                        )?;
                    }
                }
            }
            ("GET", "/stats") => {
                let body = format!("{}\n", core.stats_json());
                write_http(&mut writer, 200, "application/json", &[], body.as_bytes())?;
            }
            ("GET", "/health") => {
                write_http(&mut writer, 200, "text/plain", &[], b"ok\n")?;
            }
            ("POST", "/shutdown") => {
                write_http(&mut writer, 200, "text/plain", &[], b"shutting down\n")?;
                stop.store(true, Ordering::SeqCst);
                if let Some(addr) = local_addr {
                    let _ = TcpStream::connect(addr); // wake the accept loop
                }
                let (lock, cv) = &*done;
                *lock.lock().expect("shutdown flag poisoned") = true;
                cv.notify_all();
                break;
            }
            _ => {
                write_http(&mut writer, 404, "text/plain", &[], b"not found\n")?;
            }
        }
        if close {
            break;
        }
    }
    Ok(())
}

// --------------------------------------------------------------------
// `cundef fuzz --serve-replay`
// --------------------------------------------------------------------

/// Replay the fuzz-generated corpus through the serve pipeline and
/// assert every response is byte-identical to one-shot output — a
/// service-path oracle on top of the sweep's five.
///
/// Each generated program is checked twice (a cold pass and a second
/// pass that must be a full-result cache hit) in a rotating format
/// (`human`/`json`/`sarif` by case index), and both passes' rendered
/// stdout/stderr and exit code are compared against a direct
/// `check_source` + render of the same bytes. Returns `true` when no
/// response diverged and every second pass hit the cache.
pub fn serve_replay(seed: u64, count: u64) -> bool {
    use cundef_fuzz::decision::DecisionSource;
    use cundef_fuzz::gen::{generate, Class};
    use cundef_fuzz::rng::case_seed;

    let opts = CheckOptions::default();
    let core = ServeCore::new(DEFAULT_CACHE_CAPACITY, 1);
    let formats = [Format::Human, Format::Json, Format::Sarif];
    let mut divergences = 0u64;
    for i in 0..count {
        let class = Class::of_case(i);
        let mut d = DecisionSource::from_seed(case_seed(seed, i));
        let case = generate(class, &mut d);
        let format = formats[(i % 3) as usize];
        let path = format!("fuzz-{i}.c");

        // The ground truth: what a one-shot run prints for these bytes.
        let checked = check_source(&path, &case.source, PhaseStats::default(), &opts);
        let expected = render_one(&checked.result, format, false);
        let (any_ub, any_fail) = match checked.result.verdict {
            Verdict::Defined => (false, false),
            Verdict::Undefined => (true, false),
            Verdict::EngineFailure => (false, true),
        };
        let expected_exit = FailOn::Ub.exit_code(any_ub, any_fail);

        let req = CheckRequest {
            id: Some(i),
            path: path.clone(),
            source: Some(case.source.clone()),
            opts,
            format,
            quiet: false,
            fail_on: FailOn::Ub,
        };
        for pass in ["cold", "hit"] {
            let resp = core.handle(&req);
            if resp.stdout != expected.stdout
                || resp.stderr != expected.stderr
                || resp.exit != expected_exit
            {
                divergences += 1;
                eprintln!(
                    "serve-replay: DIVERGENCE case {i} ({}, {:?}, {pass} pass): \
                     serve exit {} vs one-shot {expected_exit}",
                    class.name(),
                    format,
                    resp.exit,
                );
                eprintln!("  serve stdout:    {}", escaped(&resp.stdout));
                eprintln!("  one-shot stdout: {}", escaped(&expected.stdout));
                eprintln!("  serve stderr:    {}", escaped(&resp.stderr));
                eprintln!("  one-shot stderr: {}", escaped(&expected.stderr));
            }
            // The second pass of the same (bytes, options) must be a
            // full-result hit; the cold pass may itself hit when two
            // cases generate identical source, so it is not asserted.
            if pass == "hit" && resp.cache != "hit" {
                divergences += 1;
                eprintln!(
                    "serve-replay: case {i}: second pass was `{}`, expected a cache hit",
                    resp.cache
                );
            }
        }
    }
    println!(
        "serve-replay: seed {seed}, {count} cases x (cold + hit), formats rotated human/json/sarif"
    );
    println!(
        "serve-replay: {} requests, {} full hits, {} misses",
        core.requests.load(Ordering::Relaxed),
        core.full_hits.load(Ordering::Relaxed),
        core.cold_misses.load(Ordering::Relaxed),
    );
    if divergences == 0 {
        println!("serve-replay: every response byte-identical to one-shot output");
        true
    } else {
        println!("serve-replay: {divergences} divergences");
        false
    }
}

/// Write one HTTP response.
fn write_http(
    w: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Content Too Large",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}
