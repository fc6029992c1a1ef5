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
//!   reorder buffer sequences worker completions). In-band commands:
//!   `{"cmd": "stats"}` and `{"cmd": "shutdown"}`. EOF also shuts down.
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
use std::collections::BTreeMap;
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

/// Per-daemon configuration (from `cundef serve` flags).
pub struct ServeConfig {
    /// Defaults for requests that don't override them.
    pub defaults: ServeDefaults,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Capacity of the result cache, in entries.
    pub cache_capacity: usize,
    /// HTTP listen address (e.g. `127.0.0.1:0`); stdin-JSONL when unset.
    pub listen: Option<String>,
}

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

/// The daemon's shared state: cache, counters, defaults.
pub struct ServeCore {
    defaults: ServeDefaults,
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

/// Per-request defaults from the daemon's command line.
#[derive(Debug, Clone, Copy)]
pub struct ServeDefaults {
    /// Checking options.
    pub opts: CheckOptions,
    /// Output format.
    pub format: Format,
    /// Human quiet flag.
    pub quiet: bool,
    /// Exit threshold.
    pub fail_on: FailOn,
}

impl Default for ServeDefaults {
    /// The one-shot CLI's defaults: all phases, human format, exit on UB.
    fn default() -> ServeDefaults {
        ServeDefaults {
            opts: CheckOptions {
                phase: Phase::All,
                profile: false,
            },
            format: Format::Human,
            quiet: false,
            fail_on: FailOn::Ub,
        }
    }
}

/// One result-cache entry. The key's 64-bit hash can collide, so a hit
/// counts only when `source` equals the request's bytes.
struct CachedResult {
    source: String,
    result: FileResult,
}

impl ServeCore {
    /// A fresh core with an empty cache.
    pub fn new(defaults: ServeDefaults, cache_capacity: usize, workers: usize) -> ServeCore {
        ServeCore {
            defaults,
            results: Mutex::new(LruCache::new(cache_capacity)),
            requests: AtomicU64::new(0),
            full_hits: AtomicU64::new(0),
            cold_misses: AtomicU64::new(0),
            uncached: AtomicU64::new(0),
            workers,
            started: Instant::now(),
        }
    }

    /// Parse one JSON request object against the daemon defaults.
    ///
    /// Recognized fields: `path` (string), `source` (string, inline
    /// translation unit), `id` (number), `phase`, `format` (strings),
    /// `quiet` (bool), `profile` (bool), `fail_on` (string). Any other
    /// field is ignored.
    pub fn parse_request(&self, v: &Json) -> Result<CheckRequest, String> {
        let d = self.defaults;
        let path = v.get("path").and_then(Json::as_str).map(str::to_string);
        let source = v.get("source").and_then(Json::as_str).map(str::to_string);
        let path = match (path, &source) {
            (Some(p), _) => p,
            (None, Some(_)) => "<request>.c".to_string(),
            (None, None) => return Err("request needs a `path` or inline `source`".into()),
        };
        let id = v.get("id").and_then(Json::as_f64).map(|f| f as u64);
        let mut opts = d.opts;
        if let Some(s) = v.get("phase").and_then(Json::as_str) {
            opts.phase = Phase::parse(s).ok_or_else(|| format!("unknown phase `{s}`"))?;
        }
        if let Some(Json::Bool(b)) = v.get("profile") {
            opts.profile = *b;
        }
        let format = match v.get("format").and_then(Json::as_str) {
            Some(s) => Format::parse(s).ok_or_else(|| format!("unknown format `{s}`"))?,
            None => d.format,
        };
        let quiet = match v.get("quiet") {
            Some(Json::Bool(b)) => *b,
            _ => d.quiet,
        };
        let fail_on = match v.get("fail_on").and_then(Json::as_str) {
            Some(s) => FailOn::parse(s).ok_or_else(|| format!("unknown fail_on `{s}`"))?,
            None => d.fail_on,
        };
        Ok(CheckRequest {
            id,
            path,
            source,
            opts,
            format,
            quiet,
            fail_on,
        })
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

/// Run the daemon. Returns the process exit code.
pub fn run_serve(cfg: ServeConfig) -> u8 {
    let workers = if cfg.jobs == 0 {
        WorkerPool::default_workers()
    } else {
        cfg.jobs
    };
    let core = Arc::new(ServeCore::new(cfg.defaults, cfg.cache_capacity, workers));
    let pool = Arc::new(WorkerPool::new(workers));

    let Some(addr) = &cfg.listen else {
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
        .unwrap_or_else(|_| addr.clone());
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

/// The stdin-JSONL request loop. Responses print in request order; a
/// reorder buffer on the printer thread sequences worker completions.
fn stdin_loop(core: &Arc<ServeCore>, pool: &Arc<WorkerPool>) {
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    // (next sequence number to print, printed-count condvar).
    let progress = Arc::new((Mutex::new(0u64), Condvar::new()));
    let printer = {
        let progress = Arc::clone(&progress);
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            let mut buffer: BTreeMap<u64, String> = BTreeMap::new();
            let mut next = 0u64;
            for (seq, line) in rx {
                buffer.insert(seq, line);
                let mut emitted = false;
                while let Some(line) = buffer.remove(&next) {
                    let mut out = stdout.lock();
                    let _ = writeln!(out, "{line}");
                    let _ = out.flush();
                    next += 1;
                    emitted = true;
                }
                if emitted {
                    let (lock, cv) = &*progress;
                    *lock.lock().expect("printer progress poisoned") = next;
                    cv.notify_all();
                }
            }
        })
    };
    // Block until every response up to `seq` has printed — the barrier
    // that makes `stats` deterministic (it reflects every request that
    // preceded it on stdin) and `shutdown` clean (nothing in flight).
    let drain = |seq: u64| {
        let (lock, cv) = &*progress;
        let mut printed = lock.lock().expect("printer progress poisoned");
        while *printed < seq {
            printed = cv.wait(printed).expect("printer progress poisoned");
        }
    };
    let mut seq = 0u64;
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
            let _ = tx.send((seq, error_jsonl(id, "request line is not valid JSON")));
            seq += 1;
            continue;
        };
        match v.get("cmd").and_then(Json::as_str) {
            Some("stats") => {
                drain(seq);
                let _ = tx.send((seq, core.stats_json()));
                seq += 1;
                continue;
            }
            Some("shutdown") => {
                drain(seq);
                let _ = tx.send((seq, "{\"type\": \"shutdown\"}".to_string()));
                seq += 1;
                break;
            }
            Some(other) => {
                let _ = tx.send((seq, error_jsonl(id, &format!("unknown cmd `{other}`"))));
                seq += 1;
                continue;
            }
            None => {}
        }
        match core.parse_request(&v) {
            Err(msg) => {
                let _ = tx.send((seq, error_jsonl(id, &msg)));
                seq += 1;
            }
            Ok(req) => {
                let core = Arc::clone(core);
                let tx = tx.clone();
                let s = seq;
                pool.submit(move || {
                    let resp = core.handle(&req);
                    let _ = tx.send((s, resp.to_jsonl()));
                });
                seq += 1;
            }
        }
    }
    drain(seq);
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
                        Some(_) => core.parse_request(&v),
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
                        // Shard the check across the worker pool; this
                        // connection thread just waits for its slot.
                        let (rtx, rrx) = mpsc::channel();
                        let job_core = Arc::clone(&core);
                        pool.submit(move || {
                            let _ = rtx.send(job_core.handle(&req));
                        });
                        let Ok(resp) = rrx.recv() else {
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

    let defaults = ServeDefaults::default();
    let core = ServeCore::new(defaults, DEFAULT_CACHE_CAPACITY, 1);
    let formats = [Format::Human, Format::Json, Format::Sarif];
    let mut divergences = 0u64;
    for i in 0..count {
        let class = Class::of_case(i);
        let mut d = DecisionSource::from_seed(case_seed(seed, i));
        let case = generate(class, &mut d);
        let format = formats[(i % 3) as usize];
        let path = format!("fuzz-{i}.c");

        // The ground truth: what a one-shot run prints for these bytes.
        let checked = check_source(&path, &case.source, PhaseStats::default(), &defaults.opts);
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
            opts: defaults.opts,
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
