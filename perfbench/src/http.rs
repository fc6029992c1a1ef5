//! A minimal HTTP/1.1 keep-alive client and the handle of one
//! `cundef serve` daemon, driven from outside its process.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replies larger than this are refused rather than buffered.
const MAX_BODY: usize = 64 << 20;

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as text (the daemon's bodies are UTF-8).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one response from a keep-alive stream: status line, headers up
/// to the blank line, then exactly `Content-Length` body bytes.
pub fn read_reply<R: BufRead>(r: &mut R) -> io::Result<Reply> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a reply",
        ));
    }
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| bad(format!("bad status line {line:?}")))?,
        _ => return Err(bad(format!("bad status line {line:?}"))),
    };
    let mut headers = Vec::new();
    let mut length = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let h = line.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header {h:?}")))?;
        let (name, value) = (name.trim().to_string(), value.trim().to_string());
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .parse::<usize>()
                .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
            if n > MAX_BODY {
                return Err(bad(format!("Content-Length {n} exceeds {MAX_BODY}")));
            }
            length = Some(n);
        }
        headers.push((name, value));
    }
    let length = length.ok_or_else(|| bad("reply without Content-Length"))?;
    let mut body = vec![0; length];
    r.read_exact(&mut body)?;
    Ok(Reply {
        status,
        headers,
        body,
    })
}

/// The bytes of one request, built ahead of time so the timed path only
/// writes them.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Write prepared request bytes.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)?;
        self.writer.flush()
    }

    /// Read the next reply.
    pub fn recv(&mut self) -> io::Result<Reply> {
        read_reply(&mut self.reader)
    }

    /// Send one request and wait for its reply.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        self.recv()
    }
}

/// A running `cundef serve --listen` daemon. Dropping the handle kills
/// the process if [`Daemon::shutdown`] was not called.
pub struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the daemon on a free loopback port with `jobs` workers and
    /// wait until `GET /health` answers 200.
    pub fn start(cundef: &Path, jobs: usize) -> io::Result<Daemon> {
        let mut child = Command::new(cundef)
            .args(["serve", "--listen", "127.0.0.1:0", "--jobs"])
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(bad("daemon exited before printing its address"));
            }
            if let Some((_, a)) = line.trim().split_once("listening on http://") {
                break a.to_string();
            }
        };
        // Keep draining stderr so the daemon can never block on it.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        let mut daemon = Daemon {
            child,
            addr,
            drain: Some(drain),
        };
        daemon.wait_healthy()?;
        Ok(daemon)
    }

    fn wait_healthy(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let probe = request_bytes("GET", "/health", b"");
        loop {
            let err = match Conn::connect(&self.addr).and_then(|mut c| c.call(&probe)) {
                Ok(r) if r.status == 200 => return Ok(()),
                Ok(r) => bad(format!("/health answered {}", r.status)),
                Err(e) => e,
            };
            if Instant::now() > deadline {
                return Err(err);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The bound `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /stats`, parsed.
    pub fn stats(&self) -> io::Result<cundef_ub::json::Json> {
        let reply = Conn::connect(&self.addr)?.call(&request_bytes("GET", "/stats", b""))?;
        cundef_ub::json::Json::parse(reply.text().trim()).ok_or_else(|| bad("/stats is not JSON"))
    }

    /// Peak resident set (`VmHWM`) in KiB, from `/proc/<pid>/status`.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| bad("no VmHWM line"))
    }

    /// `POST /shutdown`, then wait for the process (killing it after a
    /// grace period).
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Conn::connect(&self.addr)
            .and_then(|mut c| c.call(&request_bytes("POST", "/shutdown", b"")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.wait()?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        asked.map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_check_reply_with_cache_header_and_length() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\
                   X-Cundef-Verdict: undefined\r\nX-Cundef-Exit: 1\r\nX-Cundef-Cache: hit\r\n\r\n\
                   hello";
        let r = read_reply(&mut Cursor::new(raw)).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cundef-cache"), Some("hit"));
        assert_eq!(r.header("X-Cundef-Verdict"), Some("undefined"));
        assert_eq!(r.header("X-Cundef-Exit"), Some("1"));
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn keep_alive_replies_split_on_content_length() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Cundef-Cache: miss\r\n\r\nabc\
                   HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let mut c = Cursor::new(raw);
        let first = read_reply(&mut c).unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"abc"[..]));
        assert_eq!(first.header("X-Cundef-Cache"), Some("miss"));
        let second = read_reply(&mut c).unwrap();
        assert_eq!((second.status, second.body.len()), (404, 0));
        assert!(read_reply(&mut c).is_err(), "nothing left to read");
    }

    #[test]
    fn rejects_missing_or_bad_length_and_truncated_bodies() {
        for raw in [
            "HTTP/1.1 200 OK\r\n\r\nbody",
            "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            "SMTP ready\r\n\r\n",
        ] {
            assert!(read_reply(&mut Cursor::new(raw)).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn request_bytes_carry_the_body_length() {
        let r = request_bytes("POST", "/check", b"{}");
        assert_eq!(
            String::from_utf8(r).unwrap(),
            "POST /check HTTP/1.1\r\nHost: localhost\r\nContent-Length: 2\r\n\r\n{}"
        );
    }
}
