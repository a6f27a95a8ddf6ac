//! Std-only scrape endpoint: one background thread on a
//! [`TcpListener`] answering `GET /metrics` with the OpenMetrics page
//! ([`crate::openmetrics::render`] of the registry, plus any
//! caller-supplied extra families — serve's per-engine counters and
//! latency histograms arrive that way, see [`ExtraExposition`]) and
//! `GET /json` with [`crate::json_snapshot`] (registry sites only).
//!
//! Off by default — nothing listens unless [`ScrapeServer::start`] is
//! called. The handler is deliberately minimal and defensive: the
//! request line is read with a hard byte cap and a read timeout, the
//! response is written with a write timeout, and any client that
//! sends garbage, disconnects mid-response, or stalls costs at most
//! one timeout before the next `accept` — it can never wedge the
//! endpoint. Responses carry `Content-Length` and `Connection:
//! close`, so partial readers see a well-formed prefix.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Scrape endpoint settings.
#[derive(Clone, Debug)]
pub struct ScrapeConfig {
    /// Bind address. Default `127.0.0.1:0` (ephemeral port; read the
    /// bound address back with [`ScrapeServer::addr`]).
    pub addr: String,
    /// Per-connection read timeout for the request line.
    pub read_timeout: Duration,
    /// Per-connection write timeout for the response.
    pub write_timeout: Duration,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// Extra exposition appended to `/metrics` before `# EOF` — the hook
/// through which serve adds its job counters and its engine-wide and
/// per-tenant latency/SLO families.
pub type ExtraExposition = Box<dyn Fn(&mut String) + Send + Sync>;

/// Handle to a running scrape endpoint; dropping it stops the
/// listener thread.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind and start serving with no extra exposition.
    pub fn start(cfg: ScrapeConfig) -> io::Result<ScrapeServer> {
        ScrapeServer::start_with(cfg, None)
    }

    /// Bind and start serving; `extra` is appended to every
    /// `/metrics` page before the `# EOF` terminator.
    pub fn start_with(
        cfg: ScrapeConfig,
        extra: Option<ExtraExposition>,
    ) -> io::Result<ScrapeServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, served, rejected) = (stop.clone(), served.clone(), rejected.clone());
            std::thread::Builder::new()
                .name("obs-scrape".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let Ok(stream) = conn else { continue };
                        // An `Err` is a client that broke the
                        // connection; it is already counted.
                        let _ = handle_conn(stream, &cfg, extra.as_deref(), &served, &rejected);
                    }
                })?
        };
        Ok(ScrapeServer {
            addr,
            stop,
            served,
            rejected,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered with 200. Counted when the response is
    /// decided, before its first byte is written, so a client that has
    /// read its page always finds itself counted.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections answered with an error status, or dropped before
    /// sending a request line. Counted before the response is written,
    /// like [`ScrapeServer::served`].
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stop the listener thread and join it. Idempotent (also runs on
    /// drop).
    pub fn shutdown(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // unblock the accept loop
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer one connection, counting it into `served` (a 200) or
/// `rejected` (an error status, or no readable request line) **before**
/// any response byte is written. Counting after the write raced the
/// client: it could read its whole page and look at the counter before
/// this thread incremented it. `Err` when the client broke the
/// connection.
fn handle_conn(
    stream: TcpStream,
    cfg: &ScrapeConfig,
    extra: Option<&(dyn Fn(&mut String) + Send + Sync)>,
    served: &AtomicU64,
    rejected: &AtomicU64,
) -> io::Result<()> {
    let line = match read_request_line(&stream, cfg) {
        Ok(line) => line,
        Err(e) => {
            rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = (parts.next(), parts.next(), parts.next());
    let well_formed = version.is_some_and(|v| v.starts_with("HTTP/"));
    let (status, content_type, body) = match (method, path) {
        _ if !well_formed => (400, "text/plain", "bad request\n".to_owned()),
        (Some("GET"), Some("/metrics")) => {
            let mut body = String::new();
            crate::openmetrics::render_registry_into(&mut body);
            if let Some(extra) = extra {
                extra(&mut body);
            }
            body.push_str("# EOF\n");
            (
                200,
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                body,
            )
        }
        (Some("GET"), Some("/json")) => (200, "application/json", crate::json_snapshot()),
        (Some("GET"), Some(_)) => (404, "text/plain", "not found\n".to_owned()),
        _ => (405, "text/plain", "method not allowed\n".to_owned()),
    };
    let counter = if status == 200 { served } else { rejected };
    counter.fetch_add(1, Ordering::Relaxed);
    let mut stream = stream;
    respond(&mut stream, status, content_type, &body)?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// The request line, read under the configured timeouts and an 8 KiB
/// cap.
fn read_request_line(stream: &TcpStream, cfg: &ScrapeConfig) -> io::Result<String> {
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(8 * 1024);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line)
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Method Not Allowed",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal blocking HTTP GET against the scrape endpoint — the client
/// half used by the tests and the `spgemm-obs` smoke. Returns
/// `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: obs\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}
