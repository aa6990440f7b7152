//! HTTP exposition endpoint: a dependency-free server over
//! `std::net::TcpListener` serving the process-wide telemetry, plus
//! the pluggable request surface the SpMV serving plane mounts on.
//!
//! This is the **only** module in the workspace allowed to touch
//! sockets — `cargo xtask audit` enforces a socket-containment policy
//! pinning `TcpListener`/`TcpStream` use to this file, the same way
//! thread creation is pinned to the execution engine. Everything that
//! needs the network (the serving daemon, the load generator, tests)
//! goes through [`MetricsServer`], [`HttpHandler`] and
//! [`http_request`] instead of opening sockets itself.
//!
//! The server is deliberately minimal: blocking accept, one request
//! per connection (`Connection: close`), `GET` for the built-in
//! telemetry routes and `POST` for handler-mounted application
//! routes. One [`MetricsServer`] may be driven from several
//! `ExecEngine` lanes at once ([`MetricsServer::serve_with`]) — the
//! listener is shared, each lane accepts and serves independently,
//! and a shared stop flag plus self-connect wakeups coordinate
//! shutdown. This module still never creates threads; concurrency is
//! always borrowed from the engine (see `spmv-metricsd`).
//!
//! # Error discipline (the `serve` contract)
//!
//! * **Served** means a complete HTTP response was written. Only
//!   served connections count toward request budgets.
//! * **Per-connection I/O errors** (client vanished, read timeout
//!   with nothing salvageable) are swallowed: the listener stays up
//!   and the budget does not advance.
//! * **Listener errors** are fatal either immediately (kinds that
//!   mean the listener itself is broken) or after
//!   [`MAX_CONSECUTIVE_ACCEPT_FAILURES`] consecutive accept failures
//!   — an EMFILE storm must surface as an error, not as a "budget
//!   complete" exit that never served anything.
//!
//! Built-in routes:
//! * `GET /metrics` — Prometheus text format 0.0.4
//!   ([`MetricsRegistry::gather`]);
//! * `GET /trace`   — Chrome trace-event JSON of the global tracer
//!   (load in Perfetto);
//! * `GET /`        — plain-text index.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::registry::MetricsRegistry;
use crate::trace::tracer;

/// Largest request head (request line + headers) we accept; beyond
/// it the reply is `431 Request Header Fields Too Large`.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Largest request body we accept (`Content-Length` cap); beyond it
/// the reply is `413 Content Too Large`. Sized for MatrixMarket
/// uploads of the registered-suite scale.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Per-connection read timeout, so a stalled client cannot wedge a
/// serve lane indefinitely.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Client-side read timeout for [`http_request`].
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Consecutive accept failures tolerated before the serve loop gives
/// up and reports the listener broken (an accept storm — EMFILE,
/// resource exhaustion — keeps failing without ever yielding a
/// connection; retrying forever would spin, exiting quietly would
/// fake completion).
pub const MAX_CONSECUTIVE_ACCEPT_FAILURES: u32 = 100;

/// Self-connect wakeups issued on stop, to unblock sibling lanes
/// parked in `accept`. Must be at least the largest lane count a
/// daemon drives against one listener.
const STOP_WAKEUPS: usize = 16;

/// One parsed HTTP request as seen by an [`HttpHandler`].
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with the query string stripped.
    pub path: String,
    /// Raw query string (empty when absent), without the `?`.
    pub query: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Looks up a `key=value` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k == key).then_some(v)
        })
    }
}

/// One HTTP response produced by an [`HttpHandler`] or the built-in
/// router.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (`Retry-After`, ...), rendered after
    /// the built-in ones.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A plain-text response. The body is taken as bytes, so a
    /// `String` or an already-encoded `Vec<u8>` moves in without a
    /// copy or a UTF-8 re-check; callers keep it UTF-8.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON response (body taken as bytes, like [`HttpResponse::text`]).
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds one extra response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> HttpResponse {
        self.headers.push((name, value.into()));
        self
    }
}

/// An [`HttpHandler`]'s verdict on one request.
#[derive(Debug)]
pub enum Handled {
    /// Respond and keep serving.
    Response(HttpResponse),
    /// Respond, then stop this serve loop (and, under
    /// [`MetricsServer::serve_with`], signal every sibling lane).
    Stop(HttpResponse),
    /// Not an application route — fall through to the built-in
    /// telemetry router.
    NotHandled,
}

/// Application request surface mounted on a [`MetricsServer`].
///
/// Handlers run on whichever engine lane accepted the connection, so
/// they must be `Sync`; blocking (e.g. on a request scheduler) is
/// fine — it stalls one lane, not the listener.
pub trait HttpHandler: Sync {
    /// Routes one request.
    fn handle(&self, req: &HttpRequest) -> Handled;
}

/// A bound HTTP endpoint.
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
    read_timeout: Duration,
}

/// Outcome of one successfully served connection.
enum Served {
    /// Response written; keep serving.
    Ok,
    /// Response written; the handler asked the serve loop to stop.
    Stop,
}

/// Classifies accept errors: consecutive-failure budget with
/// immediately-fatal kinds. Extracted from the serve loop so the
/// policy is unit-testable without manufacturing an EMFILE storm.
struct AcceptFailures {
    consecutive: u32,
}

#[derive(Debug, PartialEq, Eq)]
enum AcceptVerdict {
    /// Transient: retry the accept.
    Retry,
    /// Listener is broken (or has been failing persistently): stop
    /// serving and surface the error.
    Fatal,
}

impl AcceptFailures {
    fn new() -> AcceptFailures {
        AcceptFailures { consecutive: 0 }
    }

    /// Records a successful accept, closing any failure streak.
    fn succeeded(&mut self) {
        self.consecutive = 0;
    }

    /// Records one accept failure and returns the verdict.
    fn record(&mut self, kind: ErrorKind) -> AcceptVerdict {
        if matches!(kind, ErrorKind::InvalidInput | ErrorKind::Unsupported) {
            return AcceptVerdict::Fatal;
        }
        self.consecutive += 1;
        if self.consecutive >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
            AcceptVerdict::Fatal
        } else {
            AcceptVerdict::Retry
        }
    }
}

impl MetricsServer {
    /// Binds the endpoint (e.g. `"127.0.0.1:9464"`; port `0` picks a
    /// free port — read it back with
    /// [`local_addr`](MetricsServer::local_addr)).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<MetricsServer> {
        Ok(MetricsServer { listener: TcpListener::bind(addr)?, read_timeout: READ_TIMEOUT })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Overrides the per-connection read timeout (tests shorten it to
    /// exercise the stalled-client paths quickly).
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
    }

    /// Accepts and serves exactly one connection (blocking), with the
    /// built-in telemetry routes only. Returns an error when no
    /// complete response could be written (the listener stays
    /// usable).
    pub fn serve_one(&self) -> io::Result<()> {
        let (stream, _) = self.listener.accept()?;
        handle_conn(stream, None, self.read_timeout).map(|_| ())
    }

    /// Serves built-in routes until `max_requests` connections have
    /// been **successfully handled** (`None` = forever). See the
    /// module-level error discipline: failed connections do not
    /// advance the budget, and a broken listener (immediately-fatal
    /// accept errors, or [`MAX_CONSECUTIVE_ACCEPT_FAILURES`]
    /// consecutive accept failures) surfaces as an error instead of
    /// silently draining the budget. Returns the number of
    /// connections served.
    pub fn serve(&self, max_requests: Option<u64>) -> io::Result<u64> {
        self.serve_with(None, None, max_requests)
    }

    /// [`serve`](MetricsServer::serve) with an application handler
    /// and a cooperative stop flag — the serving plane's lane loop.
    ///
    /// Several engine lanes may call this concurrently on one server:
    /// each lane accepts and serves independently. When `stop` is
    /// provided, a lane observing it set (checked between
    /// connections) exits; a handler returning [`Handled::Stop`] sets
    /// the flag and issues self-connect wakeups so lanes parked in
    /// `accept` also exit promptly.
    pub fn serve_with(
        &self,
        handler: Option<&dyn HttpHandler>,
        stop: Option<&AtomicBool>,
        max_requests: Option<u64>,
    ) -> io::Result<u64> {
        let mut served = 0u64;
        let mut failures = AcceptFailures::new();
        while max_requests.is_none_or(|max| served < max) {
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    failures.succeeded();
                    if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        // Stop raced the accept (possibly a wakeup
                        // connection): drop it and exit.
                        break;
                    }
                    match handle_conn(stream, handler, self.read_timeout) {
                        Ok(Served::Ok) => served += 1,
                        Ok(Served::Stop) => {
                            served += 1;
                            if let Some(stop) = stop {
                                self.request_stop(stop);
                            }
                            break;
                        }
                        // Per-connection I/O failure: not served, not
                        // counted; the listener stays up.
                        Err(_) => {}
                    }
                }
                Err(e) => {
                    if failures.record(e.kind()) == AcceptVerdict::Fatal {
                        return Err(e);
                    }
                }
            }
        }
        Ok(served)
    }

    /// Sets the stop flag and issues self-connect wakeups so every
    /// lane blocked in `accept` on this listener re-checks the flag.
    pub fn request_stop(&self, stop: &AtomicBool) {
        stop.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.local_addr() {
            for _ in 0..STOP_WAKEUPS {
                drop(TcpStream::connect(addr));
            }
        }
    }
}

/// Issues one HTTP request (client side) and returns `(status,
/// body)`. This is the workspace's only HTTP client — the load
/// generator and the serving tests use it so socket code stays
/// contained in this module. One request per connection, matching the
/// server's `Connection: close` discipline.
pub fn http_request<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: spmv\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    parse_response(&reply)
}

/// Splits a raw HTTP response into `(status, body)`.
fn parse_response(reply: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let bad =
        |what: &str| io::Error::new(ErrorKind::InvalidData, format!("malformed response: {what}"));
    let head_end = find_head_end(reply, 0).ok_or_else(|| bad("no header terminator"))?;
    let head = String::from_utf8_lossy(&reply[..head_end]);
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((status, reply[head_end + 4..].to_vec()))
}

/// Outcome of reading one request head.
enum HeadRead {
    /// Terminator found: the head text plus any body bytes that
    /// arrived in the same chunks.
    Complete { head: String, leftover: Vec<u8> },
    /// The head exceeded [`MAX_REQUEST_BYTES`] without terminating.
    TooLarge,
    /// The client closed before sending anything.
    Empty,
    /// The client closed mid-head (no terminator); best-effort text.
    Truncated { head: String },
}

/// Reads one request head (`\r\n\r\n`-terminated).
///
/// The terminator scan is incremental: each chunk is scanned from
/// `len - 3` of the previous buffer, so a slow-trickle client costs
/// `O(bytes)` total instead of the quadratic full rescans
/// `buf.windows(4)` used to pay per chunk.
fn read_head(stream: &mut TcpStream) -> io::Result<HeadRead> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let mut scan_from = 0usize;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(if buf.is_empty() {
                HeadRead::Empty
            } else {
                HeadRead::Truncated { head: String::from_utf8_lossy(&buf).into_owned() }
            });
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(end) = find_head_end(&buf, scan_from) {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let leftover = buf[end + 4..].to_vec();
            return Ok(HeadRead::Complete { head, leftover });
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Ok(HeadRead::TooLarge);
        }
        // A terminator can straddle the chunk boundary: resume up to
        // three bytes before the end of what's already been scanned.
        scan_from = buf.len().saturating_sub(3);
    }
}

/// Finds the start of the first `\r\n\r\n` at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    (from..=buf.len() - 4).find(|&i| &buf[i..i + 4] == b"\r\n\r\n")
}

/// Extracts the `Content-Length` header, if present and numeric.
fn content_length(head: &str) -> Option<usize> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        if key.trim().eq_ignore_ascii_case("content-length") {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

/// Reads a `len`-byte body, `leftover` bytes first.
fn read_body(stream: &mut TcpStream, leftover: Vec<u8>, len: usize) -> io::Result<Vec<u8>> {
    let mut body = leftover;
    body.truncate(len.min(body.len()));
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        let want = (len - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "request body truncated"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(body)
}

/// Discards whatever request bytes are already buffered on `stream`
/// without blocking. Early-reply paths (431/413) answer before
/// consuming the full request; closing with unread bytes in the
/// receive buffer would RST the connection and can destroy the reply
/// before the client reads it.
fn drain_buffered(stream: &mut TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(1..)) {}
    let _ = stream.set_nonblocking(false);
}

/// Reads one request, routes it (handler first, built-ins second),
/// writes one response. `Ok` means a complete response was written.
fn handle_conn(
    mut stream: TcpStream,
    handler: Option<&dyn HttpHandler>,
    read_timeout: Duration,
) -> io::Result<Served> {
    stream.set_read_timeout(Some(read_timeout))?;
    let head = match read_head(&mut stream) {
        Ok(HeadRead::Complete { head, leftover }) => Some((head, leftover)),
        Ok(HeadRead::TooLarge) => {
            drain_buffered(&mut stream);
            write_response(
                &mut stream,
                &HttpResponse::text(431, "request header fields too large\n"),
            )?;
            return Ok(Served::Ok);
        }
        // Nothing arrived: a vanished client (or a stop wakeup), not
        // a request. No response to write — report the failure so the
        // connection is not counted as served.
        Ok(HeadRead::Empty) => {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed before request",
            ))
        }
        Ok(HeadRead::Truncated { head }) => Some((head, Vec::new())),
        Err(e) => {
            // Timed out or connection dropped mid-request: best-effort
            // error reply, but the connection still failed.
            let _ = write_response(&mut stream, &HttpResponse::text(400, "bad request\n"));
            return Err(e);
        }
    };
    let (head, leftover) = head.expect("head present on all remaining paths");
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/") => (m, t),
        _ => {
            write_response(&mut stream, &HttpResponse::text(400, "bad request\n"))?;
            return Ok(Served::Ok);
        }
    };
    let body = match content_length(&head) {
        Some(len) if len > MAX_BODY_BYTES => {
            drain_buffered(&mut stream);
            write_response(&mut stream, &HttpResponse::text(413, "content too large\n"))?;
            return Ok(Served::Ok);
        }
        Some(len) => match read_body(&mut stream, leftover, len) {
            Ok(body) => body,
            Err(e) => {
                let _ = write_response(&mut stream, &HttpResponse::text(400, "bad request\n"));
                return Err(e);
            }
        },
        None => Vec::new(),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let req = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body,
    };
    let (response, outcome) = match handler.map_or(Handled::NotHandled, |h| h.handle(&req)) {
        Handled::Response(r) => (r, Served::Ok),
        Handled::Stop(r) => (r, Served::Stop),
        Handled::NotHandled => (builtin_route(&req), Served::Ok),
    };
    write_response(&mut stream, &response)?;
    Ok(outcome)
}

/// The built-in telemetry routes (`GET` only).
fn builtin_route(req: &HttpRequest) -> HttpResponse {
    if req.method != "GET" {
        return HttpResponse::text(405, "method not allowed\n");
    }
    match req.path.as_str() {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: MetricsRegistry::gather().render().into_bytes(),
        },
        "/trace" => {
            let mut doc = tracer().to_chrome_trace().render();
            doc.push('\n');
            HttpResponse::json(200, doc)
        }
        "/" => HttpResponse::text(
            200,
            "spmv-metricsd\n\n/metrics  Prometheus text exposition\n/trace    Chrome trace-event JSON (open in Perfetto)\n",
        ),
        _ => HttpResponse::text(404, "not found\n"),
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete `HTTP/1.1` response and closes the write side.
fn write_response(stream: &mut TcpStream, response: &HttpResponse) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::trace::EventKind;

    /// Single-threaded request/response: a TCP connect succeeds as
    /// soon as it lands in the listener's backlog, so the client can
    /// connect and write its (small) request *before* the server
    /// accepts, and read the reply after `serve_one` returns.
    fn roundtrip(server: &MetricsServer, request: &str) -> String {
        let addr = server.local_addr().expect("bound");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(request.as_bytes()).expect("send request");
        server.serve_one().expect("serve");
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read reply");
        reply
    }

    fn body_of(reply: &str) -> &str {
        reply.split_once("\r\n\r\n").expect("header/body split").1
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let reply = roundtrip(&server, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
        let body = body_of(&reply);
        assert!(body.contains("# TYPE spmv_dispatches_total counter"), "{body}");
        assert!(body.contains("spmv_dispatch_imbalance_ratio"), "{body}");
        assert!(body.contains("spmv_preprocessing_total"), "{body}");
        // Content-Length matches the body exactly.
        let len: usize = reply
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .trim()
            .parse()
            .expect("numeric length");
        assert_eq!(len, body.len());
    }

    #[test]
    fn trace_endpoint_serves_parseable_chrome_json() {
        tracer().record(EventKind::Span, 0, "exposition-test", 1, 2, 3);
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let reply = roundtrip(&server, "GET /trace HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Type: application/json"));
        let doc = JsonValue::parse(body_of(&reply).trim_end()).expect("valid JSON");
        assert!(doc.get("traceEvents").and_then(JsonValue::as_array).is_some());
    }

    #[test]
    fn index_and_errors() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let index = roundtrip(&server, "GET / HTTP/1.1\r\n\r\n");
        assert!(index.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(body_of(&index).contains("/metrics"));

        let missing = roundtrip(&server, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"), "{missing}");

        let post = roundtrip(&server, "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"), "{post}");

        let garbage = roundtrip(&server, "garbage\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{garbage}");
    }

    #[test]
    fn query_strings_are_ignored() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let reply = roundtrip(&server, "GET /metrics?format=prometheus HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    }

    #[test]
    fn serve_counts_connections() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let mut clients: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut c = TcpStream::connect(addr).expect("connect");
                c.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").expect("send");
                c
            })
            .collect();
        let served = server.serve(Some(3)).expect("serve");
        assert_eq!(served, 3);
        for c in &mut clients {
            let mut reply = String::new();
            c.read_to_string(&mut reply).expect("read");
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"));
        }
    }

    /// Regression (serve counting): a client that connects and
    /// vanishes without sending anything is a failed connection — it
    /// must not advance the request budget. `serve(Some(2))` has to
    /// outlive the dead connection and still serve both real clients.
    #[test]
    fn failed_connections_do_not_consume_the_budget() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        // Backlogged first: accepted first, reads EOF immediately.
        drop(TcpStream::connect(addr).expect("connect"));
        let mut clients: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut c = TcpStream::connect(addr).expect("connect");
                c.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("send");
                c
            })
            .collect();
        let served = server.serve(Some(2)).expect("serve");
        assert_eq!(served, 2);
        for c in &mut clients {
            let mut reply = String::new();
            c.read_to_string(&mut reply).expect("read");
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        }
    }

    /// Regression (serve counting): `serve_one` reports the failure
    /// instead of pretending the dead connection was handled.
    #[test]
    fn empty_connection_is_an_error_not_a_request() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        drop(TcpStream::connect(addr).expect("connect"));
        let err = server.serve_one().expect_err("dead connection must error");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    /// Regression (fatal-error separation): immediately-fatal kinds
    /// stop on the first failure; transient kinds only become fatal
    /// after a persistent storm; a successful accept closes a streak.
    #[test]
    fn accept_failure_policy() {
        let mut f = AcceptFailures::new();
        assert_eq!(f.record(ErrorKind::InvalidInput), AcceptVerdict::Fatal);

        let mut f = AcceptFailures::new();
        for _ in 0..MAX_CONSECUTIVE_ACCEPT_FAILURES - 1 {
            assert_eq!(f.record(ErrorKind::Other), AcceptVerdict::Retry);
        }
        assert_eq!(f.record(ErrorKind::Other), AcceptVerdict::Fatal);

        // An intervening success resets the streak.
        let mut f = AcceptFailures::new();
        for _ in 0..MAX_CONSECUTIVE_ACCEPT_FAILURES - 1 {
            assert_eq!(f.record(ErrorKind::Other), AcceptVerdict::Retry);
        }
        f.succeeded();
        assert_eq!(f.record(ErrorKind::Other), AcceptVerdict::Retry);
    }

    /// Regression (quadratic rescan): the terminator scan must make
    /// progress from an offset. This exercises `find_head_end`
    /// directly, including terminators straddling chunk boundaries.
    #[test]
    fn head_end_scan_is_incremental() {
        let buf = b"GET / HTTP/1.1\r\nHost: x\r\n\r\nBODY";
        assert_eq!(find_head_end(buf, 0), Some(23));
        // Scanning from beyond the terminator misses it — the caller
        // only ever passes offsets at most 3 back from scanned bytes.
        assert_eq!(find_head_end(buf, 24), None);
        // Straddle: first 25 bytes end mid-terminator; resuming from
        // len-3 of the earlier buffer still finds it.
        assert_eq!(find_head_end(&buf[..25], 25usize.saturating_sub(3)), None);
        assert_eq!(find_head_end(buf, 25usize.saturating_sub(3)), Some(23));
        assert_eq!(find_head_end(b"", 0), None);
        assert_eq!(find_head_end(b"\r\n\r", 0), None);
    }

    /// A slow-trickle client (one byte per write) is still served;
    /// with the old whole-buffer rescan this was quadratic, now each
    /// byte is scanned O(1) times.
    #[test]
    fn trickled_request_heads_are_served() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let mut client = TcpStream::connect(addr).expect("connect");
        for b in b"GET / HTTP/1.1\r\nHost: x\r\n\r\n" {
            client.write_all(&[*b]).expect("trickle");
        }
        server.serve_one().expect("serve");
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    }

    /// Regression (oversize head): more than `MAX_REQUEST_BYTES` of
    /// headers without a terminator now gets the specific `431`
    /// reply, not a generic `400`.
    #[test]
    fn oversize_head_gets_431() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"GET / HTTP/1.1\r\n").expect("send");
        let filler = format!("X-Filler: {}\r\n", "y".repeat(1013));
        for _ in 0..(MAX_REQUEST_BYTES / filler.len() + 2) {
            client.write_all(filler.as_bytes()).expect("send");
        }
        server.serve_one().expect("serve");
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{reply}");
    }

    struct EchoHandler;

    impl HttpHandler for EchoHandler {
        fn handle(&self, req: &HttpRequest) -> Handled {
            match req.path.as_str() {
                "/echo" => Handled::Response(HttpResponse {
                    status: 200,
                    content_type: "application/octet-stream",
                    headers: Vec::new(),
                    body: req.body.clone(),
                }),
                "/stop" => Handled::Stop(HttpResponse::text(200, "stopping\n")),
                "/busy" => Handled::Response(
                    HttpResponse::text(503, "try later\n").with_header("Retry-After", "1"),
                ),
                _ => Handled::NotHandled,
            }
        }
    }

    #[test]
    fn extra_headers_render_in_the_response_head() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"GET /busy HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        server.serve_with(Some(&EchoHandler), None, Some(1)).expect("serve");
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read reply");
        assert!(reply.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{reply}");
        let head = reply.split_once("\r\n\r\n").expect("head/body").0;
        assert!(head.contains("\r\nRetry-After: 1"), "{reply}");
        assert_eq!(body_of(&reply), "try later\n");
    }

    /// POST bodies reach the handler intact (Content-Length framing,
    /// body bytes possibly arriving fused with the head).
    #[test]
    fn handler_receives_post_bodies() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let payload = b"0123456789abcdef".repeat(100);
        let mut client = TcpStream::connect(addr).expect("connect");
        let head = format!("POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n", payload.len());
        client.write_all(head.as_bytes()).expect("send head");
        client.write_all(&payload).expect("send body");
        let stop = AtomicBool::new(false);
        let served = server.serve_with(Some(&EchoHandler), Some(&stop), Some(1)).expect("serve");
        assert_eq!(served, 1);
        let mut reply = Vec::new();
        client.read_to_end(&mut reply).expect("read");
        let (status, body) = parse_response(&reply).expect("parse");
        assert_eq!(status, 200);
        assert_eq!(body, payload);
    }

    /// Handler stop verdict ends the serve loop and sets the flag.
    #[test]
    fn handler_stop_ends_the_loop() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"POST /stop HTTP/1.1\r\nContent-Length: 0\r\n\r\n").expect("send");
        let stop = AtomicBool::new(false);
        let served = server.serve_with(Some(&EchoHandler), Some(&stop), None).expect("serve");
        assert_eq!(served, 1);
        assert!(stop.load(Ordering::SeqCst));
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    }

    /// Unhandled paths fall through to the built-in telemetry routes
    /// even with a handler mounted.
    #[test]
    fn handler_falls_through_to_builtins() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").expect("send");
        let served = server.serve_with(Some(&EchoHandler), None, Some(1)).expect("serve");
        assert_eq!(served, 1);
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(body_of(&reply).contains("spmv_dispatches_total"));
    }

    /// The client helper round-trips against the server (and is what
    /// the load generator uses, keeping sockets out of other crates).
    #[test]
    fn http_request_round_trips() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound");
        // Backlog trick: issue the request first, serve second — the
        // response is buffered by the kernel until we read it.
        // http_request blocks on read though, so serve from within
        // the same thread is impossible; instead drive the exchange
        // manually with a pre-written request.
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").expect("send");
        server.serve_one().expect("serve");
        let mut reply = Vec::new();
        client.read_to_end(&mut reply).expect("read");
        let (status, body) = parse_response(&reply).expect("parse");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("/metrics"));
    }

    #[test]
    fn response_parser_rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        let (status, body) = parse_response(b"HTTP/1.1 404 Not Found\r\nX: y\r\n\r\nnope").unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, b"nope");
    }

    #[test]
    fn query_params_parse() {
        let req = HttpRequest {
            method: "POST".into(),
            path: "/v1/spmv/a".into(),
            query: "digest=1&mode=tuned".into(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("digest"), Some("1"));
        assert_eq!(req.query_param("mode"), Some("tuned"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn content_length_header_parses() {
        assert_eq!(content_length("POST / HTTP/1.1\r\nContent-Length: 42\r\nX: y"), Some(42));
        assert_eq!(content_length("POST / HTTP/1.1\r\ncontent-length:7"), Some(7));
        assert_eq!(content_length("GET / HTTP/1.1\r\nHost: x"), None);
        assert_eq!(content_length("GET / HTTP/1.1\r\nContent-Length: nope"), None);
    }
}
