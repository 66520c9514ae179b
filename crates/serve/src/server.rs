//! JSON-lines-over-TCP front end (`std::net` only), hardened against
//! misbehaving peers.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"op":"ping"}
//! ← {"status":"ok"}
//! → {"op":"submit","algorithm":"lshaped","workload":"gen:misex3@0.1",
//!    "procs":2,"par_threads":4,"deadline_ms":5000}
//! ← {"id":1,"status":"completed","metrics":{"lc_before":…,"lc_after":…,
//!    "saved":…,"extractions":…,"queue_wait_us":…,"run_us":…,"phases":{…}}}
//! → {"op":"metrics"}
//! ← {"status":"ok","metrics":{…registry snapshot…}}
//! → {"op":"trace","n":5}        (last-N finished-job timelines; n defaults to 16)
//! ← {"status":"ok","jobs":[{"id":…,"algorithm":…,"status":…,"run_us":…,"phases":{…}},…]}
//! → {"op":"shutdown"}            ("mode":"now" aborts instead of draining)
//! ← {"status":"ok","metrics":{…final snapshot…}}
//! ```
//!
//! `submit` blocks its connection until the job is answered, so a client
//! gets backpressure for free by keeping a connection per in-flight job;
//! rejected jobs answer immediately with `"status":"rejected"` and a
//! machine-readable `"reason"`. The full grammar lives in
//! `docs/SERVICE.md`.
//!
//! Hardening (all knobs in [`ServerConfig`]):
//!
//! * request lines are read through a byte cap — an oversized line is
//!   answered `"status":"rejected","reason":"oversized"` and discarded
//!   up to its newline, the connection survives;
//! * bytes that are not valid UTF-8 answer a structured error instead
//!   of killing the connection;
//! * connections that sit idle past the timeout are answered and closed;
//! * an accept gate caps concurrent connections — excess peers get one
//!   `"status":"rejected","reason":"overloaded"` line and a close;
//! * nothing on the accept path `expect`s: listener-configuration and
//!   thread-spawn failures log and degrade instead of panicking.

use crate::error::ServeError;
use crate::job::{knobs_from_json, Algorithm, JobOutcome, JobSpec, Rejection, Wire};
use crate::json::{parse, Json};
use crate::service::{Client, Service, ServiceConfig};
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Front-end (TCP) limits; the service behind it has its own
/// [`ServiceConfig`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Longest request line accepted, in bytes. Longer lines are
    /// rejected as `oversized` without buffering them.
    pub max_line_bytes: usize,
    /// Close connections that send nothing for this long. `None`
    /// disables the idle timer.
    pub idle_timeout: Option<Duration>,
    /// Concurrent-connection cap enforced at accept time.
    pub max_connections: usize,
    /// Whether this server answers the `sub` op (distributed-extraction
    /// worker mode). Off by default: a coordinator's sub requests carry
    /// whole network snapshots, so only servers started explicitly as
    /// workers (`parafactor serve --worker`) should execute them.
    pub worker: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_line_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: 256,
            worker: false,
        }
    }
}

/// Stop flag for the accept loop. When the listener could not be put in
/// non-blocking mode, `nudge` holds the listen address and `stop()`
/// makes one throwaway connection so a blocking `accept` wakes up.
#[derive(Debug, Default)]
struct StopSignal {
    flag: AtomicBool,
    nudge: Mutex<Option<SocketAddr>>,
}

impl StopSignal {
    fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(addr) = *self.nudge.lock() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One slot under the accept gate; dropping it (thread exit, spawn
/// failure, anything) releases the slot.
struct ConnPermit<'a>(&'a AtomicUsize);

impl<'a> ConnPermit<'a> {
    fn acquire(active: &'a AtomicUsize) -> Self {
        active.fetch_add(1, Ordering::SeqCst);
        ConnPermit(active)
    }
}

impl Drop for ConnPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Service,
    cfg: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// worker pool, with default front-end limits.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServiceConfig) -> std::io::Result<Server> {
        Server::bind_with(addr, cfg, ServerConfig::default())
    }

    /// [`bind`](Server::bind) with explicit front-end limits.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        cfg: ServiceConfig,
        server_cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            service: Service::start(cfg),
            cfg: server_cfg,
        })
    }

    /// The bound address (for ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// An in-process client for the same service the TCP front end uses.
    pub fn client(&self) -> Client {
        self.service.client()
    }

    /// Accepts and serves connections until a `shutdown` request
    /// arrives, then drains (or aborts, for `"mode":"now"`) and returns.
    /// The final metrics snapshot goes to the shutdown requester.
    pub fn run(self) {
        let stop = StopSignal::default();
        let client = self.service.client();
        if let Err(e) = self.listener.set_nonblocking(true) {
            // Degraded but alive: blocking accepts, woken by a nudge
            // connection when shutdown arrives.
            eprintln!(
                "pf-serve: {} — falling back to blocking accepts",
                ServeError::ListenerConfig {
                    what: "non-blocking mode",
                    source: e,
                }
            );
            if let Ok(addr) = self.listener.local_addr() {
                *stop.nudge.lock() = Some(addr);
            }
        }
        let active = AtomicUsize::new(0);
        let service = &self.service;
        let cfg = &self.cfg;
        let mut accept_errors = 0u32;
        std::thread::scope(|s| {
            while !stop.is_stopped() {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        accept_errors = 0;
                        if stop.is_stopped() {
                            break; // likely the shutdown nudge
                        }
                        let open = active.load(Ordering::SeqCst);
                        if open >= cfg.max_connections {
                            client.metrics().conn_rejected.inc();
                            reject_stream(
                                stream,
                                &ServeError::Overloaded {
                                    active: open,
                                    max: cfg.max_connections,
                                },
                            );
                            continue;
                        }
                        let permit = ConnPermit::acquire(&active);
                        // Duplicate handle so a failed spawn can still
                        // answer the peer (the original moves into the
                        // connection closure).
                        let reject_handle = stream.try_clone().ok();
                        let spawned = std::thread::Builder::new()
                            .name("pf-serve-conn".to_string())
                            .spawn_scoped(s, {
                                let client = client.clone();
                                let stop = &stop;
                                move || {
                                    let _permit = permit;
                                    handle_connection(stream, &client, service, stop, cfg);
                                }
                            });
                        if let Err(e) = spawned {
                            // The closure (stream + permit) was dropped:
                            // slot released, peer told why.
                            let err = ServeError::Spawn {
                                what: "connection",
                                source: e,
                            };
                            eprintln!("pf-serve: {err}");
                            client.metrics().conn_rejected.inc();
                            if let Some(h) = reject_handle {
                                reject_stream(h, &err);
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        // Transient accept failures (e.g. ECONNABORTED)
                        // must not kill the server; persistent ones do.
                        accept_errors += 1;
                        if accept_errors >= 100 {
                            eprintln!("pf-serve: accept failing persistently, stopping: {e}");
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            // Scope join waits for connection threads; they exit once
            // their streams close (the shutdown handler has already
            // drained the service by the time stop is set).
        });
    }
}

/// Writes one rejection line to a doomed stream and drops it.
fn reject_stream(mut stream: TcpStream, err: &ServeError) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut text = err.to_wire().to_string();
    text.push('\n');
    let _ = stream.write_all(text.as_bytes());
    let _ = stream.flush();
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete UTF-8 line (without its newline / trailing `\r`).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The read timeout expired with no (complete) line.
    Idle,
    /// The line exceeded the byte cap; input was discarded up to and
    /// including the next newline (or EOF).
    TooLong,
    /// The line's bytes are not valid UTF-8.
    NotUtf8,
    /// Any other I/O error.
    Failed,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `max` bytes of it.
fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineRead::Idle
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                LineRead::Eof
            } else {
                finish_line(buf)
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    reader.consume(pos + 1);
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return finish_line(buf);
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max {
                    reader.consume(len);
                    return drain_to_newline(reader);
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => LineRead::Line(s),
        Err(_) => LineRead::NotUtf8,
    }
}

/// Discards input up to and including the next newline; the line was
/// already over budget.
fn drain_to_newline(reader: &mut impl BufRead) -> LineRead {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineRead::Idle
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        if chunk.is_empty() {
            return LineRead::TooLong; // EOF ends the oversized line too
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return LineRead::TooLong;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
}

fn write_line(writer: &mut TcpStream, json: &Json) -> std::io::Result<()> {
    let mut text = json.to_string();
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

fn handle_connection(
    stream: TcpStream,
    client: &Client,
    service: &Service,
    stop: &StopSignal,
    cfg: &ServerConfig,
) {
    if let Some(t) = cfg.idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, cfg.max_line_bytes) {
            LineRead::Line(l) => l,
            LineRead::Eof | LineRead::Failed => break,
            LineRead::Idle => {
                let _ = write_line(&mut writer, &ServeError::IdleTimeout.to_wire());
                break;
            }
            LineRead::TooLong => {
                let wire = ServeError::Oversized {
                    max_bytes: cfg.max_line_bytes,
                }
                .to_wire();
                if write_line(&mut writer, &wire).is_err() {
                    break;
                }
                continue;
            }
            LineRead::NotUtf8 => {
                if write_line(&mut writer, &ServeError::InvalidUtf8.to_wire()).is_err() {
                    break;
                }
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, is_shutdown) = handle_line(&line, client, service, stop, cfg);
        if write_line(&mut writer, &response).is_err() {
            break;
        }
        if is_shutdown {
            break;
        }
    }
}

/// Dispatches one request line; the bool says "this was a shutdown, stop
/// the server".
fn handle_line(
    line: &str,
    client: &Client,
    service: &Service,
    stop: &StopSignal,
    cfg: &ServerConfig,
) -> (Json, bool) {
    let request = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                Json::obj([
                    ("status", Json::str("error")),
                    ("error", Json::str(e.to_string())),
                ]),
                false,
            )
        }
    };
    match request.get("op").and_then(Json::as_str) {
        Some("ping") => (Json::obj([("status", Json::str("ok"))]), false),
        Some("metrics") => (
            Json::obj([
                ("status", Json::str("ok")),
                ("metrics", client.metrics_json()),
            ]),
            false,
        ),
        Some("submit") => (handle_submit(&request, client), false),
        Some("sub") => {
            if cfg.worker {
                (crate::dist::handle_sub(&request), false)
            } else {
                (
                    Json::obj([
                        ("status", Json::str("error")),
                        (
                            "error",
                            Json::str("worker mode is disabled (start with --worker)"),
                        ),
                    ]),
                    false,
                )
            }
        }
        Some("dist") => (crate::dist::handle_dist(&request, client), false),
        Some("trace") => {
            let n = request
                .get("n")
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .unwrap_or(16);
            (
                Json::obj([("status", Json::str("ok")), ("jobs", client.trace_json(n))]),
                false,
            )
        }
        Some("shutdown") => {
            // Drain (default) or abort, then answer with the final
            // snapshot. Setting `stop` afterwards keeps the snapshot
            // complete: every accepted job is already accounted.
            if request.get("mode").and_then(Json::as_str) == Some("now") {
                service.shutdown_now();
            } else {
                service.shutdown();
            }
            stop.stop();
            (
                Json::obj([
                    ("status", Json::str("ok")),
                    ("metrics", client.metrics_json()),
                ]),
                true,
            )
        }
        Some(other) => (
            Json::obj([
                ("status", Json::str("error")),
                ("error", Json::str(format!("unknown op {other:?}"))),
            ]),
            false,
        ),
        None => (
            Json::obj([
                ("status", Json::str("error")),
                ("error", Json::str("missing \"op\"")),
            ]),
            false,
        ),
    }
}

fn handle_submit(request: &Json, client: &Client) -> Json {
    let spec = match spec_from_json(request) {
        Ok(spec) => spec,
        Err(msg) => {
            // Count it like any other invalid submission.
            client.metrics().submitted.inc();
            client.metrics().rejected_invalid.inc();
            return Json::obj([
                ("status", Json::str("rejected")),
                ("reason", Json::str("invalid")),
                ("error", Json::str(msg)),
            ]);
        }
    };
    match client.submit(spec) {
        Err(rejection) => rejection_json(&rejection),
        Ok(ticket) => {
            let id = ticket.id;
            outcome_json(id, ticket.wait())
        }
    }
}

pub(crate) fn spec_from_json(request: &Json) -> Result<JobSpec, String> {
    let alg_name = request
        .get("algorithm")
        .and_then(Json::as_str)
        .ok_or("missing \"algorithm\"")?;
    let algorithm = Algorithm::from_wire(alg_name).ok_or_else(|| {
        format!("unknown algorithm {alg_name:?} (seq|replicated|independent|lshaped)")
    })?;
    let workload = request
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("missing \"workload\"")?
        .to_string();
    // Absent fields keep `JobSpec::new`'s defaults — for the search
    // knobs those are the library's `SearchConfig::default()`.
    let mut spec = JobSpec::new(algorithm, workload);
    if let Some(v) = request.get("procs") {
        spec.procs = checked_count(v, "procs")?;
    }
    knobs_from_json(request, &mut spec.search, Wire::Submit)?;
    spec.deadline = match request.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(
            v.as_u64().ok_or("\"deadline_ms\" must be an integer")?,
        )),
    };
    spec.delta_from = match request.get("delta_from") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or("\"delta_from\" must be a job fingerprint string")?
                .to_string(),
        ),
    };
    Ok(spec)
}

/// Parses a processor/thread count, range-checking *before* narrowing:
/// a bare `as usize` would silently truncate a large u64 on 32-bit
/// targets and then pass the service's clamp validation with a mangled
/// value. Out-of-range counts are answered `rejected_invalid` instead.
pub(crate) fn checked_count(v: &Json, field: &str) -> Result<usize, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{field:?} must be a non-negative integer"))?;
    usize::try_from(n).map_err(|_| format!("{field:?} value {n} does not fit this platform"))
}

fn rejection_json(rejection: &Rejection) -> Json {
    let mut members = vec![
        ("status".to_string(), Json::str("rejected")),
        ("reason".to_string(), Json::str(rejection.reason())),
        ("error".to_string(), Json::str(rejection.to_string())),
    ];
    if let Rejection::QueueFull { capacity } = rejection {
        members.push(("capacity".to_string(), Json::u64(*capacity as u64)));
    }
    if let Rejection::Quarantined { strikes } = rejection {
        members.push(("strikes".to_string(), Json::u64(u64::from(*strikes))));
    }
    Json::Obj(members)
}

fn outcome_json(id: u64, outcome: JobOutcome) -> Json {
    match outcome {
        JobOutcome::Completed(jr) => Json::obj([
            ("id", Json::u64(id)),
            ("status", Json::str("completed")),
            ("metrics", jr.to_json()),
        ]),
        JobOutcome::TimedOut(jr) => Json::obj([
            ("id", Json::u64(id)),
            ("status", Json::str("timed_out")),
            ("error", Json::str("deadline expired")),
            ("metrics", jr.to_json()),
        ]),
        JobOutcome::Drained => Json::obj([
            ("id", Json::u64(id)),
            ("status", Json::str("drained")),
            ("error", Json::str("service shut down before the job ran")),
        ]),
        JobOutcome::Failed { message } => Json::obj([
            ("id", Json::u64(id)),
            ("status", Json::str("failed")),
            ("error", Json::str(message)),
        ]),
    }
}

/// Client-side helper: sends request lines over one connection and
/// returns the response for each (used by `parafactor submit` and the
/// integration tests).
pub fn request_lines(addr: impl ToSocketAddrs, lines: &[String]) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            break;
        }
        responses.push(response.trim_end().to_string());
    }
    Ok(responses)
}

/// Whether an I/O error is worth retrying: the connection-level
/// failures a restarting or briefly saturated peer produces. Anything
/// else (refused *permissions*, address errors, …) is terminal.
pub fn transient_io(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | BrokenPipe
            | TimedOut
            | WouldBlock
            | Interrupted
            | UnexpectedEof
    )
}

/// [`request_lines`] with the same backoff-and-retry treatment
/// [`crate::service::Client::submit_with_retry`] gives backpressure
/// rejections: transient connect/read failures ([`transient_io`]) sleep
/// the policy's jittered backoff and try the whole exchange again.
/// Retrying the *connection* is safe — `request_lines` opens a fresh
/// stream per call, and every request in the line protocol is answered
/// before the next is sent, so a failed exchange never half-applies.
pub fn request_lines_with_retry(
    addr: impl ToSocketAddrs + Clone,
    lines: &[String],
    policy: &crate::retry::RetryPolicy,
) -> std::io::Result<Vec<String>> {
    let mut attempt = 0u32;
    loop {
        match request_lines(addr.clone(), lines) {
            Err(e) if transient_io(&e) && attempt < policy.max_retries => {
                std::thread::sleep(policy.backoff(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_server(cfg: ServiceConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        start_server_with(cfg, ServerConfig::default())
    }

    fn start_server_with(
        cfg: ServiceConfig,
        server_cfg: ServerConfig,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind_with("127.0.0.1:0", cfg, server_cfg).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn shutdown_server(addr: std::net::SocketAddr) {
        let _ = request_lines(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    }

    #[test]
    fn ping_metrics_and_shutdown() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                r#"{"op":"ping"}"#.to_string(),
                r#"{"op":"metrics"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        assert_eq!(responses.len(), 3);
        let ping = parse(&responses[0]).unwrap();
        assert_eq!(ping.get("status").and_then(Json::as_str), Some("ok"));
        let metrics = parse(&responses[1]).unwrap();
        assert_eq!(
            metrics
                .get("metrics")
                .and_then(|m| m.get("submitted"))
                .and_then(Json::as_u64),
            Some(0)
        );
        handle.join().unwrap();
    }

    #[test]
    fn submit_over_tcp_completes() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        let r = parse(&responses[0]).unwrap();
        assert_eq!(r.get("status").and_then(Json::as_str), Some("completed"));
        let m = r.get("metrics").unwrap();
        assert!(m.get("lc_before").and_then(Json::as_u64).unwrap() > 0);
        assert!(m.get("run_us").is_some());
        handle.join().unwrap();
    }

    #[test]
    fn submit_with_par_threads_parses_and_completes() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                concat!(
                    r#"{"op":"submit","algorithm":"seq","#,
                    r#""workload":"gen:misex3@0.05","par_threads":2}"#
                )
                .to_string(),
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05","par_threads":"x"}"#
                    .to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        let ok = parse(&responses[0]).unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("completed"));
        let bad = parse(&responses[1]).unwrap();
        assert_eq!(bad.get("status").and_then(Json::as_str), Some("rejected"));
        handle.join().unwrap();
    }

    #[test]
    fn submit_with_batch_rects_parses_and_completes() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                concat!(
                    r#"{"op":"submit","algorithm":"seq","#,
                    r#""workload":"gen:misex3@0.05","batch_rects":8}"#
                )
                .to_string(),
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05","batch_rects":0}"#
                    .to_string(),
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05","batch_rects":65}"#
                    .to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        let ok = parse(&responses[0]).unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("completed"));
        for bad in &responses[1..3] {
            let bad = parse(bad).unwrap();
            assert_eq!(bad.get("status").and_then(Json::as_str), Some("rejected"));
            assert_eq!(bad.get("reason").and_then(Json::as_str), Some("invalid"));
        }
        handle.join().unwrap();
    }

    #[test]
    fn trace_returns_last_n_job_timelines() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                r#"{"op":"trace"}"#.to_string(),
                r#"{"op":"submit","algorithm":"independent","workload":"gen:misex3@0.05","procs":2}"#
                    .to_string(),
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05"}"#.to_string(),
                r#"{"op":"trace","n":1}"#.to_string(),
                r#"{"op":"trace"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        // Empty before any job finished.
        let empty = parse(&responses[0]).unwrap();
        assert_eq!(empty.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(empty.get("jobs"), Some(&Json::Arr(Vec::new())));
        // n=1 keeps only the most recent job (the seq one).
        let one = parse(&responses[3]).unwrap();
        let Some(Json::Arr(jobs)) = one.get("jobs") else {
            panic!("jobs must be an array")
        };
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("algorithm").and_then(Json::as_str), Some("seq"));
        // Default n returns both, oldest first, with phase breakdowns.
        let both = parse(&responses[4]).unwrap();
        let Some(Json::Arr(jobs)) = both.get("jobs") else {
            panic!("jobs must be an array")
        };
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].get("algorithm").and_then(Json::as_str),
            Some("independent")
        );
        assert_eq!(
            jobs[0].get("status").and_then(Json::as_str),
            Some("completed")
        );
        let phases = jobs[0].get("phases").expect("phases object");
        assert!(phases.get("partition").is_some());
        assert!(phases.get("merge").is_some());
        handle.join().unwrap();
    }

    #[test]
    fn delta_submit_over_tcp_completes_and_counts() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05"}"#.to_string(),
                concat!(
                    r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05","#,
                    r#""delta_from":"seq/gen:misex3@0.05"}"#
                )
                .to_string(),
                concat!(
                    r#"{"op":"submit","algorithm":"lshaped","workload":"gen:misex3@0.05","#,
                    r#""delta_from":"seq/gen:misex3@0.05"}"#
                )
                .to_string(),
                r#"{"op":"metrics"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        let cold = parse(&responses[0]).unwrap();
        assert_eq!(cold.get("status").and_then(Json::as_str), Some("completed"));
        let delta = parse(&responses[1]).unwrap();
        assert_eq!(
            delta.get("status").and_then(Json::as_str),
            Some("completed")
        );
        // delta_from is seq-only: any other algorithm is rejected.
        let bad = parse(&responses[2]).unwrap();
        assert_eq!(bad.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(bad.get("reason").and_then(Json::as_str), Some("invalid"));
        let m = parse(&responses[3]).unwrap();
        let metrics = m.get("metrics").unwrap();
        assert_eq!(metrics.get("delta_jobs").and_then(Json::as_u64), Some(1));
        assert!(metrics.get("cache_hits").and_then(Json::as_u64).unwrap() >= 1);
        handle.join().unwrap();
    }

    #[test]
    fn counts_beyond_the_platform_range_are_rejected_invalid() {
        // 2^53 is exactly representable in the wire's f64 numbers but
        // (on 32-bit targets) not in usize; either way it must answer a
        // structured rejection, never truncate.
        let (addr, handle) = start_server(ServiceConfig::default());
        let request = format!(
            "{{\"op\":\"submit\",\"algorithm\":\"seq\",\"workload\":\"gen:misex3@0.05\",\"procs\":{}}}",
            1u64 << 53
        );
        let responses = request_lines(addr, &[request, r#"{"op":"shutdown"}"#.to_string()])
            .expect("round-trip");
        let r = parse(&responses[0]).unwrap();
        // 2^53 fits 64-bit usize, so on this platform it is clamped and
        // completes; the invariant under test is "never mangled": the
        // response is either completed (clamped) or rejected as invalid.
        let status = r.get("status").and_then(Json::as_str).unwrap();
        assert!(
            status == "completed" || status == "rejected",
            "unexpected status {status}"
        );
        handle.join().unwrap();
    }

    #[test]
    fn malformed_lines_answer_errors_and_keep_the_connection() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                "this is not json".to_string(),
                r#"{"op":"dance"}"#.to_string(),
                r#"{"nop":"submit"}"#.to_string(),
                r#"{"op":"submit","algorithm":"waltz","workload":"gen:misex3@0.05"}"#.to_string(),
                r#"{"op":"ping"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("protocol round-trip");
        assert_eq!(responses.len(), 6);
        for r in &responses[0..3] {
            let v = parse(r).unwrap();
            assert_eq!(v.get("status").and_then(Json::as_str), Some("error"), "{r}");
        }
        let bad_alg = parse(&responses[3]).unwrap();
        assert_eq!(
            bad_alg.get("status").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            bad_alg.get("reason").and_then(Json::as_str),
            Some("invalid")
        );
        assert_eq!(
            parse(&responses[4])
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("ok")
        );
        handle.join().unwrap();
    }

    #[test]
    fn oversized_line_is_rejected_and_the_connection_survives() {
        let (addr, handle) = start_server_with(
            ServiceConfig::default(),
            ServerConfig {
                max_line_bytes: 64,
                ..ServerConfig::default()
            },
        );
        let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(512));
        let responses =
            request_lines(addr, &[huge, r#"{"op":"ping"}"#.to_string()]).expect("round-trip");
        assert_eq!(responses.len(), 2);
        let over = parse(&responses[0]).unwrap();
        assert_eq!(over.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(over.get("reason").and_then(Json::as_str), Some("oversized"));
        // Same connection, next line still works.
        assert_eq!(
            parse(&responses[1])
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("ok")
        );
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn invalid_utf8_answers_a_structured_error() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"{\"op\":\"ping\xFF\xFE\"}\n")
            .expect("write");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let v = parse(line.trim_end()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("UTF-8"));
        // Connection still serves valid requests.
        stream.write_all(b"{\"op\":\"ping\"}\n").expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(
            parse(line.trim_end())
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("ok")
        );
        // Close *both* halves (reader holds a clone) so the server's
        // connection thread exits before the join below.
        drop(stream);
        drop(reader);
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn accept_gate_rejects_excess_connections() {
        let (addr, handle) = start_server_with(
            ServiceConfig::default(),
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        );
        // First connection occupies the only slot (prove it's live).
        let held = TcpStream::connect(addr).expect("connect");
        let mut held_writer = held.try_clone().expect("clone");
        held_writer
            .write_all(b"{\"op\":\"ping\"}\n")
            .expect("write");
        let mut held_reader = BufReader::new(held);
        let mut line = String::new();
        held_reader.read_line(&mut line).expect("read");
        assert!(line.contains("\"ok\""));
        // Second connection is turned away with one structured line.
        let second = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(second);
        line.clear();
        reader.read_line(&mut line).expect("read");
        let v = parse(line.trim_end()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("overloaded"));
        // And the server closes it.
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
        // Free the slot, then shut down (retry while the permit drains).
        drop(held_writer);
        drop(held_reader);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let responses =
                request_lines(addr, &[r#"{"op":"shutdown"}"#.to_string()]).expect("connect");
            if responses
                .first()
                .map(|r| r.contains("\"ok\""))
                .unwrap_or(false)
            {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "slot never freed");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().unwrap();
    }

    #[test]
    fn idle_connection_is_answered_and_closed() {
        let (addr, handle) = start_server_with(
            ServiceConfig::default(),
            ServerConfig {
                idle_timeout: Some(Duration::from_millis(50)),
                ..ServerConfig::default()
            },
        );
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream);
        // Send nothing; the server times the connection out.
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let v = parse(line.trim_end()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("idle"));
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn abrupt_disconnect_mid_submit_does_not_unbalance_the_books() {
        let (addr, handle) = start_server(ServiceConfig::default());
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(
                    b"{\"op\":\"submit\",\"algorithm\":\"seq\",\"workload\":\"gen:misex3@0.1\"}\n",
                )
                .expect("write");
            stream.flush().expect("flush");
            // Hang up without reading the response.
        }
        // The job still runs to completion and is answered into the void;
        // the final snapshot must balance.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let responses =
                request_lines(addr, &[r#"{"op":"metrics"}"#.to_string()]).expect("round-trip");
            let v = parse(&responses[0]).unwrap();
            let m = v.get("metrics").unwrap();
            let completed = m.get("completed").and_then(Json::as_u64).unwrap();
            if completed == 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never completed");
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn sub_op_is_gated_behind_worker_mode() {
        // Default servers refuse sub-jobs; worker-mode servers run them.
        let (plain, h0) = start_server(ServiceConfig::default());
        let responses = request_lines(
            plain,
            &[
                r#"{"op":"sub","lease":1,"network":"","targets":[]}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("round-trip");
        let refused = parse(&responses[0]).unwrap();
        assert_eq!(refused.get("status").and_then(Json::as_str), Some("error"));
        assert!(refused
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("worker mode"));
        h0.join().unwrap();

        let (worker, h1) = start_server_with(
            ServiceConfig::default(),
            ServerConfig {
                worker: true,
                ..ServerConfig::default()
            },
        );
        // A malformed sub-job answers a structured error (not a refusal),
        // proving the op is live without shipping a whole network here.
        let responses = request_lines(
            worker,
            &[
                r#"{"op":"sub","lease":1,"network":"","targets":["x"]}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("round-trip");
        let err = parse(&responses[0]).unwrap();
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        assert!(err
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("target"));
        h1.join().unwrap();
    }

    #[test]
    fn dist_op_over_tcp_completes_and_reports_lease_metrics() {
        let (addr, handle) = start_server(ServiceConfig::default());
        let responses = request_lines(
            addr,
            &[
                r#"{"op":"dist","workload":"gen:misex3@0.05","workers":2}"#.to_string(),
                r#"{"op":"metrics"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
        )
        .expect("round-trip");
        let r = parse(&responses[0]).unwrap();
        assert_eq!(r.get("status").and_then(Json::as_str), Some("completed"));
        let dist = r.get("dist").expect("dist stats");
        assert_eq!(dist.get("balanced").and_then(Json::as_bool), Some(true));
        let m = parse(&responses[1]).unwrap();
        let metrics = m.get("metrics").unwrap();
        assert!(metrics.get("leases_issued").and_then(Json::as_u64).unwrap() >= 2);
        assert_eq!(
            metrics.get("leases_issued").and_then(Json::as_u64),
            Some(
                metrics
                    .get("leases_resolved")
                    .and_then(Json::as_u64)
                    .unwrap()
                    + metrics
                        .get("leases_expired")
                        .and_then(Json::as_u64)
                        .unwrap()
            ),
        );
        handle.join().unwrap();
    }

    #[test]
    fn transient_io_classifies_retryable_kinds() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
            ErrorKind::TimedOut,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(transient_io(&Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [
            ErrorKind::PermissionDenied,
            ErrorKind::AddrNotAvailable,
            ErrorKind::InvalidInput,
        ] {
            assert!(!transient_io(&Error::new(kind, "x")), "{kind:?}");
        }
    }

    #[test]
    fn request_lines_with_retry_recovers_once_the_server_is_up() {
        use crate::retry::RetryPolicy;
        // Reserve a port, drop the listener, then bring a real server up
        // on it while a retrying client is already knocking.
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = probe.local_addr().expect("addr");
        drop(probe);
        let starter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let server =
                Server::bind(addr, ServiceConfig::default()).expect("rebind the probed port");
            server.run();
        });
        let policy = RetryPolicy {
            max_retries: 40,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(50),
            seed: 7,
        };
        let responses = request_lines_with_retry(
            addr,
            &[
                r#"{"op":"ping"}"#.to_string(),
                r#"{"op":"shutdown"}"#.to_string(),
            ],
            &policy,
        )
        .expect("retries ride out the startup gap");
        assert!(responses[0].contains("\"ok\""));
        starter.join().unwrap();
        // And a terminal error surfaces immediately: no listener will
        // ever appear on the re-dropped port, so the budgeted retries
        // exhaust and the last error comes back.
        let gone = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead = gone.local_addr().expect("addr");
        drop(gone);
        let tight = RetryPolicy {
            max_retries: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 7,
        };
        assert!(request_lines_with_retry(dead, &[r#"{"op":"ping"}"#.to_string()], &tight).is_err());
    }

    #[test]
    fn read_line_bounded_handles_split_and_crlf_lines() {
        let mut r = BufReader::with_capacity(4, &b"hello world\r\nnext\n"[..]);
        match read_line_bounded(&mut r, 64) {
            LineRead::Line(l) => assert_eq!(l, "hello world"),
            _ => panic!("expected a line"),
        }
        match read_line_bounded(&mut r, 64) {
            LineRead::Line(l) => assert_eq!(l, "next"),
            _ => panic!("expected a line"),
        }
        assert!(matches!(read_line_bounded(&mut r, 64), LineRead::Eof));
        // A line that is exactly the cap passes; one byte more fails.
        let mut r = BufReader::with_capacity(4, &b"abcd\nabcde\nok\n"[..]);
        assert!(matches!(read_line_bounded(&mut r, 4), LineRead::Line(_)));
        assert!(matches!(read_line_bounded(&mut r, 4), LineRead::TooLong));
        match read_line_bounded(&mut r, 4) {
            LineRead::Line(l) => assert_eq!(l, "ok"),
            _ => panic!("recovery line expected"),
        }
    }
}
