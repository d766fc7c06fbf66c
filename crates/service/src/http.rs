//! A minimal HTTP/1.1 introspection endpoint over `std::net` — no async
//! runtime, no HTTP library, one thread.
//!
//! The server exposes a running [`crate::SynthesisService`] through its
//! [`IntrospectionHandle`]:
//!
//! * `GET /healthz` — liveness: `200 ok`.
//! * `GET /metrics` — the Prometheus text exposition
//!   ([`crate::prometheus_text`]), sampled at scrape time; queue-depth
//!   (`olsq2_jobs_queued`) and worker-busy (`olsq2_workers_busy`) gauges
//!   therefore reflect the instant of the scrape, not job completion.
//! * `GET /flight/<job-id>` — the job's live search flight ring as
//!   versioned JSONL ([`olsq2::Probe::to_jsonl`]); `404` when the job is
//!   unknown or the service runs without [`crate::FlightSettings`].
//!
//! Scrapes are rare (seconds apart) and responses are small, so requests
//! are served inline on the accept thread; a stuck client is bounded by a
//! per-connection read timeout rather than by a thread pool. The request
//! head (request line plus headers) is read through a fixed cap of 8 KiB,
//! so a client streaming bytes without a newline or without an end of
//! headers holds a bounded buffer, and is answered `431` once it reaches
//! the cap.

use crate::service::IntrospectionHandle;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The most bytes a request's head, its request line and headers through
/// the blank line, may take.
const HEAD_CAP: usize = 8 * 1024;

/// A running introspection listener; see the module docs for the routes.
///
/// Dropping the server shuts it down and joins the accept thread.
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for IntrospectionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntrospectionServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl IntrospectionServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9090"`; port `0` picks a free one)
    /// and starts serving the handle's service.
    ///
    /// # Errors
    ///
    /// Propagates the bind/spawn failure.
    pub fn start(addr: &str, handle: IntrospectionHandle) -> std::io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let thread = std::thread::Builder::new()
            .name("olsq2-http".to_string())
            .spawn(move || accept_loop(&listener, &handle, &accept_stop))?;
        Ok(IntrospectionServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // The accept loop blocks in `incoming()`; poke it awake with a
        // throwaway connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, handle: &IntrospectionHandle, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // A failed accept or a misbehaving client must not take the
        // endpoint down; drop the connection and keep listening.
        if let Ok(stream) = conn {
            let _ = serve_connection(stream, handle);
        }
    }
}

fn serve_connection(stream: TcpStream, handle: &IntrospectionHandle) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = BufReader::new(stream).take(HEAD_CAP as u64);
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    // Drain the headers; none of them influence the routes served here.
    let mut header = String::new();
    let mut ended = false;
    while !ended && head.read_line(&mut header)? > 0 {
        ended = header.trim_end().is_empty();
        header.clear();
    }
    let capped = !ended && head.limit() == 0;
    let mut stream = head.into_inner().into_inner();
    if capped {
        return respond(&mut stream, 431, "text/plain", "request head too large\n");
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    match path {
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &handle.prometheus_text(),
        ),
        _ => match path.strip_prefix("/flight/").map(str::parse::<u64>) {
            Some(Ok(job_id)) => match handle.flight_jsonl(job_id) {
                Some(body) => respond(&mut stream, 200, "application/x-ndjson", &body),
                None => respond(&mut stream, 404, "text/plain", "unknown job\n"),
            },
            _ => respond(&mut stream, 404, "text/plain", "not found\n"),
        },
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FlightSettings, ServiceConfig, SynthesisService};
    use crate::{Objective, SynthesisRequest};
    use olsq2_arch::line;
    use olsq2_circuit::{Circuit, Gate, GateKind};
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn two_cx_circuit() -> Circuit {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit
    }

    #[test]
    fn loopback_smoke_healthz_metrics_flight() {
        let mut service = SynthesisService::start(ServiceConfig {
            workers: 1,
            flight: Some(FlightSettings {
                every: 1,
                ..FlightSettings::default()
            }),
            ..ServiceConfig::default()
        });
        let mut server =
            IntrospectionServer::start("127.0.0.1:0", service.introspection()).expect("bind");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        // Run one job so both the metrics and its flight ring have content.
        let mut request =
            SynthesisRequest::new("smoke", two_cx_circuit(), line(3), Objective::Depth)
                .with_tenant("team-a");
        request.config.swap_duration = 1;
        let handle = service.submit(request).expect("submit");
        let id = handle.id();
        handle.wait();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("olsq2_jobs_submitted 1"), "{metrics}");
        assert!(metrics.contains("olsq2_jobs_queued"), "{metrics}");
        assert!(metrics.contains("olsq2_workers 1"), "{metrics}");
        assert!(metrics.contains("olsq2_workers_busy"), "{metrics}");
        assert!(
            metrics.contains("olsq2_tenant_jobs_done{tenant=\"team-a\"} 1"),
            "{metrics}"
        );

        // The job's flight ring is served even after completion; a tiny
        // instance may finish without a single conflict, but the dump
        // must still be well-formed (meta line at minimum).
        let flight = get(addr, &format!("/flight/{id}"));
        assert!(flight.starts_with("HTTP/1.1 200"), "{flight}");
        assert!(flight.contains("\"type\":\"flight_meta\""), "{flight}");

        let missing = get(addr, "/flight/999999");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let nonsense = get(addr, "/no-such-route");
        assert!(nonsense.starts_with("HTTP/1.1 404"), "{nonsense}");

        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn rejects_non_get_methods() {
        let service = SynthesisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let server =
            IntrospectionServer::start("127.0.0.1:0", service.introspection()).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    #[test]
    fn request_head_is_cut_at_the_cap() {
        let service = SynthesisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let server =
            IntrospectionServer::start("127.0.0.1:0", service.introspection()).expect("bind");
        let addr = server.local_addr();
        // A valid request line, then header lines that fill the cap
        // without the blank line.
        let mut headers = String::from("GET /healthz HTTP/1.1\r\n");
        while HEAD_CAP - headers.len() > 128 {
            headers.push_str(&format!("X-Pad: {}\r\n", "a".repeat(55)));
        }
        let room = HEAD_CAP - headers.len();
        headers.push_str(&format!("X-Pad: {}\r\n", "a".repeat(room - 9)));
        // Exactly the cap's worth each, so the server leaves nothing
        // unread and its close cannot reset the connection.
        for head in [vec![b'a'; HEAD_CAP], headers.into_bytes()] {
            assert_eq!(head.len(), HEAD_CAP);
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream.write_all(&head).expect("write head");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            assert!(response.starts_with("HTTP/1.1 431"), "{response:?}");
            let health = get(addr, "/healthz");
            assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        }
    }
}
