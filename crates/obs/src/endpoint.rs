//! Std-only metrics scrape endpoint: a background thread serving
//! `/metrics` (Prometheus text exposition) and `/dashboard` (HTML with
//! sparklines) over a plain `TcpListener`.
//!
//! The server never touches live registry internals beyond taking the
//! same snapshots any caller can take — each request renders from
//! [`crate::snapshot`] + [`crate::timeseries::series_snapshot`], so a
//! scrape mid-soak observes a consistent point-in-time view and adds
//! nothing to the decode hot path. The accept loop polls a nonblocking
//! listener (50 ms naps when idle) and exits when the [`MetricsServer`]
//! handle drops, which joins the thread — no leaked listeners between
//! tests. Connections are served inline, one at a time, so each gets one
//! overall deadline to deliver its request head (`408` and close after
//! that): a client trickling bytes cannot hold the only scrape thread,
//! or the drop that joins it.
//!
//! Arm it from the environment (`LM4DB_METRICS_ADDR=127.0.0.1:9898`) via
//! [`serve_metrics_from_env`], or bind explicitly — port 0 picks an
//! ephemeral port, reported by [`MetricsServer::addr`]:
//!
//! ```
//! let server = lm4db_obs::endpoint::serve_metrics("127.0.0.1:0").unwrap();
//! let addr = server.addr(); // scrape http://{addr}/metrics
//! drop(server);             // shuts down and joins the thread
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client has to deliver its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(1);

/// Handle to a running scrape endpoint; dropping it stops the server and
/// joins its thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and spawns
/// the serving thread. Errors are the bind/configure I/O errors.
pub fn serve_metrics<A: ToSocketAddrs>(addr: A) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("lm4db-metrics".into())
        .spawn(move || accept_loop(listener, &thread_stop))?;
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Starts the endpoint iff `LM4DB_METRICS_ADDR` is set to a bindable
/// address; `None` when unset. Bind errors are reported on stderr rather
/// than panicking — monitoring must never take down the workload.
pub fn serve_metrics_from_env() -> Option<MetricsServer> {
    let addr = std::env::var("LM4DB_METRICS_ADDR").ok()?;
    serve_metrics_or_log(&addr)
}

/// [`serve_metrics`] with the graceful-degradation policy applied: an
/// empty address is a quiet no-op, and a taken or invalid one books a
/// `fault/endpoint_bind_failed` counter, logs one stderr line, and
/// disables the scrape server — the workload keeps running unmonitored
/// rather than dying over an observability port.
pub fn serve_metrics_or_log(addr: &str) -> Option<MetricsServer> {
    let addr = addr.trim();
    if addr.is_empty() {
        return None;
    }
    match serve_metrics(addr) {
        Ok(s) => Some(s),
        Err(e) => {
            crate::counter_add("fault/endpoint_bind_failed", 1);
            eprintln!("lm4db-obs: cannot bind LM4DB_METRICS_ADDR={addr}: {e}");
            None
        }
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare and renders are cheap, so
                // one connection at a time keeps the thread budget at 1.
                let _ = handle_conn(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Reads the request head (first line is enough — bodies are ignored)
/// and routes it.
fn handle_conn(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    let mut timed_out = false;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            timed_out = true;
            break;
        }
        stream.set_read_timeout(Some(left))?;
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                break;
            }
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status, ctype, body) = if timed_out {
        (
            "408 Request Timeout",
            "text/plain; charset=utf-8",
            "request head not received in time\n".to_string(),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::prom::global_prometheus(),
            ),
            "/dashboard" | "/" => (
                "200 OK",
                "text/html; charset=utf-8",
                crate::dashboard::global_html(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics or /dashboard\n".to_string(),
            ),
        }
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal scrape client for tests and benches: issues `GET {path}` to
/// `addr` and returns `(status_line, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_dashboard_and_404() {
        let server = serve_metrics("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/metrics").expect("GET /metrics");
        assert!(status.contains("200"), "{status}");
        crate::prom::validate_exposition(&body).expect("scrape must be valid exposition");

        let (status, body) = http_get(addr, "/dashboard").expect("GET /dashboard");
        assert!(status.contains("200"), "{status}");
        assert!(body.starts_with("<!doctype html>"));

        let (status, _) = http_get(addr, "/nope").expect("GET /nope");
        assert!(status.contains("404"), "{status}");

        drop(server); // joins the thread; a second bind of the port is now possible
    }

    #[test]
    fn trickling_client_is_cut_off_and_the_next_scrape_is_served() {
        let server = serve_metrics("127.0.0.1:0").expect("bind ephemeral");
        let mut slow = TcpStream::connect(server.addr()).expect("connect");
        slow.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // One byte per 100 ms and never a blank line: every server read
        // succeeds well inside any per-read timeout, so only a deadline on
        // the whole head ends this. The client's read doubles as its nap.
        let head = b"GET /metrics HTTP/1.1\r\nX-Slow: ";
        let mut reply = Vec::new();
        let mut buf = [0u8; 256];
        for byte in head.iter().chain(std::iter::repeat(&b'a')).take(50) {
            if slow.write_all(&[*byte]).is_err() {
                break;
            }
            match slow.read(&mut buf) {
                Ok(n) => {
                    reply.extend_from_slice(&buf[..n]);
                    break;
                }
                Err(_) => continue,
            }
        }
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 408"), "reply: {reply:?}");

        let (status, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
        assert!(status.contains("200"), "{status}");
        crate::prom::validate_exposition(&body).expect("scrape must be valid exposition");
    }

    #[test]
    fn bind_failure_degrades_gracefully_and_books_a_counter() {
        // Hold a port so the second bind must fail with AddrInUse.
        let taken = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        let addr = taken.local_addr().unwrap().to_string();
        crate::set_enabled(true);
        let before = crate::snapshot()
            .counters
            .get("fault/endpoint_bind_failed")
            .copied()
            .unwrap_or(0);
        assert!(
            serve_metrics_or_log(&addr).is_none(),
            "a taken address must disable the endpoint, not panic"
        );
        let after = crate::snapshot()
            .counters
            .get("fault/endpoint_bind_failed")
            .copied()
            .unwrap_or(0);
        assert_eq!(after, before + 1, "bind failure must be counted");
        // Garbage addresses take the same path.
        assert!(serve_metrics_or_log("not-an-address").is_none());
        assert!(serve_metrics_or_log("   ").is_none(), "blank stays quiet");
        crate::set_enabled(false);
    }

    #[test]
    fn env_helper_is_quiet_when_unset() {
        // LM4DB_METRICS_ADDR is not set in the test environment.
        if std::env::var("LM4DB_METRICS_ADDR").is_err() {
            assert!(serve_metrics_from_env().is_none());
        }
    }
}
