//! The metrics listener: a deliberately tiny blocking HTTP/1.0 server.
//!
//! One accept thread serving one request per connection is exactly the
//! right size for a scrape endpoint — Prometheus polls at seconds
//! cadence, `sw-top` at hundreds of milliseconds, and every response
//! is rendered from an immutable
//! [`Published`](crate::ops::hub::Published) view cloned out of the
//! hub in O(1), so a slow or malicious scraper can never hold the
//! publisher. Shutdown uses the same pattern as the live server:
//! an `AtomicBool` plus one self-connect to unblock `accept`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::ops::hub::MetricsHub;
use crate::ops::prom;

/// A running metrics endpoint bound to a local TCP port.
///
/// Serves, until dropped or [`MetricsExporter::shutdown`]:
///
/// - `GET /metrics` — Prometheus text exposition format 0.0.4;
/// - `GET /healthz` — `200 ok` while the exporter lives;
/// - `GET /snapshot.json` — the whole published view as JSON.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds `bind` (port 0 for ephemeral; read it back via
    /// [`MetricsExporter::addr`]) and starts serving views read from
    /// `hub`.
    pub fn bind(bind: SocketAddr, hub: Arc<MetricsHub>) -> io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_loop(listener, hub, stop))
        };
        Ok(MetricsExporter {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address scrapers should GET.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept(); the loop re-checks the flag first thing.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: TcpListener, hub: Arc<MetricsHub>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Serve inline: requests are one GET line and responses are one
        // rendered page; there is nothing to win by spawning.
        let _ = serve_one(stream, &hub);
    }
}

/// Reads one request head, routes it, writes one response, closes.
fn serve_one(stream: TcpStream, hub: &MetricsHub) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the header block so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let mut out = stream;
    if method != "GET" {
        return respond(&mut out, "405 Method Not Allowed", "text/plain", "GET only\n");
    }
    match path {
        "/metrics" => {
            let body = prom::render_metrics(&hub.read());
            respond(
                &mut out,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => respond(&mut out, "200 OK", "text/plain", "ok\n"),
        "/snapshot.json" => {
            let body = prom::render_json(&hub.read());
            respond(&mut out, "200 OK", "application/json", &body)
        }
        _ => respond(&mut out, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot GET against a metrics endpoint; returns the
/// response body. Shared by `sw-top` and the test/smoke harnesses —
/// the client half of the exporter's tiny protocol.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: sw-live\r\n\r\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    if !status.starts_with("HTTP/1.0 200") && !status.starts_with("HTTP/1.1 200") {
        return Err(io::Error::other(format!(
            "GET {path}: {}",
            status.trim_end()
        )));
    }
    let mut line = String::new();
    while reader.read_line(&mut line)? > 2 {
        line.clear();
    }
    let mut body = String::new();
    io::Read::read_to_string(&mut reader, &mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::hub::Published;

    fn bind_local(hub: Arc<MetricsHub>) -> MetricsExporter {
        MetricsExporter::bind(SocketAddr::from(([127, 0, 0, 1], 0)), hub)
            .expect("ephemeral bind succeeds")
    }

    #[test]
    fn serves_metrics_health_and_json() {
        let hub = MetricsHub::new();
        hub.publish(Published::at(3).label("role", "server").gauge("mu_registered", 8.0));
        let mut exporter = bind_local(Arc::clone(&hub));
        let addr = exporter.addr();
        let t = Duration::from_secs(2);
        assert_eq!(get(addr, "/healthz", t).unwrap(), "ok\n");
        let page = get(addr, "/metrics", t).unwrap();
        assert!(page.contains("sw_interval{role=\"server\"} 3"), "{page}");
        assert!(page.contains("sw_mu_registered{role=\"server\"} 8"));
        let json = get(addr, "/snapshot.json", t).unwrap();
        assert!(json.contains("\"interval\":3"));
        // A publish between scrapes is visible on the next scrape.
        hub.publish(Published::at(4));
        assert!(get(addr, "/metrics", t).unwrap().contains("sw_interval 4"));
        exporter.shutdown();
    }

    #[test]
    fn unknown_paths_404_and_shutdown_is_idempotent() {
        let hub = MetricsHub::new();
        let mut exporter = bind_local(hub);
        let addr = exporter.addr();
        let err = get(addr, "/nope", Duration::from_secs(2)).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        exporter.shutdown();
        exporter.shutdown();
        assert!(get(addr, "/healthz", Duration::from_millis(300)).is_err());
    }
}
