//! A deliberately tiny HTTP/1.1 responder for the hub's `--metrics`
//! listener: GET-only, fixed route table, one thread, no keep-alive.
//! Enough for a Prometheus scraper and `curl`; anything fancier belongs
//! in a real server.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A route handler: returns `(content_type, body)`.
pub type Handler = Arc<dyn Fn() -> (String, String) + Send + Sync>;

/// A background HTTP listener. Dropping it leaves the thread running
/// until [`MetricsServer::stop`] or process exit; the hub stops it
/// explicitly when the run finishes.
pub struct MetricsServer {
    pub addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free one) and
    /// serve `routes` — `(path, handler)` pairs — until stopped. Unknown
    /// paths get 404; non-GET requests get 405.
    pub fn spawn(addr: &str, routes: Vec<(String, Handler)>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-metrics".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
                            let _ = conn.set_nonblocking(false);
                            let mut req = [0u8; 1024];
                            let n = read_head(&mut conn, &mut req);
                            let (status, ctype, body) =
                                respond(&String::from_utf8_lossy(&req[..n]), &routes);
                            let _ = write!(
                                conn,
                                "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                                body.len(),
                            );
                            let _ = conn.flush();
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// Stop the listener thread and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Read a request head into `buf` until the blank line that ends it, the
/// buffer fills, the peer closes, or the read timeout fires. A client may
/// send one request in several writes; answering the first fragment and
/// closing with bytes unread would reset the connection. Returns the
/// number of bytes read.
fn read_head(conn: &mut impl Read, buf: &mut [u8]) -> usize {
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        match conn.read(&mut buf[n..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => n += k,
        }
    }
    n
}

fn respond(req: &str, routes: &[(String, Handler)]) -> (&'static str, String, String) {
    let mut parts = req.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/").split('?').next().unwrap_or("/");
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain".into(),
            "GET only\n".into(),
        );
    }
    for (route, handler) in routes {
        if route == path {
            let (ctype, body) = handler();
            return ("200 OK", ctype, body);
        }
    }
    // Bare `/` (unless explicitly routed) indexes the route table, so a
    // curl at the listener discovers /metrics and /health.
    if path == "/" {
        let mut body = String::new();
        for (route, _) in routes {
            body.push_str(route);
            body.push('\n');
        }
        return ("200 OK", "text/plain".into(), body);
    }
    (
        "404 Not Found",
        "text/plain".into(),
        "no such route\n".into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_routes_and_404s() {
        let routes: Vec<(String, Handler)> = vec![(
            "/metrics".to_string(),
            Arc::new(|| ("text/plain; version=0.0.4".to_string(), "x 1\n".to_string())),
        )];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let ok = get(server.addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.ends_with("x 1\n"));
        let missing = get(server.addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        server.stop();
    }

    /// A request split across writes is answered from the whole head,
    /// not from its first fragment.
    #[test]
    fn split_request_is_read_to_the_blank_line() {
        let routes: Vec<(String, Handler)> = vec![(
            "/metrics".to_string(),
            Arc::new(|| ("text/plain".to_string(), "x 1\n".to_string())),
        )];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let mut conn = TcpStream::connect(server.addr).unwrap();
        conn.write_all(b"GET /met").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        conn.write_all(b"rics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.ends_with("x 1\n"), "{out}");
        server.stop();
    }

    #[test]
    fn root_indexes_the_route_table() {
        let routes: Vec<(String, Handler)> = vec![
            (
                "/metrics".to_string(),
                Arc::new(|| ("text/plain".to_string(), "x 1\n".to_string())),
            ),
            (
                "/health".to_string(),
                Arc::new(|| ("application/json".to_string(), "{}".to_string())),
            ),
        ];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let index = get(server.addr, "/");
        assert!(index.starts_with("HTTP/1.1 200 OK"), "{index}");
        assert!(index.ends_with("/metrics\n/health\n"), "{index}");
        let health = get(server.addr, "/health");
        assert!(health.contains("application/json"), "{health}");
        server.stop();
    }
}
