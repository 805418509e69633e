//! A tiny HTTP server for the dashboard and the TSDB API.
//!
//! §V-A: "The visualization tool is a web application that is available on
//! both desktop and mobile devices." This server makes the generated pages
//! (and the OpenTSDB-style JSON API) reachable over HTTP with zero
//! dependencies: a small, correct-enough subset of HTTP/1.1 (GET and POST
//! with `Content-Length` bodies).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::json::escape_into;

/// How long a connection may take to deliver its whole request. One
/// thread serves every connection in turn, so a client that connects and
/// sends nothing (a browser preconnect), or drips its request a byte at
/// a time, holds up the others for at most this long.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Most bytes a request line plus headers may take; a longer head drops
/// the connection unanswered.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// How long a connection may keep the server waiting to take its response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// "GET" or "POST" (others are rejected before the handler runs).
    pub method: String,
    /// Request path including any query string.
    pub path: String,
    /// Request body (empty for GET).
    pub body: String,
}

/// A response from a handler.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (200, 400, …).
    pub status: u16,
    /// Content type header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// 200 text/html.
    pub fn html(body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into(),
        }
    }

    /// 200 application/json.
    pub fn json(body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            content_type: "application/json".into(),
            body: body.into(),
        }
    }

    /// Arbitrary status with a JSON body.
    pub fn json_status(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "application/json".into(),
            body: body.into(),
        }
    }

    /// Typed JSON error body: `{"error":{"code":…,"type":…,"message":…}}`.
    ///
    /// Dashboard routes return this instead of an empty page when a
    /// shard fails or a path is invalid, so clients can distinguish "no
    /// data" from "degraded backend" (mirrors the partial-result envelope
    /// of the query API).
    pub fn error_json(status: u16, kind: &str, message: &str) -> Self {
        let mut body = format!("{{\"error\":{{\"code\":{status},\"type\":");
        escape_into(kind, &mut body);
        body.push_str(",\"message\":");
        escape_into(message, &mut body);
        body.push_str("}}");
        HttpResponse::json_status(status, body)
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Route handler: maps a request to a response, or `None` for 404.
pub type RequestHandler = Arc<dyn Fn(&HttpRequest) -> Option<HttpResponse> + Send + Sync>;

/// A running dashboard server.
pub struct DashboardServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl DashboardServer {
    /// Bind to `127.0.0.1:port` (0 = ephemeral) and serve `handler` (GET
    /// and POST) on a background thread.
    pub fn start_with(port: u16, handler: RequestHandler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_w = stop.clone();
        let join = std::thread::Builder::new()
            .name("dashboard-http".into())
            .spawn(move || {
                while !stop_w.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            let _ = serve_one(stream, &handler);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(DashboardServer {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop serving and join the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for DashboardServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A connection's read half under one whole-request deadline: each read
/// may block only for the time left, so slow bytes cannot extend it.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn serve_one(stream: TcpStream, handler: &RequestHandler) -> std::io::Result<()> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + REQUEST_DEADLINE,
    });
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    // Headers: we only care about Content-Length.
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        let read = head.read_line(&mut line)?;
        if read == 0 && head.limit() == 0 {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        if read == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v.min(16 * 1024 * 1024);
        }
    }
    let mut body = String::new();
    if content_length > 0 {
        let mut buf = vec![0u8; content_length];
        reader.read_exact(&mut buf)?;
        body = String::from_utf8_lossy(&buf).into_owned();
    }
    let mut stream = reader.into_inner().stream;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("/").to_string();
    let response = if method != "GET" && method != "POST" {
        HttpResponse {
            status: 405,
            content_type: "text/html; charset=utf-8".into(),
            body: "<h1>405</h1>".into(),
        }
    } else {
        let req = HttpRequest { method, path, body };
        handler(&req).unwrap_or(HttpResponse {
            status: 404,
            content_type: "text/html; charset=utf-8".into(),
            body: "<h1>404 Not Found</h1>".into(),
        })
    };
    let wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        response.body
    );
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn test_server() -> DashboardServer {
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| {
            let html = match req.path.as_str() {
                "/" => Some("<h1>home</h1>".to_string()),
                p => p
                    .strip_prefix("/machine/")
                    .and_then(|id| id.parse::<u32>().ok())
                    .map(|u| format!("<h1>machine {u}</h1>")),
            };
            html.map(HttpResponse::html)
        });
        DashboardServer::start_with(0, handler).unwrap()
    }

    #[test]
    fn serves_routes() {
        let server = test_server();
        let (head, body) = get(server.addr(), "/");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "<h1>home</h1>");
        let (_, body) = get(server.addr(), "/machine/80");
        assert_eq!(body, "<h1>machine 80</h1>");
        server.stop();
    }

    #[test]
    fn unknown_route_is_404() {
        let server = test_server();
        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        let (head, _) = get(server.addr(), "/machine/not-a-number");
        assert!(head.starts_with("HTTP/1.1 404"));
        server.stop();
    }

    /// A client that connects and sends nothing (a browser preconnect)
    /// must not keep the next client waiting, nor keep `stop` from
    /// returning. Both waits are bounded, so a stall fails the test
    /// instead of hanging it.
    #[test]
    fn an_idle_connection_stalls_neither_other_clients_nor_stop() {
        use std::sync::mpsc;
        let server = test_server();
        let addr = server.addr();
        let _idle = TcpStream::connect(addr).unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(get(addr, "/"));
        });
        let (head, body) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("second client answered");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "<h1>home</h1>");
        let _idle_again = TcpStream::connect(addr).unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("stop returned");
    }

    /// A client that drips its request a byte every 500 ms never lets a
    /// per-read timeout fire; the whole-request deadline must still free
    /// the server for the next client and for `stop`. Both waits are
    /// bounded, so a stall fails the test instead of hanging it.
    #[test]
    fn a_slow_drip_client_stalls_neither_other_clients_nor_stop() {
        use std::sync::mpsc;
        let server = test_server();
        let addr = server.addr();
        let mut drip = TcpStream::connect(addr).unwrap();
        std::thread::spawn(move || {
            for _ in 0..40 {
                if drip.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(get(addr, "/"));
        });
        let (head, body) = rx
            .recv_timeout(Duration::from_secs(8))
            .expect("second client answered");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "<h1>home</h1>");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(8))
            .expect("stop returned");
    }

    /// A head longer than `MAX_HEAD_BYTES` is dropped unanswered, and the
    /// next client is served.
    #[test]
    fn an_oversized_head_is_dropped() {
        let server = test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let _ = write!(s, "GET / HTTP/1.1\r\nX-Pad: ");
        let _ = s.write_all(&[b'a'; MAX_HEAD_BYTES as usize]);
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        assert!(buf.is_empty(), "oversized head was answered");
        let (head, _) = get(server.addr(), "/");
        assert!(head.starts_with("HTTP/1.1 200"));
        server.stop();
    }

    #[test]
    fn full_handler_receives_post_bodies() {
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| {
            if req.method == "POST" && req.path == "/echo" {
                Some(HttpResponse::json(format!(
                    "{{\"len\":{}}}",
                    req.body.len()
                )))
            } else {
                None
            }
        });
        let server = DashboardServer::start_with(0, handler).unwrap();
        let (head, body) = post(server.addr(), "/echo", "hello world");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(head.contains("application/json"));
        assert_eq!(body, "{\"len\":11}");
        server.stop();
    }

    #[test]
    fn content_length_matches_body() {
        let server = test_server();
        let (head, body) = get(server.addr(), "/");
        let cl: usize = head
            .lines()
            .find(|l| l.starts_with("Content-Length:"))
            .unwrap()
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(cl, body.len());
        server.stop();
    }

    #[test]
    fn sequential_requests_are_served() {
        let server = test_server();
        for _ in 0..10 {
            let (head, _) = get(server.addr(), "/");
            assert!(head.starts_with("HTTP/1.1 200"));
        }
        server.stop();
    }

    #[test]
    fn error_json_is_typed_and_escaped() {
        let r = HttpResponse::error_json(
            503,
            "degraded",
            "1/4 shards \"busy\"\nretry later\u{8}\u{c}\u{1}",
        );
        assert_eq!(r.status, 503);
        assert_eq!(r.content_type, "application/json");
        assert_eq!(
            r.body,
            "{\"error\":{\"code\":503,\"type\":\"degraded\",\
             \"message\":\"1/4 shards \\\"busy\\\"\\nretry later\\b\\f\\u0001\"}}"
        );
        // Parses back as JSON with the fields intact.
        let v: serde_json::Value = serde_json::from_str(&r.body).unwrap();
        assert_eq!(v["error"]["code"], 503);
        assert_eq!(v["error"]["type"], "degraded");
    }

    #[test]
    fn error_json_rides_the_wire_with_status_text() {
        let handler: RequestHandler = Arc::new(|req: &HttpRequest| {
            (req.path == "/degraded").then(|| HttpResponse::error_json(503, "degraded", "shard 2"))
        });
        let server = DashboardServer::start_with(0, handler).unwrap();
        let (head, body) = get(server.addr(), "/degraded");
        assert!(head.starts_with("HTTP/1.1 503 Service Unavailable"));
        assert!(head.contains("application/json"));
        assert!(body.contains("\"code\":503"));
        server.stop();
    }

    #[test]
    fn unsupported_method_is_405() {
        let server = test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "DELETE / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 405"));
        server.stop();
    }
}
