//! Hand-rolled HTTP/1.1 plumbing for the `fixd` repair daemon and its
//! clients.
//!
//! One implementation of request parsing and response writing (the
//! daemon's side) and a minimal client (`fixctl client`, `fixctl scrape`,
//! tests and benches) — the same dep-free discipline as the workspace
//! shims.
//!
//! Scope is deliberately small: `HTTP/1.1`, `Connection: close`, no
//! keep-alive, no TLS, no chunked transfer encoding. Request bodies are
//! read per `Content-Length` (bounded by [`MAX_BODY`]); heads are bounded
//! by [`MAX_HEAD`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Time a client has to send a whole request, head and body: a client
/// that sends one byte every few seconds does not hold a worker longer.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Maximum accepted request-head size (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted request/response body size.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped.
    pub path: String,
    /// Query string after `?`, or `""`.
    pub query: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text, or the error locating its first invalid
    /// byte: a body is never rewritten to make it decode.
    pub fn body_text(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }

    /// The value of query parameter `name`: the first `name=value` pair
    /// of the query string whose name is exactly `name` (a bare `name`
    /// gives `""`). Values are returned as sent, without percent-decoding.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name).then_some(value)
        })
    }

    /// Read and parse one request from `stream`: head until `\r\n\r\n`,
    /// then `Content-Length` body bytes, all within [`REQUEST_DEADLINE`]
    /// of the call; past it, the error is [`io::ErrorKind::TimedOut`].
    pub fn read_from(stream: &mut TcpStream) -> io::Result<Request> {
        stream.set_nonblocking(false)?;
        stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
        let deadline = Instant::now() + REQUEST_DEADLINE;

        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = find_head_end(&buf) {
                break i;
            }
            if buf.len() > MAX_HEAD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request head too large",
                ));
            }
            let n = read_before(stream, &mut chunk, deadline)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-head",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };

        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or_default().to_ascii_uppercase();
        let target = parts.next().unwrap_or_default();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }

        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        if content_length > MAX_BODY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request body too large",
            ));
        }
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = read_before(stream, &mut chunk, deadline)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);

        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
        })
    }
}

/// One `read` from `stream` that waits no later than `deadline`.
fn read_before(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let timed_out = || {
        io::Error::new(
            io::ErrorKind::TimedOut,
            format!("request not received within {REQUEST_DEADLINE:?}"),
        )
    };
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(timed_out());
    }
    stream.set_read_timeout(Some(left))?;
    match stream.read(buf) {
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(timed_out())
        }
        read => read,
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize: status code, content type, body, plus
/// any extra headers (e.g. `X-Trace-Id`).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra headers appended verbatim after the standard set.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A response with no extra headers.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "text/plain", body.into().into_bytes())
    }

    /// A `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "application/json", body.into().into_bytes())
    }

    /// Append an extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize onto `stream` as `HTTP/1.1` with `Connection: close`.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this workspace emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A fetched HTTP response: status, headers (lowercased names), body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body as text.
    pub body: String,
}

impl HttpResponse {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal one-shot HTTP client: send `method` to `http://host:port/path`
/// with an optional body, return the parsed response. Used by
/// `fixctl scrape`/`fixctl client` and the tests — not a general client.
pub fn http_request(
    method: &str,
    url: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<HttpResponse> {
    http_request_with_headers(method, url, content_type, body, &[])
}

/// [`http_request`] plus caller-supplied request headers (`(name, value)`
/// pairs appended verbatim) — how a client hands `fixd` an `X-Trace-Id`
/// to correlate its own logs with the daemon journal.
pub fn http_request_with_headers(
    method: &str,
    url: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<HttpResponse> {
    let rest = url.strip_prefix("http://").ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "only http:// URLs supported")
    })?;
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let mut stream = TcpStream::connect(host)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n");
    if !body.is_empty() || method == "POST" {
        head.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let response = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(HttpResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

/// Fetch `url` with GET, returning `(status, body)`.
pub fn http_get(url: &str) -> io::Result<(u16, String)> {
    let r = http_request("GET", url, "text/plain", &[])?;
    Ok((r.status, r.body))
}

/// POST `body` to `url`, returning the full response (the daemon replies
/// with an `X-Trace-Id` header callers want to read).
pub fn http_post(url: &str, content_type: &str, body: &[u8]) -> io::Result<HttpResponse> {
    http_request("POST", url, content_type, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-shot echo server: accepts a single connection, parses the
    /// request, and answers with a JSON description of what it saw.
    fn spawn_echo() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = Request::read_from(&mut stream).unwrap();
            let body = format!(
                "{{\"method\":\"{}\",\"path\":\"{}\",\"query\":\"{}\",\"len\":{}}}",
                req.method,
                req.path,
                req.query,
                req.body.len()
            );
            Response::json(200, body)
                .with_header("X-Echo", "yes")
                .write_to(&mut stream)
                .unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn round_trips_get_with_query() {
        let (addr, handle) = spawn_echo();
        let (status, body) = http_get(&format!("http://{addr}/metrics?foo=1")).unwrap();
        handle.join().unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"path\":\"/metrics\""), "{body}");
        assert!(body.contains("\"query\":\"foo=1\""), "{body}");
    }

    #[test]
    fn round_trips_post_body_and_extra_headers() {
        let (addr, handle) = spawn_echo();
        let payload = vec![b'x'; 10_000];
        let resp = http_post(&format!("http://{addr}/repair"), "text/csv", &payload).unwrap();
        handle.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-echo"), Some("yes"));
        assert!(resp.body.contains("\"len\":10000"), "{}", resp.body);
        assert!(resp.body.contains("\"method\":\"POST\""), "{}", resp.body);
    }

    #[test]
    fn rejects_oversized_head() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let huge = format!(
                "GET /x HTTP/1.1\r\nX-Big: {}\r\n\r\n",
                "a".repeat(MAX_HEAD * 2)
            );
            let _ = s.write_all(huge.as_bytes());
            let _ = s.flush();
            // Keep the connection open until the server has parsed.
            let mut buf = [0u8; 16];
            let _ = s.read(&mut buf);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = Request::read_from(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Close the server side so the client's read unblocks before join.
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn query_params_match_names_exactly() {
        let request = |query: &str| Request {
            method: "GET".into(),
            path: "/repair".into(),
            query: query.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(request("format=csv").query_param("format"), Some("csv"));
        assert_eq!(
            request("a=1&format=csvz").query_param("format"),
            Some("csvz")
        );
        assert_eq!(request("xformat=csv").query_param("format"), None);
        assert_eq!(request("format").query_param("format"), Some(""));
        assert_eq!(request("").query_param("format"), None);
    }

    #[test]
    fn status_texts_cover_emitted_codes() {
        for code in [200u16, 202, 400, 404, 405, 408, 413, 500, 503] {
            assert_ne!(status_text(code), "Unknown", "{code}");
        }
    }
}
