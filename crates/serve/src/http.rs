//! Minimal HTTP/1.1 over `std::net` — exactly what the JSON API needs,
//! nothing more.
//!
//! The workspace policy is std-only (no crates.io), so the wire protocol
//! is hand-rolled: request parsing with hard size caps, fixed-length
//! responses with `Content-Length`, and chunked transfer encoding for
//! the NDJSON event stream. Every connection is single-request
//! (`Connection: close`) — the API's requests are independent, clients
//! are loopback/LAN operators and load generators, and close-per-request
//! removes the whole class of pipelining/framing bugs a vendored server
//! could get wrong silently.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on request bodies (a `JobSpec` is ~1KB; 1MB is generous).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path only — routing never sees query strings.
    pub path: String,
    /// Raw query string (everything after the first `?`, no leading
    /// `?`); empty when the target had none.
    pub query: String,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of one `key=value` query parameter (first occurrence;
    /// no percent-decoding — this API's parameters are plain integers).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("request body is not UTF-8".into()))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before sending a complete request (normal churn —
    /// not worth a response).
    Closed,
    /// Malformed request; answer 400.
    BadRequest(String),
    /// Head or body over the cap; answer 413.
    TooLarge,
    /// Socket-level failure (including running out of the read budget).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed before a complete request"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge => write!(f, "request exceeds size caps"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// The socket under [`read_request`]: before each read it sets the
/// socket's read timeout to what is left of the request's time budget,
/// so a peer dripping bytes cannot stretch one request past it.
struct Budgeted<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl Read for Budgeted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        self.stream.read(buf)
    }
}

/// Read and parse one request from the stream.
///
/// The stream's read timeout, when set, is the budget for the whole
/// request — head and body — not for each socket read; running out of
/// it is [`HttpError::Io`]. A head line is read at most up to what is
/// left of [`MAX_HEAD_BYTES`], so a head with no line break costs no
/// more than the cap.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let deadline = stream
        .read_timeout()
        .map_err(HttpError::Io)?
        .map(|budget| Instant::now() + budget);
    // Accumulate the head byte-wise up to the blank line. Byte-at-a-time
    // via BufReader is fine at this request rate, and never over-reads
    // into the body.
    let mut reader = BufReader::new(Budgeted { stream, deadline });
    let mut head = Vec::new();
    loop {
        let mut line = Vec::new();
        let cap = (MAX_HEAD_BYTES - head.len() + 1) as u64;
        let n = (&mut reader)
            .take(cap)
            .read_until(b'\n', &mut line)
            .map_err(HttpError::Io)?;
        if n == 0 {
            return Err(if head.is_empty() {
                HttpError::Closed
            } else {
                HttpError::BadRequest("truncated request head".into())
            });
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        if line == b"\r\n" || line == b"\n" {
            if head.len() == line.len() {
                // Leading blank line before the request line: ignore it
                // (RFC 9112 §2.2) and keep reading.
                head.clear();
                continue;
            }
            break;
        }
    }
    let head_text = String::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest("unparsable content-length".into()))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => HttpError::BadRequest("truncated request body".into()),
            _ => HttpError::Io(e),
        })?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// A fixed-length response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given body.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        #[derive(serde::Serialize)]
        struct ErrorBody {
            error: String,
        }
        Response::json(
            status,
            serde_json::to_string(&ErrorBody {
                error: message.to_string(),
            })
            .expect("error body serializes"),
        )
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize and send (adds `Content-Length` and `Connection:
    /// close`).
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        )
        .into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(b"Connection: close\r\n\r\n");
        out.extend_from_slice(&self.body);
        stream.write_all(&out)?;
        stream.flush()
    }
}

/// Begin a chunked response (the NDJSON event stream). Follow with
/// [`write_chunk`] per line and [`finish_chunked`] to terminate.
pub fn start_chunked(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        reason_phrase(status)
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Send one chunk (flushes — subscribers see events live, not when a
/// buffer happens to fill).
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(()); // a zero-length chunk would terminate the stream
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Send one NDJSON line (plus its `\n`) as one chunk.
pub fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut payload = Vec::with_capacity(line.len() + 1);
    payload.extend_from_slice(line.as_bytes());
    payload.push(b'\n');
    write_chunk(stream, &payload)
}

/// Terminate a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// The reason phrases this API emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Round-trip helper: write `raw` into a loopback socket, parse it
    /// server-side.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&raw).unwrap();
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let parsed = read_request(&mut server_side);
        writer.join().unwrap();
        parsed
    }

    /// Parse what `client` writes into a loopback socket, with `budget`
    /// as the server side's read timeout. The client's socket stays open
    /// until the parse returns. Also returns how long the parse took.
    fn parse_with(
        budget: Duration,
        client: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (Result<Request, HttpError>, Duration) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (parsed_tx, parsed_rx) = mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            client(&mut c);
            let _ = parsed_rx.recv();
        });
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_read_timeout(Some(budget)).unwrap();
        let started = Instant::now();
        let parsed = read_request(&mut server_side);
        let elapsed = started.elapsed();
        drop(server_side);
        drop(parsed_tx);
        writer.join().unwrap();
        (parsed, elapsed)
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = parse_raw(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body_str().unwrap(), "hello world");
    }

    #[test]
    fn leading_blank_lines_are_tolerated() {
        // RFC 9112 §2.2: ignore at least one CRLF before the request
        // line (robust clients sometimes send one after a POST body).
        let req = parse_raw(b"\r\nGET /v1/metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/metrics");
        let req = parse_raw(b"\n\r\nPOST /v1/shutdown HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "POST");
    }

    #[test]
    fn splits_query_strings_off_the_path() {
        let req = parse_raw(b"GET /v1/metrics?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/metrics");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("missing"), None);

        let req = parse_raw(b"GET /v1/regressions?offset=10&limit=5 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/regressions");
        assert_eq!(req.query_param("offset"), Some("10"));
        assert_eq!(req.query_param("limit"), Some("5"));

        let req = parse_raw(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query, "");
        assert_eq!(req.query_param("anything"), None);
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(
            parse_raw(b"NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(parse_raw(b""), Err(HttpError::Closed)));
        let huge = format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse_raw(huge.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_raw(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn response_wire_shape() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut buf = String::new();
            c.read_to_string(&mut buf).unwrap();
            buf
        });
        let (mut server_side, _) = listener.accept().unwrap();
        Response::error(429, "busy")
            .with_header("Retry-After", "2")
            .write_to(&mut server_side)
            .unwrap();
        drop(server_side);
        let wire = reader.join().unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{wire}"
        );
        assert!(wire.contains("Retry-After: 2\r\n"));
        assert!(wire.contains("Connection: close\r\n"));
        assert!(wire.ends_with("{\"error\":\"busy\"}"));
    }

    #[test]
    fn a_head_without_line_breaks_costs_no_more_than_the_cap() {
        let (parsed, _) = parse_with(Duration::from_secs(2), |c| {
            // The parser may stop reading (and close) before all of it
            // is sent.
            let _ = c.write_all(&vec![b'a'; MAX_HEAD_BYTES + 1024]);
        });
        assert!(matches!(parsed, Err(HttpError::TooLarge)), "{parsed:?}");
    }

    #[test]
    fn the_read_timeout_bounds_the_whole_request() {
        // One header byte every 200 ms for 3 s: each socket read is well
        // inside the 1 s timeout, the request as a whole is not.
        let (parsed, elapsed) = parse_with(Duration::from_secs(1), |c| {
            if c.write_all(b"GET / HTTP/1.1\r\nX-Drip: ").is_err() {
                return;
            }
            for _ in 0..15 {
                std::thread::sleep(Duration::from_millis(200));
                if c.write_all(b"y").is_err() {
                    return;
                }
            }
        });
        assert!(matches!(parsed, Err(HttpError::Io(_))), "{parsed:?}");
        assert!(elapsed < Duration::from_millis(1500), "took {elapsed:?}");
    }

    #[test]
    fn a_truncated_body_is_a_bad_request() {
        let (parsed, _) = parse_with(Duration::from_secs(2), |c| {
            c.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap();
            c.shutdown(Shutdown::Write).unwrap();
        });
        match parsed {
            Err(HttpError::BadRequest(m)) => assert_eq!(m, "truncated request body"),
            other => panic!("expected a 400, got {other:?}"),
        }
    }
}
