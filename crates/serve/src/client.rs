//! A minimal blocking HTTP/1.1 client for the serve API.
//!
//! Exists so the e2e tests, the CI smoke, and perfbench share one
//! loopback client instead of three hand-rolled socket readers (and so
//! operators get a scriptable client without installing anything — the
//! README's `curl` examples map 1:1 onto these calls). Speaks exactly what the server emits: fixed-length
//! bodies via `Content-Length` and chunked NDJSON streams, one request
//! per connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{MAX_HEAD_BYTES, MAX_RESPONSE_BYTES};

/// First wait between [`Client::post_retry`] attempts when the server
/// sends no `Retry-After` hint; doubles per retry up to the cap.
pub const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(25);
/// Longest a single [`Client::post_retry`] wait can be, hinted or not —
/// `Retry-After` is an estimate, and a gateway blocked for tens of
/// seconds on one shard serves its tenant worse than failing over.
pub const RETRY_WAIT_CAP: Duration = Duration::from_secs(2);

/// A buffered response (fixed-length or fully-drained chunked body).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Client for one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    /// Extra headers sent with every request (auth, forwarded tenant).
    headers: Vec<(String, String)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            headers: Vec::new(),
        }
    }

    /// Override the per-socket read timeout (streams of long jobs idle
    /// between events; the default 30s accommodates debug-build jobs).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attach a header to every request this client sends.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Authenticate every request with `Authorization: Bearer <key>`
    /// (a server running with a tenant registry requires it on
    /// submission routes).
    pub fn with_bearer(self, api_key: &str) -> Self {
        self.with_header("Authorization", &format!("Bearer {api_key}"))
    }

    /// Forward an already-authenticated tenant identity
    /// (`X-Xplain-Tenant`) — what the mesh gateway attaches when
    /// relaying to shards behind it.
    pub fn with_tenant(self, tenant_id: &str) -> Self {
        self.with_header("X-Xplain-Tenant", tenant_id)
    }

    pub fn get(&self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    pub fn post(&self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// POST that honors `429 Too Many Requests` instead of surfacing it:
    /// waits out the server's `Retry-After` hint (clamped between the
    /// current backoff step and [`RETRY_WAIT_CAP`]) and retries, with
    /// exponential backoff when the server sends no hint. Bounded: at
    /// most `max_attempts` requests total — if the last one still
    /// answers 429, that response is returned and the caller decides
    /// (the mesh gateway fails over to another shard at that point).
    /// Non-429 responses, including other errors, return immediately.
    pub fn post_retry(
        &self,
        path: &str,
        body: &str,
        max_attempts: u32,
    ) -> std::io::Result<HttpResponse> {
        let mut backoff = RETRY_BACKOFF_BASE;
        let mut response = self.post(path, body)?;
        let mut attempts = 1;
        while response.status == 429 && attempts < max_attempts.max(1) {
            let wait = retry_wait(response.header("retry-after"), backoff);
            std::thread::sleep(wait);
            backoff = (backoff * 2).min(RETRY_WAIT_CAP);
            response = self.post(path, body)?;
            attempts += 1;
        }
        Ok(response)
    }

    /// Open a streaming GET (the events endpoint); returns the response
    /// head and a line-by-line reader over the chunked NDJSON body.
    pub fn stream(&self, path: &str) -> std::io::Result<(u16, EventStream)> {
        let (status, _headers, events) = self.stream_request("GET", path, None)?;
        Ok((status, events))
    }

    /// Open a streaming POST (the tune endpoint); like [`Client::stream`]
    /// but carrying a request body, and returning the response headers so
    /// a proxy can relay `Retry-After` on buffered error responses.
    pub fn stream_post(
        &self,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Vec<(String, String)>, EventStream)> {
        self.stream_request("POST", path, Some(body))
    }

    fn stream_request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, Vec<(String, String)>, EventStream)> {
        let mut stream = self.connect()?;
        write_request(&mut stream, method, path, body, &self.headers)?;
        let mut reader = BufReader::new(stream);
        let (status, headers) = read_head(&mut reader)?;
        let chunked = header_value(&headers, "transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let events = EventStream {
            reader,
            chunked,
            buffer: Vec::new(),
            done: false,
        };
        Ok((status, headers, events))
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        let mut stream = self.connect()?;
        write_request(&mut stream, method, path, body, &self.headers)?;
        let mut reader = BufReader::new(stream);
        let (status, headers) = read_head(&mut reader)?;
        let body = read_body(&mut reader, &headers)?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

/// How long [`Client::post_retry`] sleeps before its next attempt, given
/// the server's raw `Retry-After` header (if any) and the current
/// exponential-backoff step. The hint is advisory: a missing, malformed,
/// or negative value falls back to the backoff step, and any value is
/// clamped to `[backoff, RETRY_WAIT_CAP]` — a zero hint never busy-spins
/// and a huge hint never stalls the caller past the cap. (If `backoff`
/// itself exceeds the cap, the wait is exactly `backoff`; the caller
/// already bounds its steps at the cap.)
fn retry_wait(hint: Option<&str>, backoff: Duration) -> Duration {
    let hinted = hint
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs);
    hinted
        .unwrap_or(backoff)
        .clamp(backoff, RETRY_WAIT_CAP.max(backoff))
}

fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(String, String)],
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: xplain\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn bad_data(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// One head or chunk-size line, at most [`MAX_HEAD_BYTES`] long.
fn read_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    reader
        .take(MAX_HEAD_BYTES as u64 + 1)
        .read_line(&mut line)?;
    if line.len() > MAX_HEAD_BYTES {
        return Err(bad_data(format!(
            "response line over the {MAX_HEAD_BYTES}-byte cap"
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn read_head(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad_data(format!("malformed status line '{status_line}'")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

fn header_value<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn read_body(
    reader: &mut BufReader<TcpStream>,
    headers: &[(String, String)],
) -> std::io::Result<String> {
    let mut raw = Vec::new();
    if header_value(headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        while read_chunk(reader, &mut raw)? {}
    } else if let Some(len) = header_value(headers, "content-length") {
        let len: u64 = len.parse().map_err(|_| bad_data("bad content-length"))?;
        read_sized(reader, len, &mut raw)?;
    } else {
        reader
            .take(MAX_RESPONSE_BYTES as u64 + 1)
            .read_to_end(&mut raw)?;
        if raw.len() > MAX_RESPONSE_BYTES {
            return Err(over_cap(raw.len() as u64));
        }
    }
    String::from_utf8(raw).map_err(|_| bad_data("response body is not UTF-8"))
}

fn over_cap(len: u64) -> std::io::Error {
    bad_data(format!(
        "response of {len} bytes is over the {MAX_RESPONSE_BYTES}-byte cap"
    ))
}

/// Append exactly `len` more bytes to `out`. A total over
/// [`MAX_RESPONSE_BYTES`] is refused before reading, and `out` grows only
/// as bytes arrive — the peer's number never sizes an allocation.
fn read_sized(reader: &mut impl Read, len: u64, out: &mut Vec<u8>) -> std::io::Result<()> {
    let total = (out.len() as u64).saturating_add(len);
    if total > MAX_RESPONSE_BYTES as u64 {
        return Err(over_cap(total));
    }
    let read = reader.take(len).read_to_end(out)?;
    if (read as u64) < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("response ended {} bytes short", len - read as u64),
        ));
    }
    Ok(())
}

/// Append one chunk of a chunked body to `out`; `false` at the
/// terminating zero chunk.
fn read_chunk(reader: &mut BufReader<TcpStream>, out: &mut Vec<u8>) -> std::io::Result<bool> {
    let size_line = read_line(reader)?;
    let size = u64::from_str_radix(size_line.trim(), 16)
        .map_err(|_| bad_data(format!("bad chunk size '{size_line}'")))?;
    if size == 0 {
        let _ = read_line(reader); // trailing CRLF after the last chunk
        return Ok(false);
    }
    read_sized(reader, size, out)?;
    let _ = read_line(reader)?; // chunk-terminating CRLF
    Ok(true)
}

/// Incremental line reader over a (possibly chunked) NDJSON stream.
/// Lines may span chunk boundaries; this reassembles them.
pub struct EventStream {
    reader: BufReader<TcpStream>,
    chunked: bool,
    buffer: Vec<u8>,
    done: bool,
}

impl EventStream {
    /// The next NDJSON line, or `None` once the stream has ended.
    /// Blocks until a line arrives (bounded by the client's read
    /// timeout).
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buffer.iter().position(|&b| b == b'\n') {
                let rest = self.buffer.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buffer, rest);
                line.pop(); // the newline
                let line =
                    String::from_utf8(line).map_err(|_| bad_data("stream line is not UTF-8"))?;
                return Ok(Some(line));
            }
            if self.done {
                // Flush a trailing line that ended at EOF without a
                // newline (fixed-length error bodies relayed through a
                // streaming call).
                if self.buffer.is_empty() {
                    return Ok(None);
                }
                let line = String::from_utf8(std::mem::take(&mut self.buffer))
                    .map_err(|_| bad_data("stream line is not UTF-8"))?;
                return Ok(Some(line));
            }
            if self.chunked {
                self.done = !read_chunk(&mut self.reader, &mut self.buffer)?;
            } else {
                let mut byte = [0u8; 1024];
                let n = self.reader.read(&mut byte)?;
                if n == 0 {
                    self.done = true;
                } else if self.buffer.len() + n > MAX_RESPONSE_BYTES {
                    return Err(over_cap((self.buffer.len() + n) as u64));
                } else {
                    self.buffer.extend_from_slice(&byte[..n]);
                }
            }
        }
    }

    /// Drain the remainder of the stream into a vector of lines.
    pub fn collect_lines(&mut self) -> std::io::Result<Vec<String>> {
        let mut lines = Vec::new();
        while let Some(line) = self.next_line()? {
            lines.push(line);
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Drain one request (head + the tiny `{}` body the tests send) so
    /// the client never hits a broken pipe mid-write.
    fn read_full_request(stream: &mut TcpStream) {
        let mut data = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    data.extend_from_slice(&buf[..n]);
                    if data.windows(4).any(|w| w == b"\r\n\r\n") && data.ends_with(b"{}") {
                        break;
                    }
                }
            }
        }
    }

    fn fake_server<S: AsRef<str> + Send + 'static>(
        responses: Vec<S>,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let mut served = 0;
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                read_full_request(&mut stream);
                stream.write_all(response.as_ref().as_bytes()).unwrap();
                served += 1;
            }
            served
        });
        (addr, join)
    }

    const BUSY: &str = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy";
    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";

    #[test]
    fn post_retry_waits_out_429s_until_success() {
        let (addr, server) = fake_server(vec![BUSY, BUSY, OK]);
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        let response = client.post_retry("/v1/jobs", "{}", 5).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "ok");
        assert_eq!(server.join().unwrap(), 3, "exactly two retries");
    }

    #[test]
    fn post_retry_is_bounded_and_surfaces_the_final_429() {
        let (addr, server) = fake_server(vec![BUSY, BUSY, BUSY]);
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        let response = client.post_retry("/v1/jobs", "{}", 3).unwrap();
        assert_eq!(response.status, 429, "caller still sees the final 429");
        assert_eq!(response.header("retry-after"), Some("0"));
        assert_eq!(server.join().unwrap(), 3, "no more than max_attempts");
    }

    #[test]
    fn retry_wait_falls_back_to_backoff_without_a_usable_hint() {
        let backoff = Duration::from_millis(100);
        // No header, unparsable text, and negative seconds all mean "no
        // hint": wait exactly the current backoff step.
        assert_eq!(retry_wait(None, backoff), backoff);
        assert_eq!(retry_wait(Some("garbage"), backoff), backoff);
        assert_eq!(retry_wait(Some(""), backoff), backoff);
        assert_eq!(retry_wait(Some("-1"), backoff), backoff);
        assert_eq!(retry_wait(Some("1.5"), backoff), backoff);
    }

    #[test]
    fn retry_wait_clamps_hints_between_backoff_and_cap() {
        let backoff = Duration::from_millis(100);
        // A zero hint would busy-spin; it is raised to the backoff floor.
        assert_eq!(retry_wait(Some("0"), backoff), backoff);
        // An in-range hint is honored (whitespace tolerated).
        assert_eq!(retry_wait(Some("1"), backoff), Duration::from_secs(1));
        assert_eq!(retry_wait(Some(" 2 "), backoff), RETRY_WAIT_CAP);
        // A huge hint (misconfigured peer, u64 seconds) hits the cap
        // instead of stalling the caller for days.
        assert_eq!(retry_wait(Some("99999"), backoff), RETRY_WAIT_CAP);
        assert_eq!(
            retry_wait(Some("18446744073709551615"), backoff),
            RETRY_WAIT_CAP
        );
    }

    #[test]
    fn retry_wait_never_shrinks_an_oversized_backoff() {
        // Degenerate case: if the backoff step somehow exceeds the cap,
        // the clamp must not invert (Duration::clamp panics when
        // min > max) — the wait is the backoff itself.
        let big = RETRY_WAIT_CAP * 3;
        assert_eq!(retry_wait(Some("1"), big), big);
        assert_eq!(retry_wait(None, big), big);
    }

    #[test]
    fn post_retry_returns_non_429_immediately() {
        let (addr, server) = fake_server(vec![OK]);
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        let response = client.post_retry("/v1/jobs", "{}", 5).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(server.join().unwrap(), 1, "no retry on success");
    }

    /// Serve `response` once and return what a buffered POST and a
    /// streaming POST make of it.
    fn fetch_both(
        response: String,
    ) -> (std::io::Result<HttpResponse>, std::io::Result<Vec<String>>) {
        let (addr, server) = fake_server(vec![response.clone(), response]);
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        let buffered = client.post("/v1/jobs", "{}");
        let streamed = client
            .stream_post("/v1/tune", "{}")
            .and_then(|(_, _, mut events)| events.collect_lines());
        assert_eq!(server.join().unwrap(), 2);
        (buffered, streamed)
    }

    fn assert_refused<T: std::fmt::Debug>(result: std::io::Result<T>) {
        let err = result.expect_err("an over-cap length must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn huge_content_length_is_refused_without_allocating() {
        // 2^62 bytes: sizing a buffer from it aborts the process.
        let (buffered, streamed) = fetch_both(
            "HTTP/1.1 200 OK\r\nContent-Length: 4611686018427387904\r\n\r\nok".to_string(),
        );
        assert_refused(buffered);
        // A streaming read of a fixed-length body is not sized from the
        // header; it reads what arrives.
        assert_eq!(streamed.unwrap(), vec!["ok".to_string()]);

        let just_over = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nok",
            MAX_RESPONSE_BYTES + 1
        );
        assert_refused(fetch_both(just_over).0);
    }

    #[test]
    fn huge_chunk_size_is_refused() {
        let (buffered, streamed) = fetch_both(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nok\r\n0\r\n\r\n"
                .to_string(),
        );
        assert_refused(buffered);
        assert_refused(streamed);
    }

    #[test]
    fn chunks_summing_over_the_cap_are_refused() {
        // Each chunk is under the cap; together they are over it. The
        // second size is refused before any of its bytes are read.
        let response = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n{:x}\r\nxx\r\n0\r\n\r\n",
            MAX_RESPONSE_BYTES - 1
        );
        let (buffered, streamed) = fetch_both(response);
        assert_refused(buffered);
        assert_refused(streamed);
    }

    #[test]
    fn an_endless_header_line_is_refused() {
        let response = format!(
            "HTTP/1.1 200 OK\r\nX-Filler: {}\r\n\r\nok",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        let (buffered, streamed) = fetch_both(response);
        assert_refused(buffered);
        assert_refused(streamed);
    }

    #[test]
    fn chunked_bodies_under_the_cap_still_read() {
        let (buffered, streamed) = fetch_both(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\na\nb\r\n2\r\nc\n\r\n0\r\n\r\n"
                .to_string(),
        );
        assert_eq!(buffered.unwrap().body, "a\nbc\n");
        assert_eq!(streamed.unwrap(), vec!["a".to_string(), "bc".to_string()]);
    }
}
