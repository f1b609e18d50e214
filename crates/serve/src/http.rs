//! Minimal HTTP/1.1 framing over blocking `TcpStream`s.
//!
//! Only the slice of the protocol the front door needs: request-line +
//! header parsing with `Content-Length` bodies on the way in, and
//! either fixed-length or `Transfer-Encoding: chunked` responses on
//! the way out. Reads run under a socket read-timeout so connection
//! threads wake periodically to observe the server's stop flag instead
//! of blocking in `read` forever.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on request head (request line + headers) size.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Longest a request may take from its first byte to its last. Heads
/// and bodies are size-capped (`MAX_HEAD_BYTES`, `max_body`), so a
/// client still sending after this long is stalled, not slow; it gets
/// `408` and the connection closes instead of pinning its thread.
const MAX_REQUEST_DURATION: Duration = Duration::from_secs(5);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, without query string.
    pub path: String,
    /// Raw query string (text after `?`), if any.
    pub query: Option<String>,
    /// Headers as `(lower-case name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, the HTTP/1.1 default being
    /// keep-alive).
    pub close: bool,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The bearer token from the `Authorization` header, if present.
    pub fn bearer_token(&self) -> Option<&str> {
        let auth = self.header("authorization")?;
        let rest = auth
            .strip_prefix("Bearer ")
            .or_else(|| auth.strip_prefix("bearer "))?;
        Some(rest.trim())
    }
}

/// What `read_request` observed on the wire.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was framed.
    Request(Request),
    /// The peer closed the connection (or sent garbage we refuse to
    /// parse; either way the connection is done).
    Closed,
    /// The read timed out with no request in flight — an idle poll.
    /// The caller should check its stop flag and try again.
    Idle,
    /// A request was begun but not finished within
    /// `MAX_REQUEST_DURATION`; the caller answers `408` and closes.
    TimedOut,
}

/// Reads one request from `stream`, polling at the stream's configured
/// read-timeout granularity.
///
/// A timeout with **no bytes buffered** surfaces as [`ReadOutcome::Idle`]
/// so the connection loop can observe shutdown; a timeout **mid-request**
/// keeps reading (slow clients are not dropped between TCP segments)
/// until `MAX_REQUEST_DURATION` has passed since the request's first
/// byte ([`ReadOutcome::TimedOut`]) or `stop` is set, which abandons the
/// half-read request as [`ReadOutcome::Closed`]. Oversized heads and
/// bodies (`max_body`) produce an error the caller maps to `431`/`413`.
pub fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_body: usize,
    stop: &AtomicBool,
) -> io::Result<ReadOutcome> {
    // Bytes left over from a pipelined predecessor start the clock now.
    let mut first_byte = (!buf.is_empty()).then(Instant::now);
    loop {
        // A full head already buffered? Frame it (plus body) below.
        if let Some(head_end) = find_head_end(buf) {
            return frame_request(stream, buf, head_end, max_body, first_byte, stop);
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if let Some(outcome) = read_step(stream, buf, &mut first_byte, stop)? {
            return Ok(outcome);
        }
    }
}

/// One read of an unfinished request into `into`. `Ok(None)` means
/// keep going (bytes arrived, or a mid-request poll with patience
/// left); `Ok(Some(_))` is the outcome that ends the request.
fn read_step(
    stream: &mut TcpStream,
    into: &mut Vec<u8>,
    first_byte: &mut Option<Instant>,
    stop: &AtomicBool,
) -> io::Result<Option<ReadOutcome>> {
    // Checked before every read, not only on a timeout: a client
    // trickling one byte per poll never times a read out.
    if first_byte.is_some_and(|t| t.elapsed() >= MAX_REQUEST_DURATION) {
        return Ok(Some(ReadOutcome::TimedOut));
    }
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Ok(Some(ReadOutcome::Closed)),
        Ok(n) => {
            into.extend_from_slice(&chunk[..n]);
            first_byte.get_or_insert_with(Instant::now);
            Ok(None)
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(match first_byte {
                None => Some(ReadOutcome::Idle),
                Some(_) if stop.load(Ordering::SeqCst) => Some(ReadOutcome::Closed),
                Some(_) => None,
            })
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
        Err(e) => Err(e),
    }
}

/// Byte offset just past the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn frame_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    head_end: usize,
    max_body: usize,
    mut first_byte: Option<Instant>,
    stop: &AtomicBool,
) -> io::Result<ReadOutcome> {
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Ok(ReadOutcome::Closed),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let close = headers
        .iter()
        .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));

    // Pull the body: whatever is already buffered past the head, then
    // read the remainder (tolerating read-timeout polls).
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        if let Some(outcome) = read_step(stream, &mut body, &mut first_byte, stop)? {
            return Ok(outcome);
        }
    }
    // Bytes past the body belong to the next pipelined request.
    let leftover = body.split_off(content_length);
    buf.clear();
    buf.extend_from_slice(&leftover);

    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        headers,
        body,
        close,
    }))
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Incremental writer for a `Transfer-Encoding: chunked` response.
///
/// Large skylines stream through this one page at a time, so the
/// server never buffers a whole result body; a failed write mid-stream
/// (client disconnected) surfaces as an `Err` the connection loop
/// treats as a hangup.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(stream: &'a mut TcpStream, status: u16, content_type: &str) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n\r\n",
            status,
            reason(status),
            content_type,
        );
        stream.write_all(head.as_bytes())?;
        Ok(Self { stream })
    }

    /// Emits one chunk (empty input is skipped; an empty chunk would
    /// terminate the stream early).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Applies the idle-poll read timeout to a connection socket.
pub fn configure(stream: &TcpStream, poll: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(poll.max(Duration::from_millis(1))))?;
    stream.set_nodelay(true)
}
