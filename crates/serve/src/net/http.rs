//! Minimal hand-rolled HTTP/1.1 support for the observability gateway
//! (`gps serve --http-addr`).
//!
//! This is deliberately not a web framework: it parses exactly enough of
//! HTTP/1.1 to serve a metrics scraper and a JSON client — request line,
//! headers, `Content-Length` bodies — over the same event loops as the
//! frame protocol. Chunked transfer encoding is refused (501), headers
//! are capped (431), bodies are capped (413), and a torn or oversized
//! request answers with the right status before the connection closes,
//! so one confused client can't wedge a loop.
//!
//! Routes:
//!
//! | method | path           | answer                                    |
//! |--------|----------------|-------------------------------------------|
//! | GET    | `/healthz`     | `ok` (liveness, no locks taken)           |
//! | GET    | `/metrics`     | Prometheus text exposition                |
//! | GET    | `/stats`       | the `stats` command's JSON                |
//! | GET    | `/models`      | the `list-models` command's JSON          |
//! | POST   | `/predict`     | body = predict request JSON (sans `cmd`)  |
//! | POST   | `/batch`       | body = batch request JSON (sans `cmd`)    |
//! | POST   | `/reset-stats` | the `reset-stats` command's JSON          |
//!
//! The JSON endpoints run the exact `proto::classify` core the wire
//! protocol runs, so an HTTP predict answer is byte-identical to the
//! JSON-wire answer for the same query (the HTTP-parity e2e asserts it).

use gps_types::HistogramSnapshot;

use crate::server::{PredictionServer, StatsSnapshot};

/// Largest accepted request head (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Largest accepted request body.
pub(crate) const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HttpRequest {
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// HTTP/1.1 defaults to keep-alive; `Connection: close` (or
    /// HTTP/1.0 without `keep-alive`) turns it off.
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

/// A fatal parse failure: answered with `status`, then the connection
/// closes (the stream position can no longer be trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

enum ParseState {
    /// Accumulating the request head up to the blank line.
    Head,
    /// Head parsed; awaiting `remaining` body bytes.
    Body {
        request: HttpRequest,
        remaining: usize,
    },
}

/// Incremental HTTP/1.1 request parser, the HTTP analogue of
/// [`FrameDecoder`](super::FrameDecoder): feed arbitrary byte chunks,
/// collect complete requests. Pipelined requests in one chunk all come
/// out; a parse error is fatal for the connection.
pub(crate) struct HttpParser {
    buf: Vec<u8>,
    state: ParseState,
}

impl Default for HttpParser {
    fn default() -> Self {
        HttpParser {
            buf: Vec::new(),
            state: ParseState::Head,
        }
    }
}

impl HttpParser {
    /// Feed bytes; completed requests append to `out`. `Err` is fatal —
    /// answer it, then close.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<HttpRequest>) -> Result<(), HttpError> {
        self.buf.extend_from_slice(bytes);
        loop {
            match &mut self.state {
                ParseState::Head => {
                    let Some(head_end) = find_head_end(&self.buf) else {
                        if self.buf.len() > MAX_HEAD_BYTES {
                            return Err(HttpError::new(431, "request head too large"));
                        }
                        return Ok(());
                    };
                    if head_end > MAX_HEAD_BYTES {
                        return Err(HttpError::new(431, "request head too large"));
                    }
                    let head = self.buf[..head_end].to_vec();
                    self.buf.drain(..head_end + 4);
                    let (request, body_len) = parse_head(&head)?;
                    self.state = ParseState::Body {
                        request,
                        remaining: body_len,
                    };
                }
                ParseState::Body { request, remaining } => {
                    if self.buf.len() < *remaining {
                        return Ok(());
                    }
                    let mut request = std::mem::replace(
                        request,
                        HttpRequest {
                            method: String::new(),
                            path: String::new(),
                            keep_alive: false,
                            body: Vec::new(),
                        },
                    );
                    request.body = self.buf.drain(..*remaining).collect();
                    self.state = ParseState::Head;
                    out.push(request);
                }
            }
        }
    }

    /// Whether the parser sits between requests (an EOF here is a clean
    /// close, mirroring `FrameDecoder::at_boundary`).
    pub fn at_boundary(&self) -> bool {
        matches!(self.state, ParseState::Head) && self.buf.is_empty()
    }
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse one request head into the request (body empty) plus the
/// declared body length.
fn parse_head(head: &[u8]) -> Result<(HttpRequest, usize), HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::new(400, "head is not utf-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::new(505, "only HTTP/1.0 and 1.1 are supported")),
    };
    let mut keep_alive = http11;
    let mut body_len = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "malformed header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                body_len = value
                    .parse::<usize>()
                    .map_err(|_| HttpError::new(400, "bad content-length"))?;
                if body_len > MAX_BODY_BYTES {
                    return Err(HttpError::new(413, "request body too large"));
                }
            }
            "transfer-encoding" => {
                return Err(HttpError::new(501, "transfer-encoding is not supported"));
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    // Route on the path alone; query strings are accepted and ignored.
    let path = target.split(['?', '#']).next().unwrap_or("").to_string();
    Ok((
        HttpRequest {
            method: method.to_string(),
            path,
            keep_alive,
            body: Vec::new(),
        },
        body_len,
    ))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// Append one complete HTTP/1.1 response to `out`.
pub(crate) fn append_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status_text(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
}

/// Append the response for a fatal parse error (always `Connection:
/// close` — the stream is desynchronized).
pub(crate) fn append_error(out: &mut Vec<u8>, error: &HttpError) {
    let body = format!("{}\n", error.message);
    append_response(out, error.status, "text/plain", body.as_bytes(), false);
}

/// Where a routed request goes.
pub(crate) enum Routed {
    /// A finished non-JSON response (metrics text, health probe, 404s).
    Raw {
        status: u16,
        content_type: &'static str,
        body: String,
    },
    /// JSON-command semantics: run `text` through the shared
    /// `proto::classify` core (the parity guarantee).
    Command { text: String },
}

impl Routed {
    fn raw(status: u16, content_type: &'static str, body: impl Into<String>) -> Routed {
        Routed::Raw {
            status,
            content_type,
            body: body.into(),
        }
    }
}

/// Map one request onto the serving core.
pub(crate) fn route(server: &PredictionServer, request: &HttpRequest) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            if server.is_draining() {
                Routed::raw(503, "text/plain", "draining\n")
            } else {
                Routed::raw(200, "text/plain", "ok\n")
            }
        }
        ("GET", "/metrics") => {
            Routed::raw(200, "text/plain; version=0.0.4", render_metrics(server))
        }
        ("GET", "/stats") => Routed::Command {
            text: "{\"cmd\":\"stats\"}".to_string(),
        },
        ("GET", "/models") => Routed::Command {
            text: "{\"cmd\":\"list-models\"}".to_string(),
        },
        ("POST", "/reset-stats") => Routed::Command {
            text: "{\"cmd\":\"reset-stats\"}".to_string(),
        },
        ("POST", "/shutdown") => Routed::Command {
            text: "{\"cmd\":\"shutdown\"}".to_string(),
        },
        ("POST", "/predict") => command_from_body(request, "predict"),
        ("POST", "/batch") => command_from_body(request, "batch"),
        (_, "/healthz" | "/metrics" | "/stats" | "/models")
        | (_, "/reset-stats" | "/shutdown" | "/predict" | "/batch") => {
            Routed::raw(405, "text/plain", "method not allowed\n")
        }
        _ => Routed::raw(404, "text/plain", "not found\n"),
    }
}

/// Inject `"cmd"` into a JSON request body. Unparseable or non-object
/// bodies pass through untouched: the shared classify core produces the
/// same `bad json` / `missing cmd` error a wire client would get (as a
/// 400, via the `ok:false` mapping).
fn command_from_body(request: &HttpRequest, cmd: &str) -> Routed {
    let text = String::from_utf8_lossy(&request.body);
    match gps_types::Json::parse(&text) {
        Ok(mut json) if matches!(json, gps_types::Json::Obj(_)) => {
            json.set("cmd", cmd);
            let mut out = String::new();
            json.write(&mut out);
            Routed::Command { text: out }
        }
        _ => Routed::Command {
            text: text.into_owned(),
        },
    }
}

fn label_escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One histogram in Prometheus exposition format: cumulative buckets
/// with `le` in seconds, plus `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate() {
        cumulative += count;
        let le = match snap.bounds_ns.get(i) {
            Some(&bound) => (bound as f64 / 1e9).to_string(),
            None => "+Inf".to_string(),
        };
        let sep = if labels.is_empty() { "" } else { "," };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!(
        "{name}_sum{braces} {}\n",
        snap.sum_ns as f64 / 1e9
    ));
    out.push_str(&format!("{name}_count{braces} {}\n", snap.count));
}

/// The Prometheus text exposition of everything the server counts.
pub(crate) fn render_metrics(server: &PredictionServer) -> String {
    let stats = server.stats();
    let mut out = String::with_capacity(4096);
    render_server_metrics(&mut out, &stats, server.query_log_dropped());
    out
}

fn render_server_metrics(out: &mut String, stats: &StatsSnapshot, query_log_dropped: u64) {
    use std::fmt::Write as _;
    let w = out;

    let _ = writeln!(w, "# HELP gps_build_info Build metadata (constant 1).");
    let _ = writeln!(w, "# TYPE gps_build_info gauge");
    let _ = writeln!(
        w,
        "gps_build_info{{version=\"{}\"}} 1",
        label_escape(&stats.version)
    );

    let _ = writeln!(
        w,
        "# HELP gps_uptime_seconds Seconds since the server started."
    );
    let _ = writeln!(w, "# TYPE gps_uptime_seconds gauge");
    let _ = writeln!(w, "gps_uptime_seconds {}", stats.uptime_secs);

    let _ = writeln!(
        w,
        "# HELP gps_draining Whether the server is draining (1 = shutdown in progress)."
    );
    let _ = writeln!(w, "# TYPE gps_draining gauge");
    let _ = writeln!(w, "gps_draining {}", u8::from(stats.draining));

    let _ = writeln!(
        w,
        "# HELP gps_requests_total Requests served, by wire and endpoint."
    );
    let _ = writeln!(w, "# TYPE gps_requests_total counter");
    for (wire, endpoint, snap) in &stats.hists {
        let _ = writeln!(
            w,
            "gps_requests_total{{wire=\"{wire}\",endpoint=\"{endpoint}\"}} {}",
            snap.count
        );
    }

    let _ = writeln!(w, "# HELP gps_reloads_total Completed model reloads.");
    let _ = writeln!(w, "# TYPE gps_reloads_total counter");
    let _ = writeln!(w, "gps_reloads_total {}", stats.reloads);

    for (name, help, value) in [
        (
            "gps_conns_accepted_total",
            "Connections accepted.",
            stats.conns_accepted,
        ),
        (
            "gps_conns_closed_total",
            "Connections closed.",
            stats.conns_closed,
        ),
        (
            "gps_conns_timed_out_total",
            "Connections closed by idle timeout.",
            stats.conns_timed_out,
        ),
        (
            "gps_conns_rejected_total",
            "Connections dropped at the max-conns gate.",
            stats.conns_rejected,
        ),
    ] {
        let _ = writeln!(w, "# HELP {name} {help}");
        let _ = writeln!(w, "# TYPE {name} counter");
        let _ = writeln!(w, "{name} {value}");
    }
    let _ = writeln!(w, "# HELP gps_conns_active Connections currently held.");
    let _ = writeln!(w, "# TYPE gps_conns_active gauge");
    let _ = writeln!(w, "gps_conns_active {}", stats.conns_active);

    let _ = writeln!(
        w,
        "# HELP gps_query_log_dropped_total Query-log records dropped (ring full)."
    );
    let _ = writeln!(w, "# TYPE gps_query_log_dropped_total counter");
    let _ = writeln!(w, "gps_query_log_dropped_total {query_log_dropped}");

    let _ = writeln!(
        w,
        "# HELP gps_request_latency_seconds Request latency, by wire and endpoint."
    );
    let _ = writeln!(w, "# TYPE gps_request_latency_seconds histogram");
    for (wire, endpoint, snap) in &stats.hists {
        render_histogram(
            w,
            "gps_request_latency_seconds",
            &format!("wire=\"{wire}\",endpoint=\"{endpoint}\""),
            snap,
        );
    }

    let _ = writeln!(
        w,
        "# HELP gps_model_requests_total Requests answered per model."
    );
    let _ = writeln!(w, "# TYPE gps_model_requests_total counter");
    for model in &stats.models {
        let _ = writeln!(
            w,
            "gps_model_requests_total{{model=\"{}\"}} {}",
            label_escape(&model.id),
            model.requests
        );
    }
    let _ = writeln!(
        w,
        "# HELP gps_model_generation Model generation (0 = as registered, +1 per reload)."
    );
    let _ = writeln!(w, "# TYPE gps_model_generation gauge");
    for model in &stats.models {
        let _ = writeln!(
            w,
            "gps_model_generation{{model=\"{}\"}} {}",
            label_escape(&model.id),
            model.generation
        );
    }
    let _ = writeln!(
        w,
        "# HELP gps_model_last_reload_timestamp_seconds Unix time of the model's last reload."
    );
    let _ = writeln!(w, "# TYPE gps_model_last_reload_timestamp_seconds gauge");
    for model in &stats.models {
        if let Some(ts) = model.last_reload_unix {
            let _ = writeln!(
                w,
                "gps_model_last_reload_timestamp_seconds{{model=\"{}\"}} {ts}",
                label_escape(&model.id)
            );
        }
    }
    let _ = writeln!(
        w,
        "# HELP gps_model_request_latency_seconds Request latency per model, wire, endpoint."
    );
    let _ = writeln!(w, "# TYPE gps_model_request_latency_seconds histogram");
    for model in &stats.models {
        for (wire, endpoint, snap) in &model.hists {
            render_histogram(
                w,
                "gps_model_request_latency_seconds",
                &format!(
                    "model=\"{}\",wire=\"{wire}\",endpoint=\"{endpoint}\"",
                    label_escape(&model.id)
                ),
                snap,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(parser: &mut HttpParser, bytes: &[u8]) -> Result<Vec<HttpRequest>, HttpError> {
        let mut out = Vec::new();
        parser.feed(bytes, &mut out)?;
        Ok(out)
    }

    #[test]
    fn parses_a_simple_get() {
        let mut parser = HttpParser::default();
        let reqs = feed_all(&mut parser, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/healthz");
        assert!(reqs[0].keep_alive);
        assert!(reqs[0].body.is_empty());
        assert!(parser.at_boundary());
    }

    #[test]
    fn reassembles_torn_requests_bytewise() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut parser = HttpParser::default();
        let mut out = Vec::new();
        for &b in raw.iter() {
            parser.feed(&[b], &mut out).unwrap();
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].body, b"body");
    }

    #[test]
    fn pipelined_requests_in_one_chunk() {
        let mut parser = HttpParser::default();
        let reqs = feed_all(
            &mut parser,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].path, "/a");
        assert_eq!(reqs[1].path, "/b");
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let mut parser = HttpParser::default();
        let reqs = feed_all(
            &mut parser,
            b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\nGET /b HTTP/1.0\r\n\r\nGET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        )
        .unwrap();
        assert!(!reqs[0].keep_alive, "explicit close");
        assert!(!reqs[1].keep_alive, "1.0 defaults to close");
        assert!(reqs[2].keep_alive, "1.0 + keep-alive header");
    }

    #[test]
    fn oversized_head_is_431() {
        let mut parser = HttpParser::default();
        let mut big = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        let err = feed_all(&mut parser, &big).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn oversized_body_is_413_and_chunked_is_501() {
        let mut parser = HttpParser::default();
        let err = feed_all(
            &mut parser,
            format!(
                "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        )
        .unwrap_err();
        assert_eq!(err.status, 413);
        let mut parser = HttpParser::default();
        let err = feed_all(
            &mut parser,
            b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(err.status, 501);
    }

    #[test]
    fn garbage_request_line_is_400() {
        let mut parser = HttpParser::default();
        let err = feed_all(&mut parser, b"NONSENSE\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 400);
        let mut parser = HttpParser::default();
        let err = feed_all(&mut parser, b"GET / SPDY/3\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 505);
    }

    #[test]
    fn query_strings_are_stripped_for_routing() {
        let mut parser = HttpParser::default();
        let reqs = feed_all(&mut parser, b"GET /metrics?probe=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(reqs[0].path, "/metrics");
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        append_response(&mut out, 200, "text/plain", b"ok\n", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
        let mut out = Vec::new();
        append_error(&mut out, &HttpError::new(431, "request head too large"));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 431 "));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn histogram_rendering_is_cumulative_with_inf() {
        let hist = crate::hist::LatencyHistogram::default();
        hist.record(100);
        hist.record(600);
        hist.record(600);
        let mut out = String::new();
        render_histogram(&mut out, "m", "wire=\"json\"", &hist.snapshot());
        assert!(out.contains("m_bucket{wire=\"json\",le=\"0.000000512\"} 1\n"));
        assert!(out.contains("m_bucket{wire=\"json\",le=\"0.000001024\"} 3\n"));
        assert!(out.contains("m_bucket{wire=\"json\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("m_count{wire=\"json\"} 3\n"));
    }
}
