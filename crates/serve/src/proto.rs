//! Wire protocol: length-prefixed frames over TCP, in two negotiated
//! payload formats.
//!
//! Every message is a 4-byte big-endian length followed by that many
//! payload bytes. A connection's *first* frame negotiates what the
//! payloads are (`net::decoder`): a payload opening with the `GPSQ` magic
//! makes it a binary session (`crate::wire` — the hot-path format: no
//! text encode/decode, rankings as varint-delta ports + raw f64 bits);
//! anything else is a JSON session, the original protocol described
//! here. The choice is sticky per connection; both formats answer every
//! command identically (asserted by the wire-format × transport parity
//! e2e matrix). JSON requests are objects with a `cmd` field:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"predict","ip":"10.1.2.3","open":[80,443],"asn":7,"top":8}
//! {"cmd":"predict","ip":"10.1.2.3","model":"lzr-day3"}  — pick a model id
//! {"cmd":"batch","queries":[{"ip":...}, ...],"model":"quick"}
//! {"cmd":"stats"}                        — includes per-model breakdown
//! {"cmd":"manifest"}                     — optional "model" id too
//! {"cmd":"reload"}                       — re-read the served snapshot file
//! {"cmd":"reload","model":"/path.gpsb"}  — switch to a different snapshot
//! {"cmd":"reload","name":"quick"}        — reload a specific model id
//! {"cmd":"load","name":"b","model":"/b.gpsb"}  — register a new model
//! {"cmd":"unload","name":"b"}            — drop a model (not the default)
//! {"cmd":"list-models"}                  — every model id + its counters
//! {"cmd":"shutdown"}                     — drain: stop accepting, finish
//!                                          in-flight work, flush the query
//!                                          log, close connections
//! ```
//!
//! The server holds a *registry* of models keyed by id (`server.rs`); a
//! frame without `"model"`/`"name"` routes to the default model, so
//! pre-registry clients work unchanged. On query/batch/manifest frames
//! `"model"` is a model *id*; on `reload`/`load` frames `"model"` remains
//! the snapshot *path* it always was, and `"name"` carries the id.
//!
//! Successful responses carry `"ok":true` plus the payload; failures carry
//! `"ok":false` and an `"error"` string (a malformed request never kills
//! the connection; an unknown model id is an error reply like any other).
//! A request may carry an `"id"` (any JSON value); the response — success
//! *or* error — echoes it verbatim, so pipelining clients can correlate
//! failures with the request that caused them.
//!
//! `reload` swaps a served model with zero downtime (see the epoch slots
//! in `server.rs`); like `stats`, the admin commands are trusted-operator
//! surface — anyone who can reach the port can point the server at a
//! different snapshot *file path*, so bind to loopback or put an
//! authenticating proxy in front. The server is std-only and speaks this
//! protocol over either of two transports (`crate::transport`): the
//! thread-per-connection loop in this module — simplest, lowest latency
//! at moderate fan-in — and the event-driven loop in `crate::net`, which
//! multiplexes tens of thousands of mostly-idle connections over a few
//! threads. Request handling is shared (`classify` + the response
//! builders), so the transports answer identically.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::artifact::{Query, Ranked};
use crate::hist::{EndpointLabel, WireLabel};
use crate::net::http;
use crate::net::{FrameDecoder, WireFormat};
use crate::server::{unix_now_millis, ModelEntry, PredictionServer};
use crate::transport::TransportConfig;
use crate::wire;
use gps_types::binary::ByteWriter;
use gps_types::json::Json;
use gps_types::{Ip, JsonCodec, Port, QueryLogRecord};

/// Frames above this many bytes are rejected (a length prefix is attacker
/// input; without a cap a single frame could balloon memory).
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Largest batch a single `batch` request may carry.
pub const MAX_BATCH_QUERIES: usize = 65_536;

/// Most open-port evidence entries a single query may carry. Each entry
/// is a rule lookup per trained key class, so unbounded lists from the
/// wire would let one small frame buy unbounded kernel time.
pub const MAX_OPEN_PORTS: usize = 64;

/// Largest `top` a query may request over the wire (bounds response size).
pub const MAX_TOP: usize = 65_536;

/// Write one length-prefixed JSON frame.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let mut text = String::new();
    json.write(&mut text);
    let len = u32::try_from(text.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF before a length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    match read_frame_text(r)? {
        None => Ok(None),
        Some(text) => Json::parse(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Read one frame's payload text; `Ok(None)` on clean EOF before a length
/// prefix. Errors here are *framing* errors (truncation, size cap,
/// non-UTF-8): the stream position can no longer be trusted, so the
/// connection must close. Whether the text parses is the caller's concern
/// — the server replies to well-framed garbage instead of disconnecting.
pub fn read_frame_text(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    match read_frame_payload(r, &mut decoder)? {
        None => Ok(None),
        // The fresh decoder negotiated from this very frame; a GPSQ
        // payload negotiates Binary and is refused here (the caller asked
        // for text).
        Some(payload) => match decoder.format() {
            Some(WireFormat::Json) | None => {
                Ok(Some(String::from_utf8(payload).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "frame is not utf-8")
                })?))
            }
            Some(WireFormat::Binary) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected a JSON frame, got GPSQ",
            )),
        },
    }
}

/// Read one frame's payload bytes through a *persistent* per-connection
/// decoder (which carries the negotiated wire format across frames);
/// `Ok(None)` on clean EOF before a length prefix. Errors here are
/// *framing* errors (truncation, size cap, non-UTF-8 in a JSON session, a
/// format flip mid-session): the stream position can no longer be
/// trusted, so the connection must close. Whether the payload parses is
/// the caller's concern — the server replies to well-framed garbage
/// instead of disconnecting.
pub(crate) fn read_frame_payload(
    r: &mut impl Read,
    decoder: &mut FrameDecoder,
) -> io::Result<Option<Vec<u8>>> {
    // Driven with exact-sized reads (`need()`), so a length prefix or body
    // torn across arbitrarily small TCP segments reassembles correctly
    // and no byte of the *next* frame is ever consumed. Only EOF before
    // the first length byte is a clean close; EOF midway through a frame
    // is truncation from a dead peer. Exact-sized reads also mean a feed
    // completes at most one frame, so nothing is ever buffered between
    // calls except inside the decoder itself.
    let mut frames = Vec::with_capacity(1);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let want = decoder.need().min(chunk.len());
        let n = match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return if decoder.at_boundary() {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        decoder
            .feed(&chunk[..n], &mut frames)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(payload) = frames.pop() {
            return Ok(Some(payload));
        }
    }
}

/// Encode a query for the wire.
pub fn query_to_json(query: &Query) -> Json {
    let mut json = Json::obj();
    json.set("ip", query.ip.to_json());
    if !query.open.is_empty() {
        json.set(
            "open",
            query.open.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
        );
    }
    if let Some(asn) = query.asn {
        json.set("asn", asn);
    }
    if query.top > 0 {
        json.set("top", query.top);
    }
    json
}

/// Decode a query from the wire.
pub fn query_from_json(json: &Json) -> Result<Query, String> {
    let ip =
        Ip::from_json(json.req("ip").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let mut query = Query::new(ip);
    if let Some(open) = json.get("open") {
        let open = open.as_arr().ok_or("open must be an array")?;
        if open.len() > MAX_OPEN_PORTS {
            return Err(format!("open lists at most {MAX_OPEN_PORTS} ports"));
        }
        for port in open {
            query
                .open
                .push(Port::from_json(port).map_err(|e| e.to_string())?);
        }
    }
    if let Some(asn) = json.get("asn") {
        query.asn = Some(
            asn.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("bad asn")?,
        );
    }
    if let Some(top) = json.get("top") {
        let top = top.as_u64().ok_or("bad top")? as usize;
        if top > MAX_TOP {
            return Err(format!("top is capped at {MAX_TOP}"));
        }
        query.top = top;
    }
    Ok(query)
}

/// `[[port, prob], ...]`.
pub fn ranked_to_json(ranked: &Ranked) -> Json {
    Json::Arr(
        ranked
            .iter()
            .map(|&(port, prob)| Json::Arr(vec![port.to_json(), Json::Num(prob)]))
            .collect(),
    )
}

/// Inverse of [`ranked_to_json`].
pub fn ranked_from_json(json: &Json) -> Result<Ranked, String> {
    json.as_arr()
        .ok_or("predictions must be an array")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad prediction pair")?;
            let port = Port::from_json(&pair[0]).map_err(|e| e.to_string())?;
            let prob = pair[1].as_f64().ok_or("bad probability")?;
            Ok((port, prob))
        })
        .collect()
}

pub(crate) fn ok_response() -> Json {
    let mut json = Json::obj();
    json.set("ok", true);
    json
}

pub(crate) fn error_response(message: impl Into<String>) -> Json {
    let mut json = Json::obj();
    json.set("ok", false).set("error", message.into());
    json
}

/// Patch the length prefix reserved at `start` once the payload is in
/// place; `false` (with the frame rolled back) if the payload outgrew the
/// cap.
fn finish_frame(out: &mut Vec<u8>, start: usize) -> bool {
    let len = out.len() - start - 4;
    match u32::try_from(len).ok().filter(|&n| n <= MAX_FRAME_BYTES) {
        Some(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            true
        }
        None => {
            out.truncate(start);
            false
        }
    }
}

/// Append one length-prefixed JSON frame to `out`; `false` if it
/// exceeded the cap (the buffer is rolled back).
fn append_json_frame(out: &mut Vec<u8>, json: &Json) -> bool {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let mut text = String::new();
    json.write(&mut text);
    out.extend_from_slice(text.as_bytes());
    finish_frame(out, start)
}

/// Append one length-prefixed GPSQ frame, encoding the payload *directly
/// into `out`* through a [`ByteWriter`] wrapping it (no intermediate
/// buffer — this is the zero-copy half of the binary wire path); `false`
/// if it exceeded the cap (rolled back).
pub(crate) fn append_binary_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut ByteWriter)) -> bool {
    let start = out.len();
    let mut writer = ByteWriter::from_vec(std::mem::take(out));
    writer.put_bytes(&[0u8; 4]);
    encode(&mut writer);
    *out = writer.into_bytes();
    finish_frame(out, start)
}

/// The standard substitute when a legal request produced a response past
/// the frame cap (a huge batch against a rule-rich model can):
pub(crate) const OVERSIZE_REPLY: &str = "response exceeds frame size cap";

/// How the reply to one classified request frame must be encoded — the
/// per-request state a transport carries from classification to reply
/// serialization.
pub(crate) enum ReplyCtx {
    /// A JSON-session frame: set the echoed id, serialize as JSON text.
    Json { id: Option<Json> },
    /// A native GPSQ frame: varint id, binary response body.
    Binary { id: Option<u64> },
    /// A GPSQ admin envelope: JSON semantics (id included) inside a
    /// binary frame.
    BinaryAdmin { id: Option<Json> },
    /// An HTTP request: the body is the *same* JSON text a JSON-wire
    /// reply carries (parity by construction), wrapped in an HTTP/1.1
    /// response head — 200 on `"ok":true`, 400 otherwise.
    Http { id: Option<Json>, keep_alive: bool },
}

/// A finished (non-predict) reply, ready to serialize.
pub(crate) enum ReadyReply {
    /// JSON response on a JSON session.
    Json { response: Json, id: Option<Json> },
    /// GPSQ pong.
    Pong { id: Option<u64> },
    /// GPSQ native error.
    BinaryError { id: Option<u64>, message: String },
    /// JSON response riding in a GPSQ admin envelope.
    BinaryAdmin { response: Json, id: Option<Json> },
    /// JSON response riding in an HTTP/1.1 response.
    Http {
        response: Json,
        id: Option<Json>,
        keep_alive: bool,
    },
}

/// What one request frame classified into: a finished reply, or predict
/// work plus the context to encode its eventual answer.
pub(crate) enum FrameAction {
    Ready(ReadyReply),
    Predict {
        entry: Arc<ModelEntry>,
        queries: Vec<Query>,
        /// `batch` frames answer with the batch shape, singles with the
        /// single shape — in either format.
        batch: bool,
        ctx: ReplyCtx,
    },
}

/// An error reply shaped for the reply context.
pub(crate) fn ready_error(ctx: ReplyCtx, message: String) -> ReadyReply {
    match ctx {
        ReplyCtx::Json { id } => ReadyReply::Json {
            response: error_response(message),
            id,
        },
        ReplyCtx::Binary { id } => ReadyReply::BinaryError { id, message },
        ReplyCtx::BinaryAdmin { id } => ReadyReply::BinaryAdmin {
            response: error_response(message),
            id,
        },
        ReplyCtx::Http { id, keep_alive } => ReadyReply::Http {
            response: error_response(message),
            id,
            keep_alive,
        },
    }
}

/// Serialize a finished reply as one frame appended to `out`, falling
/// back to the standard over-cap error reply (id included, same format)
/// if it outgrew the frame cap.
pub(crate) fn encode_ready(reply: ReadyReply, out: &mut Vec<u8>) {
    match reply {
        ReadyReply::Json { mut response, id } => {
            if let Some(id) = &id {
                response.set("id", id.clone());
            }
            if !append_json_frame(out, &response) {
                let mut oversized = error_response(OVERSIZE_REPLY);
                if let Some(id) = &id {
                    oversized.set("id", id.clone());
                }
                assert!(
                    append_json_frame(out, &oversized),
                    "error frame fits the cap"
                );
            }
        }
        ReadyReply::Pong { id } => {
            assert!(
                append_binary_frame(out, |w| wire::encode_pong(id, w)),
                "pong fits the cap"
            );
        }
        ReadyReply::BinaryError { id, message } => {
            if !append_binary_frame(out, |w| wire::encode_error(id, &message, w)) {
                assert!(
                    append_binary_frame(out, |w| wire::encode_error(id, OVERSIZE_REPLY, w)),
                    "error frame fits the cap"
                );
            }
        }
        ReadyReply::BinaryAdmin { mut response, id } => {
            if let Some(id) = &id {
                response.set("id", id.clone());
            }
            let mut text = String::new();
            response.write(&mut text);
            if !append_binary_frame(out, |w| wire::encode_admin_response(&text, w)) {
                let mut oversized = error_response(OVERSIZE_REPLY);
                if let Some(id) = &id {
                    oversized.set("id", id.clone());
                }
                let mut text = String::new();
                oversized.write(&mut text);
                assert!(
                    append_binary_frame(out, |w| wire::encode_admin_response(&text, w)),
                    "error frame fits the cap"
                );
            }
        }
        ReadyReply::Http {
            mut response,
            id,
            keep_alive,
        } => {
            if let Some(id) = &id {
                response.set("id", id.clone());
            }
            // The body is exactly the JSON-wire reply text; the only
            // HTTP-ism is the status code mirroring the `ok` flag.
            let status = match response.get("ok").and_then(Json::as_bool) {
                Some(true) => 200,
                _ => 400,
            };
            let mut text = String::new();
            response.write(&mut text);
            text.push('\n');
            http::append_response(out, status, "application/json", text.as_bytes(), keep_alive);
        }
    }
}

/// Serialize the success reply for completed predict work as one frame
/// appended to `out` (both shapes, both formats), with the over-cap
/// fallback. On a binary session the ranking bytes are encoded straight
/// into `out` — no intermediate `String` or `Vec` per frame.
pub(crate) fn encode_predict_reply(
    ctx: &ReplyCtx,
    answers: &[Ranked],
    batch: bool,
    out: &mut Vec<u8>,
) {
    match ctx {
        ReplyCtx::Json { id } => encode_ready(
            ReadyReply::Json {
                response: predict_response(answers, batch),
                id: id.clone(),
            },
            out,
        ),
        ReplyCtx::Binary { id } => {
            if !append_binary_frame(out, |w| {
                wire::encode_predict_response(*id, answers, batch, w)
            }) {
                assert!(
                    append_binary_frame(out, |w| wire::encode_error(*id, OVERSIZE_REPLY, w)),
                    "error frame fits the cap"
                );
            }
        }
        ReplyCtx::BinaryAdmin { id } => encode_ready(
            ReadyReply::BinaryAdmin {
                response: predict_response(answers, batch),
                id: id.clone(),
            },
            out,
        ),
        ReplyCtx::Http { id, keep_alive } => encode_ready(
            ReadyReply::Http {
                response: predict_response(answers, batch),
                id: id.clone(),
                keep_alive: *keep_alive,
            },
            out,
        ),
    }
}

/// An optional string field that, when present, must actually be a
/// string (`Ok(None)` when absent).
fn optional_str<'a>(request: &'a Json, field: &str) -> Result<Option<&'a str>, String> {
    match request.get(field) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(format!("{field} must be a string")),
    }
}

/// How one request frame is to be answered. `classify` is the request
/// core both transports share: every command except the predicts is
/// fully computed here; the predicts come back as *work* (the resolved
/// model entry plus parsed queries), which the transport answers through
/// `PredictionServer::answer` and encodes straight into its outbound
/// buffer. Running the same classification and the same response
/// builders is what makes the two transports answer byte-identically —
/// asserted by the transport-parity e2e suite.
pub(crate) enum Action {
    /// The response, finished.
    Ready(Json),
    /// Predict work: answer every query in `queries`, then reply with
    /// [`predict_response`].
    Predict {
        entry: Arc<ModelEntry>,
        queries: Vec<Query>,
        /// `batch` frames answer with `"results"`, singles with
        /// `"predictions"`.
        batch: bool,
    },
}

/// Build the success reply for completed predict work (both shapes).
pub(crate) fn predict_response(answers: &[Ranked], batch: bool) -> Json {
    let mut json = ok_response();
    if batch {
        json.set(
            "results",
            answers.iter().map(ranked_to_json).collect::<Vec<_>>(),
        );
    } else {
        json.set("predictions", ranked_to_json(&answers[0]));
    }
    json
}

/// Classify one request frame into a finished response or predict work.
pub(crate) fn classify(server: &PredictionServer, request: &Json) -> Action {
    let ready = Action::Ready;
    let cmd = match request.get("cmd").and_then(Json::as_str) {
        Some(cmd) => cmd,
        None => return ready(error_response("missing cmd")),
    };
    // On query-shaped frames `"model"` is a registry id; absence means
    // the default model (the pre-registry wire behavior, unchanged).
    let model_id = match optional_str(request, "model") {
        Ok(id) => id,
        Err(e) => return ready(error_response(e)),
    };
    // Resolve the serving entry for the predict commands up front so the
    // unknown-model error is identical on both shapes.
    let resolve = |id: Option<&str>| -> Result<Arc<ModelEntry>, String> {
        match id {
            None => Ok(server.default_entry().clone()),
            Some(id) => server.entry(id),
        }
    };
    match cmd {
        "ping" => {
            let mut json = ok_response();
            json.set("pong", true);
            ready(json)
        }
        "predict" => match query_from_json(request) {
            Ok(query) => match resolve(model_id) {
                Ok(entry) => Action::Predict {
                    entry,
                    queries: vec![query],
                    batch: false,
                },
                Err(e) => ready(error_response(e)),
            },
            Err(e) => ready(error_response(e)),
        },
        "batch" => {
            let queries = match request.get("queries").and_then(Json::as_arr) {
                Some(items) if items.len() <= MAX_BATCH_QUERIES => items,
                Some(_) => return ready(error_response("batch too large")),
                None => return ready(error_response("missing queries")),
            };
            let mut parsed = Vec::with_capacity(queries.len());
            for q in queries {
                match query_from_json(q) {
                    Ok(query) => parsed.push(query),
                    Err(e) => return ready(error_response(e)),
                }
            }
            match resolve(model_id) {
                Ok(entry) => Action::Predict {
                    entry,
                    queries: parsed,
                    batch: true,
                },
                Err(e) => ready(error_response(e)),
            }
        }
        "stats" => {
            let mut json = ok_response();
            json.set("stats", server.stats().to_json());
            ready(json)
        }
        "reset-stats" => {
            // Zero traffic counters and histograms (global and per model);
            // generations, registry membership, connection gauges, and
            // uptime are untouched. Lets a bench reuse one server across
            // phases without the first phase polluting the second's
            // numbers.
            server.reset_stats();
            ready(ok_response())
        }
        "manifest" => {
            let (model, generation) = match model_id {
                None => (server.model(), server.generation()),
                Some(id) => match (server.model_of(id), server.generation_of(id)) {
                    (Ok(model), Ok(generation)) => (model, generation),
                    (Err(e), _) | (_, Err(e)) => return ready(error_response(e)),
                },
            };
            let m = model.manifest();
            let mut inner = Json::obj();
            inner
                .set("dataset", m.dataset_name.as_str())
                .set(
                    "universe_seed",
                    gps_types::json::u64_to_hex(m.universe_seed),
                )
                .set("step_prefix", m.step_prefix)
                .set("distinct_keys", m.distinct_keys)
                .set("num_rules", m.num_rules)
                .set("num_priors", m.num_priors)
                .set("checksum", gps_types::json::u64_to_hex(m.checksum));
            let mut json = ok_response();
            json.set("manifest", inner)
                .set("generation", Json::Num(generation as f64));
            ready(json)
        }
        "reload" => {
            // Here `"model"` keeps its pre-registry meaning — a snapshot
            // *path* — and the registry id rides in `"name"`.
            let path = model_id.map(std::path::PathBuf::from);
            let name = match optional_str(request, "name") {
                Ok(name) => name,
                Err(e) => return ready(error_response(e)),
            };
            let result = match name {
                None => server.reload_from_disk(path.as_deref()),
                Some(id) => server.reload_model_from_disk(id, path.as_deref()),
            };
            match result {
                // Describe the model *this* reload published — reading
                // the slot again here could race with a concurrent
                // reload and misattribute the manifest.
                Ok((generation, model)) => {
                    let m = model.manifest();
                    let mut json = ok_response();
                    json.set("generation", Json::Num(generation as f64))
                        .set("num_rules", m.num_rules)
                        .set("num_priors", m.num_priors)
                        .set("checksum", gps_types::json::u64_to_hex(m.checksum));
                    if let Some(name) = name {
                        json.set("name", name);
                    }
                    ready(json)
                }
                // The old model is still serving; the error only reports
                // why the swap did not happen.
                Err(e) => ready(error_response(format!("reload failed: {e}"))),
            }
        }
        "load" => {
            let name = match optional_str(request, "name") {
                Ok(Some(name)) => name,
                Ok(None) => return ready(error_response("load requires a name")),
                Err(e) => return ready(error_response(e)),
            };
            let path = match model_id {
                Some(path) => std::path::PathBuf::from(path),
                None => return ready(error_response("load requires a model snapshot path")),
            };
            match server.load_model_from_disk(name, &path) {
                Ok(model) => {
                    let m = model.manifest();
                    let mut json = ok_response();
                    json.set("name", name)
                        .set("num_rules", m.num_rules)
                        .set("num_priors", m.num_priors)
                        .set("checksum", gps_types::json::u64_to_hex(m.checksum));
                    ready(json)
                }
                Err(e) => ready(error_response(format!("load failed: {e}"))),
            }
        }
        "unload" => {
            let name = match optional_str(request, "name") {
                Ok(Some(name)) => name,
                Ok(None) => return ready(error_response("unload requires a name")),
                Err(e) => return ready(error_response(e)),
            };
            match server.unload_model(name) {
                Ok(()) => {
                    let mut json = ok_response();
                    json.set("name", name);
                    ready(json)
                }
                Err(e) => ready(error_response(format!("unload failed: {e}"))),
            }
        }
        "shutdown" => {
            // Enter drain: the accept gates stop admitting, the query
            // log is flushed, and the transports close connections once
            // their in-flight replies finish. The reply itself still
            // goes out on this connection — drain never cuts off an
            // answer already owed.
            server.begin_drain();
            let mut json = ok_response();
            json.set("draining", true);
            ready(json)
        }
        "list-models" => {
            let stats = server.stats();
            let mut json = ok_response();
            json.set(
                "models",
                stats
                    .models
                    .iter()
                    .map(|m| {
                        let mut entry = m.to_json();
                        entry.set("name", m.id.as_str());
                        entry
                    })
                    .collect::<Vec<_>>(),
            );
            ready(json)
        }
        other => ready(error_response(format!("unknown cmd {other:?}"))),
    }
}

/// Classify one raw frame payload — either wire format — into a finished
/// reply or predict work plus its reply context. This is the one entry
/// point both transports feed every inbound frame through, which is what
/// makes threads/events and json/binary answer identically.
pub(crate) fn classify_payload(
    server: &PredictionServer,
    format: WireFormat,
    payload: &[u8],
) -> FrameAction {
    match format {
        WireFormat::Json => match std::str::from_utf8(payload) {
            // The decoder already enforced UTF-8 for JSON sessions; this
            // arm only guards direct callers.
            Err(_) => FrameAction::Ready(ReadyReply::Json {
                response: error_response("bad json: frame is not utf-8"),
                id: None,
            }),
            Ok(text) => classify_json(server, text, ReplyShape::Json),
        },
        WireFormat::Binary => match wire::decode_request(payload) {
            Err(e) => FrameAction::Ready(ReadyReply::BinaryError {
                id: e.id,
                message: e.message,
            }),
            Ok(wire::Request::Ping { id }) => FrameAction::Ready(ReadyReply::Pong { id }),
            Ok(wire::Request::Predict { id, model, query }) => predict_action(
                server,
                model.as_deref(),
                vec![query],
                false,
                ReplyCtx::Binary { id },
            ),
            Ok(wire::Request::Batch { id, model, queries }) => predict_action(
                server,
                model.as_deref(),
                queries,
                true,
                ReplyCtx::Binary { id },
            ),
            // Admin passthrough: JSON semantics, binary envelope. The
            // embedded text runs through the very same JSON core.
            Ok(wire::Request::Admin { json }) => {
                classify_json(server, &json, ReplyShape::BinaryAdmin)
            }
        },
    }
}

/// Which envelope a JSON-semantics reply must ride: a bare JSON frame, a
/// GPSQ admin envelope, or an HTTP/1.1 response.
#[derive(Clone, Copy)]
pub(crate) enum ReplyShape {
    Json,
    BinaryAdmin,
    Http { keep_alive: bool },
}

/// The JSON half of [`classify_payload`]: parse, pull the echoed id, run
/// the shared [`classify`] core. `shape` says which envelope the JSON
/// arrived in — GPSQ admin frame, HTTP body — so the reply rides the
/// same one.
pub(crate) fn classify_json(
    server: &PredictionServer,
    text: &str,
    shape: ReplyShape,
) -> FrameAction {
    // The request id (if any) is echoed on every reply, error replies
    // included — a pipelining client must be able to tell *which* request
    // of a burst failed. Unparseable JSON has no extractable id, so only
    // framing-level garbage goes un-correlated.
    let (response, id) = match Json::parse(text) {
        Err(e) => (error_response(format!("bad json: {e}")), None),
        Ok(request) => {
            let id = request.get("id").cloned();
            match classify(server, &request) {
                Action::Ready(json) => (json, id),
                Action::Predict {
                    entry,
                    queries,
                    batch,
                } => {
                    let ctx = match shape {
                        ReplyShape::Json => ReplyCtx::Json { id },
                        ReplyShape::BinaryAdmin => ReplyCtx::BinaryAdmin { id },
                        ReplyShape::Http { keep_alive } => ReplyCtx::Http { id, keep_alive },
                    };
                    return FrameAction::Predict {
                        entry,
                        queries,
                        batch,
                        ctx,
                    };
                }
            }
        }
    };
    FrameAction::Ready(match shape {
        ReplyShape::Json => ReadyReply::Json { response, id },
        ReplyShape::BinaryAdmin => ReadyReply::BinaryAdmin { response, id },
        ReplyShape::Http { keep_alive } => ReadyReply::Http {
            response,
            id,
            keep_alive,
        },
    })
}

/// Resolve the model entry for native-binary predict work; an unknown id
/// is an error reply like any other (same message as the JSON path).
fn predict_action(
    server: &PredictionServer,
    model: Option<&str>,
    queries: Vec<Query>,
    batch: bool,
    ctx: ReplyCtx,
) -> FrameAction {
    let entry = match model {
        None => Ok(server.default_entry().clone()),
        Some(id) => server.entry(id),
    };
    match entry {
        Ok(entry) => FrameAction::Predict {
            entry,
            queries,
            batch,
            ctx,
        },
        Err(e) => FrameAction::Ready(ready_error(ctx, e)),
    }
}

/// Per-request observability shared by both transports: record the
/// request latency into the server-level and per-model histogram cells —
/// a batch frame of `n` queries counts `n` samples, keeping histogram
/// counts summable against `requests` — and, when a query log is
/// configured, append one structured record carrying the first query's
/// key fields and the generation that computed the answers.
pub(crate) fn record_predict(
    server: &PredictionServer,
    entry: &ModelEntry,
    wire: WireLabel,
    batch: bool,
    queries: &[Query],
    generation: u64,
    started: Instant,
) {
    let latency_ns = started.elapsed().as_nanos() as u64;
    let endpoint = if batch {
        EndpointLabel::Batch
    } else {
        EndpointLabel::Single
    };
    // Per-model only: the server-level predict cells are derived at
    // snapshot time by summing the models, so the hot path pays for one
    // histogram update, not two.
    entry
        .counters
        .hists
        .cell(wire, endpoint)
        .record_n(latency_ns, queries.len() as u64);
    if let (Some(log), Some(first)) = (server.query_log(), queries.first()) {
        log.push(QueryLogRecord {
            ts_ms: unix_now_millis(),
            model: entry.id.clone(),
            wire: wire.as_str().to_string(),
            endpoint: endpoint.as_str().to_string(),
            ip: first.ip,
            open: first.open.iter().map(|p| p.0).collect(),
            asn: first.asn,
            top: first.top,
            latency_ns,
            generation,
        });
    }
}

/// Record one admin-shaped request (anything that is not a predict) into
/// the server-level histogram matrix.
pub(crate) fn record_admin(server: &PredictionServer, wire: WireLabel, started: Instant) {
    server
        .server_stats()
        .hists
        .cell(wire, EndpointLabel::Admin)
        .record(started.elapsed().as_nanos() as u64);
}

/// Serve one accepted connection until EOF or a framing error. A frame
/// that is well-framed but semantically garbage gets an error *response*
/// — only breakage that desynchronizes the stream (or flips wire format
/// mid-session) closes the connection. One frame decoder and one
/// response buffer live for the whole connection: the decoder carries
/// the negotiated wire format, and every reply — JSON or GPSQ — encodes
/// into the same reused buffer instead of allocating per frame.
pub fn serve_connection(server: &PredictionServer, stream: TcpStream) -> io::Result<()> {
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut response_buf: Vec<u8> = Vec::new();
    /// Responses coalesce in the reused buffer past this only while more
    /// pipelined requests are already buffered; then they flush in one
    /// write.
    const WRITE_COALESCE_CAP: usize = 64 * 1024;
    loop {
        let payload = match read_frame_payload(&mut reader, &mut decoder) {
            Ok(Some(payload)) => payload,
            // EOF or framing death: everything answered so far still
            // goes out (a pipelined peer's valid frames are answered
            // even when a later frame kills the connection).
            result => {
                if !response_buf.is_empty() {
                    let _ = writer.write_all(&response_buf);
                }
                return result.map(|_| ());
            }
        };
        let started = Instant::now();
        let format = decoder.format().unwrap_or(WireFormat::Json);
        let wire = match format {
            WireFormat::Json => WireLabel::Json,
            WireFormat::Binary => WireLabel::Gpsq,
        };
        match classify_payload(server, format, &payload) {
            FrameAction::Ready(reply) => {
                encode_ready(reply, &mut response_buf);
                record_admin(server, wire, started);
            }
            FrameAction::Predict {
                entry,
                mut queries,
                batch,
                ctx,
            } => {
                let (generation, answers) = server.answer(&entry, &mut queries, || {});
                encode_predict_reply(&ctx, &answers, batch, &mut response_buf);
                record_predict(server, &entry, wire, batch, &queries, generation, started);
            }
        }
        // Write coalescing: while the read buffer already holds more of
        // a pipelined burst, keep encoding into the same buffer and send
        // the whole run of responses in one syscall once the burst (or
        // the cap) is reached. A request/response peer sees every reply
        // before this connection blocks on the next read, so the closed
        // loop is never delayed.
        if reader.buffer().is_empty() || response_buf.len() >= WRITE_COALESCE_CAP {
            writer.write_all(&response_buf)?;
            response_buf.clear();
        }
        // Draining: every reply owed so far went out (including the
        // `shutdown` ack itself); close instead of reading more work.
        if server.is_draining() && reader.buffer().is_empty() {
            if !response_buf.is_empty() {
                writer.write_all(&response_buf)?;
            }
            return Ok(());
        }
    }
}

/// Accept loop: one thread per connection. Blocks forever; run it on a
/// dedicated thread if the caller needs to keep working. Equivalent to
/// [`crate::transport::serve`] with a default (threads-transport)
/// [`TransportConfig`].
pub fn serve_tcp(server: Arc<PredictionServer>, listener: TcpListener) -> io::Result<()> {
    serve_blocking(server, listener, &TransportConfig::default())
}

/// The thread-per-connection transport with its knobs: `max_conns` caps
/// live connections (excess accepts are dropped on the floor, counted in
/// `conns_rejected`), `idle_timeout` rides on `SO_RCVTIMEO` — a
/// connection that sends no byte for that long (mid-frame or between
/// frames alike) is closed and counted in `conns_timed_out`.
pub(crate) fn serve_blocking(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    config: &TransportConfig,
) -> io::Result<()> {
    let max_conns = config.max_conns_or_unlimited();
    let idle_timeout = config.idle_timeout;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if !server.server_stats().try_admit(max_conns, false) {
            continue; // dropping the stream closes it
        }
        let server = server.clone();
        std::thread::Builder::new()
            .name("gps-serve-conn".to_string())
            .spawn(move || {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(idle_timeout);
                let result = serve_connection(&server, stream);
                let stats = server.server_stats();
                if let Err(e) = result {
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) {
                        stats.conns_timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
                stats.conns_closed.fetch_add(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
    }
    Ok(())
}

/// A blocking protocol client (used by `gps query`, `gps reload`,
/// loadgen, and tests), speaking either wire format — pick with
/// [`connect_with`](Client::connect_with); [`connect`](Client::connect)
/// stays JSON. Every request carries a monotonically increasing `id`,
/// and the echoed id on the reply — error replies included — is
/// verified, so a desynchronized stream surfaces as a hard error instead
/// of silently mis-attributed answers.
///
/// On a binary client the hot calls (`ping`, `predict`, `predict_batch`)
/// use native GPSQ messages; the admin calls (`stats`, `manifest`,
/// `reload`, ...) ride the GPSQ admin envelope, so every method works on
/// either format and answers identically.
pub struct Client {
    reader: io::BufReader<TcpStream>,
    writer: io::BufWriter<TcpStream>,
    next_id: u64,
    wire: WireFormat,
    /// Persistent response decoder (binary sessions): carries framing
    /// state and catches a server that flips format mid-stream.
    decoder: FrameDecoder,
    /// Reused request/response scratch (binary sessions).
    buf: Vec<u8>,
}

/// Connection settings for [`Client::connect_config`]. The plain
/// constructors ([`Client::connect`], [`Client::connect_with`]) keep
/// their historical no-timeout behavior; anything that must survive a
/// hung or dead server — the router's backend connections, `gps query`
/// against a remote box — sets deadlines here.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub wire: WireFormat,
    /// Bound on TCP connect (`None` = the OS default, typically minutes).
    pub connect_timeout: Option<Duration>,
    /// Per-read socket deadline; an expiry surfaces as a
    /// [`ClientError::Retryable`] timeout.
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            wire: WireFormat::Json,
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

impl ClientConfig {
    /// All three deadlines set to `timeout` on the given wire.
    pub fn timeouts(wire: WireFormat, timeout: Duration) -> ClientConfig {
        ClientConfig {
            wire,
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

/// [`Client`] failures sorted by what the caller should do about them.
/// Built from the `io::Result` the client methods return (the methods
/// keep their `io::Result` signatures — every existing call site works
/// unchanged; classify with [`ClientError::from_io`]).
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure — timeout, refused/reset connection,
    /// server closed mid-call. The request may be retried, on this
    /// backend after a backoff or immediately on another one; predict
    /// queries are idempotent so a retry can never double-apply.
    Retryable(io::Error),
    /// Protocol breakage (desynchronized ids, malformed frames) or
    /// local misuse (oversized frame). Retrying sends the same doomed
    /// bytes; the connection is not trustworthy.
    Fatal(io::Error),
    /// The server understood the request and answered `ok:false` — an
    /// application error ("unknown cmd", "batch too large", "unknown
    /// model ..."). Deterministic: a retry elsewhere gets the same
    /// answer, so forward it to whoever asked.
    Server(String),
}

impl ClientError {
    /// Classify an error returned by any [`Client`] method.
    pub fn from_io(e: io::Error) -> ClientError {
        match e.kind() {
            // `WouldBlock` is how Unix reports an expired SO_RCVTIMEO /
            // SO_SNDTIMEO on a blocking socket.
            io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::WriteZero
            | io::ErrorKind::AddrNotAvailable
            | io::ErrorKind::UnexpectedEof => ClientError::Retryable(e),
            // The client maps `ok:false` replies to `ErrorKind::Other`
            // with the server's message as the error text.
            io::ErrorKind::Other => ClientError::Server(e.to_string()),
            _ => ClientError::Fatal(e),
        }
    }

    /// Whether retrying the request (here after a backoff, or on another
    /// backend) can plausibly succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, ClientError::Retryable(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Retryable(e) => write!(f, "retryable: {e}"),
            ClientError::Fatal(e) => write!(f, "fatal: {e}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl Client {
    /// Connect speaking JSON (the historical default).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, WireFormat::Json)
    }

    /// Connect speaking the given wire format.
    pub fn connect_with(addr: impl ToSocketAddrs, wire: WireFormat) -> io::Result<Client> {
        Self::connect_config(
            addr,
            &ClientConfig {
                wire,
                ..ClientConfig::default()
            },
        )
    }

    /// Connect with explicit timeouts (and wire format).
    pub fn connect_config(addr: impl ToSocketAddrs, config: &ClientConfig) -> io::Result<Client> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                // `connect_timeout` wants one resolved address; try each
                // resolution like `TcpStream::connect` does.
                let mut last = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect")
                        }))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Client {
            reader: io::BufReader::new(stream.try_clone()?),
            writer: io::BufWriter::new(stream),
            next_id: 1,
            wire: config.wire,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            buf: Vec::new(),
        })
    }

    /// The wire format this client negotiated.
    pub fn wire(&self) -> WireFormat {
        self.wire
    }

    /// Read one GPSQ response payload into a decoded [`wire::Response`].
    fn read_binary_response(&mut self) -> io::Result<wire::Response> {
        let payload = read_frame_payload(&mut self.reader, &mut self.decoder)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        wire::decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn verify_id(&self, got: Option<u64>, want: u64) -> io::Result<()> {
        if got == Some(want) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response does not echo request id {want}"),
            ))
        }
    }

    /// Takes the request by value: every caller builds it fresh, and a
    /// large `batch` request would otherwise be deep-cloned just to tack
    /// the id on. On a binary session the JSON request rides the GPSQ
    /// admin envelope — same semantics, same replies.
    fn call(&mut self, mut request: Json) -> io::Result<Json> {
        let id = self.next_id;
        self.next_id += 1;
        request.set("id", Json::Num(id as f64));
        let response = match self.wire {
            WireFormat::Json => {
                write_frame(&mut self.writer, &request)?;
                read_frame(&mut self.reader)?
                    .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?
            }
            WireFormat::Binary => {
                let mut text = String::new();
                request.write(&mut text);
                self.buf.clear();
                if !append_binary_frame(&mut self.buf, |w| wire::encode_admin_request(&text, w)) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "frame too large",
                    ));
                }
                self.writer.write_all(&self.buf)?;
                self.writer.flush()?;
                match self.read_binary_response()? {
                    wire::Response::Admin { json } => Json::parse(&json)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
                    // The server answers a broken admin *envelope* with a
                    // native error frame (the embedded JSON never parsed,
                    // so there is no JSON reply to wrap).
                    wire::Response::Error { message, .. } => return Err(io::Error::other(message)),
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "expected an admin envelope reply",
                        ))
                    }
                }
            }
        };
        if response.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response does not echo request id {id}"),
            ));
        }
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            _ => {
                let message = response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string();
                Err(io::Error::other(message))
            }
        }
    }

    pub fn ping(&mut self) -> io::Result<()> {
        if self.wire == WireFormat::Binary {
            let id = self.next_id;
            self.next_id += 1;
            self.buf.clear();
            assert!(append_binary_frame(&mut self.buf, |w| {
                wire::encode_ping(Some(id), w)
            }));
            self.writer.write_all(&self.buf)?;
            self.writer.flush()?;
            return match self.read_binary_response()? {
                wire::Response::Pong { id: got } => self.verify_id(got, id),
                wire::Response::Error { id: got, message } => {
                    self.verify_id(got, id)?;
                    Err(io::Error::other(message))
                }
                _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected pong")),
            };
        }
        let mut request = Json::obj();
        request.set("cmd", "ping");
        self.call(request).map(|_| ())
    }

    /// Predict against the server's default model.
    pub fn predict(&mut self, query: &Query) -> io::Result<Ranked> {
        self.predict_on(None, query)
    }

    /// Predict against a specific model id (`None` = the default model).
    pub fn predict_on(&mut self, model: Option<&str>, query: &Query) -> io::Result<Ranked> {
        if self.wire == WireFormat::Binary {
            let mut rankings =
                self.call_binary_predict(model, std::slice::from_ref(query), false)?;
            return rankings
                .pop()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no predictions"));
        }
        let mut request = query_to_json(query);
        request.set("cmd", "predict");
        // `cmd` is appended after the query fields; field order is free.
        if let Some(id) = model {
            request.set("model", id);
        }
        let response = self.call(request)?;
        ranked_from_json(
            response
                .get("predictions")
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no predictions"))?,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    pub fn predict_batch(&mut self, queries: &[Query]) -> io::Result<Vec<Ranked>> {
        self.predict_batch_on(None, queries)
    }

    /// Batch-predict against a specific model id (`None` = the default).
    pub fn predict_batch_on(
        &mut self,
        model: Option<&str>,
        queries: &[Query],
    ) -> io::Result<Vec<Ranked>> {
        if self.wire == WireFormat::Binary {
            return self.call_binary_predict(model, queries, true);
        }
        let mut request = Json::obj();
        request.set("cmd", "batch").set(
            "queries",
            queries.iter().map(query_to_json).collect::<Vec<_>>(),
        );
        if let Some(id) = model {
            request.set("model", id);
        }
        let response = self.call(request)?;
        response
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no results"))?
            .iter()
            .map(|r| ranked_from_json(r).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)))
            .collect()
    }

    /// Send one single-query predict without waiting for the reply
    /// (pipelined mode); returns the request id to pass to
    /// [`predict_recv`](Self::predict_recv). The frame is buffered, not
    /// flushed — consecutive sends coalesce into one syscall, which is
    /// where pipelining's amortization comes from. Responses come back
    /// in request order (the server guarantees it on both transports),
    /// so receive in send order, per connection.
    pub fn predict_send(&mut self, model: Option<&str>, query: &Query) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        match self.wire {
            WireFormat::Json => {
                let mut request = query_to_json(query);
                request.set("cmd", "predict");
                if let Some(model) = model {
                    request.set("model", model);
                }
                request.set("id", Json::Num(id as f64));
                let mut text = String::new();
                request.write(&mut text);
                let len = u32::try_from(text.len())
                    .ok()
                    .filter(|&n| n <= MAX_FRAME_BYTES)
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "frame too large")
                    })?;
                self.writer.write_all(&len.to_be_bytes())?;
                self.writer.write_all(text.as_bytes())?;
            }
            WireFormat::Binary => {
                self.buf.clear();
                if !append_binary_frame(&mut self.buf, |w| {
                    wire::encode_predict(Some(id), model, query, w)
                }) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "frame too large",
                    ));
                }
                self.writer.write_all(&self.buf)?;
            }
        }
        Ok(id)
    }

    /// Receive the next pipelined predict response, which must answer
    /// the request whose [`predict_send`](Self::predict_send) returned
    /// `id`. Flushes any buffered sends first.
    pub fn predict_recv(&mut self, id: u64) -> io::Result<Ranked> {
        self.writer.flush()?;
        match self.wire {
            WireFormat::Json => {
                let response = read_frame(&mut self.reader)?
                    .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
                if response.get("id").and_then(Json::as_u64) != Some(id) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response does not echo request id {id}"),
                    ));
                }
                match response.get("ok").and_then(Json::as_bool) {
                    Some(true) => {
                        ranked_from_json(response.get("predictions").ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "no predictions")
                        })?)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                    }
                    _ => Err(io::Error::other(
                        response
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown server error")
                            .to_string(),
                    )),
                }
            }
            WireFormat::Binary => match self.read_binary_response()? {
                wire::Response::Predict { id: got, ranking } => {
                    self.verify_id(got, id)?;
                    Ok(ranking)
                }
                wire::Response::Error { id: got, message } => {
                    self.verify_id(got, id)?;
                    Err(io::Error::other(message))
                }
                _ => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected GPSQ response kind",
                )),
            },
        }
    }

    /// The native GPSQ predict path (single and batch shapes).
    fn call_binary_predict(
        &mut self,
        model: Option<&str>,
        queries: &[Query],
        batch: bool,
    ) -> io::Result<Vec<Ranked>> {
        let id = self.next_id;
        self.next_id += 1;
        self.buf.clear();
        let encoded = append_binary_frame(&mut self.buf, |w| {
            if batch {
                wire::encode_batch(Some(id), model, queries, w);
            } else {
                wire::encode_predict(Some(id), model, &queries[0], w);
            }
        });
        if !encoded {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame too large",
            ));
        }
        self.writer.write_all(&self.buf)?;
        self.writer.flush()?;
        match self.read_binary_response()? {
            wire::Response::Predict { id: got, ranking } if !batch => {
                self.verify_id(got, id)?;
                Ok(vec![ranking])
            }
            wire::Response::Batch { id: got, rankings } if batch => {
                self.verify_id(got, id)?;
                Ok(rankings)
            }
            wire::Response::Error { id: got, message } => {
                self.verify_id(got, id)?;
                Err(io::Error::other(message))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected GPSQ response kind",
            )),
        }
    }

    pub fn stats(&mut self) -> io::Result<Json> {
        let mut request = Json::obj();
        request.set("cmd", "stats");
        let response = self.call(request)?;
        response
            .get("stats")
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no stats"))
    }

    /// Zero the server's traffic counters and histograms (`reset-stats`).
    pub fn reset_stats(&mut self) -> io::Result<()> {
        let mut request = Json::obj();
        request.set("cmd", "reset-stats");
        self.call(request).map(|_| ())
    }

    /// Ask the server to drain and shut down (`shutdown`): it stops
    /// admitting connections, flushes its query log, answers everything
    /// in flight — this ack included — then closes.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let mut request = Json::obj();
        request.set("cmd", "shutdown");
        self.call(request).map(|_| ())
    }

    pub fn manifest(&mut self) -> io::Result<Json> {
        self.manifest_of(None)
    }

    /// Manifest of a specific model id (`None` = the default model).
    pub fn manifest_of(&mut self, model: Option<&str>) -> io::Result<Json> {
        let mut request = Json::obj();
        request.set("cmd", "manifest");
        if let Some(id) = model {
            request.set("model", id);
        }
        let response = self.call(request)?;
        response
            .get("manifest")
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no manifest"))
    }

    /// Ask the server to hot-reload its default model's snapshot — from
    /// `model` (a path) if given, else from the file it is already
    /// serving. The returned outcome is taken from the reload reply
    /// itself, so it describes exactly the model this reload published (a
    /// follow-up `manifest` call could race with another reload).
    pub fn reload(&mut self, model: Option<&str>) -> io::Result<ReloadOutcome> {
        self.reload_named(None, model)
    }

    /// [`reload`](Self::reload) for a specific model id (`None` = the
    /// default model); `path` optionally switches that model to a
    /// different snapshot file.
    pub fn reload_named(
        &mut self,
        name: Option<&str>,
        path: Option<&str>,
    ) -> io::Result<ReloadOutcome> {
        let mut request = Json::obj();
        request.set("cmd", "reload");
        if let Some(name) = name {
            request.set("name", name);
        }
        if let Some(path) = path {
            request.set("model", path);
        }
        let response = self.call(request)?;
        let generation = response
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no generation"))?;
        Ok(ReloadOutcome {
            generation,
            num_rules: response
                .get("num_rules")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            num_priors: response
                .get("num_priors")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            checksum: response
                .get("checksum")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
        })
    }

    /// Register a new model on the server from a snapshot path.
    pub fn load_model(&mut self, name: &str, path: &str) -> io::Result<()> {
        let mut request = Json::obj();
        request
            .set("cmd", "load")
            .set("name", name)
            .set("model", path);
        self.call(request).map(|_| ())
    }

    /// Drop a model from the server's registry (the default cannot be
    /// unloaded).
    pub fn unload_model(&mut self, name: &str) -> io::Result<()> {
        let mut request = Json::obj();
        request.set("cmd", "unload").set("name", name);
        self.call(request).map(|_| ())
    }

    /// Every registered model with its per-model counters, as the server
    /// reported them (sorted by id).
    pub fn list_models(&mut self) -> io::Result<Vec<Json>> {
        let mut request = Json::obj();
        request.set("cmd", "list-models");
        let response = self.call(request)?;
        response
            .get("models")
            .and_then(Json::as_arr)
            .map(|models| models.to_vec())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no models"))
    }
}

/// What a successful [`Client::reload`] published, per the server's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The post-swap model generation.
    pub generation: u64,
    pub num_rules: u64,
    pub num_priors: u64,
    /// Hex manifest checksum of the now-serving snapshot.
    pub checksum: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut json = Json::obj();
        json.set("cmd", "predict").set("ip", "1.2.3.4");
        let mut buf = Vec::new();
        write_frame(&mut buf, &json).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let parsed = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(parsed, json);
        // Clean EOF.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // EOF mid-length-prefix is truncation, not a clean close.
        assert!(read_frame(&mut [0u8, 0].as_slice()).is_err());
        // EOF before any byte IS a clean close.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn query_json_round_trip() {
        let mut query = Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([443, 80]);
        query.asn = Some(64500);
        query.top = 5;
        let json = query_to_json(&query);
        assert_eq!(query_from_json(&json).unwrap(), query);
        // Minimal query: just an IP.
        let minimal = query_to_json(&Query::new(Ip::from_octets(1, 1, 1, 1)));
        let parsed = query_from_json(&minimal).unwrap();
        assert!(parsed.open.is_empty() && parsed.asn.is_none() && parsed.top == 0);
    }

    #[test]
    fn ranked_json_round_trip() {
        let ranked: Ranked = vec![(Port(443), 0.875), (Port(22), 1.0 / 3.0)];
        assert_eq!(ranked_from_json(&ranked_to_json(&ranked)).unwrap(), ranked);
    }
}
