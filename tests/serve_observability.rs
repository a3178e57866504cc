//! End-to-end tests for the observability plane: the HTTP/1.1 gateway
//! (admin endpoints, Prometheus exposition, predict parity with the
//! JSON wire), counter invariants across the transport x wire matrix,
//! `reset-stats` semantics, and the structured query log.
//!
//! The HTTP side is driven with raw `TcpStream`s on purpose — the
//! server's parser must face real sockets, torn writes, and pipelined
//! bytes, not a cooperating client library.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
use gps::core::{CondModel, FeatureRules, Interactions, NetFeature, PriorsEntry};
use gps::serve::{
    Client, PredictionServer, Query, QueryLog, ServableModel, ServeConfig, TransportConfig,
    WireFormat,
};
use gps::types::obs::QueryLogRecord;
use gps::types::testutil::{serve_transports, serve_wires, TestDir};
use gps::types::{Ip, Json, JsonCodec, Port, Subnet};

/// A tiny hand-built model (no training): 80 predicts 443, one prior.
fn snapshot() -> gps::core::ModelSnapshot {
    let mut rules: HashMap<gps::core::CondKey, Vec<(Port, f64)>> = HashMap::new();
    rules.insert(gps::core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
    gps::core::ModelSnapshot {
        manifest: ModelManifest {
            format: (FORMAT_MAJOR, FORMAT_MINOR),
            universe_seed: 0,
            dataset_name: "observability".into(),
            step_prefix: 16,
            min_prob: 1e-5,
            interactions: Interactions::ALL,
            net_features: vec![NetFeature::Slash(16)],
            hosts_in: 0,
            distinct_keys: 0,
            cooccur_entries: 0,
            num_rules: 1,
            num_priors: 1,
            checksum: 0,
        },
        model: CondModel::from_parts(HashMap::new(), Interactions::ALL),
        rules: FeatureRules::from_parts(rules),
        priors: vec![PriorsEntry {
            port: Port(22),
            subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
            coverage: 4,
        }],
        compiled: None,
    }
}

fn model() -> ServableModel {
    ServableModel::from_snapshot(snapshot())
}

/// Spawn a server with both a frame listener and an HTTP gateway
/// listener, on the given transport.
fn spawn_http(
    transport: &str,
    config: TransportConfig,
) -> (Arc<PredictionServer>, SocketAddr, SocketAddr) {
    let server = Arc::new(PredictionServer::with_defaults(model()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("frame port");
    let http = TcpListener::bind("127.0.0.1:0").expect("http port");
    let addr = listener.local_addr().expect("frame addr");
    let http_addr = http.local_addr().expect("http addr");
    let config = TransportConfig {
        transport: transport.parse().expect("known transport"),
        poll_fallback: transport == "events-poll",
        ..config
    };
    {
        let server = server.clone();
        std::thread::spawn(move || {
            gps::serve::serve_with_http(server, listener, Some(http), config)
        });
    }
    (server, addr, http_addr)
}

/// Read one HTTP/1.1 response off a blocking stream: returns (status,
/// raw head, body). Panics on EOF mid-response or a missing
/// Content-Length (every gateway response carries one).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("head read");
        assert!(
            n > 0,
            "eof before end of head: {:?}",
            String::from_utf8_lossy(&head)
        );
        head.push(byte[0]);
        assert!(head.len() < 64 * 1024, "unterminated response head");
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("content-length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body read");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

/// One request/response exchange on an existing keep-alive connection.
fn exchange(stream: &mut TcpStream, request: &str) -> (u16, String, String) {
    stream.write_all(request.as_bytes()).expect("request write");
    read_response(stream)
}

fn get(stream: &mut TcpStream, path: &str) -> (u16, String, String) {
    exchange(stream, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(stream: &mut TcpStream, path: &str, body: &str) -> (u16, String, String) {
    exchange(
        stream,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Send one raw JSON text frame on the framed wire and return the raw
/// reply payload bytes (for byte-level parity checks against HTTP).
fn raw_json_roundtrip(addr: SocketAddr, text: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("frame connect");
    let mut frame = (text.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(text.as_bytes());
    stream.write_all(&frame).expect("frame write");
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("reply prefix");
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    payload
}

/// Wait until `stream` reports EOF/error (the server closed it), within
/// a deadline.
fn assert_closed_within(mut stream: TcpStream, deadline: Duration, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let start = Instant::now();
    let mut buf = [0u8; 256];
    while start.elapsed() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
            Ok(_) => {} // drain any in-flight error response before the FIN
        }
    }
    panic!("{what}: connection still open after {deadline:?}");
}

/// The admin surface: /healthz, /stats, /models, /metrics, plus 404 and
/// 405 mapping — on every transport (the threads transport runs the
/// gateway on a sidecar event loop; behavior must be identical).
#[test]
fn http_gateway_serves_admin_endpoints_on_every_transport() {
    for transport in serve_transports() {
        let (server, addr, http_addr) = spawn_http(transport, TransportConfig::default());

        // Some wire traffic so /metrics has request counters to export.
        let mut client = Client::connect(addr).expect("wire connect");
        for i in 0..4 {
            client
                .predict(&Query::new(Ip::from_octets(10, 1, 2, i)).with_open([80]))
                .expect("wire predict");
        }

        let mut http = TcpStream::connect(http_addr).expect("http connect");

        let (status, _, body) = get(&mut http, "/healthz");
        assert_eq!(
            (status, body.as_str()),
            (200, "ok\n"),
            "{transport}: healthz"
        );

        let (status, _, body) = get(&mut http, "/stats");
        assert_eq!(status, 200, "{transport}: /stats status");
        let reply = Json::parse(&body).expect("stats json");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let stats = reply.get("stats").expect("stats payload");
        assert_eq!(
            stats.get("requests").and_then(Json::as_u64),
            Some(4),
            "{transport}: /stats sees the wire traffic"
        );
        assert!(stats.get("uptime_secs").is_some(), "{transport}: uptime");
        assert!(stats.get("version").is_some(), "{transport}: version");

        let (status, _, body) = get(&mut http, "/models");
        assert_eq!(status, 200, "{transport}: /models status");
        let models = Json::parse(&body).expect("models json");
        let list = models.get("models").and_then(Json::as_arr).expect("list");
        assert_eq!(list.len(), 1, "{transport}: one model");
        assert_eq!(
            list[0].get("name").and_then(Json::as_str),
            Some("default"),
            "{transport}: model id"
        );

        let (status, head, body) = get(&mut http, "/metrics");
        assert_eq!(status, 200, "{transport}: /metrics status");
        assert!(
            head.contains("text/plain; version=0.0.4"),
            "{transport}: exposition content type, got head {head:?}"
        );
        for needle in [
            "# TYPE gps_requests_total counter",
            "gps_requests_total{wire=\"json\",endpoint=\"single\"} 4",
            "# TYPE gps_request_latency_seconds histogram",
            "le=\"+Inf\"",
            "gps_request_latency_seconds_count{",
            "gps_uptime_seconds ",
            "gps_build_info{version=",
            "gps_conns_active ",
        ] {
            assert!(
                body.contains(needle),
                "{transport}: /metrics missing {needle:?}\n{body}"
            );
        }
        // Exposition format sanity: every non-comment line is `name[{labels}] value`.
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let value = line.rsplit(' ').next().expect("metric value");
            assert!(
                value.parse::<f64>().is_ok(),
                "{transport}: unparseable metric line {line:?}"
            );
            assert!(
                !value.contains('e') || value.parse::<f64>().is_ok(),
                "{transport}: scientific notation sneaks past Prometheus le matching: {line:?}"
            );
        }
        assert!(
            body.ends_with('\n'),
            "{transport}: exposition ends in newline"
        );

        let (status, _, _) = get(&mut http, "/no-such-endpoint");
        assert_eq!(status, 404, "{transport}: unknown path");
        let (status, _, _) = get(&mut http, "/predict");
        assert_eq!(status, 405, "{transport}: GET on a POST endpoint");

        // The whole conversation above ran on ONE keep-alive connection.
        assert!(server.stats().requests >= 4);
        drop(client);
    }
}

/// POST /predict and /batch return byte-identical JSON to the framed
/// JSON wire for the same request — the gateway is a different door
/// into the same classify core, not a reimplementation.
#[test]
fn http_predict_is_byte_identical_to_json_wire() {
    for transport in serve_transports() {
        let (_server, addr, http_addr) = spawn_http(transport, TransportConfig::default());
        let mut http = TcpStream::connect(http_addr).expect("http connect");

        // Single predict. The gateway injects `"cmd":"predict"` into the
        // posted body; the framed request carries the full command.
        let body = r#"{"ip":"10.1.2.3","open":[80],"id":7}"#;
        let wire_text = r#"{"ip":"10.1.2.3","open":[80],"id":7,"cmd":"predict"}"#;
        let (status, _, http_body) = post(&mut http, "/predict", body);
        assert_eq!(status, 200, "{transport}: predict status");
        let wire_reply = raw_json_roundtrip(addr, wire_text);
        assert_eq!(
            http_body.trim_end_matches('\n').as_bytes(),
            String::from_utf8(wire_reply)
                .expect("utf8 wire reply")
                .trim_end_matches('\n')
                .as_bytes(),
            "{transport}: HTTP predict body != JSON wire reply"
        );
        let parsed = Json::parse(&http_body).expect("predict json");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(7));

        // Batch.
        let body = r#"{"queries":[{"ip":"10.1.2.3","open":[80]},{"ip":"10.0.9.9"}],"id":8}"#;
        let wire_text =
            r#"{"queries":[{"ip":"10.1.2.3","open":[80]},{"ip":"10.0.9.9"}],"id":8,"cmd":"batch"}"#;
        let (status, _, http_body) = post(&mut http, "/batch", body);
        assert_eq!(status, 200, "{transport}: batch status");
        let wire_reply = raw_json_roundtrip(addr, wire_text);
        assert_eq!(
            http_body.trim_end_matches('\n'),
            String::from_utf8(wire_reply)
                .expect("utf8 wire reply")
                .trim_end_matches('\n'),
            "{transport}: HTTP batch body != JSON wire reply"
        );
        let parsed = Json::parse(&http_body).expect("batch json");
        assert_eq!(
            parsed
                .get("results")
                .and_then(Json::as_arr)
                .map(|results| results.len()),
            Some(2),
            "{transport}: two batch results"
        );

        // A bad request maps the shared classify error to a 400, body
        // still the wire-shaped `ok:false` JSON.
        let (status, _, http_body) = post(&mut http, "/predict", "{\"ip\":\"not-an-ip\"}");
        assert_eq!(status, 400, "{transport}: bad predict -> 400");
        let parsed = Json::parse(&http_body).expect("error json");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    }
}

/// The counter invariants the stats plane promises, on every transport
/// and wire: every query counts once in `requests`, globally and per
/// model, and the (wire, endpoint) histograms account for every
/// wire-served query exactly once.
#[test]
fn counter_invariants_hold_across_transport_and_wire_matrix() {
    for transport in serve_transports() {
        for wire in serve_wires() {
            let (server, addr, _http_addr) = spawn_http(transport, TransportConfig::default());
            let format = match wire {
                "binary" => WireFormat::Binary,
                _ => WireFormat::Json,
            };
            let mut client = Client::connect_with(addr, format).expect("connect");

            // 12 singles over 3 distinct keys + 2 batches of 5.
            for i in 0..12u8 {
                client
                    .predict(&Query::new(Ip::from_octets(10, 1, i % 3, 1)).with_open([80]))
                    .expect("single predict");
            }
            for _ in 0..2 {
                let queries: Vec<Query> = (0..5u8)
                    .map(|i| Query::new(Ip::from_octets(10, 2, i, 1)).with_open([80]))
                    .collect();
                let ranked = client.predict_batch(&queries).expect("batch predict");
                assert_eq!(ranked.len(), 5);
            }

            let stats = server.stats();
            let label = format!("{transport}/{wire}");
            assert_eq!(stats.requests, 12 + 10, "{label}: request count");

            // Histograms: every wire-served query lands in exactly one
            // (wire, endpoint) predict cell; admin traffic lands in the
            // admin cells and never pollutes the predict counts.
            let wire_label = match format {
                WireFormat::Json => "json",
                WireFormat::Binary => "gpsq",
            };
            let singles = stats.merged_hist(Some(wire_label), Some("single"));
            let batches = stats.merged_hist(Some(wire_label), Some("batch"));
            assert_eq!(singles.count, 12, "{label}: single-endpoint samples");
            assert_eq!(batches.count, 10, "{label}: batch-endpoint samples");
            assert_eq!(
                singles.buckets.iter().sum::<u64>(),
                singles.count,
                "{label}: bucket sum == count"
            );
            assert!(
                singles.sum_ns > 0 && singles.max_ns > 0,
                "{label}: latency sums populated"
            );
            let other = match wire_label {
                "json" => "gpsq",
                _ => "json",
            };
            assert_eq!(
                stats.merged_hist(Some(other), None).count,
                0,
                "{label}: the unused wire's cells stay empty"
            );
            assert_eq!(
                stats.merged_hist(Some("http"), None).count,
                0,
                "{label}: no http traffic, no http samples"
            );

            // Per-model counters agree with the global ones.
            let model_stats = &stats.models[0];
            assert_eq!(
                model_stats.requests, stats.requests,
                "{label}: model requests"
            );
        }
    }
}

/// `reset-stats` zeroes traffic counters and histograms over every
/// admin door (JSON wire, GPSQ admin envelope, HTTP POST) while leaving
/// generation, model membership, and connection accounting untouched.
#[test]
fn reset_stats_zeroes_traffic_but_preserves_generation_and_membership() {
    let (server, addr, http_addr) = spawn_http("events", TransportConfig::default());

    // Bump the default model to generation 1 so we can tell a reset
    // from a restart.
    assert_eq!(server.reload(model()), 1);

    let resets: [&str; 3] = ["json", "binary", "http"];
    for (round, door) in resets.iter().enumerate() {
        // Fresh traffic each round: it must vanish on reset.
        let mut client = Client::connect(addr).expect("connect");
        for i in 0..5u8 {
            client
                .predict(&Query::new(Ip::from_octets(10, 9, i, 1)).with_open([80]))
                .expect("predict");
        }
        let before = server.stats();
        assert_eq!(before.requests, 5, "round {round}: traffic recorded");
        assert!(before.conns_accepted > 0);

        match *door {
            "json" => Client::connect_with(addr, WireFormat::Json)
                .expect("reset connect")
                .reset_stats()
                .expect("json reset"),
            "binary" => Client::connect_with(addr, WireFormat::Binary)
                .expect("reset connect")
                .reset_stats()
                .expect("binary reset"),
            _ => {
                let mut http = TcpStream::connect(http_addr).expect("http connect");
                let (status, _, body) = post(&mut http, "/reset-stats", "");
                assert_eq!(status, 200, "http reset status: {body}");
                let reply = Json::parse(&body).expect("reset json");
                assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            }
        }

        let after = server.stats();
        assert_eq!(after.requests, 0, "{door}: requests zeroed");
        assert_eq!(
            after.merged_hist(None, Some("single")).count,
            0,
            "{door}: predict histograms zeroed"
        );
        assert_eq!(after.models[0].requests, 0, "{door}: model counters zeroed");

        // What a reset must NOT touch.
        assert_eq!(after.generation, 1, "{door}: generation survives");
        assert_eq!(after.reloads, 1, "{door}: reload history survives");
        assert_eq!(after.models.len(), 1, "{door}: membership survives");
        assert!(
            after.conns_accepted >= before.conns_accepted,
            "{door}: connection accounting keeps running"
        );
    }

    // The server still answers correctly after the last reset.
    let mut client = Client::connect(addr).expect("connect");
    let ranked = client
        .predict(&Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([80]))
        .expect("post-reset predict");
    assert!(ranked.iter().any(|(port, _)| *port == Port(443)));
}

/// The gateway's parser against hostile inputs: torn byte-at-a-time
/// requests, pipelined requests answered in order, oversized heads,
/// unsupported transfer encodings, garbage request lines, explicit
/// `Connection: close`, and slowloris idling.
#[test]
fn http_gateway_survives_adversarial_clients() {
    for transport in ["events", "threads"] {
        let (server, _addr, http_addr) = spawn_http(
            transport,
            TransportConfig {
                // Short enough that the slowloris sweep below is quick,
                // long enough that a scheduler stall between dribbled
                // bytes (full-suite parallelism on a small box) cannot
                // sweep a live connection.
                idle_timeout: Some(Duration::from_millis(700)),
                ..TransportConfig::default()
            },
        );

        // Torn request: dribble a predict POST one byte at a time.
        {
            let request = format!(
                "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 29\r\n\r\n{}",
                r#"{"ip":"10.1.2.3","open":[80]}"#
            );
            let mut stream = TcpStream::connect(http_addr).expect("torn connect");
            for byte in request.as_bytes() {
                stream
                    .write_all(std::slice::from_ref(byte))
                    .expect("dribble");
                std::thread::sleep(Duration::from_micros(200));
            }
            let (status, _, body) = read_response(&mut stream);
            assert_eq!(status, 200, "{transport}: torn request still parses");
            assert_eq!(
                Json::parse(&body)
                    .expect("torn json")
                    .get("ok")
                    .and_then(Json::as_bool),
                Some(true)
            );
        }

        // Pipelined requests in one write: answered completely, in order.
        {
            let mut stream = TcpStream::connect(http_addr).expect("pipeline connect");
            let burst = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".repeat(3)
                + "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n";
            stream.write_all(burst.as_bytes()).expect("burst write");
            for i in 0..3 {
                let (status, _, body) = read_response(&mut stream);
                assert_eq!(
                    (status, body.as_str()),
                    (200, "ok\n"),
                    "{transport}: pipelined healthz {i}"
                );
            }
            let (status, _, body) = read_response(&mut stream);
            assert_eq!(status, 200, "{transport}: pipelined stats");
            assert!(Json::parse(&body).is_ok(), "{transport}: stats after burst");
        }

        // Oversized head: blows the 8 KiB cap -> 431, connection closed.
        {
            let mut stream = TcpStream::connect(http_addr).expect("bighead connect");
            let request = format!(
                "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Padding: {}\r\n\r\n",
                "a".repeat(16 * 1024)
            );
            stream.write_all(request.as_bytes()).ok(); // server may RST mid-write
            let mut reply = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            let _ = stream.read_to_end(&mut reply);
            let text = String::from_utf8_lossy(&reply);
            assert!(
                text.starts_with("HTTP/1.1 431"),
                "{transport}: oversized head -> 431, got {text:?}"
            );
            assert_closed_within(stream, Duration::from_secs(2), "oversized head");
        }

        // Chunked bodies are not implemented: refused loudly, not
        // misparsed quietly.
        {
            let mut stream = TcpStream::connect(http_addr).expect("chunked connect");
            stream
                .write_all(
                    b"POST /predict HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n",
                )
                .expect("chunked write");
            let (status, head, _) = read_response(&mut stream);
            assert_eq!(status, 501, "{transport}: chunked -> 501");
            assert!(
                head.to_ascii_lowercase().contains("connection: close"),
                "{transport}: errors close the connection"
            );
            assert_closed_within(stream, Duration::from_secs(2), "chunked");
        }

        // Garbage request line -> 400 and close.
        {
            let mut stream = TcpStream::connect(http_addr).expect("garbage connect");
            stream
                .write_all(b"EHLO observability\r\n\r\n")
                .expect("garbage write");
            let (status, _, _) = read_response(&mut stream);
            assert_eq!(status, 400, "{transport}: garbage request line");
            assert_closed_within(stream, Duration::from_secs(2), "garbage line");
        }

        // Connection: close honored — reply carries it, then FIN.
        {
            let mut stream = TcpStream::connect(http_addr).expect("close connect");
            let (status, head, body) = exchange(
                &mut stream,
                "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            );
            assert_eq!((status, body.as_str()), (200, "ok\n"));
            assert!(
                head.to_ascii_lowercase().contains("connection: close"),
                "{transport}: close echoed, got {head:?}"
            );
            assert_closed_within(stream, Duration::from_secs(2), "connection close");
        }

        // Slowloris: half a request line, then silence past the idle
        // timeout -> swept.
        {
            let mut stream = TcpStream::connect(http_addr).expect("loris connect");
            stream.write_all(b"GET /heal").expect("half request");
            assert_closed_within(stream, Duration::from_secs(5), "http slowloris");
            assert!(
                server.stats().conns_timed_out >= 1,
                "{transport}: timeout counted"
            );
        }
    }
}

/// The structured query log records one parseable line per wire-served
/// request with honest wire/endpoint labels, the evidence as answered
/// (sorted, deduplicated, `top` defaulted), and the generation of the
/// model epoch that computed the answer — 0 before a hot reload, 1 after.
#[test]
fn query_log_records_requests_with_the_computing_generation() {
    let dir = TestDir::new("serve-observability-log");
    let log_path = dir.path("queries.log");
    let snapshot_path = dir.path("model.gpsb");
    snapshot().save_binary(&snapshot_path).expect("export");

    let (server, addr, http_addr) = spawn_http("events", TransportConfig::default());
    assert!(server.set_query_log(Arc::new(QueryLog::open(&log_path).expect("open query log"))));
    server.set_model_path(&snapshot_path);

    let query = Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([80, 22, 80]);
    let mut json = Client::connect_with(addr, WireFormat::Json).expect("json connect");
    json.predict(&query).expect("json predict");
    json.predict(&query).expect("json predict");
    let mut binary = Client::connect_with(addr, WireFormat::Binary).expect("gpsq connect");
    binary
        .predict(&Query::new(Ip::from_octets(10, 7, 7, 7)).with_open([80]))
        .expect("gpsq predict");
    json.predict_batch(&[
        Query::new(Ip::from_octets(10, 5, 5, 5)).with_open([80]),
        Query::new(Ip::from_octets(10, 6, 6, 6)),
    ])
    .expect("batch predict");
    let mut http = TcpStream::connect(http_addr).expect("http connect");
    let (status, _, _) = post(&mut http, "/predict", r#"{"ip":"10.8.8.8","open":[80]}"#);
    assert_eq!(status, 200);
    // A hot reload, then one more request: computed by generation 1.
    assert_eq!(json.reload(None).expect("wire reload").generation, 1);
    binary
        .predict(&Query::new(Ip::from_octets(10, 7, 7, 8)).with_open([80]))
        .expect("post-reload predict");

    // The writer thread flushes on a short interval; poll the file.
    let deadline = Instant::now() + Duration::from_secs(10);
    let records = loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.len() >= 6 {
            break lines;
        }
        assert!(
            Instant::now() < deadline,
            "query log never reached 6 records: {text:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    let parsed: Vec<QueryLogRecord> = records
        .iter()
        .map(|line| {
            let json = Json::parse(line).expect("log line json");
            QueryLogRecord::from_json(&json).expect("log line schema")
        })
        .collect();
    assert_eq!(parsed.len(), 6, "one record per request");
    for (line, record) in records.iter().zip(&parsed) {
        assert_eq!(record.model, "default");
        assert!(record.ts_ms > 0, "wall-clock timestamp");
        assert!(!line.contains("\"cache\""), "no cache field: {line}");
    }
    let generations: Vec<u64> = parsed.iter().map(|r| r.generation).collect();
    assert_eq!(generations, vec![0, 0, 0, 0, 0, 1], "computing generation");
    let label_of = |wire: &str, endpoint: &str| {
        parsed
            .iter()
            .filter(|r| r.wire == wire && r.endpoint == endpoint)
            .count()
    };
    assert_eq!(label_of("json", "single"), 2, "json singles logged");
    assert_eq!(label_of("gpsq", "single"), 2, "gpsq singles logged");
    assert_eq!(label_of("json", "batch"), 1, "batch logged once");
    assert_eq!(label_of("http", "single"), 1, "http single logged");
    assert_eq!(parsed[0].open, vec![22u16, 80], "evidence as answered");
    assert_eq!(
        parsed[0].top,
        ServeConfig::default().default_top,
        "top as answered"
    );
}
