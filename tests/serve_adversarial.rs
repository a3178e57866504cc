//! Adversarial-client tests for the serving transports: slowloris
//! half-frames, byte-dribbled requests, pipelined bursts, oversized
//! length prefixes, trailing garbage, and connection caps. Each case
//! runs against every transport (`gps_types::testutil::serve_transports`)
//! where the behavior is transport-independent; the slowloris sweep and
//! connection-cap semantics are asserted per transport with its own
//! mechanism (poll-based sweep vs `SO_RCVTIMEO`).

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
use gps::core::{CondModel, FeatureRules, Interactions, NetFeature, PriorsEntry};
use gps::serve::proto::{read_frame, write_frame};
use gps::serve::{Client, PredictionServer, Query, ServableModel, TransportConfig, WireFormat};
use gps::types::testutil::{serve_transports, DribbleProxy};
use gps::types::{Ip, Json, Port, Subnet};

/// Hand-rolled GPSQ frames for the raw-socket adversarial cases (the
/// real codec lives in `gps-serve`; encoding a ping by hand here keeps
/// the test independent of it — if the layout drifts, this breaks).
mod gpsq {
    /// LEB128, enough for test-sized values.
    fn varint(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn frame(payload: Vec<u8>) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// A length-prefixed GPSQ ping frame carrying `id`.
    pub fn ping_frame(id: u64) -> Vec<u8> {
        let mut payload = b"GPSQ".to_vec();
        payload.push(1); // version
        payload.push(1); // kind: ping
        payload.push(1); // flags: id present
        varint(id, &mut payload);
        frame(payload)
    }

    /// The id carried by a pong response payload (panics on anything
    /// else — these tests send only pings).
    pub fn pong_id(payload: &[u8]) -> u64 {
        assert_eq!(&payload[..4], b"GPSQ", "magic");
        assert_eq!(payload[4], 1, "version");
        assert_eq!(payload[5], 1, "kind: pong");
        assert_eq!(payload[6], 1, "flags: id");
        let mut value = 0u64;
        let mut shift = 0;
        for &byte in &payload[7..] {
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
        panic!("truncated varint id");
    }

    /// Read one length-prefixed payload off a blocking stream.
    pub fn read_payload(r: &mut impl std::io::Read) -> Vec<u8> {
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix).expect("length prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        r.read_exact(&mut payload).expect("payload");
        payload
    }
}

/// A tiny hand-built model (no training): 80 predicts 443, one prior.
fn model() -> ServableModel {
    let mut rules: HashMap<gps::core::CondKey, Vec<(Port, f64)>> = HashMap::new();
    rules.insert(gps::core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
    let snapshot = gps::core::ModelSnapshot {
        manifest: ModelManifest {
            format: (FORMAT_MAJOR, FORMAT_MINOR),
            universe_seed: 0,
            dataset_name: "adversarial".into(),
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
    };
    ServableModel::from_snapshot(snapshot)
}

fn spawn(transport: &str, config: TransportConfig) -> (Arc<PredictionServer>, SocketAddr) {
    let server = Arc::new(PredictionServer::with_defaults(model()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let config = TransportConfig {
        transport: transport.parse().expect("known transport"),
        poll_fallback: transport == "events-poll",
        ..config
    };
    {
        let server = server.clone();
        std::thread::spawn(move || gps::serve::serve(server, listener, config));
    }
    (server, addr)
}

fn predict_frame(id: u64) -> Json {
    let mut frame = Json::obj();
    frame
        .set("cmd", "predict")
        .set("ip", "10.1.2.3")
        .set("open", vec![Json::Num(80.0)])
        .set("id", Json::Num(id as f64));
    frame
}

/// Wait until `stream` reports EOF/error (the server closed it), within
/// a deadline.
fn assert_closed_within(mut stream: TcpStream, deadline: Duration, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let start = Instant::now();
    let mut buf = [0u8; 64];
    while start.elapsed() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return, // FIN: server closed
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return, // RST counts as closed too
            Ok(_) => panic!("{what}: server sent bytes to a half-dead connection"),
        }
    }
    panic!("{what}: connection still open after {deadline:?}");
}

/// A slowloris peer sends half a frame and goes silent: the connection
/// must be dropped at the idle timeout — and a healthy neighbor on the
/// same server must never notice.
#[test]
fn slowloris_half_frame_is_dropped_without_stalling_neighbors() {
    for transport in serve_transports() {
        let (server, addr) = spawn(
            transport,
            TransportConfig {
                idle_timeout: Some(Duration::from_millis(300)),
                ..TransportConfig::default()
            },
        );

        // The slowloris: a 4-byte prefix claiming 100 bytes, then 3 bytes
        // of body, then silence.
        let mut loris = TcpStream::connect(addr).expect("loris connect");
        loris.write_all(&100u32.to_be_bytes()).expect("prefix");
        loris.write_all(b"{\"c").expect("partial body");

        // The healthy neighbor keeps querying the whole time.
        let healthy = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("healthy connect");
            let deadline = Instant::now() + Duration::from_millis(900);
            let mut served = 0u32;
            while Instant::now() < deadline {
                let ranked = client
                    .predict(&Query::new(Ip::from_octets(10, 0, 0, 1)).with_open([80]))
                    .expect("healthy queries must not stall");
                assert_eq!(ranked[0], (Port(443), 0.9));
                served += 1;
            }
            served
        });

        assert_closed_within(
            loris,
            Duration::from_secs(5),
            &format!("{transport}: slowloris"),
        );
        let served = healthy.join().expect("healthy client");
        assert!(
            served > 50,
            "{transport}: neighbor should stream answers freely, served {served}"
        );
        // Poll the counters: the timed-out close is visible in stats.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().conns_timed_out == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = server.stats();
        assert!(
            stats.conns_timed_out >= 1,
            "{transport}: timeout counted, {stats:?}"
        );
    }
}

/// A burst of pipelined frames delivered in ONE write is answered
/// completely, in order, with ids echoed. The burst (400 frames) is
/// deliberately far past the event transport's 128-request pipeline
/// window, so the overflow-parking path — frames decoded in one read
/// beyond the window park and release as answers flush — is covered,
/// not just the happy path.
#[test]
fn pipelined_burst_in_one_segment_answers_in_order() {
    const BURST: u64 = 400;
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        let mut burst = Vec::new();
        for id in 0..BURST {
            write_frame(&mut burst, &predict_frame(id)).expect("encode");
        }
        let mut writer = stream;
        writer.write_all(&burst).expect("one segment");
        writer.flush().expect("flush");

        for id in 0..BURST {
            let response = read_frame(&mut reader).expect("read").expect("frame");
            assert_eq!(
                response.get("id").and_then(Json::as_u64),
                Some(id),
                "{transport}: responses come back in request order"
            );
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
    }
}

/// The same request delivered one byte per TCP segment (server-side
/// incremental decode) still answers correctly.
#[test]
fn single_bytes_per_segment_decode_into_one_request() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;

        let mut bytes = Vec::new();
        write_frame(&mut bytes, &predict_frame(9)).expect("encode");
        for &b in &bytes {
            writer.write_all(&[b]).expect("dribble");
            writer.flush().expect("flush");
        }
        let response = read_frame(&mut reader).expect("read").expect("frame");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(9),
            "{transport}"
        );
    }
}

/// An oversized length prefix is a framing error: the connection closes
/// (no reply possible — the stream position is untrustworthy), and other
/// connections are unaffected.
#[test]
fn oversized_prefix_closes_only_the_offender() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let mut offender = TcpStream::connect(addr).expect("connect");
        offender
            .write_all(&u32::MAX.to_be_bytes())
            .expect("bogus prefix");
        assert_closed_within(
            offender,
            Duration::from_secs(5),
            &format!("{transport}: oversized prefix"),
        );
        // The server still serves fresh connections.
        let mut client = Client::connect(addr).expect("fresh connect");
        client.ping().expect("server alive after framing abuse");
    }
}

/// A valid frame followed by garbage bytes: the valid request is
/// answered; once the garbage desynchronizes framing the connection
/// closes, without collateral damage.
#[test]
fn trailing_garbage_after_valid_frame() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream.try_clone().expect("clone");

        let mut bytes = Vec::new();
        write_frame(&mut bytes, &predict_frame(1)).expect("encode");
        // 0xFF... reads as a ~4GB length prefix — framing death.
        bytes.extend_from_slice(&[0xFF; 8]);
        writer.write_all(&bytes).expect("frame + garbage");
        writer.flush().expect("flush");

        let response = read_frame(&mut reader).expect("read").expect("frame");
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(1),
            "{transport}: the valid frame is answered before the garbage kills framing"
        );
        assert_closed_within(
            stream,
            Duration::from_secs(5),
            &format!("{transport}: trailing garbage"),
        );
        let mut client = Client::connect(addr).expect("fresh connect");
        client.ping().expect("server alive");
    }
}

/// `--max-conns`: connections beyond the cap are dropped at accept and
/// counted; closing one admits the next.
#[test]
fn max_conns_rejects_and_recovers() {
    for transport in serve_transports() {
        let (server, addr) = spawn(
            transport,
            TransportConfig {
                max_conns: 2,
                ..TransportConfig::default()
            },
        );
        let mut a = Client::connect(addr).expect("conn a");
        a.ping().expect("a serves");
        let mut b = Client::connect(addr).expect("conn b");
        b.ping().expect("b serves");

        // Third connection: TCP connect succeeds (the kernel accepts),
        // but the server drops it before serving — the first read sees
        // EOF.
        let c = TcpStream::connect(addr).expect("tcp connect");
        assert_closed_within(
            c,
            Duration::from_secs(5),
            &format!("{transport}: over-cap connection"),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().conns_rejected == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            server.stats().conns_rejected >= 1,
            "{transport}: rejection counted"
        );

        // Freeing a slot admits new connections again.
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut admitted = false;
        while !admitted && Instant::now() < deadline {
            if let Ok(mut d) = Client::connect(addr) {
                if d.ping().is_ok() {
                    admitted = true;
                }
            }
            if !admitted {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        assert!(admitted, "{transport}: slot freed after close");
        b.ping().expect("b unaffected throughout");
    }
}

/// A JSON frame arriving mid-binary-session is a framing error: the
/// server cannot answer it in a format the peer's (evidently broken)
/// encoder will parse, so the connection closes — after the valid binary
/// frames before it were answered, and without touching any neighbor.
#[test]
fn json_frame_mid_binary_session_closes_only_the_offender() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());

        // A healthy JSON neighbor sharing the server the whole time.
        let mut neighbor = Client::connect(addr).expect("neighbor connect");
        neighbor.ping().expect("neighbor serves");

        let stream = TcpStream::connect(addr).expect("offender connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream.try_clone().expect("clone");

        // Two valid binary pings negotiate the session and are answered.
        writer.write_all(&gpsq::ping_frame(1)).expect("ping 1");
        writer.write_all(&gpsq::ping_frame(2)).expect("ping 2");
        writer.flush().expect("flush");
        assert_eq!(gpsq::pong_id(&gpsq::read_payload(&mut reader)), 1);
        assert_eq!(gpsq::pong_id(&gpsq::read_payload(&mut reader)), 2);

        // Now a well-formed *JSON* frame on the binary session.
        let mut intruder = Vec::new();
        write_frame(&mut intruder, &predict_frame(3)).expect("encode");
        writer.write_all(&intruder).expect("intruder");
        writer.flush().expect("flush");
        assert_closed_within(
            stream,
            Duration::from_secs(5),
            &format!("{transport}: JSON mid-binary-session"),
        );

        // No collateral damage: the neighbor and fresh binary sessions
        // keep working.
        neighbor.ping().expect("neighbor unaffected");
        let mut fresh = Client::connect_with(addr, WireFormat::Binary).expect("fresh binary");
        fresh.ping().expect("server alive after format abuse");
    }
}

/// The mirror case: a GPSQ frame arriving mid-JSON-session also closes
/// only the offender (no mid-stream format switches in either
/// direction).
#[test]
fn binary_frame_mid_json_session_closes_only_the_offender() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream.try_clone().expect("clone");

        let mut bytes = Vec::new();
        write_frame(&mut bytes, &predict_frame(1)).expect("encode");
        writer.write_all(&bytes).expect("json frame");
        writer.flush().expect("flush");
        let response = read_frame(&mut reader).expect("read").expect("frame");
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));

        writer.write_all(&gpsq::ping_frame(2)).expect("gpsq frame");
        writer.flush().expect("flush");
        assert_closed_within(
            stream,
            Duration::from_secs(5),
            &format!("{transport}: GPSQ mid-JSON-session"),
        );
        let mut client = Client::connect(addr).expect("fresh connect");
        client.ping().expect("server alive");
    }
}

/// A burst of pipelined *binary* frames delivered in one write is
/// answered completely, in order, ids echoed — the GPSQ sibling of the
/// JSON pipelining case, with more frames in one read than a connection
/// answers per readiness event.
#[test]
fn pipelined_binary_burst_answers_in_order() {
    const BURST: u64 = 300;
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;

        let mut burst = Vec::new();
        for id in 0..BURST {
            burst.extend_from_slice(&gpsq::ping_frame(id));
        }
        writer.write_all(&burst).expect("one segment");
        writer.flush().expect("flush");
        for id in 0..BURST {
            assert_eq!(
                gpsq::pong_id(&gpsq::read_payload(&mut reader)),
                id,
                "{transport}: binary responses come back in request order"
            );
        }
    }
}

/// Valid binary frame, then garbage whose first bytes read as a ~4GB
/// length prefix: the valid frame is answered, then the connection
/// closes (framing death), like the JSON trailing-garbage case.
#[test]
fn trailing_garbage_after_valid_binary_frame() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream.try_clone().expect("clone");

        let mut bytes = gpsq::ping_frame(7);
        bytes.extend_from_slice(&[0xFF; 8]);
        writer.write_all(&bytes).expect("frame + garbage");
        writer.flush().expect("flush");
        assert_eq!(
            gpsq::pong_id(&gpsq::read_payload(&mut reader)),
            7,
            "{transport}: the valid binary frame is answered first"
        );
        assert_closed_within(
            stream,
            Duration::from_secs(5),
            &format!("{transport}: binary trailing garbage"),
        );
        let mut client = Client::connect_with(addr, WireFormat::Binary).expect("fresh connect");
        client.ping().expect("server alive");
    }
}

/// The binary client through the byte-dribbling proxy: GPSQ requests and
/// responses torn into single-byte TCP segments still reassemble (both
/// directions of the incremental decoder, binary session).
#[test]
fn binary_client_survives_dribbled_bytes() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let proxy = DribbleProxy::start(addr).expect("proxy");
        let mut client =
            Client::connect_with(proxy.addr(), WireFormat::Binary).expect("connect via proxy");
        client.ping().expect("ping through dribble");
        let ranked = client
            .predict(&Query::new(Ip::from_octets(10, 0, 0, 9)).with_open([80]))
            .expect("predict through dribble");
        assert_eq!(ranked[0], (Port(443), 0.9));
        let batch = vec![
            Query::new(Ip::from_octets(10, 0, 1, 1)),
            Query::new(Ip::from_octets(10, 0, 2, 2)).with_open([80]),
        ];
        let answers = client.predict_batch(&batch).expect("batch through dribble");
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[1][0], (Port(443), 0.9), "{transport}");
        // Admin envelope through the dribble too.
        client.stats().expect("stats through dribble");
    }
}

/// Regression for the `Client` read path: every response byte arriving
/// in its own TCP segment (length prefix torn across four reads) must
/// reassemble — covered by routing a real client through the
/// byte-dribbling proxy.
#[test]
fn client_reassembles_dribbled_responses() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let proxy = DribbleProxy::start(addr).expect("proxy");
        let mut client = Client::connect(proxy.addr()).expect("connect via proxy");
        client.ping().expect("ping through dribble");
        let ranked = client
            .predict(&Query::new(Ip::from_octets(10, 0, 0, 9)).with_open([80]))
            .expect("predict through dribble");
        assert_eq!(ranked[0], (Port(443), 0.9));
        let batch = vec![
            Query::new(Ip::from_octets(10, 0, 1, 1)),
            Query::new(Ip::from_octets(10, 0, 2, 2)).with_open([80]),
        ];
        let answers = client.predict_batch(&batch).expect("batch through dribble");
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[1][0], (Port(443), 0.9), "{transport}");
    }
}

/// Raw protocol sanity under the dribble proxy from the server's
/// perspective too: a request written through the proxy arrives a byte
/// at a time and is still answered (this is the regression pairing for
/// the incremental server-side decoder).
#[test]
fn server_reassembles_dribbled_requests() {
    for transport in serve_transports() {
        let (_server, addr) = spawn(transport, TransportConfig::default());
        let proxy = DribbleProxy::start(addr).expect("proxy");
        let stream = TcpStream::connect(proxy.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, &predict_frame(4)).expect("write");
        let response = read_frame(&mut reader).expect("read").expect("frame");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(4),
            "{transport}"
        );
    }
}

/// Adversarial *backends* behind the routing tier: a backend that stalls
/// mid-request (the per-attempt deadline must fire and an alternate must
/// answer) and a backend that replies with protocol garbage (it must be
/// marked down without poisoning the front connection). The router's /16
/// owner hash is mirrored here so each test can aim queries at the
/// misbehaving backend deliberately.
mod router_adversarial {
    use super::*;
    use gps::serve::{Router, RouterConfig, RouterHandle};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn owner_of(ip: Ip, n: usize) -> usize {
        (((ip.0 >> 16) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
    }

    /// An IP in `10.x.0.0/16` space owned by backend `want` of `n`.
    fn ip_owned_by(want: usize, n: usize) -> Ip {
        (0u32..256)
            .map(|x| Ip::from_octets(10, x as u8, 3, 4))
            .find(|&ip| owner_of(ip, n) == want)
            .expect("some /16 hashes to every backend")
    }

    /// A backend that accepts, reads, and never says a word.
    fn spawn_staller() -> (SocketAddr, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind staller");
        let addr = listener.local_addr().expect("local addr");
        let conns = Arc::new(AtomicU32::new(0));
        {
            let conns = conns.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    conns.fetch_add(1, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        let mut void = [0u8; 1024];
                        while matches!(stream.read(&mut void), Ok(n) if n > 0) {}
                    });
                }
            });
        }
        (addr, conns)
    }

    /// A backend that answers every connection with bytes that are not a
    /// frame: a length prefix far past the 16 MiB cap, then junk.
    fn spawn_garbage() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind garbage");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let mut void = [0u8; 1024];
                    // Wait for the router's request, then poison the reply.
                    let _ = stream.read(&mut void);
                    let _ = stream.write_all(&[0xFF; 64]);
                    let _ = stream.flush();
                });
            }
        });
        addr
    }

    fn backend_health(handle: &RouterHandle, idx: usize) -> String {
        let stats = handle.stats_json();
        stats
            .get("router")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_arr)
            .and_then(|b| b.get(idx))
            .and_then(|b| b.get("health"))
            .and_then(Json::as_str)
            .expect("backend health")
            .to_string()
    }

    fn await_down(handle: &RouterHandle, idx: usize, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while backend_health(handle, idx) != "down" {
            assert!(
                Instant::now() < deadline,
                "{what}: backend {idx} never marked down (health {})",
                backend_health(handle, idx)
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// A backend that accepts the request and stalls forever: the
    /// per-attempt deadline fires, the alternate answers the query, and
    /// once the staller is marked down later queries skip it entirely
    /// (fast again).
    #[test]
    fn stalling_backend_hits_deadline_and_alternate_answers() {
        let (_real_server, real_addr) = spawn("threads", TransportConfig::default());
        let (stall_addr, stall_conns) = spawn_staller();
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                backends: vec![real_addr.to_string(), stall_addr.to_string()],
                // One probe round at startup only: the *query path* must
                // discover the stall via its own deadline here, not lean
                // on the prober.
                probe_interval: Duration::from_secs(60),
                request_timeout: Duration::from_millis(300),
                max_retries: 2,
            },
        )
        .expect("router starts");
        let mut client = Client::connect(handle.addr()).expect("connect router");
        let owned = ip_owned_by(1, 2); // owned by the staller

        let t0 = Instant::now();
        let ranked = client
            .predict_on(None, &Query::new(owned).with_open([80]))
            .expect("answered despite the stall");
        let elapsed = t0.elapsed();
        assert_eq!(ranked[0], (Port(443), 0.9), "alternate served the query");
        assert!(
            elapsed >= Duration::from_millis(250),
            "deadline should have gated the stalled attempt, got {elapsed:?}"
        );
        assert!(handle.retries_total() > 0, "the stall forced a failover");
        assert!(
            stall_conns.load(Ordering::Relaxed) > 0,
            "the staller really was attempted"
        );

        // The stalled attempt plus the startup probe put the staller at
        // two failures: down. Later queries skip it without paying the
        // deadline.
        await_down(&handle, 1, "stall");
        let t0 = Instant::now();
        let ranked = client
            .predict_on(None, &Query::new(owned).with_open([80]))
            .expect("still answered");
        assert_eq!(ranked[0], (Port(443), 0.9));
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "a downed staller must not be waited on again, got {:?}",
            t0.elapsed()
        );
    }

    /// A backend that replies with garbage bytes: the router abandons the
    /// poisoned backend connection, retries on the healthy alternate, and
    /// the *front* connection keeps working — protocol corruption on a
    /// backend link never propagates to clients.
    #[test]
    fn garbage_frame_backend_is_marked_down_without_poisoning_the_front() {
        let (_real_server, real_addr) = spawn("threads", TransportConfig::default());
        let garbage_addr = spawn_garbage();
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                // Garbage backend first: index 0.
                backends: vec![garbage_addr.to_string(), real_addr.to_string()],
                probe_interval: Duration::from_millis(100),
                request_timeout: Duration::from_millis(500),
                max_retries: 2,
            },
        )
        .expect("router starts");
        let mut client = Client::connect(handle.addr()).expect("connect router");
        let owned = ip_owned_by(0, 2); // owned by the garbage backend

        let ranked = client
            .predict_on(None, &Query::new(owned).with_open([80]))
            .expect("answered despite the garbage");
        assert_eq!(ranked[0], (Port(443), 0.9), "alternate served the query");
        assert!(handle.retries_total() > 0, "the garbage forced a failover");

        // The prober speaks real GPSQ at the garbage backend and keeps
        // failing: down it goes.
        await_down(&handle, 0, "garbage");

        // Front connection not poisoned: the same client keeps getting
        // correct answers on both partitions, and batches spanning the
        // downed owner still come back complete.
        for i in 0..8u32 {
            let ip = Ip::from_octets(10, i as u8, 9, 9);
            let ranked = client
                .predict_on(None, &Query::new(ip).with_open([80]))
                .expect("front connection survived");
            assert_eq!(ranked[0], (Port(443), 0.9));
        }
        let batch: Vec<Query> = (0..16u32)
            .map(|i| Query::new(Ip::from_octets(10, i as u8, 5, 5)).with_open([80]))
            .collect();
        let answers = client.predict_batch_on(None, &batch).expect("batch");
        assert_eq!(answers.len(), 16);
        assert!(answers.iter().all(|r| r[0] == (Port(443), 0.9)));
        assert_eq!(handle.shed_total(), 0, "the healthy backend covered");
    }

    /// With *every* backend unreachable the router sheds: an explicit
    /// `overloaded` error, immediately — not a hang, not a closed
    /// connection — and the same front connection recovers the moment a
    /// backend is healthy again (here: never, so it keeps shedding).
    #[test]
    fn all_backends_down_sheds_with_explicit_error() {
        // Two addresses with nothing listening: connects fail instantly.
        let dead_a = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_b = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr_a = dead_a.local_addr().expect("addr");
        let addr_b = dead_b.local_addr().expect("addr");
        drop(dead_a);
        drop(dead_b);
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                backends: vec![addr_a.to_string(), addr_b.to_string()],
                probe_interval: Duration::from_millis(100),
                request_timeout: Duration::from_millis(300),
                max_retries: 2,
            },
        )
        .expect("router starts");
        let mut client = Client::connect(handle.addr()).expect("connect router");
        let err = client
            .predict_on(None, &Query::new(Ip::from_octets(10, 1, 2, 3)))
            .expect_err("no backend can answer");
        assert!(
            err.to_string().contains("overloaded"),
            "explicit shed error, got: {err}"
        );
        assert!(handle.shed_total() > 0);
        // The front connection is still alive and speaks protocol.
        let err = client
            .predict_on(None, &Query::new(Ip::from_octets(10, 4, 5, 6)))
            .expect_err("still shedding");
        assert!(err.to_string().contains("overloaded"));
    }
}

/// Graceful drain on `gps serve` itself: the wire `shutdown` command
/// flips the server into drain on every transport — the ack goes out,
/// in-flight work finishes, connections close once they owe nothing, and
/// new connections are refused.
mod serve_drain {
    use super::*;

    #[test]
    fn shutdown_command_drains_every_transport() {
        for transport in serve_transports() {
            let (server, addr) = spawn(transport, TransportConfig::default());

            // A working connection that has answered traffic already.
            let mut busy = Client::connect(addr).expect("busy client");
            let ranked = busy
                .predict(&Query::new(Ip::from_octets(10, 0, 1, 1)).with_open([80]))
                .expect("pre-drain predict");
            assert_eq!(ranked[0], (Port(443), 0.9), "{transport}");

            // Another client sends the shutdown; the ack must come back
            // before anything closes.
            let mut admin = Client::connect(addr).expect("admin client");
            admin.shutdown().expect("shutdown acked");
            assert!(server.is_draining(), "{transport}: draining flag set");
            assert!(server.stats().draining, "{transport}: stats report it");

            // The answered-and-idle connection closes. The transports
            // differ in *when*: the events loop sweeps it shut at once,
            // while the threads transport (blocked in read) serves at
            // most one more already-written request before noticing the
            // drain. Any reply that does arrive must still be correct,
            // and within two attempts the close must have landed.
            let mut closed = false;
            for i in 0..2u8 {
                match busy.predict(&Query::new(Ip::from_octets(10, 0, 2 + i, 2)).with_open([80])) {
                    Ok(ranked) => assert_eq!(ranked[0], (Port(443), 0.9), "{transport}"),
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            assert!(closed, "{transport}: drained connection must close");

            // New connections are refused while draining: the TCP accept
            // may succeed but the server hangs up without answering.
            let mut late = Client::connect(addr).expect("TCP-level connect");
            assert!(
                late.ping().is_err(),
                "{transport}: draining server must not take new work"
            );
        }
    }
}
