//! Failure injection: GPS and the scan chain under packet loss and
//! operator blocklists (smoltcp-style fault-injection discipline), and
//! the serving transports under connection churn, mid-frame disconnects,
//! and abandoned requests.

use gps::prelude::*;
use gps::scan::ScanPhase;

fn universe() -> Internet {
    Internet::generate(&UniverseConfig::tiny(77))
}

#[test]
fn scanner_under_loss_finds_subset() {
    let net = universe();
    let census = gps::synthnet::PortCensus::new(&net, 0);
    let port = census.top_ports(1)[0];

    let mut clean = Scanner::with_defaults(&net);
    let all: std::collections::HashSet<_> = clean
        .full_scan_port(ScanPhase::Baseline, port)
        .into_iter()
        .map(|o| o.key())
        .collect();

    for drop in [0.1, 0.5, 0.9] {
        let mut lossy = Scanner::new(
            &net,
            ScanConfig {
                response_drop_prob: drop,
                ..ScanConfig::default()
            },
        );
        let found: std::collections::HashSet<_> = lossy
            .full_scan_port(ScanPhase::Baseline, port)
            .into_iter()
            .map(|o| o.key())
            .collect();
        assert!(found.is_subset(&all), "loss must not invent services");
        let frac = found.len() as f64 / all.len().max(1) as f64;
        assert!(
            (frac - (1.0 - drop)).abs() < 0.15,
            "drop={drop}: survival fraction {frac:.2} far from expectation"
        );
    }
}

#[test]
fn gps_degrades_gracefully_under_loss() {
    let net = universe();
    let dataset = censys_dataset(&net, 150, 0.05, 0, 5);
    let config = GpsConfig {
        step_prefix: 16,
        curve_points: 16,
        ..GpsConfig::default()
    };
    let clean = run_gps(&net, &dataset, &config);

    // Re-run with a lossy scanner by injecting loss through the dataset's
    // scan config: the pipeline builds its own scanner, so emulate loss by
    // scanning a blocklisted universe instead — the two /16s GPS cannot see
    // simply vanish from its results.
    // (Response-loss plumbed through GpsConfig would be another knob; the
    // scanner-level tests above cover stochastic loss.)
    let _ = clean;

    // Blocklist resilience at the scanner level:
    let mut scanner = Scanner::with_defaults(&net);
    let shielded = net.topology().blocks()[0].subnet();
    scanner.add_blocklist(shielded);
    let census = gps::synthnet::PortCensus::new(&net, 0);
    let port = census.top_ports(1)[0];
    let observations = scanner.full_scan_port(ScanPhase::Baseline, port);
    assert!(observations.iter().all(|o| !shielded.contains(o.ip)));
    // Probes still charged for the shielded space.
    assert!(scanner.ledger().total_probes() >= net.universe_size());
}

#[test]
fn ledger_monotone_under_all_conditions() {
    let net = universe();
    let mut scanner = Scanner::new(
        &net,
        ScanConfig {
            response_drop_prob: 0.5,
            ..ScanConfig::default()
        },
    );
    scanner.add_blocklist(net.topology().blocks()[0].subnet());
    let mut last = 0u64;
    let census = gps::synthnet::PortCensus::new(&net, 0);
    for port in census.top_ports(5) {
        let _ = scanner.full_scan_port(ScanPhase::Baseline, port);
        let now = scanner.ledger().total_probes();
        assert!(now > last, "ledger must strictly grow");
        last = now;
    }
}

#[test]
fn day_shift_never_adds_services_to_old_set() {
    // Churn only removes: a day-10 scan of day-0 discoveries is a subset.
    let net = universe();
    let census = gps::synthnet::PortCensus::new(&net, 0);
    let port = census.top_ports(1)[0];
    let mut day0 = Scanner::with_defaults(&net);
    let at0: std::collections::HashSet<_> = day0
        .full_scan_port(ScanPhase::Baseline, port)
        .into_iter()
        .map(|o| o.key())
        .collect();
    let mut day10 = Scanner::new(
        &net,
        ScanConfig {
            day: 10,
            ..ScanConfig::default()
        },
    );
    let at10: std::collections::HashSet<_> = day10
        .full_scan_port(ScanPhase::Baseline, port)
        .into_iter()
        .map(|o| o.key())
        .collect();
    assert!(at10.is_subset(&at0));
}

mod router_resilience {
    use std::collections::HashMap;
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    use gps::core::{CondModel, FeatureRules, Interactions, NetFeature, PriorsEntry};
    use gps::serve::{
        Client, PredictionServer, Query, Router, RouterConfig, RouterHandle, ServableModel,
    };
    use gps::types::{Ip, Port, Subnet};

    /// A tiny hand-built model (no training): 80 predicts 443, one prior.
    fn model() -> ServableModel {
        let mut rules: HashMap<gps::core::CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(gps::core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
        let snapshot = gps::core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 0,
                dataset_name: "router".into(),
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

    /// A backend whose process death is simulated the hard way: stop
    /// accepting AND slam every live connection shut (`kill -9` as seen
    /// from the router — no FIN handshake courtesy, readers get resets).
    struct KillableBackend {
        addr: SocketAddr,
        server: Arc<PredictionServer>,
        live: Arc<Mutex<Vec<TcpStream>>>,
        stop: Arc<AtomicBool>,
    }

    impl KillableBackend {
        fn start(server: Arc<PredictionServer>, addr: &str) -> KillableBackend {
            // Post-restart rebinds race the old listener's teardown.
            let deadline = Instant::now() + Duration::from_secs(5);
            let listener = loop {
                match TcpListener::bind(addr) {
                    Ok(l) => break l,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => panic!("rebind {addr}: {e}"),
                }
            };
            let addr = listener.local_addr().expect("local addr");
            let live: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let stop = Arc::new(AtomicBool::new(false));
            {
                let server = server.clone();
                let live = live.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            return; // drops the listener, freeing the port
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        live.lock()
                            .expect("live list")
                            .push(stream.try_clone().expect("clone stream"));
                        let server = server.clone();
                        std::thread::spawn(move || {
                            let _ = gps::serve::proto::serve_connection(&server, stream);
                        });
                    }
                });
            }
            KillableBackend {
                addr,
                server,
                live,
                stop,
            }
        }

        /// Kill the backend: new connects refused, in-flight ones reset.
        fn kill(self) -> (Arc<PredictionServer>, SocketAddr) {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop so it observes `stop` and exits.
            let _ = TcpStream::connect(self.addr);
            for stream in self.live.lock().expect("live list").drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
            (self.server, self.addr)
        }
    }

    /// The router's /16 owner hash, mirrored here so tests can aim
    /// queries at a specific backend. If this drifts from the router's
    /// placement the `owned-by` assertions below fail loudly.
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

    fn start_router(backends: &[SocketAddr]) -> RouterHandle {
        Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                backends: backends.iter().map(|a| a.to_string()).collect(),
                probe_interval: Duration::from_millis(100),
                request_timeout: Duration::from_millis(500),
                max_retries: 2,
            },
        )
        .expect("router starts")
    }

    /// The tentpole's acceptance story: two backends behind the router,
    /// pipelined query load running, one backend killed -9 mid-load and
    /// restarted — every single query is answered correctly (zero failed
    /// queries), the retry counter shows the failover did happen, nothing
    /// was shed, and after the restart the router routes to the returned
    /// backend again (it un-wedges).
    #[test]
    fn zero_failed_queries_through_backend_kill_and_restart() {
        let b0 = KillableBackend::start(
            Arc::new(PredictionServer::with_defaults(model())),
            "127.0.0.1:0",
        );
        let b1 = KillableBackend::start(
            Arc::new(PredictionServer::with_defaults(model())),
            "127.0.0.1:0",
        );
        let handle = start_router(&[b0.addr, b1.addr]);

        // Pipelined load across /16s owned by both backends, depth 8,
        // running until the main thread has staged the whole kill +
        // restart sequence through it. Every predict must come back with
        // the model's answer; any client-visible error panics the thread
        // and fails the test on join.
        let router_addr = handle.addr();
        let progress = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let load = {
            let progress = progress.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).expect("connect router");
                let mut inflight = std::collections::VecDeque::new();
                let mut i = 0u32;
                while !done.load(Ordering::Acquire) || !inflight.is_empty() {
                    if !done.load(Ordering::Acquire) {
                        let ip = Ip::from_octets(10, (i % 64) as u8, 1, 2);
                        let id = client
                            .predict_send(None, &Query::new(ip).with_open([80]))
                            .expect("send through router");
                        inflight.push_back(id);
                        i += 1;
                    }
                    if inflight.len() >= 8 || done.load(Ordering::Acquire) {
                        let id = inflight.pop_front().expect("inflight");
                        let ranked = client.predict_recv(id).expect("recv through router");
                        assert_eq!(ranked[0], (Port(443), 0.9));
                        progress.fetch_add(1, Ordering::Release);
                    }
                }
            })
        };
        let answered_beyond = |mark: u32| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let now = progress.load(Ordering::Acquire);
                if now > mark {
                    return now;
                }
                assert!(Instant::now() < deadline, "load stalled at {now}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // Let traffic flow, kill backend 1 mid-load, force a window of
        // queries through the dead period, then "restart the process" on
        // the same address and push more load through the recovery.
        let before_kill = answered_beyond(100);
        let (server1, addr1) = b1.kill();
        let during_death = answered_beyond(before_kill + 200);
        let b1 = KillableBackend::start(server1, &addr1.to_string());
        answered_beyond(during_death + 200);
        done.store(true, Ordering::Release);
        load.join()
            .expect("zero failed queries through the restart");
        assert!(
            handle.retries_total() > 0,
            "the kill must have forced failovers"
        );
        assert_eq!(handle.shed_total(), 0, "nothing was shed: b0 covered");

        // Un-wedge: queries owned by the restarted backend flow to it
        // again once the prober notices it is back.
        let owned = ip_owned_by(1, 2);
        let before = b1.server.stats().requests;
        let mut client = Client::connect(handle.addr()).expect("reconnect");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ranked = client
                .predict_on(None, &Query::new(owned).with_open([80]))
                .expect("post-restart predict");
            assert_eq!(ranked[0], (Port(443), 0.9));
            if b1.server.stats().requests > before {
                break; // the restarted backend is serving again
            }
            assert!(
                Instant::now() < deadline,
                "router never routed back to the restarted backend"
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Counters converge: the router's stats see every connection it
        // still holds, and the health picture reports both backends up.
        let stats = handle.stats_json();
        let router = stats.get("router").expect("router section");
        let backends = router
            .get("backends")
            .and_then(gps::types::Json::as_arr)
            .expect("backends array");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let all_up = {
                let stats = handle.stats_json();
                let router = stats.get("router").expect("router section");
                router
                    .get("backends")
                    .and_then(gps::types::Json::as_arr)
                    .expect("backends array")
                    .iter()
                    .all(|b| b.get("health").and_then(gps::types::Json::as_str) == Some("up"))
            };
            if all_up {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "restarted backend never probed back to up: {backends:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(client);
    }

    /// Batches fan out across both backends and reassemble in request
    /// order; killing a backend between batches just reroutes the next
    /// one (the whole frame still succeeds).
    #[test]
    fn batches_survive_a_backend_kill() {
        let b0 = KillableBackend::start(
            Arc::new(PredictionServer::with_defaults(model())),
            "127.0.0.1:0",
        );
        let b1 = KillableBackend::start(
            Arc::new(PredictionServer::with_defaults(model())),
            "127.0.0.1:0",
        );
        let handle = start_router(&[b0.addr, b1.addr]);
        let mut client = Client::connect(handle.addr()).expect("connect router");

        // A batch spanning /16s owned by both backends.
        let queries: Vec<Query> = (0..32u32)
            .map(|i| Query::new(Ip::from_octets(10, i as u8, 7, 7)).with_open([80]))
            .collect();
        let rankings = client.predict_batch_on(None, &queries).expect("fan-out");
        assert_eq!(rankings.len(), 32);
        assert!(rankings.iter().all(|r| r[0] == (Port(443), 0.9)));
        // Both backends actually served a sub-batch.
        assert!(b0.server.stats().requests > 0, "b0 got its partition");
        assert!(b1.server.stats().requests > 0, "b1 got its partition");

        let _ = b1.kill();
        let rankings = client
            .predict_batch_on(None, &queries)
            .expect("batch after kill: rerouted, not failed");
        assert_eq!(rankings.len(), 32);
        assert!(rankings.iter().all(|r| r[0] == (Port(443), 0.9)));
        assert!(handle.retries_total() > 0, "the dead partition was retried");
        assert_eq!(handle.shed_total(), 0);
    }
}

mod serve_churn {
    use std::collections::HashMap;
    use std::io::Write;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    use gps::core::{CondModel, FeatureRules, Interactions, NetFeature, PriorsEntry};
    use gps::serve::{
        Client, PredictionServer, Query, ServableModel, StatsSnapshot, TransportConfig,
    };
    use gps::types::testutil::serve_transports;
    use gps::types::{Ip, Port, Subnet};

    /// A tiny hand-built model (no training): 80 predicts 443, one prior.
    fn model() -> ServableModel {
        let mut rules: HashMap<gps::core::CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(gps::core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
        let snapshot = gps::core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 0,
                dataset_name: "churn".into(),
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

    fn spawn(transport: &str) -> (Arc<PredictionServer>, SocketAddr) {
        let server = Arc::new(PredictionServer::with_defaults(model()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let config = TransportConfig::named(transport).expect("known transport");
        {
            let server = server.clone();
            std::thread::spawn(move || gps::serve::serve(server, listener, config));
        }
        (server, addr)
    }

    /// Poll `stats()` until `accept` is satisfied or a generous deadline
    /// passes (connection teardown is asynchronous on both transports).
    fn await_stats(
        server: &PredictionServer,
        what: &str,
        accept: impl Fn(&StatsSnapshot) -> bool,
    ) -> StatsSnapshot {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = server.stats();
            if accept(&stats) {
                return stats;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: stats never converged: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Many connect → query → disconnect cycles, interleaved with
    /// mid-frame disconnects (a length prefix promising bytes that never
    /// come, a torn prefix, a request whose answer nobody reads): nothing
    /// may wedge, and the connection counters must balance
    /// to zero live connections afterward, on every transport.
    #[test]
    fn connection_churn_and_midframe_disconnects_leave_server_healthy() {
        for transport in serve_transports() {
            let (server, addr) = spawn(transport);
            let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);

            let mut expected_conns = 0u64;
            for cycle in 0..40u32 {
                match cycle % 4 {
                    // Clean cycle: connect, query, disconnect.
                    0 | 1 => {
                        let mut client = Client::connect(addr).expect("connect");
                        let ranked = client.predict(&query()).expect("predict");
                        assert_eq!(ranked[0], (Port(443), 0.9));
                        expected_conns += 1;
                    }
                    // Mid-frame disconnect: promise 64 bytes, send 5, go.
                    2 => {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream.write_all(&64u32.to_be_bytes()).expect("prefix");
                        stream.write_all(b"{\"cmd").expect("torn body");
                        drop(stream);
                        expected_conns += 1;
                    }
                    // Disconnect inside the 4-byte length prefix itself.
                    _ => {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream.write_all(&[0, 0]).expect("half a prefix");
                        drop(stream);
                        expected_conns += 1;
                    }
                }
            }
            // A request whose answer nobody reads: send a full predict
            // frame and immediately disconnect — the server still computes
            // it, the reply lands on a dead connection, nothing wedges.
            for _ in 0..5 {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut frame = gps::types::Json::obj();
                frame.set("cmd", "predict").set("ip", "10.0.3.4");
                let mut bytes = Vec::new();
                gps::serve::proto::write_frame(&mut bytes, &frame).expect("encode");
                stream.write_all(&bytes).expect("frame");
                drop(stream);
                expected_conns += 1;
            }

            // Every churned connection is eventually accounted closed...
            let stats = await_stats(server.as_ref(), transport, |s| {
                s.conns_accepted == expected_conns && s.conns_closed == expected_conns
            });
            assert_eq!(stats.conns_active, 0, "{transport}: no zombie connections");
            assert_eq!(stats.conns_rejected, 0, "{transport}: nothing was rejected");
            assert_eq!(
                stats.conns_timed_out, 0,
                "{transport}: no idle timeout configured, none may fire"
            );

            // ...and the server is not wedged: a fresh client
            // still gets every answer, promptly.
            let mut client = Client::connect(addr).expect("fresh connect");
            for i in 0..50u32 {
                let ip = Ip::from_octets(10, (i % 3) as u8, 1, 1);
                let ranked = client
                    .predict(&Query::new(ip).with_open([80]))
                    .expect("post-churn predict");
                assert_eq!(ranked[0], (Port(443), 0.9), "{transport}");
            }
            let batch: Vec<Query> = (0..64u32).map(|i| Query::new(Ip(i << 16 | 9))).collect();
            assert_eq!(
                client
                    .predict_batch(&batch)
                    .expect("post-churn batch")
                    .len(),
                64,
                "{transport}: batches still answer every query"
            );
            let stats = await_stats(server.as_ref(), transport, |s| {
                s.conns_accepted == expected_conns + 1
            });
            // The request counters moved for the post-churn traffic, so
            // the server is demonstrably answering.
            assert!(
                stats.requests >= expected_conns / 2 + 50 + 64,
                "{transport}: served throughout: {stats:?}"
            );
            drop(client);
            await_stats(server.as_ref(), transport, |s| {
                s.conns_closed == expected_conns + 1 && s.conns_active == 0
            });
        }
    }
}
