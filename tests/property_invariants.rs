//! Property-based tests over the core data structures and invariants.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use gps::core::metrics::{CoverageTracker, GroundTruth};
use gps::core::{CondKey, CondModel, GpsConfig, Interactions, ModelSnapshot, NetFeature};
use gps::engine::{Backend, ExecLedger};
use gps::scan::{CyclicPermutation, ServiceObservation};
use gps::serve::{
    Client, PredictScratch, PredictionServer, Query, ReferenceModel, ServableModel, ServeConfig,
    WireFormat,
};
use gps::types::rng::Rng;
use gps::types::{Ip, Port, ServiceKey, Subnet, Sym};
use proptest::prelude::*;

fn arb_services(max: usize) -> impl Strategy<Value = Vec<(u32, u16)>> {
    proptest::collection::vec((0u32..50_000, 1u16..2000), 1..max)
}

proptest! {
    #[test]
    fn subnet_contains_its_members(ip in any::<u32>(), prefix in 0u8..=32) {
        let subnet = Subnet::of_ip(Ip(ip), prefix);
        prop_assert!(subnet.contains(Ip(ip)));
        prop_assert!(subnet.first() <= Ip(ip) && Ip(ip) <= subnet.last());
        // The base is masked.
        prop_assert_eq!(subnet.base().0 & !Subnet::mask(prefix), 0);
    }

    #[test]
    fn subnet_split_partitions(ip in any::<u32>(), prefix in 0u8..32) {
        let parent = Subnet::of_ip(Ip(ip), prefix);
        let (lo, hi) = parent.split().unwrap();
        prop_assert_eq!(lo.size() + hi.size(), parent.size());
        prop_assert!(parent.contains_subnet(lo) && parent.contains_subnet(hi));
        prop_assert!(!lo.contains_subnet(hi) && !hi.contains_subnet(lo));
        // Membership goes to exactly one child.
        prop_assert!(lo.contains(Ip(ip)) ^ hi.contains(Ip(ip)));
    }

    #[test]
    fn permutation_is_bijection(n in 1u64..5000, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let seen: HashSet<u64> = CyclicPermutation::new(n, &mut rng).collect();
        prop_assert_eq!(seen.len() as u64, n);
        prop_assert!(seen.iter().all(|&v| v < n));
    }

    #[test]
    fn coverage_metrics_bounded(services in arb_services(200), probes in 1u64..10_000) {
        let keys: Vec<ServiceKey> = services
            .iter()
            .map(|&(ip, port)| ServiceKey::new(Ip(ip), Port(port)))
            .collect();
        let ground = GroundTruth::from_services(keys.clone());
        let mut tracker = CoverageTracker::new(&ground);
        tracker.charge_probes(probes);
        // Record a prefix of the ground truth plus some junk.
        for key in keys.iter().take(keys.len() / 2) {
            tracker.record(*key);
        }
        tracker.record(ServiceKey::new(Ip(u32::MAX), Port(65535)));
        prop_assert!((0.0..=1.0).contains(&tracker.fraction_of_services()));
        prop_assert!((0.0..=1.0).contains(&tracker.normalized_fraction()));
        prop_assert!(tracker.precision() >= 0.0);
        prop_assert!(tracker.found_count() <= ground.total());
    }

    #[test]
    fn full_recording_reaches_exactly_one(services in arb_services(100)) {
        let keys: Vec<ServiceKey> = services
            .iter()
            .map(|&(ip, port)| ServiceKey::new(Ip(ip), Port(port)))
            .collect();
        let ground = GroundTruth::from_services(keys.clone());
        let mut tracker = CoverageTracker::new(&ground);
        for key in &keys {
            tracker.record(*key);
        }
        prop_assert!((tracker.fraction_of_services() - 1.0).abs() < 1e-9);
        prop_assert!((tracker.normalized_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_probabilities_are_probabilities(services in arb_services(120)) {
        // Build host records from random (ip, port) pairs.
        let observations: Vec<ServiceObservation> = services
            .iter()
            .map(|&(ip, port)| ServiceObservation {
                ip: Ip(ip % 500), // force co-located hosts
                port: Port(port),
                ttl: 64,
                protocol: gps::types::Protocol::Http,
                content: Sym(0),
                features: vec![],
            })
            .collect();
        let hosts = gps::core::group_by_host(
            &observations,
            &[NetFeature::Slash(16), NetFeature::Asn],
            &|_| Some(7),
        );
        let (model, stats) = CondModel::build(
            &hosts,
            Interactions::ALL,
            Backend::SingleCore,
            &ExecLedger::new(),
        );
        prop_assert_eq!(stats.hosts_in, hosts.len());
        for (key, key_stats) in model.iter() {
            prop_assert!(key_stats.hosts > 0);
            for &(port, count) in &key_stats.targets {
                prop_assert!(count <= key_stats.hosts, "P > 1 for {key:?}");
                let p = model.probability(key, port);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
        // Denominator consistency: hosts(Port(p)) equals the number of host
        // records with p open.
        for host in &hosts {
            for service in &host.services {
                let stats = model.stats(&CondKey::Port(service.port)).unwrap();
                let actual = hosts
                    .iter()
                    .filter(|h| h.services.iter().any(|s| s.port == service.port))
                    .count() as u32;
                prop_assert_eq!(stats.hosts, actual);
            }
        }
    }

    #[test]
    fn filter_is_idempotent(services in arb_services(150)) {
        let observations: Vec<ServiceObservation> = services
            .iter()
            .map(|&(ip, port)| ServiceObservation {
                ip: Ip(ip % 100),
                port: Port(port),
                ttl: 64,
                protocol: gps::types::Protocol::Http,
                content: Sym(ip % 13),
                features: vec![],
            })
            .collect();
        let (once, _) = gps::core::filter_pseudo_services(observations);
        let (twice, stats2) = gps::core::filter_pseudo_services(once.clone());
        prop_assert_eq!(once, twice);
        prop_assert_eq!(stats2.dropped_big_hosts, 0);
    }
}

/// A model trained once on the quick universe, served three ways: from
/// the in-memory artifact, after a JSON round trip, and after the full
/// JSON → GPSB binary → JSON conversion chain. Training and
/// (de)serialization dominate the cost, so property cases share them.
/// The GPSB bytes ride along for the decoder-rejection properties.
struct ServedArtifacts {
    original: ServableModel,
    via_json: ServableModel,
    via_binary: ServableModel,
    /// Served straight from the GPSB bytes — `compiled` arrives through
    /// the CMPL section's bulk load rather than being compiled in-process.
    via_gpsb: ServableModel,
    /// Served from CMPL-less GPSB bytes — the compile-at-load fallback
    /// for snapshots written before the section existed.
    via_gpsb_no_cmpl: ServableModel,
    /// The pre-kernel HashMap implementation, the parity baseline.
    reference: ReferenceModel,
    gpsb_bytes: Vec<u8>,
}

fn served_artifacts() -> &'static ServedArtifacts {
    static ARTIFACTS: OnceLock<ServedArtifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let net = gps::synthnet::Internet::generate(&gps::synthnet::UniverseConfig::tiny(77));
        let dataset = gps::core::censys_dataset(&net, 200, 0.05, 0, 1);
        let config = GpsConfig {
            seed_fraction: 0.05,
            step_prefix: 16,
            ..GpsConfig::default()
        };
        let run = gps::core::run_gps(&net, &dataset, &config);
        let snapshot = ModelSnapshot::from_run(&run, &config, 77);
        let json = snapshot.to_json_string();
        let reloaded = ModelSnapshot::from_json_str(&json).expect("round trip parses");
        // JSON -> binary -> JSON: the chain must be lossless down to the
        // serialized bytes (probabilities travel as f64 bit patterns).
        let gpsb_bytes = reloaded.to_binary_bytes();
        let from_binary = ModelSnapshot::from_binary_bytes(&gpsb_bytes).expect("binary parses");
        assert_eq!(
            from_binary.to_json_string(),
            json,
            "JSON -> GPSB -> JSON must be byte-identical"
        );
        let via_binary =
            ModelSnapshot::from_json_str(&from_binary.to_json_string()).expect("reparses");
        assert!(
            from_binary.compiled.is_some(),
            "GPSB bytes carry the CMPL section"
        );
        let no_cmpl_bytes = reloaded.to_binary_bytes_with(false);
        let no_cmpl = ModelSnapshot::from_binary_bytes(&no_cmpl_bytes).expect("no-CMPL parses");
        assert!(no_cmpl.compiled.is_none(), "--no-compiled bytes lack CMPL");
        ServedArtifacts {
            reference: ReferenceModel::from_snapshot(&snapshot),
            original: ServableModel::from_snapshot(snapshot),
            via_json: ServableModel::from_snapshot(reloaded),
            via_binary: ServableModel::from_snapshot(via_binary),
            via_gpsb: ServableModel::from_snapshot(from_binary),
            via_gpsb_no_cmpl: ServableModel::from_snapshot(no_cmpl),
            gpsb_bytes,
        }
    })
}

proptest! {
    /// Save → load of a trained snapshot reproduces identical `predict`
    /// output: for random IPs (cold and with random open-port evidence),
    /// the models served from the JSON round trip and from the full
    /// JSON → binary → JSON chain answer exactly like the model served
    /// from the in-memory artifact. Probabilities are compared
    /// bit-exactly — both the JSON float encoding and the GPSB f64 bit
    /// patterns must round-trip.
    #[test]
    fn snapshot_round_trip_preserves_predictions(
        ips in proptest::collection::vec(any::<u32>(), 1000..1001),
        evidence_port in 1u16..2000,
    ) {
        let artifacts = served_artifacts();
        for (i, ip) in ips.into_iter().enumerate() {
            let mut query = Query::new(Ip(ip));
            query.top = 16;
            if i % 3 == 0 {
                query.open = vec![Port(evidence_port), Port(80)];
            }
            let expected = artifacts.original.predict(&query);
            prop_assert_eq!(&artifacts.via_json.predict(&query), &expected);
            prop_assert_eq!(&artifacts.via_binary.predict(&query), &expected);
            prop_assert_eq!(&artifacts.via_gpsb.predict(&query), &expected);
            prop_assert_eq!(&artifacts.via_gpsb_no_cmpl.predict(&query), &expected);
        }
    }

    /// The compiled kernel is **bit-identical** to the HashMap reference
    /// path on random warm/cold query mixes: same ports in the same
    /// order, same f64 bit patterns — whether the compiled form was
    /// built in-process, bulk-loaded from the CMPL section, or
    /// recompiled from a CMPL-less snapshot.
    #[test]
    fn compiled_kernel_matches_reference_bit_identical(
        ips in proptest::collection::vec(any::<u32>(), 200..201),
        open in proptest::collection::vec(1u16..2000, 0..6),
        asn_raw in 0u32..100,
        top in 0usize..20,
    ) {
        // Half the cases carry ASN evidence (the shim has no option::of).
        let asn = if asn_raw < 50 { Some(asn_raw) } else { None };
        let artifacts = served_artifacts();
        let mut scratch = PredictScratch::default();
        let mut best = std::collections::HashMap::new();
        for (i, ip) in ips.into_iter().enumerate() {
            let mut query = Query::new(Ip(ip));
            // Cycle evidence shapes so every case mixes cold and warm.
            if i % 3 != 0 {
                query.open = open.iter().map(|&p| Port(p)).collect();
            }
            query.asn = asn;
            query.top = top;
            let want: Vec<(u16, u64)> = artifacts
                .reference
                .predict_with(&mut best, &query)
                .iter()
                .map(|&(p, v)| (p.0, v.to_bits()))
                .collect();
            for model in [
                &artifacts.original,
                &artifacts.via_gpsb,
                &artifacts.via_gpsb_no_cmpl,
            ] {
                let got: Vec<(u16, u64)> = model
                    .predict_with(&mut scratch, &query)
                    .iter()
                    .map(|&(p, v)| (p.0, v.to_bits()))
                    .collect();
                prop_assert_eq!(&got, &want, "query {:?}", &query);
            }
        }
    }

    /// Any single corrupted byte in a GPSB snapshot makes the decoder
    /// refuse to load it — on the full path and the model-skipping
    /// serving path alike (the serving path must not skip *verifying*
    /// what it does not parse).
    #[test]
    fn gpsb_decoder_rejects_corrupted_sections(
        position in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let clean = &served_artifacts().gpsb_bytes;
        let position = (position % clean.len() as u64) as usize;
        let mut corrupt = clean.clone();
        corrupt[position] ^= flip;
        prop_assert!(
            ModelSnapshot::from_binary_bytes(&corrupt).is_err(),
            "flip {flip:#04x} at byte {position} must not load"
        );
        // The serving path sees the same corruption through a temp file.
        let path = std::env::temp_dir().join(format!(
            "gps_prop_corrupt_{}_{position}_{flip}.gpsb",
            std::process::id()
        ));
        std::fs::write(&path, &corrupt).expect("write corrupt file");
        let serving = ModelSnapshot::load_serving(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(serving.is_err(), "serving load of flipped byte {position} must fail");
    }

    /// A truncated GPSB file never loads, whatever the cut point.
    #[test]
    fn gpsb_decoder_rejects_truncation(cut in any::<u64>()) {
        let clean = &served_artifacts().gpsb_bytes;
        let cut = (cut % clean.len() as u64) as usize;
        prop_assert!(
            ModelSnapshot::from_binary_bytes(&clean[..cut]).is_err(),
            "prefix of {cut} bytes must not load"
        );
    }

    /// JSON ↔ GPSQ wire parity over the live protocol stack: the same
    /// random request served through a JSON connection and a binary
    /// connection of one server yields a **bit-identical** `Ranked` —
    /// same ports in the same order, same probability bit patterns —
    /// for cold and warm queries, single and batch shapes, against the
    /// trained artifact's direct `predict` as the common reference.
    #[test]
    fn wire_formats_serve_bit_identical_predictions(
        ips in proptest::collection::vec(any::<u32>(), 24..25),
        evidence_port in 1u16..2000,
        asn in any::<bool>(),
    ) {
        let artifacts = served_artifacts();
        let (_server, json, binary) = parity_server();
        let mut json = json.lock().expect("json client lock");
        let mut binary = binary.lock().expect("binary client lock");
        let mut queries = Vec::new();
        for (i, ip) in ips.into_iter().enumerate() {
            let mut query = Query::new(Ip(ip));
            query.top = 16;
            if i % 3 == 0 {
                query.open = vec![Port(evidence_port), Port(80)];
            }
            if asn && i % 4 == 0 {
                query.asn = Some(u32::from(evidence_port));
            }
            let expected = artifacts.original.predict(&query);
            let via_json = json.predict(&query).expect("json predict");
            let via_binary = binary.predict(&query).expect("binary predict");
            prop_assert_eq!(&via_json, &expected, "json equals the artifact");
            prop_assert_eq!(&via_binary.len(), &expected.len());
            for (b, e) in via_binary.iter().zip(&expected) {
                prop_assert_eq!(b.0, e.0, "binary ports equal the artifact's");
                prop_assert_eq!(
                    b.1.to_bits(),
                    e.1.to_bits(),
                    "binary probability bits equal the artifact's"
                );
            }
            queries.push(query);
        }
        // One batch frame per format carries the same queries.
        let batch_json = json.predict_batch(&queries).expect("json batch");
        let batch_binary = binary.predict_batch(&queries).expect("binary batch");
        for ((a, b), query) in batch_json.iter().zip(&batch_binary).zip(&queries) {
            prop_assert_eq!(a.len(), b.len(), "batch ranking sizes for {:?}", query);
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.0, y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    /// Per-model isolation across reloads: with models A and B
    /// registered, answer random queries on B, hot-reload A, and require
    /// that B's answers stay identical to its pre-reload answers and to
    /// the direct artifact lookup, and that B's generation never moves.
    #[test]
    fn reloading_one_model_leaves_other_models_answers_intact(
        ips in proptest::collection::vec(any::<u32>(), 40..41),
        evidence_port in 1u16..2000,
    ) {
        let artifacts = served_artifacts();
        let queries: Vec<Query> = ips
            .into_iter()
            .enumerate()
            .map(|(i, ip)| {
                let mut query = Query::new(Ip(ip));
                query.top = 16;
                if i % 3 == 0 {
                    query.open = vec![Port(evidence_port), Port(80)];
                }
                query
            })
            .collect();
        // B is the trained artifact (re-materialized from the shared GPSB
        // bytes — `ServableModel` is not Clone); A is a tiny hand-built
        // model that the reload visibly replaces.
        let model_b = ServableModel::from_snapshot(
            ModelSnapshot::from_binary_bytes(&artifacts.gpsb_bytes).expect("gpsb parses"),
        );
        let server = PredictionServer::start_named(
            vec![
                ("a".to_string(), tiny_model(443)),
                ("b".to_string(), model_b),
            ],
            ServeConfig::default(),
        )
        .expect("registry starts");

        let expected: Vec<_> = queries
            .iter()
            .map(|q| server.predict_for("b", q.clone()).expect("model b"))
            .collect();
        for (query, expected) in queries.iter().zip(&expected) {
            prop_assert_eq!(
                &artifacts.original.predict(query),
                expected,
                "served B equals the direct artifact lookup"
            );
        }

        // Hot-reload A; B must not change a bit.
        server.reload_model("a", tiny_model(8443)).expect("reload a");
        prop_assert_eq!(server.generation_of("a").unwrap(), 1);
        prop_assert_eq!(
            server
                .predict_for("a", Query::new(Ip(1)).with_open([80]))
                .unwrap()[0]
                .0,
            Port(8443),
            "A really serves its new epoch"
        );
        for (query, expected) in queries.iter().zip(&expected) {
            prop_assert_eq!(&server.predict_for("b", query.clone()).unwrap(), expected);
        }
        prop_assert_eq!(server.generation_of("b").unwrap(), 0, "B keeps its epoch");
    }
}

/// One TCP server over the trained artifact plus one long-lived client
/// per wire format, shared across property cases (server + connect setup
/// would otherwise dominate the suite). Mutexed because proptest runs
/// cases sequentially but the statics outlive each case.
#[allow(clippy::type_complexity)]
fn parity_server() -> (
    &'static Arc<PredictionServer>,
    &'static std::sync::Mutex<Client>,
    &'static std::sync::Mutex<Client>,
) {
    use std::sync::Mutex;
    static STATE: OnceLock<(Arc<PredictionServer>, Mutex<Client>, Mutex<Client>)> = OnceLock::new();
    let (server, json, binary) = STATE.get_or_init(|| {
        let model = ServableModel::from_snapshot(
            ModelSnapshot::from_binary_bytes(&served_artifacts().gpsb_bytes).expect("gpsb parses"),
        );
        let server = Arc::new(PredictionServer::with_defaults(model));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        {
            let server = server.clone();
            std::thread::spawn(move || gps::serve::serve_tcp(server, listener));
        }
        let json = Client::connect_with(addr, WireFormat::Json).expect("json client");
        let binary = Client::connect_with(addr, WireFormat::Binary).expect("binary client");
        (server, Mutex::new(json), Mutex::new(binary))
    });
    (server, json, binary)
}

/// A minimal distinguishable model for the registry property: one rule
/// (80 predicts `target`) and one priors entry.
fn tiny_model(target: u16) -> ServableModel {
    use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    let mut rules: std::collections::HashMap<CondKey, Vec<(Port, f64)>> =
        std::collections::HashMap::new();
    rules.insert(CondKey::Port(Port(80)), vec![(Port(target), 0.9)]);
    ServableModel::from_snapshot(ModelSnapshot {
        manifest: ModelManifest {
            format: (FORMAT_MAJOR, FORMAT_MINOR),
            universe_seed: 0,
            dataset_name: format!("tiny-{target}"),
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
        model: CondModel::from_parts(std::collections::HashMap::new(), Interactions::ALL),
        rules: gps::core::FeatureRules::from_parts(rules),
        priors: vec![gps::core::PriorsEntry {
            port: Port(22),
            subnet: Subnet::of_ip(Ip(0x0A00_0000), 16),
            coverage: 4,
        }],
        compiled: None,
    })
}

#[test]
fn interner_round_trips_arbitrary_strings() {
    // Deterministic exhaustive-ish check complements the proptest suite.
    let interner = gps::types::Interner::new();
    let strings: Vec<String> = (0..500).map(|i| format!("value-{i}-\u{1F980}")).collect();
    let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
    for (s, sym) in strings.iter().zip(&syms) {
        assert_eq!(&*interner.resolve(*sym), s.as_str());
    }
}

/// Compiled-vs-reference parity holds across *different* trained
/// universes, not just the shared fixture: each seed grows a distinct
/// rule/priors shape (different subnets, ASNs, port mixes), and the
/// kernel must stay bit-identical on all of them — including after a
/// GPSB round trip through the CMPL section.
#[test]
fn compiled_kernel_parity_across_universes() {
    for seed in [3u64, 99, 2024] {
        let net = gps::synthnet::Internet::generate(&gps::synthnet::UniverseConfig::tiny(seed));
        let dataset = gps::core::censys_dataset(&net, 100, 0.05, 0, 1);
        let config = GpsConfig::default();
        let run = gps::core::run_gps(&net, &dataset, &config);
        let snapshot = ModelSnapshot::from_run(&run, &config, seed);
        let bytes = snapshot.to_binary_bytes();
        let from_gpsb = ModelSnapshot::from_binary_bytes(&bytes).expect("gpsb parses");
        let reference = ReferenceModel::from_snapshot(&snapshot);
        let compiled = ServableModel::from_snapshot(snapshot);
        let via_gpsb = ServableModel::from_snapshot(from_gpsb);

        let mut scratch = PredictScratch::default();
        let mut best = std::collections::HashMap::new();
        let ips: Vec<Ip> = net
            .host_ips()
            .iter()
            .step_by(37)
            .map(|&ip| Ip(ip))
            .collect();
        for (i, &ip) in ips.iter().enumerate() {
            let mut query = Query::new(ip);
            match i % 3 {
                0 => {}
                1 => query.open = vec![Port(80)],
                _ => {
                    query.open = vec![Port(443), Port(22), Port(8080)];
                    query.asn = net.asn_of(ip).map(|a| a.0);
                }
            }
            query.top = 16;
            let want: Vec<(u16, u64)> = reference
                .predict_with(&mut best, &query)
                .iter()
                .map(|&(p, v)| (p.0, v.to_bits()))
                .collect();
            for model in [&compiled, &via_gpsb] {
                let got: Vec<(u16, u64)> = model
                    .predict_with(&mut scratch, &query)
                    .iter()
                    .map(|&(p, v)| (p.0, v.to_bits()))
                    .collect();
                assert_eq!(got, want, "seed {seed} query {query:?}");
            }
        }
    }
}
