//! Benchmark: the compiled struct-of-arrays prediction kernel vs the
//! HashMap reference path, on identical snapshots.
//!
//! Four query shapes bracket the serving workload:
//!
//! - `cold`: no open-port evidence — a priors lookup (compiled: one
//!   binary search + slice copy; reference: HashMap get + Vec clone);
//! - `warm_small`: one open port — the common incremental-rescan query;
//! - `warm_wide`: eight open ports with ASN evidence — a wide rule
//!   fan-in;
//! - `batch256`: 256 warm queries (small and wide evidence interleaved)
//!   folded through one reusable scratch — the batched-warm-predict
//!   steady state of a serving thread, where the ≥2× target is set.
//!
//! Both sides answer through their reusable-scratch entry points so the
//! comparison is kernel vs kernel, not allocator vs allocator. A second
//! group times the two `ServableModel::from_snapshot` paths: CMPL bulk
//! load vs compile-from-tables.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gps_core::{GpsConfig, ModelSnapshot};
use gps_serve::{PredictScratch, Query, ReferenceModel, ServableModel};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::{Ip, Port};

/// Train a real snapshot on the synthetic universe so both models see
/// production-shaped rule and priors tables.
fn trained_snapshot(net: &Internet) -> ModelSnapshot {
    let dataset = gps_core::censys_dataset(net, 100, 0.05, 0, 1);
    let config = GpsConfig::default();
    let run = gps_core::run_gps(net, &dataset, &config);
    ModelSnapshot::from_run(&run, &config, 101)
}

/// Query mix for the batch case: all-warm (the target is batched *warm*
/// predicts), with small and wide evidence interleaved across subnets the
/// model has and has not seen. Cold lookups are timed separately above.
fn batch_queries(net: &Internet) -> Vec<Query> {
    let ips = net.host_ips();
    (0..256u32)
        .map(|i| {
            let ip = Ip(ips[(i as usize * 97) % ips.len()]);
            let mut query = Query::new(ip);
            match i % 4 {
                0 => query.open = vec![Port(22)],
                1 => query.open = vec![Port(80)],
                2 => query.open = vec![Port(443), Port(22)],
                _ => {
                    query.open = [80u16, 443, 22, 8080, 21, 25, 3306, 8443]
                        .iter()
                        .map(|&p| Port(p))
                        .collect();
                    query.asn = net.asn_of(ip).map(|a| a.0);
                }
            }
            query
        })
        .collect()
}

fn bench_predict_kernel(c: &mut Criterion) {
    let net = Internet::generate(&UniverseConfig::tiny(101));
    let snapshot = trained_snapshot(&net);
    let bytes_with_cmpl = snapshot.to_binary_bytes_with(true);
    let bytes_without_cmpl = snapshot.to_binary_bytes_with(false);
    let reference = ReferenceModel::from_snapshot(&snapshot);
    let compiled = ServableModel::from_snapshot(snapshot);

    let cold = Query::new(Ip(net.host_ips()[7]));
    let warm_small = Query::new(Ip(net.host_ips()[13])).with_open([80]);
    let mut warm_wide =
        Query::new(Ip(net.host_ips()[29])).with_open([80, 443, 22, 8080, 21, 25, 3306, 8443]);
    warm_wide.asn = net.asn_of(warm_wide.ip).map(|a| a.0);
    let batch = batch_queries(&net);

    let mut scratch = PredictScratch::default();
    let mut best: HashMap<Port, f64> = HashMap::new();

    let mut group = c.benchmark_group("predict_kernel");
    for (label, query) in [
        ("cold", &cold),
        ("warm_small", &warm_small),
        ("warm_wide", &warm_wide),
    ] {
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("compiled/{label}"), |b| {
            b.iter(|| compiled.predict_with(&mut scratch, query))
        });
        group.bench_function(format!("reference/{label}"), |b| {
            b.iter(|| reference.predict_with(&mut best, query))
        });
    }

    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("compiled/batch256", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for query in &batch {
                n += compiled.predict_with(&mut scratch, query).len();
            }
            n
        })
    });
    group.bench_function("reference/batch256", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for query in &batch {
                n += reference.predict_with(&mut best, query).len();
            }
            n
        })
    });
    group.finish();

    let mut build = c.benchmark_group("predict_kernel_build");
    build.sample_size(20);
    build.bench_function("load_with_cmpl", |b| {
        b.iter(|| {
            let snapshot = ModelSnapshot::from_binary_bytes(&bytes_with_cmpl).unwrap();
            ServableModel::from_snapshot(snapshot)
        })
    });
    build.bench_function("load_compile_fallback", |b| {
        b.iter(|| {
            let snapshot = ModelSnapshot::from_binary_bytes(&bytes_without_cmpl).unwrap();
            ServableModel::from_snapshot(snapshot)
        })
    });
    build.finish();
}

criterion_group!(benches, bench_predict_kernel);
criterion_main!(benches);
