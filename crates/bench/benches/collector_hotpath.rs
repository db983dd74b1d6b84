//! E5 (§7.1 processing): the collector's per-packet hot path.
//!
//! The paper's proof of concept showed a software router's 25 Gbps
//! forwarding rate unchanged with the VPM modules loaded, i.e. the
//! collector is not the bottleneck. The substitute measurement here is
//! direct: ns/packet through the collector's data plane (Algorithm 1,
//! Algorithm 2, counters) on pre-classified, pre-digested packets,
//! reported as packets per second per core (`vpm bench-collector`'s
//! `observe_full_batched` row adds classification and digesting). At 400 B average packets, 10 Gbps is ~3.1 Mpps
//! per direction — compare with the measured element throughput.
//!
//! Two benchmark groups, both on the batch data plane behind
//! `Ingest::ingest`:
//!
//! * `collector` — the single-path pipeline of the seed benchmark
//!   (kept for trajectory continuity).
//! * `collector_200paths` — the §7.1 many-path regime: a 200-path
//!   `/32`-pair workload through the pre-classified, pre-digested
//!   batch path.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use vpm_bench::bench_trace;
use vpm_bench::collector_bench::{
    build_workload, mk_collector as mk_collector_multi, CollectorBenchConfig,
};
use vpm_core::receipt::PathId;
use vpm_core::{Collector, HopConfig, Ingest};
use vpm_hash::Digest;
use vpm_packet::{DomainId, HopId, SimDuration, SimTime};

fn mk_collector() -> Collector {
    let cfg = HopConfig::new(HopId(4), DomainId(2))
        .with_sampling_rate(0.01)
        .with_aggregate_size(100_000);
    let mut c = Collector::new(cfg);
    let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
    c.register_path(PathId {
        spec,
        prev_hop: Some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    });
    c
}

fn bench_ingest_single_path(c: &mut Criterion) {
    // Pre-classified, pre-digested: the pure Algorithm 1 + Algorithm 2
    // data-plane cost (what a NetFlow-style engine would run).
    let trace = bench_trace(200, 2);
    let triples: Vec<(usize, Digest, SimTime)> = trace
        .iter()
        .map(|tp| (0usize, tp.packet.digest(), tp.ts))
        .collect();
    let mut g = c.benchmark_group("collector");
    g.throughput(Throughput::Elements(triples.len() as u64));
    g.bench_function("observe_batch_prehashed", |b| {
        b.iter_batched(
            mk_collector,
            |mut col| {
                for chunk in triples.chunks(4096) {
                    let report = col.ingest(chunk);
                    debug_assert!(report.is_clean());
                }
                col
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_ingest_200paths(c: &mut Criterion) {
    let cfg = CollectorBenchConfig {
        packets: 40_000,
        paths: 200,
        batch: 4096,
        repeats: 1,
        ..CollectorBenchConfig::default()
    };
    let w = build_workload(&cfg);
    let triples: Vec<(usize, Digest, SimTime)> = (0..w.packets.len())
        .map(|i| (w.path_idx[i], w.packets[i].digest(), w.times[i]))
        .collect();

    let mut g = c.benchmark_group("collector_200paths");
    g.throughput(Throughput::Elements(w.packets.len() as u64));
    g.bench_function("observe_batch_prehashed", |b| {
        b.iter_batched(
            || mk_collector_multi(&w),
            |mut col| {
                for chunk in triples.chunks(cfg.batch) {
                    let report = col.ingest(chunk);
                    debug_assert!(report.is_clean());
                }
                col
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_report_cycle(c: &mut Criterion) {
    // Control-plane cost: drain + receipt building + signing.
    let trace = bench_trace(100, 3);
    c.bench_function("processor_report_cycle", |b| {
        b.iter_batched(
            || {
                let mut col = mk_collector();
                let batch: Vec<(usize, Digest, SimTime)> = trace
                    .iter()
                    .filter_map(|tp| {
                        col.classify(&tp.packet)
                            .map(|idx| (idx, tp.packet.digest(), tp.ts))
                    })
                    .collect();
                let report = col.ingest(&batch);
                debug_assert!(report.is_clean());
                col.flush();
                (col, vpm_core::Processor::new(HopId(4)))
            },
            |(mut col, mut proc)| black_box(proc.report(&mut col)),
            criterion::BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_ingest_single_path,
    bench_ingest_200paths,
    bench_report_cycle
);
criterion_main!(benches);
