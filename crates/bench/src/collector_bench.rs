//! Measured collector hot-path throughput — the backend of the
//! `vpm bench-collector` subcommand.
//!
//! The paper's §7.1 proof of concept argues the VPM modules leave a
//! software router's forwarding rate untouched, i.e. the collector is
//! not the bottleneck. This harness makes that claim measurable on
//! every checkout: it walks one multi-path workload through the
//! single-core batch data plane behind `Ingest::ingest` and reports
//! ns/packet and Mpps per variant. Two groups of rows probe the
//! current architecture's ceilings: the multi-lane SIMD digest kernel
//! against its scalar twin (`digest_batch_scalar` /
//! `digest_batch_words`), and the paper's 100,000-path regime
//! (`classify_paper_scale` / `ingest_paper_scale`).
//! `vpm bench-collector` serializes the report to
//! `BENCH_collector.json`, seeding the repo's performance trajectory.

use std::net::Ipv4Addr;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use vpm_core::receipt::PathId;
use vpm_core::{Collector, HopConfig, Ingest};
use vpm_hash::{Digest, DEFAULT_DIGEST_SEED};
use vpm_packet::{
    ipv4, DomainId, HeaderSpec, HopId, Ipv4Header, Ipv4Prefix, Packet, SimDuration, SimTime,
    Transport, UdpHeader, DIGEST_INPUT_WORDS,
};

/// The paper's target classifier fan-out (§7.1 sizes per-path state
/// for a 100,000-path router); the `*_paper_scale` variants always run
/// at this path count regardless of `--paths`.
pub const PAPER_SCALE_PATHS: usize = 100_000;

/// Workload shape for one collector benchmark run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CollectorBenchConfig {
    /// Packets pushed through each variant.
    pub packets: usize,
    /// Registered `/32`-pair paths; traffic round-robins across them.
    pub paths: usize,
    /// Batch size for the batched variants.
    pub batch: usize,
    /// Timed repetitions per variant (the minimum is reported).
    pub repeats: usize,
}

impl Default for CollectorBenchConfig {
    fn default() -> Self {
        CollectorBenchConfig {
            packets: 200_000,
            paths: 200,
            // NIC-ring sized: large enough that a 200-path round-robin
            // still leaves ~20-packet per-path partitions to amortize
            // over.
            batch: 4096,
            repeats: 3,
        }
    }
}

/// One measured variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantResult {
    /// Variant name (stable identifier for trajectory tracking).
    pub name: String,
    /// Nanoseconds per packet (minimum over repeats).
    pub ns_per_packet: f64,
    /// Million packets per second implied by `ns_per_packet`.
    pub mpps: f64,
}

/// The full report `vpm bench-collector` prints and serializes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectorBenchReport {
    /// Workload shape.
    pub config: CollectorBenchConfig,
    /// Per-variant measurements, in pipeline order.
    pub results: Vec<VariantResult>,
    /// `digest_batch_scalar / digest_batch_words` — the multi-lane
    /// SIMD digest kernel against the scalar loop on identical blocks
    /// (both rows include word-block extraction, so the ratio isolates
    /// the kernel swap).
    #[serde(default)]
    pub simd_digest_speedup: f64,
}

/// The benchmark workload: registered path specs plus a packet stream
/// round-robining across them at 100 kpps.
pub struct Workload {
    /// One `/32`-pair spec per path.
    pub specs: Vec<HeaderSpec>,
    /// The packet stream.
    pub packets: Vec<Packet>,
    /// Observation times, 10 µs apart.
    pub times: Vec<SimTime>,
    /// Ground-truth path index per packet (`i % paths`).
    pub path_idx: Vec<usize>,
}

fn src_addr(p: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, (p >> 16) as u8, (p >> 8) as u8, p as u8)
}

fn dst_addr(p: usize) -> Ipv4Addr {
    Ipv4Addr::new(20, (p >> 16) as u8, (p >> 8) as u8, p as u8)
}

/// Build the deterministic benchmark workload.
pub fn build_workload(cfg: &CollectorBenchConfig) -> Workload {
    assert!(cfg.paths > 0 && cfg.paths <= 1 << 24);
    let specs: Vec<HeaderSpec> = (0..cfg.paths)
        .map(|p| {
            HeaderSpec::new(
                Ipv4Prefix::new(src_addr(p), 32).unwrap(),
                Ipv4Prefix::new(dst_addr(p), 32).unwrap(),
            )
        })
        .collect();
    let mut packets = Vec::with_capacity(cfg.packets);
    let mut times = Vec::with_capacity(cfg.packets);
    let mut path_idx = Vec::with_capacity(cfg.packets);
    for i in 0..cfg.packets {
        let p = i % cfg.paths;
        let mut ip = Ipv4Header::simple(src_addr(p), dst_addr(p), ipv4::PROTO_UDP, 428);
        ip.id = i as u16;
        packets.push(Packet {
            seq: i as u64,
            ipv4: ip,
            transport: Transport::Udp(UdpHeader {
                sport: 1024 + (i % 50_000) as u16,
                dport: 53,
                length: 408,
            }),
            payload_len: 400,
        });
        times.push(SimTime::from_micros(10 * i as u64));
        path_idx.push(p);
    }
    Workload {
        specs,
        packets,
        times,
        path_idx,
    }
}

fn path_of(spec: HeaderSpec) -> PathId {
    PathId {
        spec,
        prev_hop: Some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    }
}

fn hop_config() -> HopConfig {
    HopConfig::new(HopId(4), DomainId(2))
        .with_sampling_rate(0.01)
        .with_aggregate_size(1000)
}

/// Collector under test: paper-default thresholds (1% sampling,
/// 1000-packet aggregates) with every workload spec registered. Shared
/// with the criterion bench so the two harnesses stay comparable.
pub fn mk_collector(w: &Workload) -> Collector {
    let mut c = Collector::new(hop_config());
    for &spec in &w.specs {
        c.register_path(path_of(spec));
    }
    c
}

/// Time `body` (which must consume `packets` packets per call)
/// `repeats` times and return the minimum ns/packet.
fn time_variant<F: FnMut() -> u64>(packets: usize, repeats: usize, mut body: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let consumed = body();
        let elapsed = start.elapsed().as_nanos() as f64;
        assert_eq!(
            consumed as usize, packets,
            "variant must consume the stream"
        );
        best = best.min(elapsed / packets as f64);
    }
    best
}

/// Run every variant and assemble the report.
pub fn run(cfg: &CollectorBenchConfig) -> CollectorBenchReport {
    let w = build_workload(cfg);
    let n = w.packets.len();
    let mut results = Vec::new();
    let mut record = |name: &str, nspp: f64| {
        results.push(VariantResult {
            name: name.to_string(),
            ns_per_packet: nspp,
            mpps: 1e3 / nspp,
        });
        nspp
    };

    // The batched data plane behind the `Ingest` surface on
    // pre-classified, pre-digested triples: amortized counters, pass
    // masks, and per-path batch fast paths.
    let triples: Vec<(usize, Digest, SimTime)> = (0..n)
        .map(|i| (w.path_idx[i], w.packets[i].digest(), w.times[i]))
        .collect();
    let batched = time_variant(n, cfg.repeats, || {
        let mut col = mk_collector(&w);
        for chunk in triples.chunks(cfg.batch.max(1)) {
            let report = col.ingest(chunk);
            debug_assert!(report.is_clean());
        }
        std::hint::black_box(col.counters());
        n as u64
    });
    record("observe_batch_prehashed", batched);

    // The rebuilt data plane end to end: classifier index + multi-lane
    // `digest_batch` + batch ingest, in ring-buffer-sized chunks.
    let full_batched = time_variant(n, cfg.repeats, || {
        let mut col = mk_collector(&w);
        let mut blocks: Vec<[u32; DIGEST_INPUT_WORDS]> = Vec::new();
        let mut chunk_digests: Vec<Digest> = Vec::new();
        let mut triples: Vec<(usize, Digest, SimTime)> = Vec::new();
        let mut seen = 0u64;
        let chunk_len = cfg.batch.max(1);
        let mut at = 0usize;
        while at < n {
            let upto = (at + chunk_len).min(n);
            blocks.clear();
            triples.clear();
            chunk_digests.clear();
            for i in at..upto {
                blocks.push(w.packets[i].digest_words());
            }
            vpm_hash::digest_batch(&blocks, DEFAULT_DIGEST_SEED, &mut chunk_digests);
            for (k, i) in (at..upto).enumerate() {
                if let Some(idx) = col.classify(&w.packets[i]) {
                    triples.push((idx, chunk_digests[k], w.times[i]));
                    seen += 1;
                }
            }
            let report = col.ingest(&triples);
            debug_assert!(report.is_clean());
            at = upto;
        }
        std::hint::black_box(col.counters());
        seen
    });
    record("observe_full_batched", full_batched);

    // Digest computation alone: per-packet byte path vs the word-block
    // `digest_batch` slice path, scalar and multi-lane. The scalar and
    // multi-lane rows do identical block extraction, so their ratio is
    // the SIMD kernel win alone.
    let d_bytes = time_variant(n, cfg.repeats, || {
        let mut acc = 0u64;
        for pkt in &w.packets {
            acc ^= pkt.digest().0;
        }
        std::hint::black_box(acc);
        n as u64
    });
    record("digest_per_packet", d_bytes);

    let d_scalar = time_variant(n, cfg.repeats, || {
        let blocks: Vec<[u32; DIGEST_INPUT_WORDS]> =
            w.packets.iter().map(|p| p.digest_words()).collect();
        let mut out = Vec::new();
        vpm_hash::digest_batch_scalar(&blocks, DEFAULT_DIGEST_SEED, &mut out);
        std::hint::black_box(out.len());
        n as u64
    });
    record("digest_batch_scalar", d_scalar);

    let d_words = time_variant(n, cfg.repeats, || {
        let blocks: Vec<[u32; DIGEST_INPUT_WORDS]> =
            w.packets.iter().map(|p| p.digest_words()).collect();
        let mut out = Vec::new();
        vpm_hash::digest_batch(&blocks, DEFAULT_DIGEST_SEED, &mut out);
        std::hint::black_box(out.len());
        n as u64
    });
    record("digest_batch_words", d_words);

    // The paper's target regime: a 100,000-path table. Classification
    // must stay O(1) at that fan-out and ingest must not degrade with
    // table size. The collectors are built once, outside the timed
    // bodies — at this path count registration would otherwise
    // dominate the measurement.
    let paper_cfg = CollectorBenchConfig {
        paths: PAPER_SCALE_PATHS,
        ..*cfg
    };
    let pw = build_workload(&paper_cfg);
    let pcol = mk_collector(&pw);
    let classify_paper = time_variant(n, cfg.repeats, || {
        let mut seen = 0u64;
        for pkt in &pw.packets {
            if pcol.classify(pkt).is_some() {
                seen += 1;
            }
        }
        seen
    });
    record("classify_paper_scale", classify_paper);

    let p_digests: Vec<Digest> = pw.packets.iter().map(|p| p.digest()).collect();
    let p_triples: Vec<(usize, Digest, SimTime)> = (0..pw.packets.len())
        .map(|i| (pw.path_idx[i], p_digests[i], pw.times[i]))
        .collect();
    // Reused across repeats: per-path state accumulates, but the
    // per-packet ingest cost it measures is steady.
    let mut pcol_mut = mk_collector(&pw);
    let ingest_paper = time_variant(n, cfg.repeats, || {
        for chunk in p_triples.chunks(cfg.batch.max(1)) {
            let report = pcol_mut.ingest(chunk);
            debug_assert!(report.is_clean());
        }
        std::hint::black_box(pcol_mut.counters());
        n as u64
    });
    record("ingest_paper_scale", ingest_paper);

    CollectorBenchReport {
        config: *cfg,
        results,
        simd_digest_speedup: d_scalar / d_words,
    }
}

/// Render the report as an aligned text table.
pub fn render_table(report: &CollectorBenchReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "collector hot path — {} packets, {} paths, batch {}",
        report.config.packets, report.config.paths, report.config.batch
    );
    let _ = writeln!(s, "{:<28} {:>12} {:>10}", "variant", "ns/packet", "Mpps");
    for r in &report.results {
        let _ = writeln!(
            s,
            "{:<28} {:>12.1} {:>10.2}",
            r.name, r.ns_per_packet, r.mpps
        );
    }
    let _ = writeln!(
        s,
        "SIMD digest speedup (scalar / multi-lane): {:.2}x",
        report.simd_digest_speedup
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_classifies_onto_expected_paths() {
        let cfg = CollectorBenchConfig {
            packets: 2_000,
            paths: 37,
            batch: 64,
            repeats: 1,
        };
        let w = build_workload(&cfg);
        let col = mk_collector(&w);
        for (i, pkt) in w.packets.iter().enumerate() {
            assert_eq!(col.classify(pkt), Some(w.path_idx[i]), "packet {i}");
            assert_eq!(
                w.specs.iter().position(|s| s.matches(pkt)),
                Some(w.path_idx[i]),
                "linear reference agrees"
            );
        }
    }

    #[test]
    fn report_has_all_variants_and_sane_numbers() {
        let report = run(&CollectorBenchConfig {
            packets: 5_000,
            paths: 20,
            batch: 128,
            repeats: 1,
        });
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "observe_batch_prehashed",
                "observe_full_batched",
                "digest_per_packet",
                "digest_batch_scalar",
                "digest_batch_words",
                "classify_paper_scale",
                "ingest_paper_scale",
            ]
        );
        for r in &report.results {
            assert!(
                r.ns_per_packet > 0.0 && r.ns_per_packet.is_finite(),
                "{r:?}"
            );
            assert!((r.mpps - 1e3 / r.ns_per_packet).abs() < 1e-9);
        }
        assert!(report.simd_digest_speedup > 0.0);
        let table = render_table(&report);
        assert!(table.contains("observe_batch_prehashed"));
        assert!(table.contains("classify_paper_scale"));
    }
}
