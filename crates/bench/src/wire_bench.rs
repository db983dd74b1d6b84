//! Measured wire-codec throughput — the backend of the
//! `vpm bench-wire` subcommand.
//!
//! §7.1 argues receipt dissemination is cheap because receipts are
//! compact; this harness makes both halves of that claim measurable on
//! every checkout: encode/decode throughput (MB/s and receipts/s) for
//! the v1 binary codec in both profiles, the JSON shim path it
//! replaces, and the resulting bytes-per-sample. The `hmac_*` rows time
//! the MAC every signed frame carries on its own, on the host's
//! dispatched SHA-256 kernel and on the portable one. `vpm bench-wire`
//! serializes the report to `BENCH_wire.json`, landing next to
//! `BENCH_collector.json` in the repo's performance trajectory.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};
use vpm_hash::{Digest, HopKey, KeyEpoch, SHA256_DIGEST_BYTES};
use vpm_packet::{HeaderSpec, HopId, Ipv4Prefix, SimDuration, SimTime};
use vpm_wire::{Profile, WireDecoder, WireEncoder};

/// Workload shape for one wire benchmark run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WireBenchConfig {
    /// Sample receipts per batch (one path each).
    pub receipts: usize,
    /// Sample records per receipt.
    pub records: usize,
    /// Aggregate receipts per batch.
    pub aggs: usize,
    /// `AggTrans` window digests per aggregate receipt.
    pub window: usize,
    /// Timed repetitions per variant (the minimum is reported).
    pub repeats: usize,
    /// Host fact, not a knob: the cores the run could use
    /// ([`crate::available_parallelism`]).
    pub available_parallelism: usize,
    /// Host fact, not a knob: whether HMAC-SHA-256 ran on the
    /// SHA-extension kernel ([`vpm_hash::has_sha_ni`]).
    pub sha_ni: bool,
}

impl Default for WireBenchConfig {
    fn default() -> Self {
        WireBenchConfig {
            // One busy reporting interval: 256 paths × 64 samples plus
            // 256 finished aggregates.
            receipts: 256,
            records: 64,
            aggs: 256,
            window: 4,
            repeats: 3,
            available_parallelism: crate::available_parallelism(),
            sha_ni: vpm_hash::has_sha_ni(),
        }
    }
}

/// One measured codec variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireVariantResult {
    /// Variant name (stable identifier for trajectory tracking).
    pub name: String,
    /// Megabytes of wire (or JSON) bytes processed per second.
    pub mb_per_s: f64,
    /// Whole receipt batches (for the `hmac_*` rows, messages)
    /// processed per second.
    pub batches_per_s: f64,
    /// Sample records processed per second (0 for the `hmac_*` rows,
    /// which MAC a plain message rather than a receipt batch).
    pub samples_per_s: f64,
}

/// The full report `vpm bench-wire` prints and serializes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBenchReport {
    /// Workload shape.
    pub config: WireBenchConfig,
    /// Per-variant measurements.
    pub results: Vec<WireVariantResult>,
    /// Encoded bytes per sample record, compact profile (§7.1 regime).
    pub bytes_per_sample_compact: f64,
    /// Encoded bytes per sample record, precise profile.
    pub bytes_per_sample_precise: f64,
    /// Serialized bytes per sample record through the JSON shim.
    pub bytes_per_sample_json: f64,
    /// `json / compact` size ratio — how much the binary codec saves.
    pub json_size_ratio: f64,
    /// `encode_json / encode_compact` time ratio.
    pub encode_speedup_vs_json: f64,
    /// `decode_json / decode_compact` time ratio.
    pub decode_speedup_vs_json: f64,
    /// `encode_signed_compact / encode_compact` time ratio — what the
    /// HMAC-SHA-256 MAC trailer costs at encode, compact profile.
    pub signed_encode_overhead_compact: f64,
    /// `encode_signed_precise / encode_precise` time ratio.
    pub signed_encode_overhead_precise: f64,
    /// MAC trailer bytes per signed frame (epoch + HMAC-SHA-256 tag).
    pub mac_trailer_bytes: usize,
    /// `hmac_dispatch / hmac_portable` throughput ratio — what the
    /// host's fastest SHA-256 kernel buys over the scalar reference
    /// (1.0 where the two coincide).
    pub hmac_kernel_speedup: f64,
}

/// The signing key for the benchmark workload; its seed doubles as the
/// legacy tag key `build_batch` signs with.
pub fn bench_key() -> HopKey {
    HopKey::from_seed(0x5650_4d00 ^ 4)
}

/// Deterministic benchmark batch: `receipts` single-path sample
/// receipts plus `aggs` aggregate receipts, all fields derived from a
/// splitmix stream.
pub fn build_batch(cfg: &WireBenchConfig) -> ReceiptBatch {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let path = |n: u64| PathId {
        spec: HeaderSpec::new(
            Ipv4Prefix::new(std::net::Ipv4Addr::from(0x0a00_0000 | n as u32), 32)
                .expect("/32 is valid"),
            Ipv4Prefix::new(std::net::Ipv4Addr::from(0x1400_0000 | n as u32), 32)
                .expect("/32 is valid"),
        ),
        prev_hop: Some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    };
    let mut batch = ReceiptBatch {
        hop: HopId(4),
        batch_seq: 1,
        samples: (0..cfg.receipts)
            .map(|r| SampleReceipt {
                path: path(r as u64),
                samples: (0..cfg.records)
                    .map(|i| SampleRecord {
                        pkt_id: Digest(next()),
                        time: SimTime::from_micros((r * cfg.records + i) as u64 * 10),
                    })
                    .collect(),
            })
            .collect(),
        aggregates: (0..cfg.aggs)
            .map(|a| AggReceipt {
                path: path((a % cfg.receipts.max(1)) as u64),
                agg: AggId {
                    first: Digest(next()),
                    last: Digest(next()),
                },
                pkt_cnt: 1000 + a as u64,
                agg_trans: (0..cfg.window).map(|_| Digest(next())).collect(),
            })
            .collect(),
        auth_tag: 0,
    };
    batch.auth_tag = batch.compute_tag(bench_key().tag_key());
    batch
}

/// Bytes of the message the `hmac_*` rows MAC: about one mean frame
/// of the fleet workload.
pub const HMAC_MESSAGE_BYTES: usize = 10_000;

/// Messages MAC'd per timed repetition of an `hmac_*` row.
const HMAC_MESSAGES_PER_REPEAT: usize = 64;

/// Time `body` `repeats` times; report the minimum seconds per call.
fn time_secs<F: FnMut()>(repeats: usize, mut body: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Run every variant and assemble the report.
pub fn run(cfg: &WireBenchConfig) -> WireBenchReport {
    let batch = build_batch(cfg);
    let total_samples = (cfg.receipts * cfg.records) as f64;

    let compact_frame = WireEncoder::compact().encode(&batch).expect("encodes");
    let precise_frame = WireEncoder::precise().encode(&batch).expect("encodes");
    let json = serde_json::to_string(&batch).expect("serializes");
    // The §7.1 accounting: record bytes over the sample section only.
    let compact_record_bytes = Profile::Compact.sample_record_bytes() as f64;
    let precise_record_bytes = Profile::Precise.sample_record_bytes() as f64;

    let mut results = Vec::new();
    let mut record = |name: &str, bytes: usize, secs: f64| {
        results.push(WireVariantResult {
            name: name.to_string(),
            mb_per_s: bytes as f64 / secs / 1e6,
            batches_per_s: 1.0 / secs,
            samples_per_s: total_samples / secs,
        });
        secs
    };

    let enc_compact = time_secs(cfg.repeats, || {
        std::hint::black_box(WireEncoder::compact().encode(&batch).expect("encodes"));
    });
    record("encode_compact", compact_frame.len(), enc_compact);
    let enc_precise = time_secs(cfg.repeats, || {
        std::hint::black_box(WireEncoder::precise().encode(&batch).expect("encodes"));
    });
    record("encode_precise", precise_frame.len(), enc_precise);
    let enc_json = time_secs(cfg.repeats, || {
        std::hint::black_box(serde_json::to_string(&batch).expect("serializes"));
    });
    record("encode_json", json.len(), enc_json);

    let dec_compact = time_secs(cfg.repeats, || {
        std::hint::black_box(WireDecoder::decode(compact_frame.as_bytes()).expect("decodes"));
    });
    record("decode_compact", compact_frame.len(), dec_compact);
    let dec_precise = time_secs(cfg.repeats, || {
        std::hint::black_box(WireDecoder::decode(precise_frame.as_bytes()).expect("decodes"));
    });
    record("decode_precise", precise_frame.len(), dec_precise);
    let dec_json = time_secs(cfg.repeats, || {
        let back: ReceiptBatch = serde_json::from_str(&json).expect("parses");
        std::hint::black_box(back);
    });
    record("decode_json", json.len(), dec_json);

    // Signed-frame variants: the same codec work plus the HMAC-SHA-256
    // MAC trailer every circulating frame now carries.
    let key = bench_key();
    let signed_compact = WireEncoder::compact()
        .encode_signed(&batch, &key, KeyEpoch(0))
        .expect("signs");
    let signed_precise = WireEncoder::precise()
        .encode_signed(&batch, &key, KeyEpoch(0))
        .expect("signs");
    let enc_signed_compact = time_secs(cfg.repeats, || {
        std::hint::black_box(
            WireEncoder::compact()
                .encode_signed(&batch, &key, KeyEpoch(0))
                .expect("signs"),
        );
    });
    record(
        "encode_signed_compact",
        signed_compact.len(),
        enc_signed_compact,
    );
    let enc_signed_precise = time_secs(cfg.repeats, || {
        std::hint::black_box(
            WireEncoder::precise()
                .encode_signed(&batch, &key, KeyEpoch(0))
                .expect("signs"),
        );
    });
    record(
        "encode_signed_precise",
        signed_precise.len(),
        enc_signed_precise,
    );
    let verify_signed_compact = time_secs(cfg.repeats, || {
        assert!(std::hint::black_box(signed_compact.verify_mac(&key)));
    });
    record(
        "verify_signed_compact",
        signed_compact.len(),
        verify_signed_compact,
    );
    let verify_signed_precise = time_secs(cfg.repeats, || {
        assert!(std::hint::black_box(signed_precise.verify_mac(&key)));
    });
    record(
        "verify_signed_precise",
        signed_precise.len(),
        verify_signed_precise,
    );

    // The HMAC kernel on its own: the host's dispatched kernel against
    // the portable reference, over one frame-sized message.
    let message: Vec<u8> = (0..HMAC_MESSAGE_BYTES)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    let material = key.as_bytes();
    let mut hmac_row = |name: &str, mac: fn(&[u8], &[u8]) -> [u8; SHA256_DIGEST_BYTES]| {
        let secs = time_secs(cfg.repeats, || {
            for _ in 0..HMAC_MESSAGES_PER_REPEAT {
                std::hint::black_box(mac(material, std::hint::black_box(&message)));
            }
        }) / HMAC_MESSAGES_PER_REPEAT as f64;
        results.push(WireVariantResult {
            name: name.to_string(),
            mb_per_s: HMAC_MESSAGE_BYTES as f64 / secs / 1e6,
            batches_per_s: 1.0 / secs,
            samples_per_s: 0.0,
        });
        secs
    };
    let hmac_portable = hmac_row("hmac_portable", vpm_hash::hmac_sha256_portable);
    let hmac_dispatch = hmac_row("hmac_dispatch", vpm_hash::hmac_sha256);

    WireBenchReport {
        config: *cfg,
        results,
        bytes_per_sample_compact: compact_record_bytes,
        bytes_per_sample_precise: precise_record_bytes,
        bytes_per_sample_json: json.len() as f64 / total_samples.max(1.0),
        json_size_ratio: json.len() as f64 / compact_frame.len() as f64,
        encode_speedup_vs_json: enc_json / enc_compact,
        decode_speedup_vs_json: dec_json / dec_compact,
        signed_encode_overhead_compact: enc_signed_compact / enc_compact,
        signed_encode_overhead_precise: enc_signed_precise / enc_precise,
        mac_trailer_bytes: vpm_wire::MAC_TRAILER_BYTES,
        hmac_kernel_speedup: hmac_portable / hmac_dispatch,
    }
}

/// Render the report as an aligned text table.
pub fn render_table(report: &WireBenchReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let c = &report.config;
    let _ = writeln!(
        s,
        "wire codec — {} receipts × {} records + {} aggs (window {})",
        c.receipts, c.records, c.aggs, c.window
    );
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>12} {:>14}",
        "variant", "MB/s", "batches/s", "samples/s"
    );
    for r in &report.results {
        let _ = writeln!(
            s,
            "{:<16} {:>10.1} {:>12.1} {:>14.0}",
            r.name, r.mb_per_s, r.batches_per_s, r.samples_per_s
        );
    }
    let _ = writeln!(
        s,
        "bytes/sample: compact {:.1} (§7.1), precise {:.1}, JSON {:.1} ({:.1}x vs compact)",
        report.bytes_per_sample_compact,
        report.bytes_per_sample_precise,
        report.bytes_per_sample_json,
        report.json_size_ratio
    );
    let _ = writeln!(
        s,
        "binary vs JSON: encode {:.1}x, decode {:.1}x",
        report.encode_speedup_vs_json, report.decode_speedup_vs_json
    );
    let _ = writeln!(
        s,
        "HMAC trailer: {} B/frame; signed encode {:.2}x compact, {:.2}x precise",
        report.mac_trailer_bytes,
        report.signed_encode_overhead_compact,
        report.signed_encode_overhead_precise
    );
    let _ = writeln!(
        s,
        "HMAC-SHA-256 over {HMAC_MESSAGE_BYTES} B: dispatched kernel {:.2}x portable (sha_ni: {})",
        report.hmac_kernel_speedup, c.sha_ni
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_signed() {
        let cfg = WireBenchConfig {
            receipts: 8,
            records: 4,
            aggs: 8,
            window: 2,
            repeats: 1,
            ..WireBenchConfig::default()
        };
        let a = build_batch(&cfg);
        let b = build_batch(&cfg);
        assert_eq!(a, b);
        assert!(a.verify_tag(0x5650_4d00 ^ 4));
        assert_eq!(a.paths().len(), 8, "one path per receipt");
    }

    #[test]
    fn report_has_all_variants_and_sane_numbers() {
        let report = run(&WireBenchConfig {
            receipts: 8,
            records: 16,
            aggs: 8,
            window: 2,
            repeats: 1,
            ..WireBenchConfig::default()
        });
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "encode_compact",
                "encode_precise",
                "encode_json",
                "decode_compact",
                "decode_precise",
                "decode_json",
                "encode_signed_compact",
                "encode_signed_precise",
                "verify_signed_compact",
                "verify_signed_precise",
                "hmac_portable",
                "hmac_dispatch",
            ]
        );
        for r in &report.results {
            assert!(r.mb_per_s > 0.0 && r.mb_per_s.is_finite(), "{r:?}");
            assert!(
                r.samples_per_s > 0.0 || r.name.starts_with("hmac_"),
                "{r:?}"
            );
        }
        assert!(report.hmac_kernel_speedup > 0.0);
        // The §7.1 constants are what the bench reports per sample.
        assert_eq!(report.bytes_per_sample_compact, 7.0);
        assert_eq!(report.bytes_per_sample_precise, 16.0);
        assert!(
            report.bytes_per_sample_json > report.bytes_per_sample_precise,
            "JSON cannot beat the binary codec: {report:?}"
        );
        assert!(report.json_size_ratio > 1.0);
        assert!(report.signed_encode_overhead_compact > 0.0);
        assert!(report.signed_encode_overhead_precise > 0.0);
        assert_eq!(report.mac_trailer_bytes, vpm_wire::MAC_TRAILER_BYTES);
        let table = render_table(&report);
        assert!(table.contains("encode_compact"));
        assert!(table.contains("verify_signed_precise"));
        assert!(table.contains("bytes/sample"));
        assert!(table.contains("HMAC trailer"));
        assert!(table.contains("hmac_dispatch"));
    }

    #[test]
    fn signed_bench_frames_verify_under_the_bench_key() {
        let batch = build_batch(&WireBenchConfig {
            receipts: 4,
            records: 8,
            aggs: 4,
            window: 1,
            repeats: 1,
            ..WireBenchConfig::default()
        });
        let key = bench_key();
        let frame = WireEncoder::precise()
            .encode_signed(&batch, &key, KeyEpoch(0))
            .unwrap();
        assert!(frame.verify_mac(&key));
        assert!(!frame.verify_mac(&HopKey::from_seed(1)));
        assert_eq!(frame.decode().unwrap().batch, batch);
    }

    #[test]
    fn roundtrips_hold_on_the_bench_workload() {
        let batch = build_batch(&WireBenchConfig {
            receipts: 4,
            records: 8,
            aggs: 4,
            window: 1,
            repeats: 1,
            ..WireBenchConfig::default()
        });
        let precise = WireEncoder::precise().encode(&batch).unwrap();
        assert_eq!(precise.decode().unwrap().batch, batch);
        let compact = WireEncoder::compact().encode(&batch).unwrap();
        let truncated = compact.decode().unwrap().batch;
        assert_eq!(truncated.sample_records(), batch.sample_records());
        let json: ReceiptBatch =
            serde_json::from_str(&serde_json::to_string(&batch).unwrap()).unwrap();
        assert_eq!(json, batch);
    }
}
