//! The control-plane processor module (paper §7).
//!
//! "The control-plane part periodically reads the state from the
//! data-plane and performs further processing." The processor drains
//! the collector's finished samples/aggregates at each reporting
//! interval, wraps them into receipts, stamps an authenticity tag, and
//! accounts the bytes that receipt dissemination will cost (the §7.1
//! bandwidth model).
//!
//! Authenticity: the paper assumes receipts are disseminated with
//! integrity/authenticity guarantees (assumption #2, e.g. HTTPS). The
//! in-batch `auth_tag` is a cheap keyed-digest checksum over the batch
//! content; the real cryptographic binding is the HMAC-SHA-256 MAC
//! trailer the wire layer stamps on every published frame under the
//! HOP's [`HopKey`] (see `vpm-wire`'s codec and transport). The tag
//! key is the [`HopKey`]'s seed prefix ([`HopKey::tag_key`]), so both
//! layers are driven by one per-HOP secret.

use serde::{Deserialize, Serialize};
use vpm_hash::HopKey;
use vpm_packet::HopId;

use crate::ingest::Ingest;
use crate::receipt::{compact, AggReceipt, PathId, SampleReceipt};

/// A batch of receipts emitted by one HOP at one reporting interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiptBatch {
    /// The reporting HOP.
    pub hop: HopId,
    /// Monotonic batch sequence number per HOP.
    pub batch_seq: u64,
    /// Sample receipts, one per path with samples this interval.
    pub samples: Vec<SampleReceipt>,
    /// Aggregate receipts, one per finalized aggregate.
    pub aggregates: Vec<AggReceipt>,
    /// Keyed-digest authenticity tag.
    pub auth_tag: u64,
}

impl ReceiptBatch {
    /// Compact wire size of the batch in bytes (the unit of the §7.1
    /// bandwidth accounting).
    pub fn compact_bytes(&self) -> usize {
        self.samples
            .iter()
            .map(compact::sample_receipt_bytes)
            .sum::<usize>()
            + self
                .aggregates
                .iter()
                .map(compact::agg_receipt_bytes)
                .sum::<usize>()
    }

    /// Total sample records in the batch.
    pub fn sample_records(&self) -> usize {
        self.samples.iter().map(|s| s.samples.len()).sum()
    }

    /// The distinct `PathID`s this batch's receipts reference, in first-
    /// appearance order (sample receipts before aggregates). This is
    /// the canonical order of a wire frame's per-batch `PathID` table:
    /// the encoder emits each path once here and every receipt carries
    /// a 4-byte reference into it (`receipt::compact::PATH_REF_BYTES`).
    pub fn paths(&self) -> Vec<PathId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for path in self
            .samples
            .iter()
            .map(|s| s.path)
            .chain(self.aggregates.iter().map(|a| a.path))
        {
            if seen.insert(path) {
                out.push(path);
            }
        }
        out
    }

    fn tag_input(&self) -> Vec<u8> {
        // Canonical content serialization without the tag itself.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&self.hop.0.to_le_bytes());
        bytes.extend_from_slice(&self.batch_seq.to_le_bytes());
        for s in &self.samples {
            for r in &s.samples {
                bytes.extend_from_slice(&r.pkt_id.0.to_le_bytes());
                bytes.extend_from_slice(&r.time.as_nanos().to_le_bytes());
            }
        }
        for a in &self.aggregates {
            bytes.extend_from_slice(&a.agg.first.0.to_le_bytes());
            bytes.extend_from_slice(&a.agg.last.0.to_le_bytes());
            bytes.extend_from_slice(&a.pkt_cnt.to_le_bytes());
            for d in &a.agg_trans {
                bytes.extend_from_slice(&d.0.to_le_bytes());
            }
        }
        bytes
    }

    /// Compute the authenticity tag under `key`.
    pub fn compute_tag(&self, key: u64) -> u64 {
        vpm_hash::lookup3::hash64(&self.tag_input(), key)
    }

    /// Verify the stored tag under `key`.
    pub fn verify_tag(&self, key: u64) -> bool {
        self.auth_tag == self.compute_tag(key)
    }
}

/// Cumulative reporting statistics of a processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorStats {
    /// Batches emitted.
    pub batches: u64,
    /// Total compact receipt bytes emitted.
    pub receipt_bytes: u64,
    /// Total sample records emitted.
    pub sample_records: u64,
    /// Total aggregate receipts emitted.
    pub aggregate_receipts: u64,
}

/// The default per-HOP signing key, derived from the HOP id. Its seed
/// doubles as the legacy u64 tag key ([`HopKey::tag_key`]), so batches
/// signed through it keep the auth-tag values of the pre-HMAC fixtures.
pub fn default_hop_key(hop: HopId) -> HopKey {
    HopKey::from_seed(0x5650_4d00 ^ hop.0 as u64)
}

/// The control-plane processor.
#[derive(Debug)]
pub struct Processor {
    hop: HopId,
    key: HopKey,
    next_seq: u64,
    stats: ProcessorStats,
}

impl Processor {
    /// New processor for a HOP with a default per-HOP signing key.
    pub fn new(hop: HopId) -> Self {
        Processor {
            hop,
            key: default_hop_key(hop),
            next_seq: 0,
            stats: ProcessorStats::default(),
        }
    }

    /// The legacy u64 tag key the batch `auth_tag` is computed under.
    pub fn key(&self) -> u64 {
        self.key.tag_key()
    }

    /// The HOP's full signing key (registered with the transport out
    /// of band; MACs every published frame).
    pub fn hop_key(&self) -> HopKey {
        self.key
    }

    /// Drain the collector into a signed receipt batch (one pass over
    /// the collector plane's path table via [`Ingest::drain_receipts`]).
    pub fn report<I: Ingest + ?Sized>(&mut self, collector: &mut I) -> ReceiptBatch {
        let mut samples = Vec::new();
        let mut aggregates = Vec::new();
        collector.drain_receipts(&mut samples, &mut aggregates);
        let mut batch = ReceiptBatch {
            hop: self.hop,
            batch_seq: self.next_seq,
            samples,
            aggregates,
            auth_tag: 0,
        };
        batch.auth_tag = batch.compute_tag(self.key.tag_key());
        self.next_seq += 1;
        self.stats.batches += 1;
        self.stats.receipt_bytes += batch.compact_bytes() as u64;
        self.stats.sample_records += batch.sample_records() as u64;
        self.stats.aggregate_receipts += batch.aggregates.len() as u64;
        batch
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::hop::HopConfig;
    use crate::receipt::PathId;
    use vpm_packet::{DomainId, SimDuration};

    fn pipeline_parts() -> (Collector, Processor) {
        let cfg = HopConfig::new(HopId(4), DomainId(2))
            .with_sampling_rate(0.05)
            .with_aggregate_size(200)
            .with_marker_rate(0.01)
            .with_j_window(SimDuration::from_millis(1));
        let mut collector = Collector::new(cfg);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        collector.register_path(PathId {
            spec,
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        });
        (collector, Processor::new(HopId(4)))
    }

    /// Classify + digest upstream, then one batch-first `ingest` call —
    /// the post-redesign shape of a collector feed.
    fn ingest_packets<'a>(
        collector: &mut Collector,
        packets: impl Iterator<Item = &'a vpm_trace::TracePacket>,
    ) {
        let batch: Vec<_> = packets
            .filter_map(|tp| {
                collector
                    .classify(&tp.packet)
                    .map(|idx| (idx, tp.packet.digest(), tp.ts))
            })
            .collect();
        let report = collector.ingest(&batch);
        assert!(report.is_clean());
    }

    fn feed(collector: &mut Collector, n: usize, seed: u64) {
        let cfg = vpm_trace::TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(400),
            ..vpm_trace::TraceConfig::paper_default(1, seed)
        };
        let trace = vpm_trace::TraceGenerator::new(cfg).generate();
        ingest_packets(collector, trace.iter().take(n));
    }

    #[test]
    fn report_drains_and_signs() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 10_000, 31);
        c.flush();
        let batch = p.report(&mut c);
        assert!(!batch.samples.is_empty());
        assert!(!batch.aggregates.is_empty());
        assert!(batch.verify_tag(p.key()));
        assert_eq!(batch.batch_seq, 0);
        // Second report is empty but still valid.
        let batch2 = p.report(&mut c);
        assert_eq!(batch2.batch_seq, 1);
        assert_eq!(batch2.sample_records(), 0);
        assert!(batch2.verify_tag(p.key()));
    }

    #[test]
    fn tampering_breaks_tag() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 5_000, 32);
        c.flush();
        let mut batch = p.report(&mut c);
        assert!(batch.verify_tag(p.key()));
        // A lying relay edits a packet count.
        if let Some(a) = batch.aggregates.first_mut() {
            a.pkt_cnt += 1;
        }
        assert!(!batch.verify_tag(p.key()));
        // And a wrong key never verifies.
        assert!(!batch.verify_tag(p.key() ^ 1));
    }

    #[test]
    fn stats_accumulate() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 5_000, 33);
        c.flush();
        let b = p.report(&mut c);
        let s = p.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.receipt_bytes, b.compact_bytes() as u64);
        assert_eq!(s.sample_records, b.sample_records() as u64);
        assert_eq!(s.aggregate_receipts, b.aggregates.len() as u64);
    }

    /// Periodic reporting must be equivalent to one big report: the
    /// union of samples matches, and finished aggregates concatenate
    /// (the open aggregate simply continues across intervals).
    #[test]
    fn chunked_reporting_equals_single_report() {
        let cfg = vpm_trace::TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(400),
            ..vpm_trace::TraceConfig::paper_default(1, 35)
        };
        let trace = vpm_trace::TraceGenerator::new(cfg).generate();

        let run_chunked = |chunks: usize| {
            let (mut c, mut p) = pipeline_parts();
            let mut samples = Vec::new();
            let mut aggs = Vec::new();
            for part in trace.chunks(trace.len() / chunks + 1) {
                ingest_packets(&mut c, part.iter());
                let b = p.report(&mut c);
                samples.extend(b.samples.into_iter().flat_map(|r| r.samples));
                aggs.extend(b.aggregates);
            }
            c.flush();
            let b = p.report(&mut c);
            samples.extend(b.samples.into_iter().flat_map(|r| r.samples));
            aggs.extend(b.aggregates);
            (samples, aggs)
        };

        let (s1, a1) = run_chunked(1);
        let (s4, a4) = run_chunked(4);
        assert_eq!(s1, s4, "sample streams must be identical");
        assert_eq!(
            a1.iter().map(|a| (a.agg, a.pkt_cnt)).collect::<Vec<_>>(),
            a4.iter().map(|a| (a.agg, a.pkt_cnt)).collect::<Vec<_>>(),
            "aggregate receipts must be identical"
        );
    }

    #[test]
    fn paths_lists_each_path_once_in_first_appearance_order() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 8_000, 36);
        c.flush();
        let b = p.report(&mut c);
        let paths = b.paths();
        assert_eq!(paths.len(), 1, "single-path pipeline");
        assert_eq!(paths[0], b.samples[0].path);
        // Every receipt's path resolves to an index in the table.
        for s in &b.samples {
            assert!(paths.contains(&s.path));
        }
        for a in &b.aggregates {
            assert!(paths.contains(&a.path));
        }
        // An empty batch has an empty table.
        let empty = p.report(&mut c);
        assert!(empty.paths().is_empty());
    }

    #[test]
    fn compact_bytes_track_contents() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 8_000, 34);
        c.flush();
        let b = p.report(&mut c);
        let expected: usize = b
            .samples
            .iter()
            .map(crate::receipt::compact::sample_receipt_bytes)
            .sum::<usize>()
            + b.aggregates
                .iter()
                .map(crate::receipt::compact::agg_receipt_bytes)
                .sum::<usize>();
        assert_eq!(b.compact_bytes(), expected);
        assert!(b.compact_bytes() > 0);
    }
}
