//! Measured continuous-operation cost — the backend of the
//! `vpm bench-audit` subcommand.
//!
//! The audit plane's claims are operational: a streaming verifier
//! keeps up with the interval stream, GC reclaims faster than
//! publishing fills, and stopping/restoring through a checkpoint is
//! cheap enough to do routinely. This harness measures each claim on
//! every checkout:
//!
//! * **`audit_intervals`** — a full `vpm_sim::audit::run_audit` pass
//!   (publish + drain + fold + periodic GC and checkpoints), reported
//!   as intervals/s end to end;
//! * **`gc_reclaim`** — `ReceiptTransport::compact_before` over a
//!   fully published bus, reported as entries reclaimed per second;
//! * **`checkpoint_encode` / `checkpoint_restore`** — the
//!   `AuditCheckpoint` codec round-trip at fleet-scale path counts,
//!   reported as snapshots/s each way.
//!
//! `vpm bench-audit` serializes the report to `BENCH_audit.json` next
//! to the other bench artifacts; CI's bench-trend gate
//! (`scripts/bench_check.py`) validates the shared schema and the
//! run-over-run trend.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use vpm_sim::audit::{run_audit, AuditConfig, AUDIT_BASE_SEED};
use vpm_wire::{AuditCheckpoint, PathAuditState, ReceiptTransport};

/// Workload shape for one audit benchmark run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AuditBenchConfig {
    /// Path slots in the timed audit run.
    pub paths: usize,
    /// Intervals in the timed audit run.
    pub intervals: u64,
    /// Shards of the bus under test.
    pub shards: usize,
    /// GC cadence of the timed audit run (intervals per pass).
    pub gc_every: u64,
    /// Path records in the checkpoint codec variants.
    pub checkpoint_paths: usize,
    /// Timed repetitions per variant (the minimum is reported).
    pub repeats: usize,
    /// Host fact, not a knob: the cores the run could use
    /// ([`crate::available_parallelism`]).
    pub available_parallelism: usize,
    /// Host fact, not a knob: whether HMAC-SHA-256 ran on the
    /// SHA-extension kernel ([`vpm_hash::has_sha_ni`]).
    pub sha_ni: bool,
}

impl Default for AuditBenchConfig {
    fn default() -> Self {
        AuditBenchConfig {
            paths: 8,
            intervals: 256,
            shards: 8,
            gc_every: 16,
            checkpoint_paths: 4096,
            repeats: 3,
            available_parallelism: crate::available_parallelism(),
            sha_ni: vpm_hash::has_sha_ni(),
        }
    }
}

/// One measured variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditVariantResult {
    /// Variant name (stable identifier for trajectory tracking).
    pub name: String,
    /// Work items (intervals, reclaimed entries, or snapshots) per
    /// second.
    pub items_per_s: f64,
    /// Nanoseconds per work item.
    pub ns_per_item: f64,
}

/// The full report `vpm bench-audit` prints and serializes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditBenchReport {
    /// Workload shape.
    pub config: AuditBenchConfig,
    /// Per-variant measurements.
    pub results: Vec<AuditVariantResult>,
    /// Entries each timed GC pass reclaimed.
    pub gc_reclaimed_per_pass: f64,
    /// Encoded size of the benchmark checkpoint, bytes.
    pub checkpoint_bytes: f64,
    /// Peak retained entries during the timed audit run (the flatness
    /// observable, as a measured number).
    pub audit_max_entries: f64,
}

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

/// The audit-run shape the `audit_intervals` variant times.
fn timed_audit_cfg(cfg: &AuditBenchConfig) -> AuditConfig {
    AuditConfig {
        paths: cfg.paths,
        intervals: cfg.intervals,
        shards: cfg.shards,
        gc_every: cfg.gc_every,
        checkpoint_every: cfg.gc_every * 4,
        restart_at: None,
        seed: AUDIT_BASE_SEED,
        assert_flat: true,
    }
}

/// A fully published, never-compacted bus for the GC variant: the
/// same audit workload with GC disabled, ready for one big pass.
fn gc_fixture(cfg: &AuditBenchConfig) -> (vpm_wire::ShardedBus, u64) {
    use vpm_sim::audit::workload::{publish_interval, Churn};
    let bus = vpm_wire::ShardedBus::new(cfg.shards);
    let mut churn = Churn::new(cfg.paths, AUDIT_BASE_SEED);
    let mut published = 0u64;
    for t in 0..cfg.intervals {
        churn.step(t);
        published += publish_interval(&bus, &churn, t, 7).expect("bench batches publish") as u64;
    }
    (bus, published)
}

/// A checkpoint with `checkpoint_paths` realistic path records.
fn checkpoint_fixture(cfg: &AuditBenchConfig) -> AuditCheckpoint {
    AuditCheckpoint {
        next_seq: 0x10_0000,
        horizon: 0x0f_0000,
        intervals: 2000,
        paths: (0..cfg.checkpoint_paths as u32)
            .map(|i| PathAuditState {
                path: i,
                audited_intervals: 1900 + u64::from(i % 100),
                flagged_intervals: u64::from(i % 7),
                last_interval: 1999,
            })
            .collect(),
    }
}

/// Run every variant and assemble the report.
pub fn run(cfg: &AuditBenchConfig) -> AuditBenchReport {
    let mut results = Vec::new();
    let mut record = |name: &str, items: usize, secs: f64| {
        results.push(AuditVariantResult {
            name: name.to_string(),
            items_per_s: items as f64 / secs,
            ns_per_item: secs * 1e9 / items as f64,
        });
        secs
    };

    // --- End-to-end streaming audit. ---
    let mut max_entries = 0usize;
    let audit = time_secs(cfg.repeats, || {
        let out = run_audit(&timed_audit_cfg(cfg)).expect("bench audit runs");
        max_entries = max_entries.max(out.stats.max_entries);
        std::hint::black_box(out);
    });
    record("audit_intervals", cfg.intervals as usize, audit);

    // --- One big GC pass over a fully published bus. ---
    // Fresh fixtures outside the timed body: a compacted bus cannot be
    // compacted again, so each repeat consumes one.
    let mut fixtures: Vec<_> = (0..cfg.repeats.max(1)).map(|_| gc_fixture(cfg)).collect();
    let published = fixtures.first().map_or(0, |f| f.1);
    let mut reclaimed = 0u64;
    let gc = time_secs(cfg.repeats, || {
        if let Some((bus, _)) = fixtures.pop() {
            let report = bus.compact_before(u64::MAX).expect("bench compaction runs");
            reclaimed = report.reclaimed;
            std::hint::black_box(report);
        }
    });
    record("gc_reclaim", published as usize, gc);

    // --- Checkpoint codec at fleet-scale path counts. ---
    let cp = checkpoint_fixture(cfg);
    let bytes = cp.encode().expect("bench checkpoint encodes");
    const CODEC_ITERS: usize = 64;
    let enc = time_secs(cfg.repeats, || {
        for _ in 0..CODEC_ITERS {
            std::hint::black_box(cp.encode().expect("bench checkpoint encodes"));
        }
    });
    record("checkpoint_encode", CODEC_ITERS, enc);
    let dec = time_secs(cfg.repeats, || {
        for _ in 0..CODEC_ITERS {
            std::hint::black_box(
                AuditCheckpoint::decode(&bytes).expect("bench checkpoint decodes"),
            );
        }
    });
    record("checkpoint_restore", CODEC_ITERS, dec);

    AuditBenchReport {
        config: *cfg,
        results,
        gc_reclaimed_per_pass: reclaimed as f64,
        checkpoint_bytes: bytes.len() as f64,
        audit_max_entries: max_entries as f64,
    }
}

/// Render the report as an aligned text table.
pub fn render_table(report: &AuditBenchReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let c = &report.config;
    let _ = writeln!(
        s,
        "audit plane — {} paths × {} intervals, {} shards, gc every {}, {}-path checkpoints",
        c.paths, c.intervals, c.shards, c.gc_every, c.checkpoint_paths
    );
    let _ = writeln!(s, "{:<20} {:>14} {:>14}", "variant", "items/s", "ns/item");
    for r in &report.results {
        let _ = writeln!(
            s,
            "{:<20} {:>14.1} {:>14.1}",
            r.name, r.items_per_s, r.ns_per_item
        );
    }
    let _ = writeln!(
        s,
        "gc reclaimed per pass: {:.0} entries; peak retained during audit: {:.0}",
        report.gc_reclaimed_per_pass, report.audit_max_entries
    );
    let _ = writeln!(
        s,
        "checkpoint size at {} paths: {:.0} bytes",
        c.checkpoint_paths, report.checkpoint_bytes
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast full run: every variant present, every number sane.
    #[test]
    fn report_has_every_variant_with_sane_numbers() {
        let cfg = AuditBenchConfig {
            paths: 3,
            intervals: 32,
            shards: 4,
            gc_every: 8,
            checkpoint_paths: 64,
            repeats: 1,
            ..AuditBenchConfig::default()
        };
        let report = run(&cfg);
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "audit_intervals",
                "gc_reclaim",
                "checkpoint_encode",
                "checkpoint_restore"
            ]
        );
        for r in &report.results {
            assert!(r.items_per_s > 0.0, "{}: {}", r.name, r.items_per_s);
            assert!(r.ns_per_item > 0.0, "{}: {}", r.name, r.ns_per_item);
        }
        assert!(report.gc_reclaimed_per_pass > 0.0);
        assert!(report.checkpoint_bytes > 0.0);
        assert!(report.audit_max_entries > 0.0);
        let table = render_table(&report);
        assert!(table.contains("audit_intervals"));
        assert!(table.contains("checkpoint_restore"));
    }
}
