//! Measured verifier-plane throughput — the backend of the
//! `vpm bench-verifier` subcommand.
//!
//! PR 3 made the collector line-rate and PR 4 made the wire cheap; the
//! remaining scale-out question is the *verifier*: how fast can a
//! regulator re-derive verdicts for a whole fleet of paths, and how
//! cheap is following the bus? This harness measures both halves on
//! every checkout:
//!
//! * **verification fan-out** — a real fleet is built, run, and
//!   published through one `ShardedBus`; then
//!   `analyze_fleet_from_transport` is timed sequentially (`jobs = 1`)
//!   and in parallel (`jobs = N`), reporting paths/s and the measured
//!   parallel speedup;
//! * **subscription polling** — the pre-cursor full-rescan poll
//!   (`ShardedBus::poll_full_rescan`, kept as a reference
//!   implementation) against the per-shard cursor poll, under the
//!   adversarial access pattern the cursor design exists for: many
//!   polls, each finding little new; plus the path-filtered
//!   subscription that touches exactly one shard;
//! * **idle-consumer cost** — the same paced publish stream drained by
//!   a spin-polling consumer and by a blocking [`ReceiptTransport::wait`]
//!   consumer, reporting polls issued per publish for each. This pins
//!   the PR-7 contract in a measured number: a blocked waiter costs
//!   O(publishes) polls while a spinner costs however many the CPU can
//!   issue.
//!
//! `vpm bench-verifier` serializes the report to `BENCH_verifier.json`
//! next to `BENCH_collector.json` and `BENCH_wire.json`; CI's
//! bench-trend gate (`scripts/bench_check.py`) validates all three
//! share the bench schema.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};
use vpm_hash::{Digest, HopKey, KeyEpoch};
use vpm_packet::{DomainId, HeaderSpec, HopId, Ipv4Prefix, SimDuration, SimTime};
use vpm_sim::fleet::{analyze_fleet_from_transport, build_fleet, run_fleet, Fleet, FleetConfig};
use vpm_wire::{Profile, ReceiptTransport, ShardedBus};

/// Workload shape for one verifier benchmark run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VerifierBenchConfig {
    /// Fleet size for the verification variants.
    pub paths: usize,
    /// Worker threads for the parallel verification variant.
    pub jobs: usize,
    /// Shards of the bus under test.
    pub shards: usize,
    /// Frames published in the polling variants.
    pub frames: usize,
    /// Concurrent subscriptions drained in the polling variants.
    pub subs: usize,
    /// Timed repetitions per variant (the minimum is reported).
    pub repeats: usize,
    /// Host fact, not a knob: the cores the run could use
    /// ([`crate::available_parallelism`]).
    pub available_parallelism: usize,
    /// Host fact, not a knob: whether HMAC-SHA-256 ran on the
    /// SHA-extension kernel ([`vpm_hash::has_sha_ni`]).
    pub sha_ni: bool,
}

impl Default for VerifierBenchConfig {
    fn default() -> Self {
        VerifierBenchConfig {
            paths: 48,
            jobs: 4,
            shards: 32,
            frames: 1500,
            subs: 8,
            repeats: 3,
            available_parallelism: crate::available_parallelism(),
            sha_ni: vpm_hash::has_sha_ni(),
        }
    }
}

/// One measured variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifierVariantResult {
    /// Variant name (stable identifier for trajectory tracking).
    pub name: String,
    /// Work items (paths or polls) per second.
    pub items_per_s: f64,
    /// Nanoseconds per work item.
    pub ns_per_item: f64,
}

/// The full report `vpm bench-verifier` prints and serializes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifierBenchReport {
    /// Workload shape.
    pub config: VerifierBenchConfig,
    /// Per-variant measurements.
    pub results: Vec<VerifierVariantResult>,
    /// `verify_sequential / verify_parallel` — the worker-pool win at
    /// this path count.
    pub parallel_speedup: f64,
    /// `poll_rescan / poll_cursor` — the per-shard cursor win under
    /// the publish/poll interleave.
    pub cursor_poll_speedup: f64,
    /// `poll_rescan / poll_path_filtered` — the one-shard subscription
    /// win under the same interleave.
    pub path_poll_speedup: f64,
    /// Polls a spin-polling consumer issues per paced publish while
    /// mostly idle (the busy-wait cost the blocking `wait` replaces).
    pub idle_spin_polls_per_publish: f64,
    /// Polls a `wait`-driven consumer issues per paced publish on the
    /// same stream (ideally ~1: one wakeup, one poll).
    pub idle_wait_polls_per_publish: f64,
    /// `idle_spin_polls_per_publish / idle_wait_polls_per_publish` —
    /// how much poll traffic blocking waits eliminate on an idle
    /// stream.
    pub idle_poll_reduction: f64,
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

/// A tiny synthetic path for the polling variants (no simulation —
/// polling cost is what is measured, not receipt generation).
fn poll_path_id(n: u16) -> PathId {
    let (hi, lo) = ((n >> 8) as u8, n as u8);
    PathId {
        spec: HeaderSpec::new(
            Ipv4Prefix::new(std::net::Ipv4Addr::new(10, hi, lo, 1), 32).expect("/32 is valid"),
            Ipv4Prefix::new(std::net::Ipv4Addr::new(20, hi, lo, 1), 32).expect("/32 is valid"),
        ),
        prev_hop: Some(HopId(1)),
        next_hop: Some(HopId(2)),
        max_diff: SimDuration::from_millis(2),
    }
}

/// A small signed single-sample batch for `hop` on synthetic path `n`.
fn poll_batch(hop: HopId, seq: u64, n: u16) -> (ReceiptBatch, HopKey) {
    let mut b = ReceiptBatch {
        hop,
        batch_seq: seq,
        samples: vec![SampleReceipt {
            path: poll_path_id(n),
            samples: vec![SampleRecord {
                pkt_id: Digest(0x1000 + seq),
                time: SimTime::from_micros(10 * seq),
            }],
        }],
        aggregates: vec![AggReceipt {
            path: poll_path_id(n),
            agg: AggId {
                first: Digest(1),
                last: Digest(2),
            },
            pkt_cnt: 100,
            agg_trans: vec![],
        }],
        auth_tag: 0,
    };
    let key = HopKey::from_seed(0xbe5c ^ hop.0 as u64);
    b.auth_tag = b.compute_tag(key.tag_key());
    (b, key)
}

/// Drive the publish/poll interleave once: publish `frames` frames
/// round-robin over 16 synthetic paths, calling `poll_one(bus, sub)`
/// for every subscription after each publish — the many-polls,
/// little-news access pattern. Frames come pre-encoded from
/// [`poll_frames`] so the timed region is publish admission + polling,
/// not codec work. Returns total polls issued.
fn drive_polls(
    cfg: &VerifierBenchConfig,
    frames: &[vpm_wire::WireFrame],
    subscribe: impl Fn(&ShardedBus, u16) -> vpm_wire::SubscriptionId,
    poll_one: impl Fn(&ShardedBus, vpm_wire::SubscriptionId) -> usize,
) -> usize {
    let bus = ShardedBus::new(cfg.shards);
    for h in 0..POLL_PATHS {
        let (_, key) = poll_batch(HopId(h + 1), 0, h);
        bus.register_key(HopId(h + 1), key)
            .expect("bench keys register once");
    }
    let subs: Vec<_> = (0..cfg.subs)
        .map(|s| subscribe(&bus, s as u16 % POLL_PATHS))
        .collect();
    let mut delivered = 0usize;
    let mut polls = 0usize;
    for frame in frames {
        bus.publish(DomainId(0), frame.clone(), vec![DomainId(0), DomainId(1)])
            .expect("bench batches publish");
        for &sub in &subs {
            delivered += poll_one(&bus, sub);
            polls += 1;
        }
    }
    assert!(delivered > 0, "polls must observe traffic");
    polls
}

/// Paths the polling workload round-robins over.
const POLL_PATHS: u16 = 16;

/// Pre-encode the polling workload's frames (untimed setup).
fn poll_frames(cfg: &VerifierBenchConfig) -> Vec<vpm_wire::WireFrame> {
    (0..cfg.frames as u64)
        .map(|i| {
            let n = (i % POLL_PATHS as u64) as u16;
            let (b, key) = poll_batch(HopId(n + 1), i, n);
            vpm_wire::WireEncoder::new(Profile::Precise)
                .encode_signed(&b, &key, KeyEpoch(0))
                .expect("bench batches encode")
        })
        .collect()
}

/// Publishes in the idle-consumer comparison. Few on purpose: the
/// workload is *pacing*, not volume — the measured quantity is polls
/// issued while nothing is arriving.
const IDLE_PUBLISHES: usize = 16;

/// Gap between paced publishes. 2ms is wide enough that a spinner
/// issues many polls per publish on any machine, short enough to keep
/// the comparison under ~50ms per discipline.
const IDLE_GAP: Duration = Duration::from_millis(2);

/// Drain [`IDLE_PUBLISHES`] paced publishes with one consumer; return
/// the number of `poll` calls it took. The spin discipline re-polls in
/// a tight loop (the pre-PR-7 drain); the wait discipline blocks on
/// [`ReceiptTransport::wait`] and polls only after a wakeup or a
/// 250ms timeout slice.
fn idle_polls(cfg: &VerifierBenchConfig, wait_based: bool) -> usize {
    let bus = ShardedBus::new(cfg.shards);
    let (_, key) = poll_batch(HopId(1), 0, 0);
    bus.register_key(HopId(1), key)
        .expect("bench keys register once");
    let frames: Vec<_> = (0..IDLE_PUBLISHES as u64)
        .map(|i| {
            let (b, key) = poll_batch(HopId(1), i, 0);
            vpm_wire::WireEncoder::new(Profile::Precise)
                .encode_signed(&b, &key, KeyEpoch(0))
                .expect("bench batches encode")
        })
        .collect();
    let sub = bus.subscribe(DomainId(1));
    let mut polls = 0usize;
    let mut got = 0usize;
    std::thread::scope(|s| {
        s.spawn(|| {
            for frame in frames {
                bus.publish(DomainId(0), frame, vec![DomainId(0), DomainId(1)])
                    .expect("bench batches publish");
                std::thread::sleep(IDLE_GAP);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while got < IDLE_PUBLISHES && Instant::now() < deadline {
            if wait_based {
                let _ = bus
                    .wait(sub, Duration::from_millis(250))
                    .expect("known sub");
            }
            got += bus.poll(sub).expect("known sub").len();
            polls += 1;
        }
    });
    assert_eq!(got, IDLE_PUBLISHES, "idle consumer must drain the stream");
    polls
}

/// Build and publish the verification fleet (untimed setup). The
/// traces are long enough that per-path verification does real
/// matching/quantile work — a toy trace would measure thread-pool
/// overhead instead of verification.
fn verification_fixture(cfg: &VerifierBenchConfig) -> (Fleet, ShardedBus) {
    let fleet = build_fleet(&FleetConfig {
        paths: cfg.paths,
        liars: cfg.paths / 8,
        publishers: 4,
        trace_ms: 200,
        target_pps: 50_000.0,
        ..FleetConfig::default()
    });
    let bus = ShardedBus::new(cfg.shards);
    run_fleet(&fleet, &bus);
    (fleet, bus)
}

/// Run every variant and assemble the report.
pub fn run(cfg: &VerifierBenchConfig) -> VerifierBenchReport {
    let mut results = Vec::new();
    let mut record = |name: &str, items: usize, secs: f64| {
        results.push(VerifierVariantResult {
            name: name.to_string(),
            items_per_s: items as f64 / secs,
            ns_per_item: secs * 1e9 / items as f64,
        });
        secs
    };

    // --- Verification fan-out over a real fleet. ---
    let (fleet, bus) = verification_fixture(cfg);
    let seq = time_secs(cfg.repeats, || {
        std::hint::black_box(analyze_fleet_from_transport(&fleet, &bus, 1));
    });
    record("verify_sequential", cfg.paths, seq);
    let par = time_secs(cfg.repeats, || {
        std::hint::black_box(analyze_fleet_from_transport(&fleet, &bus, cfg.jobs));
    });
    record("verify_parallel", cfg.paths, par);

    // --- Subscription polling under the publish/poll interleave. ---
    let frames = poll_frames(cfg);
    let mut polls = 0usize;
    let rescan = time_secs(cfg.repeats, || {
        polls = drive_polls(
            cfg,
            &frames,
            |bus, _| bus.subscribe(DomainId(1)),
            |bus, sub| bus.poll_full_rescan(sub).expect("known sub").len(),
        );
    });
    record("poll_rescan", polls, rescan);
    let cursor = time_secs(cfg.repeats, || {
        polls = drive_polls(
            cfg,
            &frames,
            |bus, _| bus.subscribe(DomainId(1)),
            |bus, sub| bus.poll(sub).expect("known sub").len(),
        );
    });
    record("poll_cursor", polls, cursor);
    let path_poll = time_secs(cfg.repeats, || {
        polls = drive_polls(
            cfg,
            &frames,
            |bus, n| bus.subscribe_path(DomainId(1), &poll_path_id(n)),
            |bus, sub| bus.poll(sub).expect("known sub").len(),
        );
    });
    record("poll_path_filtered", polls, path_poll);

    // --- Idle-consumer cost: spin-poll vs blocking wait. ---
    // Reported as polls-per-publish ratios, not rates: wall time here
    // is dominated by the deliberate publish pacing, so a throughput
    // number would measure the sleep, and the ratio is what the
    // blocking `wait` API exists to shrink.
    let spin = idle_polls(cfg, false) as f64 / IDLE_PUBLISHES as f64;
    let wait = idle_polls(cfg, true) as f64 / IDLE_PUBLISHES as f64;

    VerifierBenchReport {
        config: *cfg,
        results,
        parallel_speedup: seq / par,
        cursor_poll_speedup: rescan / cursor,
        path_poll_speedup: rescan / path_poll,
        idle_spin_polls_per_publish: spin,
        idle_wait_polls_per_publish: wait,
        idle_poll_reduction: spin / wait,
    }
}

/// Render the report as an aligned text table.
pub fn render_table(report: &VerifierBenchReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let c = &report.config;
    let _ = writeln!(
        s,
        "verifier plane — {} paths (jobs {}), {} shards, {} frames × {} subs",
        c.paths, c.jobs, c.shards, c.frames, c.subs
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
        "parallel verification speedup (sequential / parallel): {:.2}x",
        report.parallel_speedup
    );
    let _ = writeln!(
        s,
        "cursor poll speedup (full rescan / per-shard cursor):  {:.2}x",
        report.cursor_poll_speedup
    );
    let _ = writeln!(
        s,
        "path-filtered poll speedup (full rescan / one shard):  {:.2}x",
        report.path_poll_speedup
    );
    let _ = writeln!(
        s,
        "idle consumer polls/publish (spin {:.1} vs wait {:.1}): {:.0}x fewer",
        report.idle_spin_polls_per_publish,
        report.idle_wait_polls_per_publish,
        report.idle_poll_reduction
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VerifierBenchConfig {
        VerifierBenchConfig {
            paths: 4,
            jobs: 2,
            shards: 8,
            frames: 64,
            subs: 2,
            repeats: 1,
            ..VerifierBenchConfig::default()
        }
    }

    #[test]
    fn report_has_all_variants_and_sane_numbers() {
        let report = run(&tiny());
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "verify_sequential",
                "verify_parallel",
                "poll_rescan",
                "poll_cursor",
                "poll_path_filtered",
            ]
        );
        for r in &report.results {
            assert!(r.items_per_s > 0.0 && r.items_per_s.is_finite(), "{r:?}");
            assert!(r.ns_per_item > 0.0 && r.ns_per_item.is_finite(), "{r:?}");
        }
        assert!(report.parallel_speedup > 0.0);
        assert!(report.cursor_poll_speedup > 0.0);
        assert!(report.path_poll_speedup > 0.0);
        // A blocking waiter needs at least one poll per delivered
        // wakeup; a spinner always needs at least as many. The exact
        // spin count is machine-speed-dependent, the direction is not.
        assert!(report.idle_wait_polls_per_publish > 0.0);
        assert!(
            report.idle_spin_polls_per_publish >= report.idle_wait_polls_per_publish,
            "spin {} vs wait {}",
            report.idle_spin_polls_per_publish,
            report.idle_wait_polls_per_publish
        );
        assert!(report.idle_poll_reduction >= 1.0 && report.idle_poll_reduction.is_finite());
        let table = render_table(&report);
        assert!(table.contains("poll_cursor"));
        assert!(table.contains("speedup"));
        assert!(table.contains("idle consumer polls/publish"));
    }

    #[test]
    fn poll_variants_deliver_the_same_frames() {
        // Whatever their cost, the three polling disciplines must see
        // the same traffic: every published frame exactly once per
        // global subscription, and the watched path's frames on the
        // path-filtered one.
        let cfg = tiny();
        let frames = poll_frames(&cfg);
        let counted =
            |subscribe: &dyn Fn(&ShardedBus, u16) -> vpm_wire::SubscriptionId,
             poll: &dyn Fn(&ShardedBus, vpm_wire::SubscriptionId) -> usize| {
                let total = std::cell::Cell::new(0usize);
                drive_polls(&cfg, &frames, subscribe, |bus, sub| {
                    let n = poll(bus, sub);
                    total.set(total.get() + n);
                    n
                });
                total.get()
            };
        let rescan = counted(&|bus, _| bus.subscribe(DomainId(1)), &|bus, sub| {
            bus.poll_full_rescan(sub).unwrap().len()
        });
        let cursor = counted(&|bus, _| bus.subscribe(DomainId(1)), &|bus, sub| {
            bus.poll(sub).unwrap().len()
        });
        assert_eq!(rescan, cfg.frames * cfg.subs);
        assert_eq!(cursor, cfg.frames * cfg.subs);
        let path = counted(
            &|bus, n| bus.subscribe_path(DomainId(1), &poll_path_id(n)),
            &|bus, sub| bus.poll(sub).unwrap().len(),
        );
        // 16 synthetic paths, `subs` watchers each following one path.
        assert_eq!(path, cfg.frames * cfg.subs / 16);
    }
}
