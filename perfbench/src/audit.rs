//! The `audit_stream` workload: the continuous audit plane of
//! `vpm audit`. Every interval publishes one tiny signed frame per HOP
//! of each active path, the auditor drains its subscription and closes
//! the interval, and the bus is compacted and the auditor checkpointed
//! on the product's cadence. Two independent auditors run side by
//! side, each single-threaded like `run_audit` on its own bus, so the
//! figures average over both cores as the fleet workloads' do. Each
//! pass replays the same precomputed churn schedule on fresh buses,
//! built between passes and not timed.

use std::time::{Duration, Instant};

use vpm_packet::DomainId;
use vpm_sim::audit::workload::{publish_interval, Churn, AUDIT_BASE_SEED};
use vpm_sim::{run_audit, AuditConfig, AuditVerdict, Auditor};
use vpm_wire::{ReceiptTransport, ShardedBus};

use crate::span::{Recorder, Span};
use crate::sys::{cpu_seconds, median, median_by, percentile, trim_heap, RssWindow};
use crate::{Outcome, Values};

/// The auditing domain `run_audit` subscribes as.
const REQUESTER: DomainId = DomainId(0);

/// What a lying egress HOP adds to its count, as in `run_audit`.
const LIE_DELTA: u64 = 7;

/// HOPs per audited path; the first one reports the honest count.
const HOPS_PER_PATH: u16 = vpm_sim::audit::HOPS_PER_PATH;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Independent auditors, each on its own bus and thread.
    pub streams: usize,
    pub paths: usize,
    /// Intervals per pass (one verdict each).
    pub intervals: u64,
    pub shards: usize,
    pub gc_every: u64,
    pub checkpoint_every: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// `vpm audit --paths 64` with the default 8 shards, GC every 32 and
/// checkpoints every 256 intervals, one auditor per core.
pub const FULL: Shape = Shape {
    streams: 2,
    paths: 64,
    intervals: 1024,
    shards: 8,
    gc_every: 32,
    checkpoint_every: 256,
    setups: 25,
};

/// A seconds-long shape for the smoke test.
pub const TINY: Shape = Shape {
    streams: 2,
    paths: 8,
    intervals: 128,
    shards: 4,
    gc_every: 8,
    checkpoint_every: 32,
    setups: 3,
};

impl Shape {
    fn config(&self, seed: u64) -> AuditConfig {
        AuditConfig {
            paths: self.paths,
            intervals: self.intervals,
            shards: self.shards,
            gc_every: self.gc_every,
            checkpoint_every: self.checkpoint_every,
            restart_at: None,
            seed,
            assert_flat: false,
        }
    }
}

/// The churn state of every interval of a pass, stepped once in set-up.
fn churn_schedule(shape: &Shape, seed: u64) -> Vec<Churn> {
    let mut churn = Churn::new(shape.paths, seed);
    (0..shape.intervals)
        .map(|t| {
            churn.step(t);
            churn.clone()
        })
        .collect()
}

#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    intervals: u64,
    frames: u64,
    drained: u64,
    reclaimed: u64,
    retained_peak: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
    refused: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.intervals += o.intervals;
        self.frames += o.frames;
        self.drained += o.drained;
        self.reclaimed += o.reclaimed;
        self.retained_peak = self.retained_peak.max(o.retained_peak);
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.checkpoints += o.checkpoints;
        self.refused += o.refused;
    }
}

/// One auditor's run over the schedule on its own bus.
struct Stream {
    verdict: Option<AuditVerdict>,
    error: Option<String>,
    counts: Counts,
    latencies_ms: Vec<f64>,
    spans: Vec<Span>,
}

fn run_stream(
    shape: &Shape,
    schedule: &[Churn],
    bus: &ShardedBus,
    traced: bool,
    epoch: Instant,
) -> Result<Stream, String> {
    let mut auditor = Auditor::subscribe(bus, REQUESTER).map_err(|e| format!("subscribe: {e}"))?;
    let mut rec = Recorder::new(traced, epoch);
    let mut c = Counts::default();
    let mut latencies_ms = Vec::with_capacity(schedule.len());
    let mut interval =
        |t: u64, churn: &Churn, rec: &mut Recorder, c: &mut Counts| -> Result<(), String> {
            rec.set_unit(t);
            c.frames += rec
                .span("sim.audit.publish_interval", |_| {
                    publish_interval(bus, churn, t, LIE_DELTA)
                })
                .map_err(|e| format!("publish_interval: {e}"))? as u64;
            let published = Instant::now();
            c.drained += rec
                .span("sim.audit.drain", |_| auditor.drain(bus))
                .map_err(|e| format!("drain: {e}"))? as u64;
            rec.span("sim.audit.finish_interval", |_| auditor.finish_interval())
                .map_err(|e| format!("finish_interval: {e}"))?;
            latencies_ms.push(published.elapsed().as_secs_f64() * 1e3);
            c.intervals += 1;
            if (t + 1).is_multiple_of(shape.checkpoint_every) {
                let cp = rec
                    .span("sim.audit.checkpoint", |_| auditor.checkpoint(bus))
                    .map_err(|e| format!("checkpoint: {e}"))?;
                let bytes = rec
                    .span("wire.checkpoint.encode", |_| cp.encode())
                    .map_err(|e| format!("checkpoint encode: {e}"))?;
                c.checkpoint_bytes += bytes.len() as u64;
                c.checkpoints += 1;
            }
            if (t + 1).is_multiple_of(shape.gc_every) {
                if rec.is_on() {
                    c.retained_peak = c.retained_peak.max(bus.len() as u64);
                }
                let cursor = auditor.next_seq();
                let report = rec
                    .span("wire.transport.compact_before", |_| {
                        bus.compact_before(cursor)
                    })
                    .map_err(|e| format!("compact_before: {e}"))?;
                c.reclaimed += report.reclaimed;
            }
            Ok(())
        };
    let mut error = None;
    for (t, churn) in (0u64..).zip(schedule) {
        if let Err(e) = interval(t, churn, &mut rec, &mut c) {
            c.refused += 1;
            error = Some(e);
            break;
        }
    }
    let verdict = error.is_none().then(|| auditor.verdict());
    auditor.shutdown(bus);
    Ok(Stream {
        verdict,
        error,
        counts: c,
        latencies_ms,
        spans: rec.into_spans(),
    })
}

/// What one timed pass of every stream produced.
struct Pass {
    wall: Duration,
    cpu_s: f64,
    verdicts: Vec<Option<AuditVerdict>>,
    errors: Vec<String>,
    counts: Counts,
    latencies_ms: Vec<f64>,
    spans: Vec<Vec<Span>>,
    /// Resident memory the pass added on top of the trimmed heap.
    peak_rss_mb: f64,
}

fn run_pass(
    shape: &Shape,
    schedule: &[Churn],
    buses: &[ShardedBus],
    traced: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let streams: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = buses
            .iter()
            .map(|bus| s.spawn(move || run_stream(shape, schedule, bus, traced, epoch)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall = start.elapsed();
    let cpu_s = cpu_seconds()? - cpu0;
    let mut pass = Pass {
        wall,
        cpu_s,
        verdicts: Vec::new(),
        errors: Vec::new(),
        counts: Counts::default(),
        latencies_ms: Vec::new(),
        spans: Vec::new(),
        peak_rss_mb: 0.0,
    };
    for stream in streams {
        let stream = stream.map_err(|_| "an audit stream panicked".to_string())??;
        pass.verdicts.push(stream.verdict);
        pass.errors.extend(stream.error);
        pass.counts.add(&stream.counts);
        pass.latencies_ms.extend(stream.latencies_ms);
        pass.spans.push(stream.spans);
    }
    Ok(pass)
}

/// Frame bytes and attested packets of one stream's pass, read from a side
/// subscription on an untimed replay (frames are deterministic, so
/// every stream publishes exactly these in every pass).
fn wire_volume(shape: &Shape, schedule: &[Churn]) -> Result<(u64, u64), String> {
    let bus = ShardedBus::new(shape.shards);
    let sub = bus
        .subscribe_from(REQUESTER, 0)
        .map_err(|e| format!("subscribe: {e}"))?;
    let (mut bytes, mut pkts) = (0u64, 0u64);
    for (t, churn) in (0u64..).zip(schedule) {
        publish_interval(&bus, churn, t, LIE_DELTA)
            .map_err(|e| format!("publish_interval: {e}"))?;
        let mut next = 0;
        for p in bus.poll(sub).map_err(|e| format!("poll: {e}"))? {
            bytes += p.frame.len() as u64;
            if (p.hop.0 - 1) % HOPS_PER_PATH == 0 {
                pkts += p.batch.aggregates.iter().map(|a| a.pkt_cnt).sum::<u64>();
            }
            next = p.seq + 1;
        }
        bus.compact_before(next)
            .map_err(|e| format!("compact_before: {e}"))?;
    }
    Ok((bytes, pkts))
}

fn buses(shape: &Shape) -> Vec<ShardedBus> {
    (0..shape.streams)
        .map(|_| ShardedBus::new(shape.shards))
        .collect()
}

pub struct Options {
    pub shape: Shape,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tamper: bool,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let shape = &opts.shape;
    let seed = AUDIT_BASE_SEED.wrapping_add(opts.seed);

    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..shape.setups.max(1) {
        drop(setup.take());
        let t = Instant::now();
        setup = Some((churn_schedule(shape, seed), buses(shape)));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (schedule, first_buses) = setup.ok_or("no set-up ran")?;
    let mut first_buses = Some(first_buses);

    let epoch = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut timed = Duration::ZERO;
    while passes.is_empty()
        || timed.as_secs_f64() < opts.seconds
        || (opts.trace && passes.len() < 2)
    {
        let b = first_buses.take().unwrap_or_else(|| buses(shape));
        let traced = opts.trace && passes.len() % 2 == 1;
        trim_heap();
        let rss = RssWindow::start()?;
        let mut pass = run_pass(shape, &schedule, &b, traced, epoch)?;
        pass.peak_rss_mb = rss.peak_growth_mb()?;
        drop(b);
        timed += pass.wall;
        println!(
            "pass {}: {} intervals in {:.3} s, cpu {:.2} s, latency p50 {:.4} ms p99 {:.4} ms{}",
            passes.len(),
            pass.counts.intervals,
            pass.wall.as_secs_f64(),
            pass.cpu_s,
            percentile(&mut pass.latencies_ms.clone(), 0.5),
            percentile(&mut pass.latencies_ms.clone(), 0.99),
            if traced { ", traced" } else { "" }
        );
        passes.push((traced, pass));
    }

    // Reference check: every pass's verdict must equal `run_audit` at
    // the same configuration.
    let reference = run_audit(&shape.config(seed)).map_err(|e| format!("run_audit: {e}"))?;
    let reference =
        serde_json::to_string(&reference.verdict).map_err(|e| format!("serialize: {e}"))?;
    let mut errors: Vec<String> = passes.iter().flat_map(|(_, p)| p.errors.clone()).collect();
    let mut correct = true;
    for (i, (_, p)) in passes.iter().enumerate() {
        for (k, verdict) in p.verdicts.iter().enumerate() {
            let mut verdict = verdict.clone();
            if opts.tamper && i == 0 && k == 0 {
                if let Some(v) = verdict.as_mut() {
                    v.flagged_intervals += 1;
                }
            }
            let ours = serde_json::to_string(&verdict).map_err(|e| format!("serialize: {e}"))?;
            if ours != reference {
                correct = false;
                errors.push(format!(
                    "pass {i}, stream {k}: audit verdict differs from run_audit"
                ));
            }
        }
    }
    let per_pass = shape.streams as u64 * shape.intervals;
    let attempted = passes.len() as u64 * per_pass;
    let failed: u64 = passes
        .iter()
        .map(|(_, p)| per_pass - p.counts.intervals)
        .sum();

    let mut values = Values::new();
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let ips = |p: &&Pass| p.counts.intervals as f64 / p.wall.as_secs_f64();
    if opts.trace {
        let spans: Vec<Vec<Span>> = traced
            .iter()
            .flat_map(|p| p.spans.iter().cloned())
            .collect();
        let t = crate::span::totals(&spans);
        let mut c = Counts::default();
        traced.iter().for_each(|p| c.add(&p.counts));
        // (metric, span timed, work units it is divided by)
        #[rustfmt::skip]
        let timed = [
            ("wire.transport.publish_batch_us_per_frame", "sim.audit.publish_interval", c.frames),
            ("sim.audit.drain_us_per_frame", "sim.audit.drain", c.drained),
            ("sim.audit.finish_interval_us", "sim.audit.finish_interval", c.intervals),
            ("wire.transport.compact_us_per_entry", "wire.transport.compact_before", c.reclaimed),
            ("wire.checkpoint.encode_us", "wire.checkpoint.encode", c.checkpoints),
        ];
        for (metric, span, n) in timed {
            let ns = t.get(span).map_or(0, |x| x.total_ns);
            values.insert(metric, ns as f64 / n.max(1) as f64 / 1e3);
        }
        values.insert(
            "wire.transport.retained_entries_peak",
            c.retained_peak as f64,
        );
        values.insert(
            "wire.checkpoint.bytes",
            c.checkpoint_bytes as f64 / c.checkpoints.max(1) as f64,
        );
        values.insert("wire.transport.refused", c.refused as f64);
        let wall: f64 = traced.iter().map(|p| p.wall.as_secs_f64()).sum();
        crate::stage_shares(&mut values, &t, wall * shape.streams as f64, &[]);
        values.insert(
            "bench.trace_overhead",
            median_by(&traced, ips) / median_by(&untraced, ips),
        );
        let first_traced = passes
            .iter()
            .find(|(t, _)| *t)
            .map(|(_, p)| p.spans.clone());
        return Ok(Outcome {
            correct,
            attempted,
            failed,
            values,
            errors,
            spans: first_traced.unwrap_or_default(),
            totals: Some(t),
        });
    }

    let (bytes_per_stream, pkts_per_stream) = wire_volume(shape, &schedule)?;
    let pkts_per_pass = shape.streams as u64 * pkts_per_stream;
    // Medians over the untraced passes, as in the fleet workloads.
    let samples: usize = untraced.iter().map(|p| p.latencies_ms.len()).sum();
    let lat = |q: f64| move |p: &&Pass| percentile(&mut p.latencies_ms.clone(), q);
    values.insert("setup_s", median(&mut setup_times));
    values.insert(
        "pkts_per_s",
        median_by(&untraced, |p| pkts_per_pass as f64 / p.wall.as_secs_f64()),
    );
    values.insert("verdicts_per_s", median_by(&untraced, ips));
    values.insert("verdict_latency_p50_ms", median_by(&untraced, lat(0.5)));
    values.insert("verdict_latency_p99_ms", median_by(&untraced, lat(0.99)));
    values.insert(
        "cpu_ms_per_verdict",
        median_by(&untraced, |p| p.cpu_s * 1e3 / p.counts.intervals as f64),
    );
    values.insert(
        "wire_bytes_per_kpkt",
        bytes_per_stream as f64 / (pkts_per_stream as f64 / 1e3),
    );
    values.insert("peak_rss_mb", median_by(&untraced, |p| p.peak_rss_mb));
    println!(
        "latency samples: {samples} over {} passes (p50/p99 are medians of per-pass percentiles)",
        untraced.len()
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        values,
        errors,
        spans: Vec::new(),
        totals: None,
    })
}
