//! The `fleet_mem` and `fleet_tcp` workloads: the paper's whole receipt
//! pipeline for a fleet of Figure-1 paths, in a closed loop of
//! `workers` threads that each take the next path from a shared
//! counter.
//!
//! Set-up runs the simulator once (traces, per-HOP observed streams);
//! the timed passes then run only the product: every HOP's collector
//! (classify, digest, ingest), its processor's final report, signed
//! encoding, publish onto the bus (in process or over loopback TCP),
//! path-scoped fetch and verification, and the fleet verdict. Each
//! pass starts on a fresh bus, built between passes and not timed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpm_core::processor::{default_hop_key, ReceiptBatch};
use vpm_core::receipt::PathId;
use vpm_core::verify::Verifier;
use vpm_core::{HopConfig, HopPipeline, Ingest};
use vpm_hash::{KeyEpoch, DEFAULT_DIGEST_SEED};
use vpm_netsim::channel::{apply, arrivals, ChannelConfig};
use vpm_netsim::clock::HopClock;
use vpm_packet::{DomainId, HopId, Packet, SimDuration, SimTime};
use vpm_sim::adversary::{apply_lies, LieSite, LieStrategy};
use vpm_sim::fleet::FLEET_BASE_SEED;
use vpm_sim::run::{ClockMode, HopOutput};
use vpm_sim::verdict::{analyze_from_transport_scoped, DomainReport, LinkVerdict};
use vpm_sim::{
    analyze_fleet_from_transport, build_fleet, run_fleet, DomainRole, Fleet, FleetConfig, FleetLie,
    FleetPath, FleetPathVerdict, PathAnalysis, PathRun, Topology,
};
use vpm_trace::{TraceConfig, TraceGenerator, TracePacket};
use vpm_wire::{
    Profile, Published, ReceiptTransport, ShardedBus, TcpServer, TcpTransport, TransportError,
    WireEncoder,
};

use crate::span::{Recorder, Span};
use crate::sys::{cpu_seconds, median, median_by, percentile, trim_heap, RssWindow};
use crate::{Outcome, Values};

/// Entries per `Ingest::ingest` call, the batch size the product's own
/// path runner uses.
const INGEST_BATCH: usize = 4096;

/// Shape of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub paths: usize,
    pub liars: usize,
    pub workers: usize,
    pub shards: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// `vpm fleet --paths 1024 --jobs 2` (1 in 8 paths lying, the default
/// 32-shard bus), worked by two threads.
pub const FULL: Shape = Shape {
    paths: 1024,
    liars: 128,
    workers: 2,
    shards: 32,
    setups: 5,
};

/// A seconds-long shape for the smoke test.
pub const TINY: Shape = Shape {
    paths: 16,
    liars: 2,
    workers: 2,
    shards: 4,
    setups: 3,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// One in-process `ShardedBus` shared by the workers.
    Mem,
    /// A `TcpServer` on loopback; one `TcpTransport` per worker.
    Tcp,
}

/// One HOP's precomputed observations.
struct HopInput {
    hop: HopId,
    domain: DomainId,
    path: PathId,
    config: HopConfig,
    /// Trace indices of the packets the HOP observed, in order.
    idx: Vec<u32>,
    /// The HOP's clock reading for each observation.
    times: Vec<SimTime>,
}

struct PathInput {
    trace: Vec<TracePacket>,
    hops: Vec<HopInput>,
}

/// Live packet stream: `(trace index, current time)` in observation
/// order (the simulator's representation in `vpm_sim::run`).
type Stream = Vec<(usize, SimTime)>;

fn transform(stream: &Stream, channel: &ChannelConfig) -> Stream {
    let times: Vec<SimTime> = stream.iter().map(|&(_, t)| t).collect();
    arrivals(&apply(&times, channel))
        .iter()
        .map(|d| (stream[d.idx].0, d.ts_out))
        .collect()
}

/// Simulate one path exactly as `vpm_sim::fleet` does (same trace, same
/// channel transforms), keeping what every HOP observed.
fn simulate(path: &FleetPath) -> Result<PathInput, String> {
    let cfg = &path.run_config;
    if cfg.clocks != ClockMode::Ideal || cfg.marker_dropper.is_some() || !cfg.overrides.is_empty() {
        return Err(format!(
            "path {}: unsupported run configuration",
            path.index
        ));
    }
    let topo = &path.topology;
    let trace = TraceGenerator::new(TraceConfig {
        target_pps: path.target_pps,
        duration: SimDuration::from_millis(path.trace_ms),
        spec: topo.spec,
        ..TraceConfig::paper_default(1, path.seed ^ 0x7ace)
    })
    .generate();
    let mut seen: HashMap<HopId, Stream> = HashMap::new();
    let mut stream: Stream = trace.iter().enumerate().map(|(i, tp)| (i, tp.ts)).collect();
    for (d_idx, dom) in topo.domains.iter().enumerate() {
        if let Some(ingress) = dom.ingress {
            seen.insert(ingress, stream.clone());
        }
        if dom.role == DomainRole::Transit {
            stream = transform(&stream, &dom.transit);
        }
        if let Some(egress) = dom.egress {
            seen.insert(egress, stream.clone());
        }
        if let Some(link) = topo.links.get(d_idx) {
            stream = transform(&stream, &link.channel);
        }
    }
    let mut hops = Vec::new();
    for (hop, pid) in topo.hop_path_ids() {
        let domain = topo.domain_of(hop).ok_or("HOP without a domain")?.id;
        let observed = seen.remove(&hop).ok_or("HOP saw no stream")?;
        let mut clock = HopClock::ideal();
        hops.push(HopInput {
            hop,
            domain,
            path: pid,
            config: HopConfig::new(hop, domain)
                .with_sampling_rate(cfg.sampling_rate)
                .with_aggregate_size(cfg.aggregate_size)
                .with_marker_rate(cfg.marker_rate)
                .with_j_window(cfg.j_window)
                .with_max_diff(pid.max_diff),
            idx: observed.iter().map(|&(i, _)| i as u32).collect(),
            times: observed.iter().map(|&(_, t)| clock.read(t)).collect(),
        });
    }
    Ok(PathInput { trace, hops })
}

/// The dissemination plane of one pass: a fresh bus with every HOP key
/// registered out of band, plus the server and client connections for
/// [`Plane::Tcp`]. Fields drop in order: clients, server, bus.
struct Bus {
    clients: Vec<TcpTransport>,
    /// Serves the pass; shut down when the pass's `Bus` drops.
    _server: Option<TcpServer>,
    bus: Arc<ShardedBus>,
    /// Key epoch per path, per HOP (path order).
    epochs: Vec<Vec<KeyEpoch>>,
}

impl Bus {
    fn build(plane: Plane, shape: &Shape, inputs: &[PathInput]) -> Result<Bus, String> {
        let bus = Arc::new(ShardedBus::new(shape.shards));
        let mut epochs = Vec::with_capacity(inputs.len());
        for input in inputs {
            let mut e = Vec::with_capacity(input.hops.len());
            for h in &input.hops {
                e.push(
                    bus.register_key(h.hop, default_hop_key(h.hop))
                        .map_err(|e| format!("register_key: {e}"))?,
                );
            }
            epochs.push(e);
        }
        let (server, clients) = match plane {
            Plane::Mem => (None, Vec::new()),
            Plane::Tcp => {
                let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&bus))
                    .map_err(|e| format!("bind loopback server: {e}"))?;
                let addr = server.local_addr().to_string();
                let clients = (0..shape.workers)
                    .map(|_| TcpTransport::connect(addr.clone()))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("connect: {e}"))?;
                (Some(server), clients)
            }
        };
        Ok(Bus {
            clients,
            _server: server,
            bus,
            epochs,
        })
    }

    fn transport(&self, worker: usize) -> &dyn ReceiptTransport {
        match self.clients.get(worker) {
            Some(c) => c,
            None => self.bus.as_ref(),
        }
    }
}

/// Work counts of one worker (summed over a run's traced passes).
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    paths: u64,
    head_pkts: u64,
    hop_pkts: u64,
    hops: u64,
    frames: u64,
    frame_bytes: u64,
    rejected: u64,
    refused: u64,
    state_bytes: u64,
    fetched_bytes: u64,
    matched: u64,
    joined: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.paths += o.paths;
        self.head_pkts += o.head_pkts;
        self.hop_pkts += o.hop_pkts;
        self.hops += o.hops;
        self.frames += o.frames;
        self.frame_bytes += o.frame_bytes;
        self.rejected += o.rejected;
        self.refused += o.refused;
        self.state_bytes += o.state_bytes;
        self.fetched_bytes += o.fetched_bytes;
        self.matched += o.matched;
        self.joined += o.joined;
    }
}

struct Worker<'a> {
    rec: Recorder,
    counts: Counts,
    latencies_ms: Vec<f64>,
    lie: Duration,
    transport: &'a dyn ReceiptTransport,
}

/// The lie a fleet path tells, as `vpm_sim::fleet` constructs it.
fn strategy(lie: FleetLie) -> LieStrategy {
    match lie {
        FleetLie::BlameShift => LieStrategy::BlameShiftLoss {
            claimed_delay: SimDuration::from_micros(300),
        },
        FleetLie::Sugarcoat => LieStrategy::SugarcoatDelay {
            shave: SimDuration::from_millis(5),
        },
    }
}

/// Doctor the liar's egress batch the way the product's fleet does:
/// through `apply_lies` on the HOP outputs.
fn tell_lie(
    path: &FleetPath,
    lie: FleetLie,
    input: &PathInput,
    batches: &mut [ReceiptBatch],
    epochs: &[KeyEpoch],
) {
    let hops = input
        .hops
        .iter()
        .zip(batches.iter())
        .zip(epochs)
        .map(|((h, b), &key_epoch)| HopOutput {
            hop: h.hop,
            domain: h.domain,
            path: h.path,
            batch: b.clone(),
            samples: b
                .samples
                .iter()
                .flat_map(|r| r.samples.iter().copied())
                .collect(),
            aggregates: b.aggregates.clone(),
            observed: h.idx.len(),
            key: Some(default_hop_key(h.hop)),
            key_epoch,
        })
        .collect();
    let mut run = PathRun {
        hops,
        truths: Vec::new(),
        trace_len: input.trace.len(),
    };
    let (ingress, egress) = path.liar_hops();
    apply_lies(
        &mut run,
        &[LieSite {
            ingress,
            egress,
            strategy: strategy(lie),
        }],
    );
    for (b, h) in batches.iter_mut().zip(run.hops) {
        *b = h.batch;
    }
}

/// Rebuild a HOP's output from its fetched frames; mirrors the private
/// `hop_output_from_frames` of `vpm_sim::verdict`.
fn rebuild(topo: &Topology, hop: HopId, path: PathId, published: &[Arc<Published>]) -> HopOutput {
    let mut batch = published[0].batch.clone();
    for p in &published[1..] {
        batch.samples.extend(p.batch.samples.iter().cloned());
        batch.aggregates.extend(p.batch.aggregates.iter().cloned());
    }
    let samples = batch
        .samples
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let aggregates = batch.aggregates.clone();
    let key_epoch = published
        .iter()
        .map(|p| p.epoch)
        .max()
        .unwrap_or(KeyEpoch(0));
    HopOutput {
        hop,
        domain: topo.domain_of(hop).map_or(DomainId(0), |d| d.id),
        path,
        batch,
        samples,
        aggregates,
        observed: 0,
        key: None,
        key_epoch,
    }
}

impl Worker<'_> {
    /// `analyze_from_transport_scoped`, taken apart so each layer call
    /// gets its own span. The verdict bytes must come out identical.
    fn analyze_traced(&mut self, fp: &FleetPath) -> Result<PathAnalysis, TransportError> {
        let topo = &fp.topology;
        let requester = fp.collector_domain();
        let mut hops = Vec::new();
        for (hop, pid) in topo.hop_path_ids() {
            let transport = self.transport;
            let mut published = self.rec.span("wire.transport.fetch_path", |_| {
                transport.fetch_path(requester, &pid)
            })?;
            published.retain(|p| p.hop == hop);
            self.counts.fetched_bytes +=
                published.iter().map(|p| p.frame.len() as u64).sum::<u64>();
            if published.iter().all(|p| p.paths.is_empty()) {
                continue;
            }
            hops.push(self.rec.span("sim.verdict.rebuild", |_| {
                rebuild(topo, hop, pid, &published)
            }));
        }
        let run = PathRun {
            hops,
            truths: Vec::new(),
            trace_len: 0,
        };
        let verifier = Verifier::default();
        let mut domains = Vec::new();
        for dom in &topo.domains {
            if dom.role != DomainRole::Transit {
                continue;
            }
            let (Some(ing), Some(eg)) = (dom.ingress, dom.egress) else {
                continue;
            };
            let (Some(hi), Some(he)) = (run.hop(ing), run.hop(eg)) else {
                continue;
            };
            let estimate = self.rec.span("core.verify.estimate_domain", |_| {
                verifier.estimate_domain(&hi.samples, &hi.aggregates, &he.samples, &he.aggregates)
            });
            self.counts.matched += estimate.matched_samples as u64;
            self.counts.joined += estimate.join.joined.len() as u64;
            domains.push(DomainReport {
                domain: dom.id,
                name: dom.name.clone(),
                hops: (ing, eg),
                estimate,
            });
        }
        let mut links = Vec::new();
        for link in &topo.links {
            let (Some(up), Some(down)) = (run.hop(link.up), run.hop(link.down)) else {
                continue;
            };
            let report = self.rec.span("core.verify.check_link", |_| {
                verifier.check_link(
                    &up.path,
                    &up.samples,
                    &up.aggregates,
                    &down.path,
                    &down.samples,
                    &down.aggregates,
                )
            });
            self.counts.matched += report.common_samples as u64;
            self.counts.joined += report.joined_aggregates as u64;
            links.push(LinkVerdict {
                up: link.up,
                down: link.down,
                implicates: (up.domain, down.domain),
                report,
            });
        }
        Ok(PathAnalysis { domains, links })
    }

    /// Carry one path from its HOPs' packets to its verdict.
    fn run_path(
        &mut self,
        fp: &FleetPath,
        input: &PathInput,
        epochs: &[KeyEpoch],
    ) -> Result<FleetPathVerdict, String> {
        self.rec.set_unit(fp.index as u64);
        let mut failed = None;
        let mut pipes = Vec::with_capacity(input.hops.len());
        for h in &input.hops {
            let mut pipe = HopPipeline::new(h.config);
            pipe.register_path(h.path);
            let pkts: Vec<&Packet> = h
                .idx
                .iter()
                .map(|&i| &input.trace[i as usize].packet)
                .collect();
            let classes: Vec<Option<usize>> = self.rec.span("core.collector.classify", |_| {
                pkts.iter().map(|p| pipe.collector.classify(p)).collect()
            });
            let digests = self.rec.span("hash.digest", |_| {
                vpm_packet::digest_packets(pkts.iter().copied(), DEFAULT_DIGEST_SEED)
            });
            let mut batch = Vec::with_capacity(pkts.len());
            for ((class, digest), &t) in classes.iter().zip(digests).zip(&h.times) {
                match class {
                    Some(idx) => batch.push((*idx, digest, t)),
                    None => failed = Some(format!("HOP {} could not classify a packet", h.hop)),
                }
            }
            let rejected = self.rec.span("core.collector.ingest", |_| {
                batch
                    .chunks(INGEST_BATCH)
                    .map(|chunk| pipe.collector.ingest(chunk).rejected())
                    .sum::<u64>()
            });
            if rejected > 0 {
                self.counts.rejected += rejected;
                failed = Some(format!("HOP {} rejected {rejected} entries", h.hop));
            }
            if self.rec.is_on() {
                self.counts.state_bytes += (pipe.collector.monitoring_cache_bytes()
                    + pipe.collector.temp_buffer_bytes())
                    as u64;
            }
            self.counts.hop_pkts += pkts.len() as u64;
            self.counts.hops += 1;
            pipes.push(pipe);
        }
        let ingested = Instant::now();
        let mut batches: Vec<ReceiptBatch> = pipes
            .iter_mut()
            .map(|p| {
                self.rec
                    .span("core.processor.final_report", |_| p.final_report())
            })
            .collect();

        let mut lie = Duration::ZERO;
        if let Some(l) = fp.lie {
            let t = Instant::now();
            self.rec.span("sim.adversary.lie", |_| {
                tell_lie(fp, l, input, &mut batches, epochs)
            });
            lie = t.elapsed();
        }

        let encoder = WireEncoder::new(Profile::Precise);
        let on_path = fp.topology.domain_ids();
        for (((h, batch), pipe), &epoch) in input.hops.iter().zip(&batches).zip(&pipes).zip(epochs)
        {
            let key = pipe.processor.hop_key();
            let mut to_send = Vec::with_capacity(2);
            if fp.quiet_first_interval {
                let mut empty = ReceiptBatch {
                    hop: h.hop,
                    batch_seq: 0,
                    samples: vec![],
                    aggregates: vec![],
                    auth_tag: 0,
                };
                empty.auth_tag = empty.compute_tag(key.tag_key());
                to_send.push(empty);
            }
            for b in to_send.iter().chain(std::iter::once(batch)) {
                let frame = self
                    .rec
                    .span("wire.codec.encode_signed", |_| {
                        encoder.encode_signed(b, &key, epoch)
                    })
                    .map_err(|e| format!("encode_signed: {e}"))?;
                self.counts.frames += 1;
                self.counts.frame_bytes += frame.len() as u64;
                let transport = self.transport;
                let published = self.rec.span("wire.transport.publish", |_| {
                    transport.publish(h.domain, frame, on_path.clone())
                });
                if let Err(e) = published {
                    self.counts.refused += 1;
                    return Err(format!("publish: {e}"));
                }
            }
        }

        let analysis = if self.rec.is_on() {
            self.analyze_traced(fp)
        } else {
            analyze_from_transport_scoped(&fp.topology, self.transport, fp.collector_domain())
        };
        let analysis = analysis.map_err(|e| {
            self.counts.refused += 1;
            format!("fetch: {e}")
        })?;
        let verdict = self.rec.span("sim.fleet.judge", |_| {
            FleetPathVerdict::from_analysis(fp, &analysis)
        });
        self.latencies_ms
            .push((ingested.elapsed().saturating_sub(lie)).as_secs_f64() * 1e3);
        self.lie += lie;
        self.counts.paths += 1;
        self.counts.head_pkts += input.trace.len() as u64;
        match failed {
            Some(e) => Err(e),
            None => Ok(verdict),
        }
    }
}

/// What one timed pass produced.
struct Pass {
    /// Wall time of the pass minus the lie time per worker.
    wall: Duration,
    cpu_s: f64,
    verdicts: Vec<Option<FleetPathVerdict>>,
    errors: Vec<String>,
    counts: Counts,
    latencies_ms: Vec<f64>,
    spans: Vec<Vec<Span>>,
    /// Resident memory the pass added on top of the trimmed heap.
    peak_rss_mb: f64,
}

fn run_pass(
    fleet: &Fleet,
    inputs: &[PathInput],
    bus: &Bus,
    workers: usize,
    traced: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let next = AtomicUsize::new(0);
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                s.spawn(move || {
                    let mut worker = Worker {
                        rec: Recorder::new(traced, epoch),
                        counts: Counts::default(),
                        latencies_ms: Vec::new(),
                        lie: Duration::ZERO,
                        transport: bus.transport(w),
                    };
                    let mut results = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (Some(fp), Some(input), Some(ep)) =
                            (fleet.paths.get(i), inputs.get(i), bus.epochs.get(i))
                        else {
                            break;
                        };
                        results.push((i, worker.run_path(fp, input, ep)));
                    }
                    (
                        worker.rec.into_spans(),
                        worker.counts,
                        worker.latencies_ms,
                        worker.lie,
                        results,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let elapsed = start.elapsed();
    let cpu_s = cpu_seconds()? - cpu0;
    let mut pass = Pass {
        wall: elapsed,
        cpu_s,
        verdicts: vec![None; fleet.paths.len()],
        errors: Vec::new(),
        counts: Counts::default(),
        latencies_ms: Vec::new(),
        spans: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut lie = Duration::ZERO;
    for out in outs {
        let (spans, counts, lat, worker_lie, results) =
            out.map_err(|_| "a fleet worker panicked".to_string())?;
        pass.spans.push(spans);
        pass.counts.add(&counts);
        pass.latencies_ms.extend(lat);
        lie += worker_lie;
        for (i, r) in results {
            match r {
                Ok(v) => pass.verdicts[i] = Some(v),
                Err(e) => pass.errors.push(format!("path {i}: {e}")),
            }
        }
    }
    pass.wall = elapsed.saturating_sub(lie / workers as u32);
    Ok(pass)
}

struct Setup {
    fleet: Fleet,
    inputs: Vec<PathInput>,
    bus: Bus,
}

fn set_up(plane: Plane, shape: &Shape, base_seed: u64) -> Result<Setup, String> {
    let fleet = build_fleet(&FleetConfig {
        paths: shape.paths,
        liars: shape.liars,
        publishers: shape.workers,
        base_seed,
        ..FleetConfig::default()
    });
    let inputs = vpm_core::par_map_indexed(&fleet.paths, shape.workers, |_, p| simulate(p))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let bus = Bus::build(plane, shape, &inputs)?;
    Ok(Setup { fleet, inputs, bus })
}

/// The product's own fleet path on the same seed: `build_fleet` →
/// `run_fleet` → `analyze_fleet_from_transport`, serialized as
/// `vpm fleet --json` prints it.
fn reference(shape: &Shape, base_seed: u64) -> Result<String, String> {
    let fleet = build_fleet(&FleetConfig {
        paths: shape.paths,
        liars: shape.liars,
        publishers: shape.workers,
        base_seed,
        ..FleetConfig::default()
    });
    let bus = ShardedBus::new(shape.shards);
    run_fleet(&fleet, &bus);
    let verdicts = analyze_fleet_from_transport(&fleet, &bus, shape.workers);
    serde_json::to_string(&verdicts).map_err(|e| format!("serialize: {e}"))
}

pub struct Options {
    pub plane: Plane,
    pub shape: Shape,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tamper: bool,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let shape = &opts.shape;
    let base_seed = FLEET_BASE_SEED.wrapping_add(opts.seed);

    let mut setup_times = Vec::with_capacity(shape.setups);
    let mut setup = None;
    for _ in 0..shape.setups.max(1) {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(opts.plane, shape, base_seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Setup { fleet, inputs, bus } = setup.ok_or("no set-up ran")?;
    let mut bus = Some(bus);

    // Timed passes until `seconds` of pass time have run. With tracing
    // on, passes alternate untraced / traced so the overhead is
    // measured within one process.
    let epoch = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut verdict_json: Option<String> = None;
    let mut errors = Vec::new();
    let mut mismatched_passes = 0u64;
    while passes.is_empty()
        || timed.as_secs_f64() < opts.seconds
        || (opts.trace && passes.len() < 2)
    {
        let b = match bus.take() {
            Some(b) => b,
            None => Bus::build(opts.plane, shape, &inputs)?,
        };
        let traced = opts.trace && passes.len() % 2 == 1;
        trim_heap();
        let rss = RssWindow::start()?;
        let mut pass = run_pass(&fleet, &inputs, &b, shape.workers, traced, epoch)?;
        pass.peak_rss_mb = rss.peak_growth_mb()?;
        drop(b);
        timed += pass.wall;
        println!(
            "pass {}: {} paths in {:.3} s, cpu {:.2} s, latency p50 {:.4} ms p99 {:.4} ms{}",
            passes.len(),
            pass.counts.paths,
            pass.wall.as_secs_f64(),
            pass.cpu_s,
            percentile(&mut pass.latencies_ms.clone(), 0.5),
            percentile(&mut pass.latencies_ms.clone(), 0.99),
            if traced { ", traced" } else { "" }
        );
        errors.extend(pass.errors.iter().cloned());
        // Serialize outside the timed window; every pass must produce
        // the same verdict bytes.
        let json = serde_json::to_string(&pass.verdicts).map_err(|e| format!("serialize: {e}"))?;
        match &verdict_json {
            None => verdict_json = Some(json),
            Some(first) if *first != json => mismatched_passes += 1,
            Some(_) => {}
        }
        passes.push((traced, pass));
    }

    // Reference check (after the timed phase, not part of set-up).
    // `Some(v)` serializes as `v`, so a complete pass reads exactly as
    // the product's `Vec<FleetPathVerdict>`.
    let mut first_pass = passes[0].1.verdicts.clone();
    if opts.tamper {
        if let Some(Some(v)) = first_pass.first_mut() {
            v.flagged_links.push((0, 0));
        }
    }
    let ours = serde_json::to_string(&first_pass).map_err(|e| format!("serialize: {e}"))?;
    let reference = reference(shape, base_seed)?;
    // The verdicts must also hold the paper's contract: no honest path
    // or innocent link flagged, every liar exposed.
    let invalid: Vec<String> = first_pass
        .iter()
        .flatten()
        .filter(|v| !v.passed())
        .map(|v| {
            format!(
                "path {} ({}): {:?}",
                v.path,
                v.lie.as_deref().unwrap_or("honest"),
                v.failures
            )
        })
        .collect();
    let correct = ours == reference && invalid.is_empty() && mismatched_passes == 0;
    if ours != reference {
        errors.push("fleet verdicts differ from the product's own fleet run".to_string());
    }
    errors.extend(
        invalid
            .into_iter()
            .map(|e| format!("verdict fails the fleet invariants: {e}")),
    );
    if mismatched_passes > 0 {
        errors.push(format!(
            "{mismatched_passes} passes produced different verdict bytes"
        ));
    }

    let attempted: u64 = passes.iter().map(|(_, p)| p.verdicts.len() as u64).sum();
    let failed: u64 = passes
        .iter()
        .map(|(_, p)| p.verdicts.iter().filter(|v| v.is_none()).count() as u64)
        .sum();

    let mut values = Values::new();
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let pps = |p: &&Pass| p.counts.head_pkts as f64 / p.wall.as_secs_f64();
    if opts.trace {
        let spans: Vec<Vec<Span>> = traced
            .iter()
            .flat_map(|p| p.spans.iter().cloned())
            .collect();
        let mut c = Counts::default();
        traced.iter().for_each(|p| c.add(&p.counts));
        let wall: f64 = traced.iter().map(|p| p.wall.as_secs_f64()).sum();
        let t = crate::span::totals(&spans);
        // (metric, span timed, work units it is divided by, ns per unit)
        #[rustfmt::skip]
        let timed = [
            ("hash.digest_ns_per_pkt", "hash.digest", c.hop_pkts, 1.0),
            ("core.collector.classify_ns_per_pkt", "core.collector.classify", c.hop_pkts, 1.0),
            ("core.collector.ingest_ns_per_pkt", "core.collector.ingest", c.hop_pkts, 1.0),
            ("core.processor.report_us_per_hop", "core.processor.final_report", c.hops, 1e3),
            ("wire.codec.encode_signed_us_per_frame", "wire.codec.encode_signed", c.frames, 1e3),
            ("wire.codec.encode_signed_ns_per_byte", "wire.codec.encode_signed", c.frame_bytes, 1.0),
            ("wire.transport.publish_us_per_frame", "wire.transport.publish", c.frames, 1e3),
            ("wire.transport.fetch_us_per_path", "wire.transport.fetch_path", c.paths, 1e3),
            ("sim.verdict.rebuild_us_per_path", "sim.verdict.rebuild", c.paths, 1e3),
            ("core.verify.estimate_domain_us_per_path", "core.verify.estimate_domain", c.paths, 1e3),
            ("core.verify.check_link_us_per_path", "core.verify.check_link", c.paths, 1e3),
        ];
        for (metric, span, n, unit_ns) in timed {
            let ns = t.get(span).map_or(0, |x| x.total_ns);
            values.insert(metric, ns as f64 / n.max(1) as f64 / unit_ns);
        }
        let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
        values.insert(
            "core.collector.state_bytes_per_hop",
            per(c.state_bytes, c.hops),
        );
        values.insert("core.collector.rejected", c.rejected as f64);
        values.insert("wire.codec.frame_bytes", per(c.frame_bytes, c.frames));
        values.insert(
            "wire.transport.fetched_bytes_per_path",
            per(c.fetched_bytes, c.paths),
        );
        values.insert(
            "core.verify.matched_samples_per_path",
            per(c.matched, c.paths),
        );
        values.insert("core.verify.joined_aggs_per_path", per(c.joined, c.paths));
        values.insert("wire.transport.refused", c.refused as f64);
        crate::stage_shares(
            &mut values,
            &t,
            wall * shape.workers as f64,
            &["sim.adversary.lie"],
        );
        values.insert(
            "bench.trace_overhead",
            median_by(&traced, pps) / median_by(&untraced, pps),
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

    // Each figure is the median over the untraced passes, which keeps
    // a pass slowed by other load on the machine from moving it.
    let samples: usize = untraced.iter().map(|p| p.latencies_ms.len()).sum();
    let lat = |q: f64| move |p: &&Pass| percentile(&mut p.latencies_ms.clone(), q);
    values.insert("setup_s", median(&mut setup_times));
    values.insert("pkts_per_s", median_by(&untraced, pps));
    values.insert(
        "verdicts_per_s",
        median_by(&untraced, |p| p.counts.paths as f64 / p.wall.as_secs_f64()),
    );
    values.insert("verdict_latency_p50_ms", median_by(&untraced, lat(0.5)));
    values.insert("verdict_latency_p99_ms", median_by(&untraced, lat(0.99)));
    values.insert(
        "cpu_ms_per_verdict",
        median_by(&untraced, |p| p.cpu_s * 1e3 / p.counts.paths as f64),
    );
    values.insert(
        "wire_bytes_per_kpkt",
        median_by(&untraced, |p| {
            p.counts.frame_bytes as f64 / (p.counts.head_pkts as f64 / 1e3)
        }),
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
