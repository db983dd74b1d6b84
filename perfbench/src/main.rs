//! End-to-end benchmark of the receipt pipeline.
//!
//! ```text
//! vpm-perfbench --workload fleet_mem|fleet_tcp|audit_stream --seed N
//!               --seconds S --trace 0|1 [--shape full|tiny] [--spans FILE]
//! ```
//!
//! Prints an environment line, then (last line) one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when the run's verdicts differ from the product's own
//! path on the same seed. See `perfbench/README.md`.

mod audit;
mod fleet;
mod span;
mod sys;

use std::collections::BTreeMap;
use std::process::ExitCode;

use span::{NameTotals, Span};

/// A seed kept out of every measurement made while writing a change,
/// to confirm its claim on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 0x0d15_ea5e;

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("pkts_per_s", "1/s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_latency_p50_ms", "ms"),
    ("verdict_latency_p99_ms", "ms"),
    ("cpu_ms_per_verdict", "ms"),
    ("wire_bytes_per_kpkt", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with their units. A workload that
/// does not call a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("hash.digest_ns_per_pkt", "ns"),
    ("core.collector.classify_ns_per_pkt", "ns"),
    ("core.collector.ingest_ns_per_pkt", "ns"),
    ("core.collector.state_bytes_per_hop", "B"),
    ("core.collector.rejected", "count"),
    ("core.processor.report_us_per_hop", "us"),
    ("wire.codec.encode_signed_us_per_frame", "us"),
    ("wire.codec.encode_signed_ns_per_byte", "ns"),
    ("wire.codec.frame_bytes", "B"),
    ("wire.transport.publish_us_per_frame", "us"),
    ("wire.transport.fetch_us_per_path", "us"),
    ("wire.transport.fetched_bytes_per_path", "B"),
    ("sim.verdict.rebuild_us_per_path", "us"),
    ("core.verify.estimate_domain_us_per_path", "us"),
    ("core.verify.check_link_us_per_path", "us"),
    ("core.verify.matched_samples_per_path", "count"),
    ("core.verify.joined_aggs_per_path", "count"),
    ("wire.transport.publish_batch_us_per_frame", "us"),
    ("sim.audit.drain_us_per_frame", "us"),
    ("sim.audit.finish_interval_us", "us"),
    ("wire.transport.compact_us_per_entry", "us"),
    ("wire.transport.retained_entries_peak", "count"),
    ("wire.checkpoint.encode_us", "us"),
    ("wire.checkpoint.bytes", "B"),
    ("wire.transport.refused", "count"),
    // Self-time share of the traced worker time per layer; a span's
    // layer is its name minus the last dotted component.
    ("stage.hash.share", "ratio"),
    ("stage.core.collector.share", "ratio"),
    ("stage.core.processor.share", "ratio"),
    ("stage.wire.codec.share", "ratio"),
    ("stage.wire.transport.share", "ratio"),
    ("stage.sim.verdict.share", "ratio"),
    ("stage.core.verify.share", "ratio"),
    ("stage.sim.fleet.share", "ratio"),
    ("stage.sim.audit.share", "ratio"),
    ("stage.wire.checkpoint.share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub errors: Vec<String>,
    /// Spans of the first traced pass, one list per worker.
    pub spans: Vec<Vec<Span>>,
    /// Per-span-name totals over every traced pass.
    pub totals: Option<BTreeMap<&'static str, NameTotals>>,
}

fn layer_of(span: &str) -> &str {
    span.rsplit_once('.').map_or(span, |(layer, _)| layer)
}

/// Fill `stage.<layer>.share` and `bench.unattributed_share` from span
/// self times over `busy_s` seconds of worker time (workers × wall).
/// Spans named in `excluded` are simulator work whose time the
/// workload already took out of the wall time.
pub fn stage_shares(
    values: &mut Values,
    totals: &BTreeMap<&'static str, NameTotals>,
    busy_s: f64,
    excluded: &[&str],
) {
    let busy_ns = busy_s * 1e9;
    let mut attributed = 0.0;
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, t) in totals {
        if excluded.contains(name) {
            continue;
        }
        *by_layer.entry(layer_of(name)).or_default() += t.self_ns as f64;
        attributed += t.self_ns as f64;
    }
    for (name, _) in PER_LAYER {
        let Some(layer) = name
            .strip_prefix("stage.")
            .and_then(|n| n.strip_suffix(".share"))
        else {
            continue;
        };
        let share = by_layer.get(layer).copied().unwrap_or(0.0) / busy_ns;
        values.insert(name, share);
    }
    values.insert("bench.unattributed_share", 1.0 - attributed / busy_ns);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    tamper: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        tamper: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tamper" {
            args.tamper = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--shape" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => args.spans = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let fleet = |plane| {
        fleet::run(&fleet::Options {
            plane,
            shape: if args.tiny { fleet::TINY } else { fleet::FULL },
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            tamper: args.tamper,
        })
    };
    match args.workload.as_str() {
        "fleet_mem" => {
            println!(
                "{}",
                sys::environment_json("fleet_mem", args.seed, fleet::FULL.workers, "in-process")
            );
            fleet(fleet::Plane::Mem)
        }
        "fleet_tcp" => {
            println!(
                "{}",
                sys::environment_json("fleet_tcp", args.seed, fleet::FULL.workers, "loopback")
            );
            fleet(fleet::Plane::Tcp)
        }
        "audit_stream" => {
            println!(
                "{}",
                sys::environment_json("audit_stream", args.seed, audit::FULL.streams, "in-process")
            );
            audit::run(&audit::Options {
                shape: if args.tiny { audit::TINY } else { audit::FULL },
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                tamper: args.tamper,
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (fleet_mem, fleet_tcp, audit_stream)"
        )),
    }
}

/// The stage table of a traced run: self time per span name.
fn print_stage_table(totals: &BTreeMap<&'static str, NameTotals>) {
    let all: u64 = totals.values().map(|t| t.self_ns).sum();
    println!(
        "{:<32} {:>9} {:>12} {:>7}",
        "span", "calls", "self_ms", "share"
    );
    for (name, t) in totals {
        println!(
            "{name:<32} {:>9} {:>12.3} {:>6.1}%",
            t.calls,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all.max(1) as f64
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vpm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vpm-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("vpm-perfbench: {e}");
    }
    if let Some(totals) = &outcome.totals {
        print_stage_table(totals);
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, span::render_tsv(&outcome.spans)) {
            eprintln!("vpm-perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = outcome.values.get(name).copied();
        match value {
            Some(v) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            None if args.trace => metrics.push(format!(
                "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
            )),
            _ => {
                eprintln!("vpm-perfbench: metric {name} was not measured ({value:?})");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
