//! Shared helpers for the VPM benchmark harness.
//!
//! Each Criterion bench in `benches/` regenerates one artifact of the
//! paper's evaluation (see DESIGN.md's experiment index): it prints the
//! table/series the paper reports and times the code path that
//! produces it.

use vpm_packet::SimDuration;
use vpm_trace::{TraceConfig, TraceGenerator, TracePacket};

pub mod audit_bench;
pub mod collector_bench;
pub mod verifier_bench;
pub mod wire_bench;

/// Standard bench trace: `ms` milliseconds at 100 kpps.
pub fn bench_trace(ms: u64, seed: u64) -> Vec<TracePacket> {
    TraceGenerator::new(TraceConfig {
        target_pps: 100_000.0,
        duration: SimDuration::from_millis(ms),
        ..TraceConfig::paper_default(1, seed)
    })
    .generate()
}

/// Cores this process may run on, as
/// [`std::thread::available_parallelism`] reports them (1 when the
/// host cannot say). Every bench config records it next to `sha_ni`,
/// so a trend comparison can tell a slower host from slower code.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Print a banner separating regenerated-figure output from Criterion
/// timing noise.
pub fn banner(title: &str) {
    eprintln!("\n================================================================");
    eprintln!("  {title}");
    eprintln!("================================================================");
}
