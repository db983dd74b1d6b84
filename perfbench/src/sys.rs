//! Process accounting (CPU time, resident memory) and the environment
//! line every result carries.

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`, fixed
/// at 100 on every Linux architecture this benchmark targets.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (every thread,
/// including in-process server threads).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(ticks(11)? + ticks(12)?)
}

fn status_kb(field: &str) -> Result<u64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{field} missing from /proc/self/status"))
}

/// Hand freed heap memory back to the kernel (glibc `malloc_trim`), so
/// an [`RssWindow`] opened next starts from live data only, not from
/// whatever earlier set-ups or passes left cached in the allocator.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes a plain byte count, changes only
        // allocator-internal state under the allocator's own locks, and
        // may be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak-RSS window: resets the kernel's high-water mark at `start`, so
/// [`RssWindow::peak_growth_mb`] sees only what was added on top of the
/// resident set at that point.
pub struct RssWindow {
    base_kb: u64,
}

impl RssWindow {
    pub fn start() -> Result<RssWindow, String> {
        // "5" resets VmHWM to the current RSS (proc(5), clear_refs).
        fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("/proc/self/clear_refs: {e}"))?;
        Ok(RssWindow {
            base_kb: status_kb("VmRSS:")?,
        })
    }

    pub fn peak_growth_mb(&self) -> Result<f64, String> {
        let hwm = status_kb("VmHWM:")?;
        Ok(hwm.saturating_sub(self.base_kb) as f64 / 1024.0)
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// One JSON line describing where the numbers came from, so 1-core and
/// multi-core results are never compared.
pub fn environment_json(workload: &str, seed: u64, workers: usize, transport: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flag = |on: bool| if on { "true" } else { "false" };
    #[cfg(target_arch = "x86_64")]
    let (sse2, sha_ni, avx2) = (
        std::arch::is_x86_feature_detected!("sse2"),
        std::arch::is_x86_feature_detected!("sha"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (sse2, sha_ni, avx2) = (false, false, false);
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"env\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"workers\": {workers}, \
         \"transport\": \"{transport}\", \"available_parallelism\": {cores}, \
         \"sse2\": {}, \"sha_ni\": {}, \"avx2\": {}, \"rustc\": {:?}, \"commit\": {:?}, \"held_out_seed\": {}}}}}",
        flag(sse2),
        flag(sha_ni),
        flag(avx2),
        var("PERFBENCH_RUSTC"),
        var("PERFBENCH_COMMIT"),
        crate::HELD_OUT_SEED,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
    }

    #[test]
    fn process_accounting_reads() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        let w = RssWindow::start().unwrap();
        let grow = vec![1u8; 8 << 20];
        std::hint::black_box(&grow);
        assert!(w.peak_growth_mb().unwrap() >= 7.0);
    }
}
