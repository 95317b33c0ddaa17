//! Host-side measurement: process CPU time, peak RSS, `/proc/stat`
//! steal, the calibration kernel, and order statistics.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0.0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest of `values`; 0.0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0.0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, with nanosecond resolution (`/proc/self/stat` only counts
/// 10 ms ticks, too coarse for a 6 ms warm-cache pass).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, all threads included.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields, the x86-64/aarch64 Linux layout) for the whole call, and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Machine-wide CPU tick counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks (user through steal).
    pub total: u64,
}

impl CpuTicks {
    /// Reads the current counters; zeros where `/proc/stat` is missing.
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest ...]:
        // guest time is already counted in user, so stop at steal.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of the ticks since `earlier` that were stolen, in percent.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Branches one calibration run predicts: about 25 ms on the 2-vCPU
/// development VM.
const CALIBRATION_BRANCHES: u32 = 1_200_000;

/// Tagged tables of the calibration predictor, and their log2 size.
const CALIBRATION_TABLES: usize = 4;
const CALIBRATION_LOG: usize = 12;

/// The calibration kernel: a fixed miniature tagged predictor (a
/// bimodal base and four tagged tables searched longest history first)
/// predicting a seeded synthetic branch stream. It is this package's own
/// code, so no change to the simulator moves it; but it does what the
/// simulator's hosts do (hash, gather, compare tags, train, branch on
/// data), so host contention slows it much as it slows them. On the
/// development VM a contended phase that slowed a scenario pass 1.31x
/// slowed it 1.22x, against 1.09x for a plain counter walk. Runs one
/// copy on each of `threads` threads at once, as many as the workload's
/// workers, and returns their mean wall seconds.
pub fn calibration_kernel(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(calibration_run))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    total / threads.max(1) as f64
}

/// One calibration run; returns its wall seconds.
fn calibration_run() -> f64 {
    const HISTORY_BITS: [u32; CALIBRATION_TABLES] = [5, 13, 29, 61];
    const MASK: usize = (1 << CALIBRATION_LOG) - 1;
    let started = Instant::now();
    let mut counters = vec![0i8; CALIBRATION_TABLES << CALIBRATION_LOG];
    let mut tags = vec![0u16; CALIBRATION_TABLES << CALIBRATION_LOG];
    let mut base = vec![0i8; 1 << 14];
    let mut history: u64 = 0;
    let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
    let mut mispredicted = 0u32;
    for i in 0..u64::from(CALIBRATION_BRANCHES) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        // 1024 static branches, each periodic with a little noise.
        let site = (rng >> 24) & 0x3ff;
        let pc = 0x40_0000 + site * 4;
        let taken = !(i + site).is_multiple_of(3 + site % 5) ^ (rng & 0x3f == 0);
        let b = ((pc >> 2) as usize) & ((1 << 14) - 1);
        let mut rows = [0usize; CALIBRATION_TABLES];
        let mut row_tags = [0u16; CALIBRATION_TABLES];
        for (t, bits) in HISTORY_BITS.iter().enumerate() {
            let h = history & ((1u64 << bits) - 1);
            let folded = h ^ (h >> CALIBRATION_LOG) ^ (h >> (2 * CALIBRATION_LOG));
            rows[t] = (t << CALIBRATION_LOG) | (((pc ^ folded) as usize) & MASK);
            row_tags[t] = ((pc ^ (h >> 3) ^ (h << 5)) & 0xffff) as u16;
        }
        let provider = (0..CALIBRATION_TABLES)
            .rev()
            .find(|&t| tags[rows[t]] == row_tags[t]);
        let counter = match provider {
            Some(t) => &mut counters[rows[t]],
            None => &mut base[b],
        };
        let predicted = *counter >= 0;
        *counter = if taken {
            counter.saturating_add(1).min(3)
        } else {
            counter.saturating_sub(1).max(-4)
        };
        if predicted != taken {
            mispredicted += 1;
            let t = (rng >> 40) as usize % CALIBRATION_TABLES;
            tags[rows[t]] = row_tags[t];
            counters[rows[t]] = if taken { 0 } else { -1 };
        }
        history = (history << 1) | u64::from(taken);
    }
    black_box(mispredicted);
    black_box((&counters, &tags, &base));
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn host_counters_read() {
        let a = process_cpu_seconds();
        assert!(calibration_kernel(2) > 0.0);
        assert!(process_cpu_seconds() > a);
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
        let t = CpuTicks::now();
        assert!(t.total > 0 && t.steal <= t.total);
    }
}
