//! Shared pieces: the knob table every app is served, the power-cap
//! schedule, the seeded generator, clocks, order statistics and the
//! `/proc` readers used for the forked daemon's resource metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use powerdial_control::{ControllerConfig, RuntimeConfig};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace, PointIdx};
use powerdial_qos::{QosLoss, QosLossBound};

/// Knob settings in every app's table: speedups 1.0 … 4.0, geometric.
pub const SETTINGS: usize = 8;

/// Beats per actuation quantum (the paper's 20-beat quantum; also the
/// runtime's default).
pub const BEATS_PER_QUANTUM: usize = 20;

/// The power-cap steps: the fraction of nominal speed available.
const CAPACITY_STEPS: [f64; 4] = [1.0, 0.5, 0.75, 0.35];

/// The synthetic knob table every app registers with (the shape of the
/// repository's hot-path benchmark table): speedup `4^(i/7)`, QoS loss
/// growing linearly with the speedup.
pub fn knob_table() -> KnobTable {
    let values: Vec<f64> = (0..SETTINGS).map(|i| i as f64).collect();
    let space = ParameterSpace::builder()
        .parameter(ConfigParameter::new("knob", values, 0.0).expect("valid parameter"))
        .build()
        .expect("valid space");
    let points = (0..SETTINGS)
        .map(|i| {
            let speedup = 4.0f64.powf(i as f64 / (SETTINGS - 1) as f64);
            CalibrationPoint {
                setting_index: i,
                setting: space.setting(i).expect("index in range"),
                speedup,
                qos_loss: QosLoss::new((speedup - 1.0) * 0.03),
            }
        })
        .collect();
    KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).expect("non-empty table")
}

/// Runtime configuration for an app whose nominal (uncapped, gain 1)
/// heart rate is also its target.
pub fn runtime_config(rate_hz: f64) -> RuntimeConfig {
    RuntimeConfig::new(ControllerConfig::new(rate_hz, rate_hz).expect("valid controller"))
}

/// Capacity available at step `step` to an app whose seeded step offset
/// is `offset`: apps sit in different power-cap regimes at any instant.
pub fn capacity_at(offset: u64, step: u64) -> f64 {
    CAPACITY_STEPS[((step + offset) % CAPACITY_STEPS.len() as u64) as usize]
}

/// The gain a converged controller settles on under `capacity`: the
/// smallest table speedup that restores the nominal rate (used only to
/// synthesize replay streams; live runs use the gain they read back).
pub fn converged_gain(table: &KnobTable, capacity: f64) -> f64 {
    table
        .indices()
        .map(|idx| table.speedup_of(idx))
        .find(|s| s * capacity >= 1.0)
        .unwrap_or_else(|| table.max_speedup())
}

/// True when a decision read back is in the app's table: the point is an
/// index of it, the gain is exactly that point's speedup, and the
/// achieved speedup is finite and inside the table's range.
pub fn decision_in_table(table: &KnobTable, point: u32, gain: f64, achieved: f64) -> bool {
    let Some(calibration) = table.get(PointIdx::new(point)) else {
        return false;
    };
    gain.to_bits() == calibration.speedup.to_bits()
        && achieved.is_finite()
        && achieved >= 1.0 - 1e-9
        && achieved <= table.max_speedup() + 1e-9
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// the command line.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Nanoseconds since the benchmark's clock origin.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank quantile of an unsorted sample (sorts a copy).
pub fn quantile<T: Copy + PartialOrd>(values: &[T], q: f64) -> Option<T> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("comparable sample"));
    quantile_sorted(&sorted, q)
}

/// Set by SIGTERM/SIGINT: every loop checks it, so an interrupted run
/// still kills and reaps the daemon it forked.
static STOP: AtomicBool = AtomicBool::new(false);

pub fn stop_requested() -> bool {
    STOP.load(Ordering::Relaxed)
}

extern "C" fn on_signal(_signal: i32) {
    STOP.store(true, Ordering::Relaxed);
}

mod sys {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
        pub fn sysconf(name: i32) -> i64;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    /// `sizeof(cpu_set_t)` in 64-bit words.
    pub const CPU_SET_WORDS: usize = 16;
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const SC_CLK_TCK: i32 = 2;
}

pub fn install_stop_handler() {
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `on_signal` only stores to an atomic, which is
    // async-signal-safe, and has the C handler signature.
    unsafe {
        sys::signal(sys::SIGINT, handler);
        sys::signal(sys::SIGTERM, handler);
    }
}

/// One numeric field (first number after the key) of `/proc/<pid>/status`.
pub fn proc_status(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `utime + stime` of a process, in seconds.
pub fn proc_cpu_seconds(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); the slice starts at field 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf has no preconditions.
    let ticks = unsafe { sys::sysconf(sys::SC_CLK_TCK) }.max(1) as f64;
    Some((utime + stime) as f64 / ticks)
}

/// Voluntary and involuntary context switches summed over every thread
/// of a process.
pub fn proc_context_switches(pid: &str) -> (u64, u64) {
    let mut totals = (0, 0);
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return totals;
    };
    for task in tasks.flatten() {
        let tid = task.file_name().to_string_lossy().into_owned();
        let path = format!("{pid}/task/{tid}");
        totals.0 += proc_status(&path, "voluntary_ctxt_switches").unwrap_or(0);
        totals.1 += proc_status(&path, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    totals
}

/// The first two CPUs the process could run on when it started, if two.
fn two_cpus() -> Option<[usize; 2]> {
    static CPUS: OnceLock<Option<[usize; 2]>> = OnceLock::new();
    *CPUS.get_or_init(allowed_cpus)
}

fn allowed_cpus() -> Option<[usize; 2]> {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    // SAFETY: the mask buffer is exactly the size passed.
    let ok = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if ok != 0 {
        return None;
    }
    let mut cpus =
        (0..sys::CPU_SET_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1);
    Some([cpus.next()?, cpus.next()?])
}

/// Pins the calling thread to the `slot`th (0 or 1) of the first two
/// CPUs it may use. The benchmark keeps its generator on one core and the
/// daemon (a forked process, or the in-process daemon's worker, which
/// inherit the affinity they are created under) on the other, so the two
/// never contend and every run places them alike. A no-op on one core.
pub fn pin_to_slot(slot: usize) {
    let Some(cpus) = two_cpus() else {
        return;
    };
    let cpu = cpus[slot.min(1)];
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask buffer is exactly the size passed. A failure
    // leaves the affinity unchanged, which only costs steadiness.
    unsafe {
        sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Cores this process could run on when it started (before any pinning).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Beat→decision latencies, bucketed into one-second windows by the time
/// each beat resolved.
#[derive(Debug)]
pub struct LatencyLog {
    origin_ns: u64,
    /// Samples one window is expected to hold, reserved up front so the
    /// log never doubles a buffer mid-run (which would show in the peak
    /// memory the benchmark reports for an in-process daemon).
    window_capacity: usize,
    windows: Vec<Vec<u32>>,
}

/// Windows with fewer samples than this are too small to have ten
/// samples beyond their p99 and are left out of the p99 median.
const MIN_WINDOW_SAMPLES: usize = 1000;

impl LatencyLog {
    pub fn new(origin_ns: u64, per_second: usize) -> Self {
        LatencyLog {
            origin_ns,
            window_capacity: per_second,
            windows: Vec::with_capacity(128),
        }
    }

    pub fn record(&mut self, resolved_ns: u64, latency_ns: u64) {
        let window = (resolved_ns.saturating_sub(self.origin_ns) / 1_000_000_000) as usize;
        while self.windows.len() <= window {
            self.windows.push(Vec::with_capacity(self.window_capacity));
        }
        self.windows[window].push(latency_ns.min(u64::from(u32::MAX)) as u32);
    }

    pub fn count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Median over the whole run, microseconds.
    pub fn p50_us(&self) -> f64 {
        let all: Vec<u32> = self.windows.iter().flatten().copied().collect();
        quantile(&all, 0.5).map_or(f64::NAN, |ns| f64::from(ns) / 1e3)
    }

    /// Median over one-second windows of each window's p99, microseconds,
    /// with the number of windows it used.
    pub fn p99_us(&self) -> (f64, usize) {
        let p99s: Vec<u32> = self
            .windows
            .iter()
            .filter(|window| window.len() >= MIN_WINDOW_SAMPLES)
            .filter_map(|window| quantile(window, 0.99))
            .collect();
        (
            quantile(&p99s, 0.5).map_or(f64::NAN, |ns| f64::from(ns) / 1e3),
            p99s.len(),
        )
    }
}

/// The run-validity metrics every traced run reports: the seed, cores and
/// threads, whether segments are memfd-backed, and the samples behind the
/// latency metrics.
pub fn report_validity(
    metrics: &mut crate::report::Metrics,
    seed: u64,
    threads: u64,
    memfd: bool,
    latencies: &LatencyLog,
) {
    metrics.set("e2e.latency_samples", latencies.count() as f64, "count");
    metrics.set("e2e.p99_windows", latencies.p99_us().1 as f64, "count");
    metrics.set("run.seed", seed as f64, "count");
    metrics.set("run.nproc", nproc() as f64, "count");
    metrics.set("run.threads", threads as f64, "count");
    metrics.set("run.backing_memfd", f64::from(u8::from(memfd)), "flag");
}
