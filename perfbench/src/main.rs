//! End-to-end and per-layer benchmark of the PowerDial control plane.
//!
//! ```text
//! powerdial-perfbench --workload <dense_512|interactive_64|sparse_1000>
//!                     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then, as the last line, a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for every metric's definition.

mod common;
mod dense;
mod open;
mod replay;
mod report;
mod trace;

use std::path::PathBuf;

use report::{Metrics, Outcome};

/// The end-to-end metrics, as `BENCHMARK.json` names them.
const END_TO_END: &[(&str, &str)] = &[
    ("beats_per_s", "1/s"),
    ("beat_to_decision_p50_us", "us"),
    ("beat_to_decision_p99_us", "us"),
    ("daemon_cpu_pct", "%"),
    ("normalized_perf", "ratio"),
    ("snapshot_ms", "ms"),
    ("setup_s", "s"),
    ("daemon_rss_mb", "MB"),
];

/// The per-layer metrics, as `BENCHMARK.json` names them.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.beat_ns", "ns"),
    ("client.read_ns", "ns"),
    ("client.register_ms", "ms"),
    ("shm.push_ns", "ns"),
    ("shm.drain_ns_per_beat", "ns"),
    ("shm.publish_ns", "ns"),
    ("shm.read_ns", "ns"),
    ("shm.probe_us", "us"),
    ("shm.segment_create_us", "us"),
    ("shm.backlog_max", "count"),
    ("shm.emit_eps", "1/s"),
    ("shm.drain_eps", "1/s"),
    ("stats.fold_ns_per_beat", "ns"),
    ("stats.rate_ns", "ns"),
    ("telemetry.record_ns_per_beat", "ns"),
    ("telemetry.merge_us", "us"),
    ("runtime.boundary_ns", "ns"),
    ("runtime.advance_ns", "ns"),
    ("daemon.tick_us_p50", "us"),
    ("daemon.tick_us_p99", "us"),
    ("daemon.tick_ns_per_beat", "ns"),
    ("daemon.shard_ns_per_beat", "ns"),
    ("daemon.idle_sweep_ns_per_app", "ns"),
    ("daemon.reap_us", "us"),
    ("daemon.register_us", "us"),
    ("daemon.snapshot_ms", "ms"),
    ("daemon.json_ms", "ms"),
    ("broker.poll_accept_us", "us"),
    ("serve.voluntary_csw_per_s", "1/s"),
    ("serve.nonvoluntary_csw_per_s", "1/s"),
    ("serve.iteration_us_est", "us"),
    ("gen.lag_p99_us", "us"),
    ("gen.cycle_us_p50", "us"),
    ("gen.behind", "flag"),
    ("trace.overhead_pct", "%"),
    ("ledger.kernel_ns_per_beat", "ns"),
    ("ledger.tick_unattributed_pct", "%"),
    ("ledger.unattributed_pct", "%"),
    ("ledger.ok", "flag"),
    ("e2e.latency_samples", "count"),
    ("e2e.p99_windows", "count"),
    ("run.seed", "count"),
    ("run.nproc", "count"),
    ("run.threads", "count"),
    ("run.backing_memfd", "flag"),
];

/// The ledger's stated margin: on `dense_512` the traced per-beat layer
/// costs must explain the untraced ns/beat to within this share.
pub const LEDGER_MARGIN: f64 = 0.25;

/// Sockets and span files go here, inside the checkout.
pub const OUT_DIR: &str = "perfbench/out";

/// A run's command-line arguments.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub span_file: Option<PathBuf>,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    Ok(RunArgs {
        span_file: trace
            .then(|| PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.csv"))),
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn run(args: &RunArgs) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|err| format!("create {OUT_DIR}: {err}"))?;
    let mut metrics = Metrics::default();
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "dense_512" => dense::run(args, &mut metrics, &mut outcome),
        "interactive_64" => open::run(open::INTERACTIVE, args, &mut metrics, &mut outcome)?,
        "sparse_1000" => open::run(open::SPARSE, args, &mut metrics, &mut outcome)?,
        other => return Err(format!("unknown workload {other}")),
    }
    if common::stop_requested() {
        return Err("interrupted".into());
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    report::print_result(&outcome, &metrics, wanted)
}

fn main() {
    common::install_stop_handler();
    // Record the cores before anything pins.
    common::nproc();
    common::pin_to_slot(0);
    let result = parse_args().and_then(|args| run(&args));
    if let Err(err) = result {
        eprintln!("perfbench: {err}");
        std::process::exit(1);
    }
}
