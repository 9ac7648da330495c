//! `interactive_64` and `sparse_1000`: open loops against a daemon that
//! the library's `Supervisor` forks, so the real serve loop runs
//! (`poll_accept` → `tick` → `reap_dead` → `respawn_dead` → `IdleLadder`).
//!
//! Every app is a `PowerDialClient` registered through the daemon's
//! attach broker. A single generator thread emits each active app's beats
//! on its own wall-clock schedule (nominal rate × capacity × the gain it
//! last read back) and polls the segment headers: a beat resolves at the
//! first poll that sees the ring drained past it and a new even decision
//! sequence since it was pushed. Latency runs from the beat's due time.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};
use powerdial_control::{DaemonConfig, Supervisor, SupervisorConfig};
use powerdial_heartbeats::shm::BackingKind;
use powerdial_heartbeats::Timestamp;
use powerdial_knobs::KnobTable;

use crate::common::{
    capacity_at, decision_in_table, knob_table, now_ns, nproc, pin_to_slot, proc_context_switches,
    proc_cpu_seconds, proc_status, quantile, stop_requested, LatencyLog, Rng,
};
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::{replay, RunArgs};

/// The shape of one open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Registered clients.
    pub apps: usize,
    /// Clients beating at any instant.
    pub active: usize,
    /// Nominal (uncapped, gain 1) heart rate of an active app, beats/s;
    /// also every controller's target.
    pub nominal_hz: f64,
    /// The active set is re-drawn this often (`None`: fixed).
    pub rotate_ns: Option<u64>,
    /// Set-ups per run; the reported set-up time is their median.
    pub setups: usize,
}

pub const INTERACTIVE: Spec = Spec {
    name: "interactive_64",
    apps: 64,
    active: 64,
    nominal_hz: 1000.0,
    rotate_ns: None,
    setups: 9,
};

pub const SPARSE: Spec = Spec {
    name: "sparse_1000",
    apps: 1000,
    active: 50,
    nominal_hz: 200.0,
    rotate_ns: Some(100_000_000),
    setups: 3,
};

/// Length of one power-cap step.
const STEP_NS: u64 = 500_000_000;
const WARMUP_NS: u64 = 1_000_000_000;
/// A beat not resolved this long after it was due is a failure.
const DEADLINE_NS: u64 = 1_000_000_000;
/// Timestamps start here so every beat's is positive and increasing.
const EPOCH_NS: u64 = 1_000_000_000;
/// A run whose generator p99 lag exceeds this fell behind its schedule.
const BEHIND_US: f64 = 1000.0;
/// Generator cycles between two recorded cycle durations.
const CYCLE_STRIDE: u64 = 64;

struct Pending {
    pos: u64,
    due_ns: u64,
    seq_base: u64,
}

struct App {
    client: PowerDialClient,
    active: bool,
    next_due_ns: u64,
    gain: f64,
    cap_offset: u64,
    pending: VecDeque<Pending>,
}

/// Totals of one measured phase.
struct Phase {
    start_ns: u64,
    end_ns: u64,
    resolved: u64,
    emitted: u64,
    perf_sum: f64,
    latencies: LatencyLog,
    lags_ns: Vec<u32>,
    cycles: u64,
    /// Every [`CYCLE_STRIDE`]th cycle's duration.
    cycles_ns: Vec<u32>,
    backlog_max: u64,
}

impl Phase {
    /// `per_second`: the beats the phase is expected to see each second.
    fn new(start_ns: u64, end_ns: u64, per_second: usize) -> Self {
        let expected_beats = per_second * ((end_ns - start_ns) / 1_000_000_000 + 1) as usize;
        Phase {
            start_ns,
            end_ns,
            resolved: 0,
            emitted: 0,
            perf_sum: 0.0,
            latencies: LatencyLog::new(start_ns, per_second),
            lags_ns: Vec::with_capacity(expected_beats),
            cycles: 0,
            cycles_ns: Vec::with_capacity(1 << 16),
            backlog_max: 0,
        }
    }
}

struct Generator {
    spec: Spec,
    table: KnobTable,
    apps: Vec<App>,
    /// Apps that are active or still have beats awaiting a decision.
    watch: Vec<usize>,
    rng: Rng,
    next_rotation_ns: u64,
}

impl Generator {
    fn interval_ns(&self, app: &App, at_ns: u64) -> u64 {
        let capacity = capacity_at(app.cap_offset, at_ns / STEP_NS);
        (1e9 / (self.spec.nominal_hz * capacity * app.gain)) as u64
    }

    /// Draws a fresh seeded active set starting at `at_ns`, each app at a
    /// seeded phase within its first beat interval.
    fn rotate(&mut self, at_ns: u64) {
        for app in &mut self.apps {
            app.active = false;
        }
        let mut chosen = 0;
        while chosen < self.spec.active {
            let index = self.rng.below(self.spec.apps as u64) as usize;
            if !self.apps[index].active {
                self.apps[index].active = true;
                let phase = self.rng.below((1e9 / self.spec.nominal_hz) as u64);
                self.apps[index].next_due_ns = self.apps[index].next_due_ns.max(at_ns + phase);
                chosen += 1;
            }
        }
        self.watch = (0..self.apps.len())
            .filter(|&i| self.apps[i].active || !self.apps[i].pending.is_empty())
            .collect();
    }

    /// One generator cycle: emit every due beat, then poll every watched
    /// app's segment header.
    fn cycle(&mut self, tracer: &mut Tracer, outcome: &mut Outcome, phase: Option<&mut Phase>) {
        let now = now_ns();
        if let Some(rotation) = self.spec.rotate_ns {
            if now >= self.next_rotation_ns {
                let at = self.next_rotation_ns;
                self.rotate(at);
                self.next_rotation_ns += rotation;
            }
        }
        let mut phase = phase;
        for w in 0..self.watch.len() {
            let index = self.watch[w];
            while self.apps[index].active && self.apps[index].next_due_ns <= now {
                let due = self.apps[index].next_due_ns;
                let interval = self.interval_ns(&self.apps[index], due);
                let app = &mut self.apps[index];
                let header = app.client.segment().header();
                let seq = header.decision_seq.load(Ordering::Acquire);
                let pos = header.tail.load(Ordering::Acquire);
                let span = tracer.begin("client.beat", pos);
                let pushed = app.client.beat(Timestamp::from_nanos(EPOCH_NS + due));
                tracer.end(span, 1);
                outcome.check("beat_rejected", pushed.is_ok());
                if pushed.is_ok() {
                    app.pending.push_back(Pending {
                        pos,
                        due_ns: due,
                        seq_base: seq + (seq & 1),
                    });
                }
                if let Some(phase) = phase.as_deref_mut() {
                    if due >= phase.start_ns && due < phase.end_ns {
                        let capacity = capacity_at(app.cap_offset, due / STEP_NS);
                        phase.emitted += 1;
                        phase.perf_sum += (capacity * app.gain).min(1.0);
                        phase
                            .lags_ns
                            .push((now - due).min(u64::from(u32::MAX)) as u32);
                    }
                }
                app.next_due_ns = due + interval;
            }
        }
        for w in 0..self.watch.len() {
            let index = self.watch[w];
            let app = &mut self.apps[index];
            if app.pending.is_empty() {
                continue;
            }
            let header = app.client.segment().header();
            let head = header.head.load(Ordering::Acquire);
            let seq = header.decision_seq.load(Ordering::Acquire);
            let tail = header.tail.load(Ordering::Acquire);
            let polled = now_ns();
            let mut resolved = false;
            while let Some(front) = app.pending.front() {
                if head > front.pos && seq & 1 == 0 && seq != front.seq_base {
                    if let Some(phase) = phase.as_deref_mut() {
                        if front.due_ns >= phase.start_ns && front.due_ns < phase.end_ns {
                            phase.resolved += 1;
                            phase
                                .latencies
                                .record(polled, polled.saturating_sub(front.due_ns));
                        }
                    }
                    app.pending.pop_front();
                    resolved = true;
                } else if polled.saturating_sub(front.due_ns) > DEADLINE_NS {
                    outcome.fail("beat_deadline", 1);
                    app.pending.pop_front();
                } else {
                    break;
                }
            }
            if let Some(phase) = phase.as_deref_mut() {
                phase.backlog_max = phase.backlog_max.max(tail.wrapping_sub(head));
            }
            if resolved {
                let span = tracer.begin("client.read", index as u64);
                let current = app.client.current_decision();
                tracer.end(span, 1);
                let d = current.decision;
                outcome.check(
                    "decision_not_published_or_out_of_table",
                    current.source == DecisionSource::Published
                        && decision_in_table(&self.table, d.point_idx, d.gain, d.achieved_speedup),
                );
                if d.gain.is_finite() && d.gain >= 1.0 {
                    app.gain = d.gain;
                }
            }
        }
        if let Some(phase) = phase {
            phase.cycles += 1;
            if phase.cycles % CYCLE_STRIDE == 0 {
                phase
                    .cycles_ns
                    .push((now_ns() - now).min(u64::from(u32::MAX)) as u32);
            }
        }
    }

    fn run_until(
        &mut self,
        until_ns: u64,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
        mut phase: Option<&mut Phase>,
    ) {
        while now_ns() < until_ns && !stop_requested() {
            self.cycle(tracer, outcome, phase.as_deref_mut());
        }
    }

    fn head_sum(&self) -> u64 {
        self.apps
            .iter()
            .map(|app| app.client.segment().header().head.load(Ordering::Acquire))
            .sum()
    }
}

/// Where this run's broker listens: a short relative path inside the
/// checkout (socket paths are limited to ~100 bytes).
fn socket_path() -> PathBuf {
    PathBuf::from(format!("{}/pd-{}.sock", crate::OUT_DIR, std::process::id()))
}

fn supervisor_config(spec: &Spec, socket: &Path) -> SupervisorConfig {
    SupervisorConfig {
        socket_path: socket.to_path_buf(),
        daemon: DaemonConfig {
            workers: 0,
            ..DaemonConfig::default()
        },
        target_rate: spec.nominal_hz,
        baseline_rate: spec.nominal_hz,
        poll_interval: Duration::ZERO,
        restart_backoff: Duration::ZERO,
        restart_backoff_cap: Duration::ZERO,
    }
}

/// Forks the daemon and registers every app through its broker.
fn set_up(
    spec: &Spec,
    socket: &Path,
    table: &KnobTable,
    register_ns: &mut Vec<u64>,
) -> Result<(Supervisor, Vec<PowerDialClient>), String> {
    let _ = std::fs::remove_file(socket);
    let mut supervisor = Supervisor::new(supervisor_config(spec, socket), table.clone());
    // The daemon inherits the core it is forked on; the generator
    // returns to the other one.
    pin_to_slot(1);
    let started = supervisor.start();
    pin_to_slot(0);
    started.map_err(|err| format!("fork daemon: {err}"))?;
    let deadline = now_ns() + 5_000_000_000;
    while !socket.exists() {
        if now_ns() > deadline || stop_requested() {
            return Err("daemon never bound its socket".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let mut clients = Vec::with_capacity(spec.apps);
    for _ in 0..spec.apps {
        if stop_requested() {
            return Err("interrupted".into());
        }
        let t0 = now_ns();
        let client = PowerDialClient::register(socket, ClientConfig::default())
            .map_err(|err| format!("register client: {err}"))?;
        register_ns.push(now_ns() - t0);
        clients.push(client);
    }
    Ok((supervisor, clients))
}

pub fn run(
    spec: Spec,
    args: &RunArgs,
    metrics: &mut Metrics,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let table = knob_table();
    let socket = socket_path();
    let mut tracer = Tracer::new(false);
    let span_overhead = tracer.calibrate_overhead_ns();

    let mut setup_s = Vec::new();
    let mut register_ns = Vec::new();
    let mut fleet = None;
    for _ in 0..spec.setups {
        if let Some((mut supervisor, clients)) = fleet.take() {
            drop(clients);
            Supervisor::shutdown(&mut supervisor);
        }
        let t0 = now_ns();
        let built = set_up(&spec, &socket, &table, &mut register_ns)?;
        setup_s.push((now_ns() - t0) as f64 / 1e9);
        fleet = Some(built);
    }
    let (mut supervisor, clients) = fleet.ok_or("no setup ran")?;
    metrics.set("setup_s", quantile(&setup_s, 0.5).ok_or("no setup")?, "s");
    let daemon_pid = supervisor.pid().ok_or("daemon not running")?.to_string();
    let backing = clients[0].segment().backing_kind();

    let mut rng = Rng::new(args.seed, 2);
    let start = now_ns();
    let apps = clients
        .into_iter()
        .map(|client| App {
            client,
            active: false,
            next_due_ns: start,
            gain: 1.0,
            cap_offset: rng.below(4),
            pending: VecDeque::new(),
        })
        .collect();
    let mut generator = Generator {
        spec,
        table: table.clone(),
        apps,
        watch: Vec::new(),
        rng: Rng::new(args.seed, 3),
        next_rotation_ns: start + spec.rotate_ns.unwrap_or(u64::MAX / 4),
    };
    generator.rotate(start);

    generator.run_until(start + WARMUP_NS, &mut tracer, outcome, None);

    let seconds_ns = (args.seconds * 1e9) as u64;
    let untraced_ns = if args.trace {
        seconds_ns / 2
    } else {
        seconds_ns
    };
    let t0 = now_ns();
    let self_pid = std::process::id().to_string();
    let threads = proc_status(&self_pid, "Threads")
        .unwrap_or(u64::MAX)
        .saturating_add(proc_status(&daemon_pid, "Threads").unwrap_or(u64::MAX));
    let cpu0 = proc_cpu_seconds(&daemon_pid).ok_or("daemon cpu unreadable")?;
    let csw0 = proc_context_switches(&daemon_pid);
    // Gains above 1 can lift an app past its nominal rate.
    let per_second = (spec.active as f64 * spec.nominal_hz * 1.5) as usize;
    let mut untraced = Phase::new(t0, t0 + untraced_ns, per_second);
    generator.run_until(untraced.end_ns, &mut tracer, outcome, Some(&mut untraced));
    let cpu1 = proc_cpu_seconds(&daemon_pid).ok_or("daemon cpu unreadable")?;
    let csw1 = proc_context_switches(&daemon_pid);
    let wall = (now_ns() - t0) as f64 / 1e9;

    outcome.check("threads_exceed_nproc", threads as usize <= nproc());
    let lag_p99_us = quantile(&untraced.lags_ns, 0.99).map_or(0.0, |ns| f64::from(ns) / 1e3);
    let lag_us = |q| quantile(&untraced.lags_ns, q).map_or(0.0, |ns| f64::from(ns) / 1e3);
    println!(
        "# generator lag us: p50 {:.1} p99 {:.1} p99.9 {:.1}",
        lag_us(0.5),
        lag_us(0.99),
        lag_us(0.999)
    );
    let behind = lag_p99_us > BEHIND_US;
    if behind {
        println!("# WARNING: generator fell behind (lag p99 {lag_p99_us:.1} us)");
    }
    let p50 = untraced.latencies.p50_us();
    let (p99, windows) = untraced.latencies.p99_us();
    metrics.set("beats_per_s", untraced.resolved as f64 / wall, "1/s");
    metrics.set("beat_to_decision_p50_us", p50, "us");
    metrics.set("beat_to_decision_p99_us", p99, "us");
    metrics.set("daemon_cpu_pct", 100.0 * (cpu1 - cpu0) / wall, "%");
    metrics.set(
        "normalized_perf",
        untraced.perf_sum / untraced.emitted.max(1) as f64,
        "ratio",
    );
    println!(
        "# {} seed={} nproc={} threads={} backing={:?} latency_samples={} p99_windows={} lag_p99_us={:.1}",
        spec.name,
        args.seed,
        nproc(),
        threads,
        backing,
        untraced.latencies.count(),
        windows,
        lag_p99_us
    );

    if args.trace {
        tracer.set_enabled(true);
        let heads0 = generator.head_sum();
        let t1 = now_ns();
        let mut traced = Phase::new(t1, t1 + seconds_ns - untraced_ns, per_second);
        generator.run_until(traced.end_ns, &mut tracer, outcome, Some(&mut traced));
        let traced_wall = (now_ns() - t1) as f64 / 1e9;
        tracer.set_enabled(false);
        let traced_p50 = traced.latencies.p50_us();
        metrics.set("trace.overhead_pct", 100.0 * (traced_p50 / p50 - 1.0), "%");
        metrics.set(
            "client.register_ms",
            quantile(&register_ns, 0.5).unwrap_or(0) as f64 / 1e6,
            "ms",
        );
        metrics.set("shm.backlog_max", traced.backlog_max as f64, "count");
        metrics.set("shm.emit_eps", traced.emitted as f64 / traced_wall, "1/s");
        metrics.set(
            "shm.drain_eps",
            (generator.head_sum() - heads0) as f64 / traced_wall,
            "1/s",
        );
        metrics.set(
            "serve.voluntary_csw_per_s",
            (csw1.0 - csw0.0) as f64 / wall,
            "1/s",
        );
        metrics.set(
            "serve.nonvoluntary_csw_per_s",
            (csw1.1 - csw0.1) as f64 / wall,
            "1/s",
        );
        metrics.set("gen.lag_p99_us", lag_p99_us, "us");
        metrics.set("gen.behind", f64::from(u8::from(behind)), "flag");
        let cycle_us = quantile(&untraced.cycles_ns, 0.5).map_or(0.0, |ns| f64::from(ns) / 1e3);
        let lag_p50_us = quantile(&untraced.lags_ns, 0.5).map_or(0.0, |ns| f64::from(ns) / 1e3);
        metrics.set("gen.cycle_us_p50", cycle_us, "us");
        crate::common::report_validity(
            metrics,
            args.seed,
            threads,
            backing == BackingKind::Memfd,
            &untraced.latencies,
        );
        // Shut the forked daemon down before the in-process replays so
        // they run on an otherwise idle machine.
        finish(
            &mut generator,
            &mut supervisor,
            &daemon_pid,
            outcome,
            metrics,
        );
        let _ = std::fs::remove_file(&socket);
        replay::run_layers(
            &replay_spec(&spec, args.seed, untraced.resolved as f64 / wall),
            &mut tracer,
            span_overhead,
            metrics,
        );
        open_ledger(metrics, p50, cycle_us, lag_p50_us);
        if let Some(path) = &args.span_file {
            if let Err(err) = tracer.write_csv(path) {
                eprintln!("could not write spans to {}: {err}", path.display());
            }
        }
    } else {
        finish(
            &mut generator,
            &mut supervisor,
            &daemon_pid,
            outcome,
            metrics,
        );
        let _ = std::fs::remove_file(&socket);
        let snapshot = replay::replica_snapshot(&replay_spec(
            &spec,
            args.seed,
            untraced.resolved as f64 / wall,
        ));
        metrics.set("snapshot_ms", snapshot, "ms");
    }
    Ok(())
}

fn replay_spec(spec: &Spec, seed: u64, offered_bps: f64) -> replay::ReplaySpec {
    replay::ReplaySpec {
        apps: spec.apps,
        active: spec.active,
        batch: 1,
        nominal_hz: spec.nominal_hz,
        seed,
        offered_bps,
    }
}

/// Stops emitting, lets every outstanding beat resolve (or miss its
/// deadline), checks that every ring drained, records the daemon's peak
/// memory, and kills and reaps the daemon.
fn finish(
    generator: &mut Generator,
    supervisor: &mut Supervisor,
    daemon_pid: &str,
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) {
    for app in &mut generator.apps {
        app.active = false;
    }
    generator.watch = (0..generator.apps.len()).collect();
    let mut tracer = Tracer::new(false);
    let deadline = now_ns() + DEADLINE_NS + 100_000_000;
    while generator.apps.iter().any(|app| !app.pending.is_empty()) && now_ns() < deadline {
        generator.cycle(&mut tracer, outcome, None);
    }
    for app in &generator.apps {
        outcome.check("ring_not_drained", app.client.beats_in_flight() == 0);
    }
    metrics.set(
        "daemon_rss_mb",
        proc_status(daemon_pid, "VmHWM").unwrap_or(0) as f64 / 1024.0,
        "MB",
    );
    supervisor.shutdown();
}

/// The open-loop ledger: the serve-loop iteration replayed in process
/// must bracket the measured p50, and the share of p50 the model leaves
/// unexplained is reported.
fn open_ledger(metrics: &mut Metrics, p50_us: f64, cycle_us: f64, lag_p50_us: f64) {
    let Some(iteration) = metrics.get("serve.iteration_us_est") else {
        return;
    };
    let tick = metrics.get("daemon.tick_us_p50").unwrap_or(0.0);
    // A beat lands at a uniform point of an iteration and waits for the
    // next drain: half an iteration at the median, then the tick up to
    // its publish, half a generator cycle until the poll that sees it,
    // and the generator's own lag.
    let model = 0.5 * iteration + tick + 0.5 * cycle_us + lag_p50_us;
    let low = 0.25 * iteration;
    let high = iteration + tick + cycle_us + lag_p50_us;
    metrics.set("ledger.serve_bracket_low_us", low, "us");
    metrics.set("ledger.serve_bracket_high_us", high, "us");
    metrics.set("ledger.model_p50_us", model, "us");
    metrics.set(
        "ledger.unattributed_pct",
        100.0 * (p50_us - model) / p50_us,
        "%",
    );
    metrics.set(
        "ledger.ok",
        f64::from(u8::from(p50_us >= low && p50_us <= high)),
        "flag",
    );
}
