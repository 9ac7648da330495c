//! `dense_512`: the closed loop in one process.
//!
//! 512 clients attach to segments an in-process daemon (`workers: 1`)
//! registers with `register_shm`. Each round every app emits one 20-beat
//! quantum, paced by the gain it last read back and the stepped power-cap
//! schedule; the daemon then ticks and every app polls its decision. An
//! operator scrape (snapshot plus JSON render) runs every 100 ms.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};
use powerdial_control::{DaemonConfig, PowerDialDaemon};
use powerdial_heartbeats::shm::{BackingKind, Segment, SegmentGeometry, ShmConsumer};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::KnobTable;

use crate::common::{
    capacity_at, knob_table, now_ns, nproc, pin_to_slot, proc_context_switches, proc_cpu_seconds,
    proc_status, quantile, runtime_config, stop_requested, LatencyLog, Rng, BEATS_PER_QUANTUM,
};
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::{replay, RunArgs};

pub const APPS: usize = 512;
/// Nominal (uncapped, gain 1) heart rate of every app, beats/s.
const NOMINAL_HZ: f64 = 1000.0;
/// Rounds per power-cap step.
const STEP_ROUNDS: u64 = 50;
const SCRAPE_EVERY_NS: u64 = 100_000_000;
const WARMUP_NS: u64 = 500_000_000;
/// A quantum not resolved this long after it was emitted is a failure.
const DEADLINE_NS: u64 = 1_000_000_000;
/// Setups per run; the reported set-up time is their median.
const SETUPS: usize = 9;
/// Rounds of the placement-equivalence replay.
const EQUIVALENCE_ROUNDS: u64 = 40;
/// One app in this many records its latency each round.
const LATENCY_STRIDE: u64 = 8;
/// Ring capacity of each app's segment (the client default).
const RING: usize = 256;

struct App {
    client: PowerDialClient,
    segment: Arc<Segment>,
    clock: Timestamp,
    gain: f64,
    cap_offset: u64,
    pending: VecDeque<Quantum>,
}

/// One emitted quantum awaiting its decision.
struct Quantum {
    /// Ring position of its last beat.
    last_pos: u64,
    emitted_ns: u64,
    /// The decision sequence any resolving publish must differ from.
    seq_base: u64,
}

struct Fleet {
    daemon: PowerDialDaemon,
    apps: Vec<App>,
    table: KnobTable,
}

/// The sequence value a publish after now must differ from: an odd
/// (in-progress) value will land on the next even one.
fn seq_base(segment: &Segment) -> u64 {
    let seq = segment.header().decision_seq.load(Ordering::Acquire);
    seq + (seq & 1)
}

fn build_fleet(workers: usize, seed: u64, layers: &mut replay::SetupSamples) -> Fleet {
    let table = knob_table();
    // The worker inherits the core it is spawned on; the generator (and
    // the inline shard) stay on the other one.
    pin_to_slot(1);
    let daemon = PowerDialDaemon::new(DaemonConfig {
        workers,
        ..DaemonConfig::default()
    });
    pin_to_slot(0);
    let mut daemon = daemon.expect("valid daemon config");
    let geometry = SegmentGeometry::for_beat_samples(RING).expect("valid geometry");
    let mut rng = Rng::new(seed, 1);
    let mut apps = Vec::with_capacity(APPS);
    for _ in 0..APPS {
        let t0 = now_ns();
        let segment = Arc::new(Segment::create(geometry).expect("create segment"));
        let t1 = now_ns();
        let client = PowerDialClient::attach_segment(Arc::clone(&segment), ClientConfig::default())
            .expect("attach client");
        let t2 = now_ns();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).expect("attach consumer");
        daemon
            .register_shm(runtime_config(NOMINAL_HZ), table.clone(), consumer)
            .expect("register app");
        let t3 = now_ns();
        layers.segment_create_ns.push(t1 - t0);
        layers.client_register_ns.push(t2 - t1);
        layers.daemon_register_ns.push(t3 - t2);
        apps.push(App {
            client,
            segment,
            // Seeded phase: apps start their virtual clocks apart.
            clock: Timestamp::from_nanos(1_000_000_000 + rng.below(1_000_000)),
            gain: 1.0,
            cap_offset: rng.below(4),
            pending: VecDeque::new(),
        });
    }
    Fleet {
        daemon,
        apps,
        table,
    }
}

/// Running totals of one measured phase.
struct Phase {
    start_ns: u64,
    beats: u64,
    perf_sum: f64,
    latencies: LatencyLog,
    scrape_ns: Vec<u64>,
    rounds: u64,
    backlog_max: u64,
}

impl Phase {
    fn new(start_ns: u64) -> Self {
        Phase {
            start_ns,
            beats: 0,
            perf_sum: 0.0,
            latencies: LatencyLog::new(start_ns, 1 << 18),
            scrape_ns: Vec::new(),
            rounds: 0,
            backlog_max: 0,
        }
    }
}

/// Beats pushed to a segment and not yet drained.
fn in_flight(segment: &Segment) -> u64 {
    let header = segment.header();
    let head = header.head.load(Ordering::Acquire);
    header.tail.load(Ordering::Acquire).wrapping_sub(head)
}

fn head_sum(fleet: &Fleet) -> u64 {
    fleet
        .apps
        .iter()
        .map(|app| app.segment.header().head.load(Ordering::Acquire))
        .sum()
}

/// Emits one quantum for every app, ticks, and polls every decision.
fn round(
    fleet: &mut Fleet,
    round_index: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    phase: Option<&mut Phase>,
) {
    let root = tracer.begin("gen.round", round_index);
    let step = round_index / STEP_ROUNDS;
    let mut beats = 0u64;
    let mut perf = 0.0;
    for (index, app) in fleet.apps.iter_mut().enumerate() {
        let capacity = capacity_at(app.cap_offset, step);
        let interval = TimestampDelta::from_secs_f64(1.0 / (NOMINAL_HZ * capacity * app.gain));
        let base = seq_base(&app.segment);
        let emitted_ns = now_ns();
        let span = tracer.begin("client.beat", round_index * APPS as u64 + index as u64);
        let mut rejected = 0u64;
        for _ in 0..BEATS_PER_QUANTUM {
            app.clock += interval;
            if app.client.beat(app.clock).is_err() {
                rejected += 1;
            }
        }
        tracer.end(span, BEATS_PER_QUANTUM as u64);
        outcome.succeed(BEATS_PER_QUANTUM as u64);
        outcome.fail("beat_rejected", rejected);
        let tail = app.segment.header().tail.load(Ordering::Acquire);
        app.pending.push_back(Quantum {
            last_pos: tail.wrapping_sub(1),
            emitted_ns,
            seq_base: base,
        });
        beats += BEATS_PER_QUANTUM as u64;
        perf += BEATS_PER_QUANTUM as f64 * (capacity * app.gain).min(1.0);
    }
    let backlog = fleet
        .apps
        .iter()
        .map(|app| in_flight(&app.segment))
        .max()
        .unwrap_or(0);
    let span = tracer.begin("daemon.tick", round_index);
    let processed = fleet.daemon.tick();
    tracer.end(span, processed);
    outcome.check("tick_count", processed == beats);

    let mut resolved_at = Vec::new();
    for (index, app) in fleet.apps.iter_mut().enumerate() {
        let span = tracer.begin("shm.header_poll", index as u64);
        let header = app.segment.header();
        let head = header.head.load(Ordering::Acquire);
        let seq = header.decision_seq.load(Ordering::Acquire);
        tracer.end(span, 1);
        let now = now_ns();
        let mut resolved = false;
        while let Some(front) = app.pending.front() {
            if head > front.last_pos && seq & 1 == 0 && seq != front.seq_base {
                // Every app resolves every round; an eighth of them,
                // rotating, is enough samples and bounds the memory.
                if (index as u64 + round_index).is_multiple_of(LATENCY_STRIDE) {
                    resolved_at.push((now, now - front.emitted_ns));
                }
                app.pending.pop_front();
                resolved = true;
            } else if now - front.emitted_ns > DEADLINE_NS {
                outcome.fail("beat_deadline", BEATS_PER_QUANTUM as u64);
                app.pending.pop_front();
            } else {
                break;
            }
        }
        if resolved {
            let span = tracer.begin("client.read", index as u64);
            let current = app.client.current_decision();
            tracer.end(span, 1);
            let d = current.decision;
            outcome.check(
                "decision_not_published_or_out_of_table",
                current.source == DecisionSource::Published
                    && crate::common::decision_in_table(
                        &fleet.table,
                        d.point_idx,
                        d.gain,
                        d.achieved_speedup,
                    ),
            );
            if d.gain.is_finite() && d.gain >= 1.0 {
                app.gain = d.gain;
            }
        }
    }
    tracer.end(root, beats);
    if let Some(phase) = phase {
        phase.backlog_max = phase.backlog_max.max(backlog);
        phase.beats += beats;
        phase.perf_sum += perf;
        phase.rounds += 1;
        for (at, latency) in resolved_at {
            phase.latencies.record(at, latency);
        }
    }
}

fn scrape(fleet: &mut Fleet, tracer: &mut Tracer, outcome: &mut Outcome) -> u64 {
    let t0 = now_ns();
    let root = tracer.begin("scrape", 0);
    let span = tracer.begin("daemon.snapshot", 0);
    let snapshot = fleet.daemon.telemetry_snapshot();
    tracer.end(span, 1);
    let span = tracer.begin("daemon.json", 0);
    let json = snapshot.to_json();
    tracer.end(span, 1);
    tracer.end(root, 1);
    let elapsed = now_ns() - t0;
    outcome.check(
        "snapshot_incomplete",
        snapshot.apps.len() == APPS && json.contains("\"powerdial-telemetry\""),
    );
    elapsed
}

/// Runs rounds until `until_ns`, scraping every 100 ms.
fn run_phase(
    fleet: &mut Fleet,
    rounds: &mut u64,
    until_ns: u64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    mut phase: Option<&mut Phase>,
) {
    let mut next_scrape = now_ns() + SCRAPE_EVERY_NS;
    while now_ns() < until_ns && !stop_requested() {
        round(fleet, *rounds, tracer, outcome, phase.as_deref_mut());
        *rounds += 1;
        if now_ns() >= next_scrape {
            let elapsed = scrape(fleet, tracer, outcome);
            if let Some(phase) = phase.as_deref_mut() {
                phase.scrape_ns.push(elapsed);
            }
            next_scrape += SCRAPE_EVERY_NS;
        }
    }
}

pub fn run(args: &RunArgs, metrics: &mut Metrics, outcome: &mut Outcome) {
    let mut tracer = Tracer::new(false);
    let span_overhead = tracer.calibrate_overhead_ns();

    // Set-up, several times; the last fleet is the one measured.
    let mut setup_s = Vec::new();
    let mut samples = replay::SetupSamples::default();
    let mut fleet = None;
    for _ in 0..SETUPS {
        drop(fleet.take());
        let t0 = now_ns();
        let built = build_fleet(1, args.seed, &mut samples);
        setup_s.push((now_ns() - t0) as f64 / 1e9);
        fleet = Some(built);
    }
    let mut fleet = fleet.expect("at least one setup");
    metrics.set("setup_s", quantile(&setup_s, 0.5).expect("setups"), "s");

    let mut rounds = 0u64;
    let warm_until = now_ns() + WARMUP_NS;
    run_phase(
        &mut fleet,
        &mut rounds,
        warm_until,
        &mut tracer,
        outcome,
        None,
    );

    // Peak memory of the fleet, daemon and clients in steady state, read
    // before the benchmark's own latency log grows with the run.
    let pid = std::process::id().to_string();
    let rss_mb = proc_status(&pid, "VmHWM").unwrap_or(0) as f64 / 1024.0;
    let seconds_ns = (args.seconds * 1e9) as u64;
    // Untraced phase: the whole run, or its first half in a traced run.
    let untraced_ns = if args.trace {
        seconds_ns / 2
    } else {
        seconds_ns
    };
    let cpu0 = proc_cpu_seconds(&pid).unwrap_or(0.0);
    let csw0 = proc_context_switches(&pid);
    let mut untraced = Phase::new(now_ns());
    let threads = proc_status(&pid, "Threads").unwrap_or(u64::MAX);
    run_phase(
        &mut fleet,
        &mut rounds,
        untraced.start_ns + untraced_ns,
        &mut tracer,
        outcome,
        Some(&mut untraced),
    );
    let untraced_end = now_ns();
    let cpu1 = proc_cpu_seconds(&pid).unwrap_or(0.0);
    let csw1 = proc_context_switches(&pid);
    let wall = (untraced_end - untraced.start_ns) as f64 / 1e9;

    let threads_ok = threads as usize <= nproc();
    outcome.check("threads_exceed_nproc", threads_ok);
    let bps = untraced.beats as f64 / wall;
    metrics.set("beats_per_s", bps, "1/s");
    metrics.set("beat_to_decision_p50_us", untraced.latencies.p50_us(), "us");
    let (p99, windows) = untraced.latencies.p99_us();
    metrics.set("beat_to_decision_p99_us", p99, "us");
    metrics.set("daemon_cpu_pct", 100.0 * (cpu1 - cpu0) / wall, "%");
    metrics.set(
        "normalized_perf",
        untraced.perf_sum / untraced.beats.max(1) as f64,
        "ratio",
    );
    metrics.set(
        "snapshot_ms",
        quantile(&untraced.scrape_ns, 0.5).map_or(f64::NAN, |ns| ns as f64 / 1e6),
        "ms",
    );
    println!(
        "# dense_512 seed={} nproc={} threads={} backing={:?} rounds={} latency_samples={} (one in {} quanta of {} beats) p99_windows={} scrapes={}",
        args.seed,
        nproc(),
        threads,
        fleet.apps[0].segment.backing_kind(),
        untraced.rounds,
        untraced.latencies.count(),
        LATENCY_STRIDE,
        BEATS_PER_QUANTUM,
        windows,
        untraced.scrape_ns.len()
    );

    if args.trace {
        tracer.set_enabled(true);
        let traced_heads = head_sum(&fleet);
        let mut traced = Phase::new(now_ns());
        run_phase(
            &mut fleet,
            &mut rounds,
            traced.start_ns + seconds_ns - untraced_ns,
            &mut tracer,
            outcome,
            Some(&mut traced),
        );
        let traced_wall = (now_ns() - traced.start_ns) as f64 / 1e9;
        tracer.set_enabled(false);
        let traced_bps = traced.beats as f64 / traced_wall;
        metrics.set("trace.overhead_pct", 100.0 * (bps / traced_bps - 1.0), "%");
        live_layer_metrics(&tracer, span_overhead, metrics);
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
        // The closed loop emits on demand: it is never late.
        metrics.set("gen.lag_p99_us", 0.0, "us");
        metrics.set("gen.behind", 0.0, "flag");
        metrics.set("shm.backlog_max", traced.backlog_max as f64, "count");
        metrics.set("shm.emit_eps", traced_bps, "1/s");
        metrics.set(
            "shm.drain_eps",
            (head_sum(&fleet) - traced_heads) as f64 / traced_wall,
            "1/s",
        );
        samples.report(metrics);
        ledger(metrics, bps, &tracer, span_overhead, traced.beats);
        replay::run_layers(
            &replay::ReplaySpec {
                apps: APPS,
                active: APPS,
                batch: BEATS_PER_QUANTUM,
                nominal_hz: NOMINAL_HZ,
                seed: args.seed,
                offered_bps: bps,
            },
            &mut tracer,
            span_overhead,
            metrics,
        );
        crate::common::report_validity(
            metrics,
            args.seed,
            threads,
            fleet.apps[0].segment.backing_kind() == BackingKind::Memfd,
            &untraced.latencies,
        );
        if let Some(path) = &args.span_file {
            if let Err(err) = tracer.write_csv(path) {
                eprintln!("could not write spans to {}: {err}", path.display());
            }
        }
    }

    // Shutdown: one more tick drains anything left, then every ring must
    // be empty.
    fleet.daemon.tick();
    for app in &fleet.apps {
        outcome.check("ring_not_drained", app.client.beats_in_flight() == 0);
    }
    metrics.set("daemon_rss_mb", rss_mb, "MB");
    drop(fleet);
    placement_equivalence(args.seed, outcome);
}

/// Per-layer numbers measured live in the traced phase.
fn live_layer_metrics(tracer: &Tracer, overhead: f64, metrics: &mut Metrics) {
    if let Some(tick) = tracer.aggregate("daemon.tick") {
        metrics.set("daemon.tick_us_p50", tick.duration_ns(0.5) / 1e3, "us");
        metrics.set("daemon.tick_us_p99", tick.duration_ns(0.99) / 1e3, "us");
        metrics.set(
            "daemon.tick_ns_per_beat",
            tick.self_ns_per_unit(overhead),
            "ns",
        );
    }
    for (name, metric) in [
        ("daemon.snapshot", "daemon.snapshot_ms"),
        ("daemon.json", "daemon.json_ms"),
    ] {
        if let Some(agg) = tracer.aggregate(name) {
            metrics.set(metric, agg.duration_ns(0.5) / 1e6, "ms");
        }
    }
    if let Some(round) = tracer.aggregate("gen.round") {
        metrics.set("gen.cycle_us_p50", round.duration_ns(0.5) / 1e3, "us");
    }
}

/// Per-beat layer costs of the traced phase against the untraced ns/beat.
fn ledger(metrics: &mut Metrics, untraced_bps: f64, tracer: &Tracer, overhead: f64, beats: u64) {
    let e2e = 1e9 / untraced_bps;
    let per_beat = |name: &str| {
        tracer.aggregate(name).map_or(0.0, |agg| {
            (agg.self_ns as f64 - overhead * agg.spans as f64).max(0.0) / beats.max(1) as f64
        })
    };
    let parts = [
        "client.beat",
        "daemon.tick",
        "shm.header_poll",
        "client.read",
        "daemon.snapshot",
        "daemon.json",
        "scrape",
        "gen.round",
    ];
    let attributed: f64 = parts.iter().map(|name| per_beat(name)).sum();
    let unattributed = 100.0 * (e2e - attributed) / e2e;
    metrics.set("ledger.e2e_ns_per_beat", e2e, "ns");
    metrics.set("ledger.attributed_ns_per_beat", attributed, "ns");
    metrics.set("ledger.unattributed_pct", unattributed, "%");
    metrics.set(
        "ledger.ok",
        f64::from(u8::from(unattributed.abs() <= 100.0 * crate::LEDGER_MARGIN)),
        "flag",
    );
}

/// Replays a short seeded schedule on a threaded (`workers: 1`) and an
/// inline (`workers: 0`) daemon in lockstep: every app's decision bits
/// must agree after every tick.
fn placement_equivalence(seed: u64, outcome: &mut Outcome) {
    let mut ignored = replay::SetupSamples::default();
    let mut threaded = build_fleet(1, seed ^ 0x5EED, &mut ignored);
    let mut inline = build_fleet(0, seed ^ 0x5EED, &mut ignored);
    let mut tracer = Tracer::new(false);
    let mut scratch = Outcome::default();
    for r in 0..EQUIVALENCE_ROUNDS {
        round(&mut threaded, r, &mut tracer, &mut scratch, None);
        round(&mut inline, r, &mut tracer, &mut scratch, None);
        for (a, b) in threaded.apps.iter_mut().zip(inline.apps.iter_mut()) {
            let x = a.client.current_decision().decision;
            let y = b.client.current_decision().decision;
            outcome.check(
                "placement_mismatch",
                x.point_idx == y.point_idx
                    && x.gain.to_bits() == y.gain.to_bits()
                    && x.achieved_speedup.to_bits() == y.achieved_speedup.to_bits(),
            );
        }
    }
    outcome.succeed(scratch.attempted);
    for (kind, count) in scratch.violations() {
        outcome.fail(kind, *count);
    }
}
