//! In-process replays of a workload's seeded beat stream through each
//! layer's public functions.
//!
//! The daemon's internal layers cannot be timed from outside the process
//! that runs them, so the traced run rebuilds the workload's fleet shape
//! (app count, active apps, beats per drain) in process and times each
//! layer in its own pass over the fleet: shm push, drain, rate query,
//! runtime boundary and in-quantum advance, window fold, telemetry
//! record, decision publish and read, and the liveness probe. A replica
//! daemon (`workers: 0`) at the same N gives the shard, tick, idle
//! sweep, reap, registration, scrape and broker costs, and replays the
//! serve loop's iteration (`poll_accept` + `tick` + `reap_dead` +
//! `respawn_dead`) in the loop's order at the workload's offered load.

use std::sync::Arc;

use powerdial_client::{ClientConfig, PowerDialClient};
use powerdial_control::{
    AttachBroker, BrokerConfig, ControlError, DaemonConfig, PowerDialDaemon, PowerDialRuntime,
};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::{
    Segment, SegmentGeometry, ShmConsumer, ShmDecision, ShmPeerProbe, ShmProducer,
};
use powerdial_heartbeats::telemetry::LatencyHistogram;
use powerdial_heartbeats::{HeartbeatTag, SlidingWindow, Timestamp, TimestampDelta};
use powerdial_knobs::KnobTable;

use crate::common::{
    capacity_at, converged_gain, knob_table, now_ns, quantile_sorted, runtime_config, Rng,
    BEATS_PER_QUANTUM,
};
use crate::report::Metrics;
use crate::trace::Tracer;

/// Ring capacity of every replayed segment (the client default).
const RING: usize = 256;
/// Wall time spent in each timed replay loop.
const LOOP_NS: u64 = 300_000_000;
/// Beats of an app's stream between power-cap steps.
const STEP_BEATS: u64 = 500;
/// Scrapes timed on the replica (after one untimed warm-up scrape).
const SCRAPES: usize = 200;

/// The fleet shape a replay reproduces.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    pub apps: usize,
    /// Apps that beat; the rest stay registered and silent.
    pub active: usize,
    /// Beats each active app has waiting per drain (1 or a whole quantum).
    pub batch: usize,
    pub nominal_hz: f64,
    pub seed: u64,
    /// The live run's beats per second, replayed in the serve-loop model.
    pub offered_bps: f64,
}

/// Set-up costs measured live while a workload built its fleet.
#[derive(Debug, Default)]
pub struct SetupSamples {
    pub segment_create_ns: Vec<u64>,
    pub client_register_ns: Vec<u64>,
    pub daemon_register_ns: Vec<u64>,
}

fn p50(values: &[u64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, 0.5).unwrap_or(0) as f64
}

impl SetupSamples {
    pub fn report(&self, metrics: &mut Metrics) {
        if !self.segment_create_ns.is_empty() {
            metrics.set(
                "shm.segment_create_us",
                p50(&self.segment_create_ns) / 1e3,
                "us",
            );
        }
        if !self.client_register_ns.is_empty() {
            metrics.set(
                "client.register_ms",
                p50(&self.client_register_ns) / 1e6,
                "ms",
            );
        }
        if !self.daemon_register_ns.is_empty() {
            metrics.set(
                "daemon.register_us",
                p50(&self.daemon_register_ns) / 1e3,
                "us",
            );
        }
    }
}

/// One app's seeded synthetic stream: latencies from the nominal rate,
/// its power-cap steps and the gain a converged controller would hold.
struct Stream {
    clock: Timestamp,
    tag: HeartbeatTag,
    beats: u64,
    cap_offset: u64,
}

impl Stream {
    fn new(rng: &mut Rng) -> Self {
        Stream {
            clock: Timestamp::from_nanos(1_000_000_000 + rng.below(1_000_000)),
            tag: HeartbeatTag::default(),
            beats: 0,
            cap_offset: rng.below(4),
        }
    }

    fn next(&mut self, table: &KnobTable, nominal_hz: f64) -> BeatSample {
        let capacity = capacity_at(self.cap_offset, self.beats / STEP_BEATS);
        let gain = converged_gain(table, capacity);
        let latency = TimestampDelta::from_secs_f64(1.0 / (nominal_hz * capacity * gain));
        let sample = BeatSample {
            tag: self.tag,
            timestamp: self.clock,
            latency: if self.beats == 0 {
                TimestampDelta::ZERO
            } else {
                latency
            },
        };
        self.clock += latency;
        self.tag = self.tag.next();
        self.beats += 1;
        sample
    }
}

/// The standalone per-layer pipeline: every layer the daemon runs per
/// drain, driven directly.
struct PipelineApp {
    client: PowerDialClient,
    consumer: ShmConsumer,
    probe: ShmPeerProbe,
    window: SlidingWindow,
    runtime: PowerDialRuntime,
    histogram: LatencyHistogram,
    stream: Stream,
    outgoing: Vec<BeatSample>,
    drained: Vec<BeatSample>,
    latencies: Vec<TimestampDelta>,
    rate: Option<f64>,
    consumed: usize,
}

fn geometry() -> SegmentGeometry {
    SegmentGeometry::for_beat_samples(RING).expect("valid geometry")
}

fn active_set(spec: &ReplaySpec) -> Vec<usize> {
    let mut rng = Rng::new(spec.seed, 7);
    let mut chosen = vec![false; spec.apps];
    let mut set = Vec::with_capacity(spec.active);
    while set.len() < spec.active {
        let index = rng.below(spec.apps as u64) as usize;
        if !chosen[index] {
            chosen[index] = true;
            set.push(index);
        }
    }
    set.sort_unstable();
    set
}

/// Times each kernel layer in its own pass over the fleet.
fn pipeline(spec: &ReplaySpec, tracer: &mut Tracer, metrics: &mut Metrics) {
    assert!(
        spec.batch == 1 || spec.batch == BEATS_PER_QUANTUM,
        "drains stay quantum-aligned"
    );
    let table = knob_table();
    let mut rng = Rng::new(spec.seed, 5);
    let mut apps: Vec<PipelineApp> = (0..spec.apps)
        .map(|_| {
            let segment = Arc::new(Segment::create(geometry()).expect("create segment"));
            let client =
                PowerDialClient::attach_segment(Arc::clone(&segment), ClientConfig::default())
                    .expect("attach client");
            let consumer = ShmConsumer::attach(segment).expect("attach consumer");
            PipelineApp {
                probe: consumer.probe(),
                client,
                consumer,
                window: SlidingWindow::new(BEATS_PER_QUANTUM),
                runtime: PowerDialRuntime::new(runtime_config(spec.nominal_hz), table.clone())
                    .expect("valid runtime"),
                histogram: LatencyHistogram::new(),
                stream: Stream::new(&mut rng),
                outgoing: Vec::with_capacity(BEATS_PER_QUANTUM),
                drained: Vec::with_capacity(RING),
                latencies: Vec::with_capacity(RING),
                rate: None,
                consumed: 0,
            }
        })
        .collect();
    let active = active_set(spec);
    let units = (active.len() * spec.batch) as u64;
    let root = tracer.begin("replay.pipeline", 0);
    let start = now_ns();
    let mut round = 0u64;
    while now_ns() - start < LOOP_NS {
        for &a in &active {
            let app = &mut apps[a];
            app.outgoing.clear();
            for _ in 0..spec.batch {
                let sample = app.stream.next(&table, spec.nominal_hz);
                app.outgoing.push(sample);
            }
        }
        let span = tracer.begin("replay.client.beat", round);
        for &a in &active {
            let app = &mut apps[a];
            for sample in &app.outgoing {
                app.client.beat(sample.timestamp).expect("ring has room");
            }
        }
        tracer.end(span, units);

        let span = tracer.begin("replay.shm.drain", round);
        for &a in &active {
            let app = &mut apps[a];
            app.drained.clear();
            app.consumer.drain_into(&mut app.drained);
        }
        tracer.end(span, units);

        let mut boundaries = 0u64;
        let span = tracer.begin("replay.stats.rate", round);
        for &a in &active {
            let app = &mut apps[a];
            app.consumed = 0;
            if app.runtime.beat_in_quantum() == 0 {
                app.rate = app
                    .window
                    .rate()
                    .expect("window within range")
                    .map(|r| r.beats_per_second());
                boundaries += 1;
            }
        }
        tracer.end(span, boundaries);

        let span = tracer.begin("replay.runtime.boundary", round);
        for &a in &active {
            let app = &mut apps[a];
            if app.runtime.beat_in_quantum() == 0 {
                std::hint::black_box(app.runtime.on_heartbeat_idx(app.rate));
                app.consumed = 1;
            }
        }
        tracer.end(span, boundaries);

        let mut advances = 0u64;
        let span = tracer.begin("replay.runtime.advance", round);
        for &a in &active {
            let app = &mut apps[a];
            let rest = app.drained.len() - app.consumed;
            if rest > 0 {
                std::hint::black_box(app.runtime.advance_in_quantum(rest as u32));
                advances += 1;
            }
        }
        tracer.end(span, advances);

        for &a in &active {
            let app = &mut apps[a];
            app.latencies.clear();
            app.latencies.extend(
                app.drained
                    .iter()
                    .filter(|s| s.tag.value() != 0)
                    .map(|s| s.latency),
            );
        }
        let span = tracer.begin("replay.stats.fold", round);
        for &a in &active {
            let app = &mut apps[a];
            app.window.push_slice(&app.latencies);
        }
        tracer.end(span, units);

        let span = tracer.begin("replay.telemetry.record", round);
        for &a in &active {
            let app = &mut apps[a];
            app.histogram
                .record_all(app.latencies.iter().map(|l| l.as_nanos()));
        }
        tracer.end(span, units);

        let span = tracer.begin("replay.shm.publish", round);
        for &a in &active {
            let app = &apps[a];
            let point = app
                .runtime
                .planned_beat_indices()
                .last()
                .map_or(0, |p| p.as_usize() as u32);
            let gain = table.speedup_of(powerdial_knobs::PointIdx::new(point));
            app.consumer.publish_decision(ShmDecision {
                point_idx: point,
                gain_bits: gain.to_bits(),
                achieved_speedup_bits: gain.to_bits(),
                qos_loss_bits: 0,
            });
        }
        tracer.end(span, active.len() as u64);

        let span = tracer.begin("replay.shm.read", round);
        for &a in &active {
            std::hint::black_box(apps[a].client.segment().header().read_decision());
        }
        tracer.end(span, active.len() as u64);

        let span = tracer.begin("replay.client.read", round);
        for &a in &active {
            std::hint::black_box(apps[a].client.current_decision());
        }
        tracer.end(span, active.len() as u64);

        // The liveness probe runs over every registered app, as the
        // reaper does, every 16th round (it costs microseconds).
        if round.is_multiple_of(16) {
            let span = tracer.begin("replay.shm.probe", round);
            for app in &apps {
                std::hint::black_box(app.probe.producer_state());
            }
            tracer.end(span, apps.len() as u64);
        }
        round += 1;
    }
    tracer.end(root, round);

    // Fleet rollup: merge every app's histogram into one.
    let span = tracer.begin("replay.telemetry.merge", 0);
    for _ in 0..SCRAPES {
        let mut fleet = LatencyHistogram::new();
        for app in &apps {
            fleet.merge_from(&app.histogram);
        }
        std::hint::black_box(&fleet);
    }
    tracer.end(span, SCRAPES as u64);

    let per = |layer: &str, scale: f64| {
        tracer
            .aggregate(&format!("replay.{layer}"))
            .map_or(f64::NAN, |agg| agg.total_ns_per_unit() / scale)
    };
    metrics.set("client.beat_ns", per("client.beat", 1.0), "ns");
    metrics.set("client.read_ns", per("client.read", 1.0), "ns");
    metrics.set("shm.drain_ns_per_beat", per("shm.drain", 1.0), "ns");
    metrics.set("stats.rate_ns", per("stats.rate", 1.0), "ns");
    metrics.set("runtime.boundary_ns", per("runtime.boundary", 1.0), "ns");
    metrics.set("runtime.advance_ns", per("runtime.advance", 1.0), "ns");
    metrics.set("stats.fold_ns_per_beat", per("stats.fold", 1.0), "ns");
    metrics.set(
        "telemetry.record_ns_per_beat",
        per("telemetry.record", 1.0),
        "ns",
    );
    metrics.set("shm.publish_ns", per("shm.publish", 1.0), "ns");
    metrics.set("shm.read_ns", per("shm.read", 1.0), "ns");
    metrics.set("shm.probe_us", per("shm.probe", 1e3), "us");
    metrics.set("telemetry.merge_us", per("telemetry.merge", 1e3), "us");

    // Everything the daemon's kernel does per beat, per the replays.
    let beats = tracer
        .aggregate("replay.shm.drain")
        .map_or(1, |agg| agg.units.max(1));
    let kernel_ns: u64 = [
        "replay.shm.drain",
        "replay.stats.rate",
        "replay.runtime.boundary",
        "replay.runtime.advance",
        "replay.stats.fold",
        "replay.telemetry.record",
        "replay.shm.publish",
    ]
    .iter()
    .filter_map(|name| tracer.aggregate(name))
    .map(|agg| agg.total_ns)
    .sum();
    metrics.set(
        "ledger.kernel_ns_per_beat",
        kernel_ns as f64 / beats as f64,
        "ns",
    );
}

/// A replica daemon holding the workload's fleet, fed by in-process
/// producers.
struct Replica {
    daemon: PowerDialDaemon,
    producers: Vec<ShmProducer>,
    streams: Vec<Stream>,
    active: Vec<usize>,
    table: KnobTable,
    spec: ReplaySpec,
    samples: SetupSamples,
    outgoing: Vec<(usize, BeatSample)>,
}

impl Replica {
    fn new(spec: &ReplaySpec) -> Self {
        let table = knob_table();
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            ..DaemonConfig::default()
        })
        .expect("valid daemon config");
        let mut rng = Rng::new(spec.seed, 6);
        let mut samples = SetupSamples::default();
        let mut producers = Vec::with_capacity(spec.apps);
        let mut streams = Vec::with_capacity(spec.apps);
        for _ in 0..spec.apps {
            let t0 = now_ns();
            let segment = Arc::new(Segment::create(geometry()).expect("create segment"));
            let t1 = now_ns();
            producers.push(ShmProducer::attach(Arc::clone(&segment)).expect("attach producer"));
            let consumer = ShmConsumer::attach(segment).expect("attach consumer");
            let t2 = now_ns();
            daemon
                .register_shm(runtime_config(spec.nominal_hz), table.clone(), consumer)
                .expect("register app");
            let t3 = now_ns();
            samples.segment_create_ns.push(t1 - t0);
            samples.daemon_register_ns.push(t3 - t2);
            streams.push(Stream::new(&mut rng));
        }
        let mut replica = Replica {
            daemon,
            producers,
            streams,
            active: active_set(spec),
            table,
            spec: *spec,
            samples,
            outgoing: Vec::new(),
        };
        let mut untraced = Tracer::new(false);
        for _ in 0..100 {
            replica.feed_batch(&mut untraced);
            replica.daemon.tick();
        }
        replica
    }

    /// One batch for every active app; the pushes are timed as the
    /// `shm.push` span.
    fn feed_batch(&mut self, tracer: &mut Tracer) -> u64 {
        let mut outgoing = std::mem::take(&mut self.outgoing);
        outgoing.clear();
        for &a in &self.active {
            for _ in 0..self.spec.batch {
                outgoing.push((a, self.streams[a].next(&self.table, self.spec.nominal_hz)));
            }
        }
        let span = tracer.begin("replay.shm.push", 0);
        for &(a, sample) in &outgoing {
            self.producers[a].try_push(sample).expect("ring has room");
        }
        tracer.end(span, outgoing.len() as u64);
        let pushed = outgoing.len() as u64;
        self.outgoing = outgoing;
        pushed
    }

    /// `count` beats spread round-robin over the active apps.
    fn feed(&mut self, count: u64, cursor: &mut usize) {
        for _ in 0..count {
            let a = self.active[*cursor % self.active.len()];
            *cursor += 1;
            let sample = self.streams[a].next(&self.table, self.spec.nominal_hz);
            // A full ring only means the replay outran its own drain.
            let _ = self.producers[a].try_push(sample);
        }
    }

    fn scrape_ms(&mut self, tracer: &mut Tracer) -> f64 {
        std::hint::black_box(self.daemon.telemetry_snapshot().to_json());
        let mut totals = Vec::with_capacity(SCRAPES);
        for i in 0..SCRAPES {
            let t0 = now_ns();
            let span = tracer.begin("replica.snapshot", i as u64);
            let snapshot = self.daemon.telemetry_snapshot();
            tracer.end(span, 1);
            let span = tracer.begin("replica.json", i as u64);
            std::hint::black_box(snapshot.to_json());
            tracer.end(span, 1);
            totals.push(now_ns() - t0);
        }
        p50(&totals) / 1e6
    }
}

/// Scrape cost (snapshot plus JSON, p50 ms) of a replica holding the
/// workload's fleet: the forked daemon has no scrape verb, so the
/// open-loop workloads price the scrape on an in-process twin.
pub fn replica_snapshot(spec: &ReplaySpec) -> f64 {
    let mut replica = Replica::new(spec);
    replica.scrape_ms(&mut Tracer::new(false))
}

/// Every replayed per-layer metric. Metrics a workload measured live
/// (set before this runs) are kept.
pub fn run_layers(
    spec: &ReplaySpec,
    tracer: &mut Tracer,
    span_overhead_ns: f64,
    metrics: &mut Metrics,
) {
    let was = tracer.enabled();
    tracer.set_enabled(true);
    pipeline(spec, tracer, metrics);

    let mut replica = Replica::new(spec);
    let root = tracer.begin("replay.replica", 0);
    let keep = |metrics: &Metrics, name: &str| metrics.get(name).is_some();

    // The shard kernel, called directly.
    let start = now_ns();
    let mut round = 0u64;
    while now_ns() - start < LOOP_NS / 2 {
        let beats = replica.feed_batch(tracer);
        let span = tracer.begin("replica.shard", round);
        let shard = replica.daemon.inline_shard_mut().expect("inline daemon");
        let processed = shard.run_quantum();
        tracer.end(span, processed.max(1));
        debug_assert_eq!(processed, beats);
        round += 1;
    }
    // A loaded tick at the workload's batch.
    let start = now_ns();
    while now_ns() - start < LOOP_NS / 2 {
        replica.feed_batch(tracer);
        let span = tracer.begin("replica.tick", round);
        let processed = replica.daemon.tick();
        tracer.end(span, processed.max(1));
        round += 1;
    }
    // The idle sweep: a tick with nothing to drain.
    let start = now_ns();
    while now_ns() - start < LOOP_NS / 4 {
        let span = tracer.begin("replica.idle_tick", round);
        replica.daemon.tick();
        tracer.end(span, spec.apps as u64);
        round += 1;
    }
    // The reaper's liveness scan with every producer alive.
    let start = now_ns();
    while now_ns() - start < LOOP_NS / 4 {
        let span = tracer.begin("replay.daemon.reap", round);
        std::hint::black_box(replica.daemon.reap_dead());
        tracer.end(span, 1);
        round += 1;
    }
    let scrape = replica.scrape_ms(tracer);

    // The broker's idle accept poll, on a socket of its own.
    let socket = std::path::PathBuf::from(format!(
        "{}/replay-{}.sock",
        crate::OUT_DIR,
        std::process::id()
    ));
    let mut broker = AttachBroker::bind(BrokerConfig::new(&socket)).ok();
    if broker.is_none() {
        eprintln!("could not bind a replay broker at {}", socket.display());
    }
    if let Some(broker) = broker.as_mut() {
        let start = now_ns();
        while now_ns() - start < LOOP_NS / 4 {
            let span = tracer.begin("replay.broker.poll_accept", round);
            let polled = broker.poll_accept(spec.apps, |_| Err(ControlError::ZeroQuantum));
            tracer.end(span, 1);
            std::hint::black_box(polled.ok());
            round += 1;
        }
    }

    // The serve loop's iteration, in its order, at the live offered load:
    // each iteration is fed the beats that arrive during the previous one.
    let mut cursor = 0usize;
    let mut last_iteration_ns = 100_000u64;
    let start = now_ns();
    while now_ns() - start < LOOP_NS {
        let arrivals = (spec.offered_bps * last_iteration_ns as f64 / 1e9).round() as u64;
        replica.feed(arrivals.min((spec.active * RING / 2) as u64), &mut cursor);
        let t0 = now_ns();
        let span = tracer.begin("replay.serve.iteration", round);
        if let Some(broker) = broker.as_mut() {
            let _ = broker.poll_accept(spec.apps, |_| Err(ControlError::ZeroQuantum));
        }
        replica.daemon.tick();
        std::hint::black_box(replica.daemon.reap_dead());
        replica.daemon.respawn_dead();
        tracer.end(span, 1);
        last_iteration_ns = now_ns() - t0;
        round += 1;
    }
    drop(broker);
    let _ = std::fs::remove_file(&socket);
    tracer.end(root, round);
    tracer.set_enabled(was);

    let per = |name: &str| {
        tracer
            .aggregate(name)
            .map_or(f64::NAN, |agg| agg.self_ns_per_unit(span_overhead_ns))
    };
    metrics.set(
        "shm.push_ns",
        tracer
            .aggregate("replay.shm.push")
            .map_or(f64::NAN, |agg| agg.total_ns_per_unit()),
        "ns",
    );
    metrics.set("daemon.shard_ns_per_beat", per("replica.shard"), "ns");
    metrics.set(
        "daemon.idle_sweep_ns_per_app",
        per("replica.idle_tick"),
        "ns",
    );
    metrics.set("daemon.reap_us", per("replay.daemon.reap") / 1e3, "us");
    metrics.set(
        "broker.poll_accept_us",
        per("replay.broker.poll_accept") / 1e3,
        "us",
    );
    if let Some(serve) = tracer.aggregate("replay.serve.iteration") {
        metrics.set("serve.iteration_us_est", serve.duration_ns(0.5) / 1e3, "us");
    }
    if !keep(metrics, "daemon.tick_us_p50") {
        if let Some(tick) = tracer.aggregate("replica.tick") {
            metrics.set("daemon.tick_us_p50", tick.duration_ns(0.5) / 1e3, "us");
            metrics.set("daemon.tick_us_p99", tick.duration_ns(0.99) / 1e3, "us");
        }
        metrics.set("daemon.tick_ns_per_beat", per("replica.tick"), "ns");
    }
    if !keep(metrics, "daemon.snapshot_ms") {
        if let Some(snapshot) = tracer.aggregate("replica.snapshot") {
            metrics.set("daemon.snapshot_ms", snapshot.duration_ns(0.5) / 1e6, "ms");
        }
        if let Some(json) = tracer.aggregate("replica.json") {
            metrics.set("daemon.json_ms", json.duration_ns(0.5) / 1e6, "ms");
        }
    }
    if !keep(metrics, "snapshot_ms") {
        metrics.set("snapshot_ms", scrape, "ms");
    }
    if !keep(metrics, "shm.segment_create_us") {
        replica.samples.report(metrics);
    }
    // The tick split into the replayed kernel layers: what is left is
    // the sweep's own cost, the worker hand-off, and any hidden layer.
    if let (Some(tick), Some(kernel)) = (
        metrics.get("daemon.tick_ns_per_beat"),
        metrics.get("ledger.kernel_ns_per_beat"),
    ) {
        metrics.set(
            "ledger.tick_unattributed_pct",
            100.0 * (tick - kernel) / tick,
            "%",
        );
    }
}
