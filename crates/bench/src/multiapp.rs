//! Shared harness for the multi-application daemon benchmarks.
//!
//! Models the paper's server-consolidation deployment at scale: N
//! instrumented applications each emit one heartbeat per unit of work into
//! their own channel, and one PowerDial daemon drains every channel once
//! per actuation quantum and steps the per-app O(1) controller. Two
//! variants run the identical closed loop:
//!
//! * [`DaemonMultiAppLoop`] — the lock-free path: SPSC rings into the
//!   sharded, threaded [`PowerDialDaemon`];
//! * [`ShmMultiAppLoop`] — the cross-process transport benchmarked
//!   in-process: every app's beats go through a real mapped
//!   shared-memory segment (memfd/tmpfile) drained by the same daemon;
//! * [`NaiveMultiAppLoop`] — the baseline: mutex-guarded channels into the
//!   serial [`SerialMutexDaemon`].
//!
//! Like the single-app hot path, the simulated applications respond to
//! control: each quantum's beat latencies derive from the gain the daemon
//! last decided and a stepped capacity schedule, so controllers keep
//! re-planning rather than settling into a single branch-predicted path.

use std::sync::Arc;

use powerdial::control::daemon::naive::{NaiveAppHandle, SerialMutexDaemon};
use powerdial::control::daemon::{AppHandle, DaemonConfig, DecisionView, PowerDialDaemon};
use powerdial::control::{ControllerConfig, RuntimeConfig};
use powerdial::heartbeats::channel::BeatSample;
use powerdial::heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmError, ShmProducer};
use powerdial::heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};

use crate::hotpath::{synthetic_knob_table, TARGET_RATE_BPS};

/// Heartbeats each application emits per actuation quantum (the paper's
/// 20-beat quantum).
pub const BEATS_PER_QUANTUM: usize = 20;

/// Knob settings in each application's synthetic table.
const SETTINGS: usize = 8;

/// Channel capacity: two quanta of slack over the per-tick burst.
const CHANNEL_CAPACITY: usize = BEATS_PER_QUANTUM * 3;

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(
        ControllerConfig::new(TARGET_RATE_BPS, TARGET_RATE_BPS).expect("valid controller"),
    )
}

/// The platform capacity available to app `index` at quantum `quantum`:
/// stepped per-app so different apps are in different control regimes at
/// any instant (as real consolidated machines would be).
fn capacity_at(index: usize, quantum: u64) -> f64 {
    match (quantum / 50 + index as u64) % 4 {
        0 => 1.0,
        1 => 0.5,
        2 => 0.75,
        _ => 0.35,
    }
}

/// One simulated application: its daemon handle and local clock.
struct SimApp<H> {
    handle: H,
    now: Timestamp,
}

/// Emits one quantum of beats for app `index`, paced by the last decided
/// gain, through any handle exposing a `beat`-shaped closure.
#[inline]
fn emit_quantum(
    now: &mut Timestamp,
    gain: f64,
    index: usize,
    quantum: u64,
    mut push: impl FnMut(Timestamp) -> bool,
) -> u64 {
    let capacity = capacity_at(index, quantum);
    let latency = TimestampDelta::from_secs_f64(1.0 / (TARGET_RATE_BPS * capacity * gain.max(1.0)));
    let mut emitted = 0;
    for _ in 0..BEATS_PER_QUANTUM {
        *now += latency;
        if push(*now) {
            emitted += 1;
        }
    }
    emitted
}

/// The lock-free closed loop: N apps → SPSC rings → sharded daemon.
pub struct DaemonMultiAppLoop {
    daemon: PowerDialDaemon,
    apps: Vec<SimApp<AppHandle>>,
    quantum: u64,
}

impl DaemonMultiAppLoop {
    /// Builds the loop with `app_count` registered applications and
    /// `workers` shard threads (0 = inline on the caller), telemetry on
    /// (the production default).
    pub fn new(app_count: usize, workers: usize) -> Self {
        Self::with_telemetry(app_count, workers, true)
    }

    /// [`DaemonMultiAppLoop::new`] with the telemetry plane switchable,
    /// so the benchmark can price instrumented vs uninstrumented drains
    /// (the `telemetry` section of `BENCH_multiapp.json`).
    pub fn with_telemetry(app_count: usize, workers: usize, telemetry: bool) -> Self {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers,
            channel_capacity: CHANNEL_CAPACITY,
            telemetry,
            ..DaemonConfig::default()
        })
        .expect("valid daemon config");
        let apps = (0..app_count)
            .map(|_| SimApp {
                handle: daemon
                    .register(runtime_config(), synthetic_knob_table(SETTINGS))
                    .expect("valid runtime config"),
                now: Timestamp::ZERO,
            })
            .collect();
        DaemonMultiAppLoop {
            daemon,
            apps,
            quantum: 0,
        }
    }

    /// Runs one actuation quantum: every app emits its beats, then the
    /// daemon drains and controls. Returns beats processed this quantum.
    pub fn step(&mut self) -> u64 {
        let quantum = self.quantum;
        for (index, app) in self.apps.iter_mut().enumerate() {
            let gain = app.handle.latest_gain().unwrap_or(1.0);
            let handle = &mut app.handle;
            emit_quantum(&mut app.now, gain, index, quantum, |now| {
                handle.beat(now).is_ok()
            });
        }
        self.quantum += 1;
        self.daemon.tick()
    }

    /// Worker threads in use.
    pub fn workers(&self) -> usize {
        self.daemon.workers()
    }

    /// Total beats processed by the daemon so far.
    pub fn total_beats(&self) -> u64 {
        self.daemon.total_beats()
    }

    /// The daemon's cold-path telemetry snapshot (empty with telemetry
    /// off).
    pub fn telemetry_snapshot(&mut self) -> powerdial::control::telemetry::TelemetrySnapshot {
        self.daemon.telemetry_snapshot()
    }
}

/// One simulated shm application: its producer half, the daemon's
/// decision view, and local beat bookkeeping.
struct ShmSimApp {
    producer: ShmProducer,
    decisions: DecisionView,
    next_tag: HeartbeatTag,
    last_timestamp: Option<Timestamp>,
    now: Timestamp,
}

/// The cross-process transport under the same closed loop: N apps → mapped
/// shared-memory segments → the sharded daemon. Producer and consumer run
/// in one process here (a benchmark can't meaningfully schedule N forked
/// children), but every beat crosses a real memfd/tmpfile mapping with the
/// full protocol — so the measured delta vs [`DaemonMultiAppLoop`] is the
/// true cost of the cross-process transport.
pub struct ShmMultiAppLoop {
    daemon: PowerDialDaemon,
    apps: Vec<ShmSimApp>,
    quantum: u64,
}

impl ShmMultiAppLoop {
    /// Builds the loop with `app_count` shm-registered applications and
    /// `workers` shard threads (0 = inline on the caller).
    ///
    /// # Errors
    ///
    /// Returns the [`ShmError`] when a segment cannot be created or
    /// attached (e.g. fd exhaustion at very large `app_count`) — callers
    /// skip the shm rows rather than failing the whole benchmark.
    pub fn new(app_count: usize, workers: usize) -> Result<Self, ShmError> {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers,
            channel_capacity: CHANNEL_CAPACITY,
            ..DaemonConfig::default()
        })
        .expect("valid daemon config");
        let geometry = SegmentGeometry::for_beat_samples(CHANNEL_CAPACITY)?;
        let mut apps = Vec::with_capacity(app_count);
        for _ in 0..app_count {
            let segment = Arc::new(Segment::create(geometry)?);
            let producer = ShmProducer::attach(Arc::clone(&segment))?;
            let consumer = ShmConsumer::attach(segment)?;
            let decisions = daemon
                .register_shm(runtime_config(), synthetic_knob_table(SETTINGS), consumer)
                .expect("valid runtime config");
            apps.push(ShmSimApp {
                producer,
                decisions,
                next_tag: HeartbeatTag::default(),
                last_timestamp: None,
                now: Timestamp::ZERO,
            });
        }
        Ok(ShmMultiAppLoop {
            daemon,
            apps,
            quantum: 0,
        })
    }

    /// One actuation quantum over the shm transport.
    pub fn step(&mut self) -> u64 {
        let quantum = self.quantum;
        for (index, app) in self.apps.iter_mut().enumerate() {
            let gain = app.decisions.latest_gain().unwrap_or(1.0);
            let producer = &mut app.producer;
            let next_tag = &mut app.next_tag;
            let mut last = app.last_timestamp;
            // Same bookkeeping as `AppHandle::beat`: build the record with
            // the latency since the previous beat; tag and timestamp
            // advance even when a push is rejected.
            emit_quantum(&mut app.now, gain, index, quantum, |now| {
                let latency = match last {
                    Some(previous) => now - previous,
                    None => TimestampDelta::ZERO,
                };
                let tag = *next_tag;
                *next_tag = tag.next();
                last = Some(now);
                producer
                    .try_push(BeatSample {
                        tag,
                        timestamp: now,
                        latency,
                    })
                    .is_ok()
            });
            app.last_timestamp = last;
        }
        self.quantum += 1;
        self.daemon.tick()
    }

    /// Worker threads in use.
    pub fn workers(&self) -> usize {
        self.daemon.workers()
    }

    /// Total beats processed by the daemon so far.
    pub fn total_beats(&self) -> u64 {
        self.daemon.total_beats()
    }
}

/// An idle fleet: `app_count` registered applications that never emit a
/// beat. Ticking it measures the daemon's fixed per-quantum cost over
/// silent channels — the regime the silent-streak skip
/// (`DaemonConfig::idle_skip_limit`) targets: a consolidation host where
/// most tenants are between requests.
pub struct IdleFleetLoop {
    daemon: PowerDialDaemon,
    /// Handles kept alive so the channels stay registered (a dropped
    /// producer half would make the fleet "dead", not "idle").
    _apps: Vec<AppHandle>,
}

impl IdleFleetLoop {
    /// Builds the fleet with the given idle-skip threshold (0 = every tick
    /// polls every channel).
    pub fn new(app_count: usize, workers: usize, idle_skip_limit: u32) -> Self {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers,
            channel_capacity: CHANNEL_CAPACITY,
            idle_skip_limit,
            ..DaemonConfig::default()
        })
        .expect("valid daemon config");
        let apps = (0..app_count)
            .map(|_| {
                daemon
                    .register(runtime_config(), synthetic_knob_table(SETTINGS))
                    .expect("valid runtime config")
            })
            .collect();
        IdleFleetLoop {
            daemon,
            _apps: apps,
        }
    }

    /// One quantum over the silent fleet.
    pub fn tick(&mut self) {
        self.daemon.tick();
    }
}

/// The baseline closed loop: N apps → mutex channels → serial daemon.
pub struct NaiveMultiAppLoop {
    daemon: SerialMutexDaemon,
    apps: Vec<SimApp<NaiveAppHandle>>,
    quantum: u64,
}

impl NaiveMultiAppLoop {
    /// Builds the baseline loop with `app_count` registered applications.
    pub fn new(app_count: usize) -> Self {
        let mut daemon = SerialMutexDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: CHANNEL_CAPACITY,
            inline_apps: 0,
            ..DaemonConfig::default()
        })
        .expect("valid daemon config");
        let apps = (0..app_count)
            .map(|_| SimApp {
                handle: daemon
                    .register(runtime_config(), synthetic_knob_table(SETTINGS))
                    .expect("valid runtime config"),
                now: Timestamp::ZERO,
            })
            .collect();
        NaiveMultiAppLoop {
            daemon,
            apps,
            quantum: 0,
        }
    }

    /// One actuation quantum of the baseline loop.
    pub fn step(&mut self) -> u64 {
        let quantum = self.quantum;
        for (index, app) in self.apps.iter_mut().enumerate() {
            let gain = app.handle.latest_gain().unwrap_or(1.0);
            let handle = &mut app.handle;
            emit_quantum(&mut app.now, gain, index, quantum, |now| {
                handle.beat(now).is_ok()
            });
        }
        self.quantum += 1;
        self.daemon.tick()
    }

    /// Total beats processed by the serial daemon so far.
    pub fn total_beats(&self) -> u64 {
        self.daemon.total_beats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_loop_processes_every_emitted_beat() {
        let mut bench = DaemonMultiAppLoop::new(4, 0);
        let mut beats = 0;
        for _ in 0..50 {
            beats += bench.step();
        }
        assert_eq!(beats, 50 * 4 * BEATS_PER_QUANTUM as u64);
        assert_eq!(bench.total_beats(), beats);
        assert_eq!(bench.workers(), 0);
    }

    #[test]
    fn daemon_and_naive_loops_agree_beat_for_beat() {
        // Identical workload, identical control code: the lock-free and
        // mutex paths must process the same beats and reach the same
        // decisions.
        let mut fast = DaemonMultiAppLoop::new(3, 0);
        let mut slow = NaiveMultiAppLoop::new(3);
        for quantum in 0..100 {
            let a = fast.step();
            let b = slow.step();
            assert_eq!(a, b, "throughput diverged at quantum {quantum}");
        }
        for (fast_app, slow_app) in fast.apps.iter().zip(&slow.apps) {
            assert_eq!(
                fast_app.handle.latest_gain().unwrap().to_bits(),
                slow_app.handle.latest_gain().unwrap().to_bits()
            );
            assert_eq!(
                fast_app.handle.beats_processed(),
                slow_app.handle.beats_processed()
            );
        }
    }

    #[test]
    fn shm_and_daemon_loops_agree_beat_for_beat() {
        // Same workload, same control code, different transport: the
        // mapped-segment path must process the same beats and reach the
        // same decisions as the in-heap rings (extends the PR 2
        // equivalence suite across the process-boundary transport).
        let mut in_heap = DaemonMultiAppLoop::new(3, 0);
        let mut over_shm = ShmMultiAppLoop::new(3, 0).expect("shm backing available");
        for quantum in 0..100 {
            let a = in_heap.step();
            let b = over_shm.step();
            assert_eq!(a, b, "throughput diverged at quantum {quantum}");
        }
        for (heap_app, shm_app) in in_heap.apps.iter().zip(&over_shm.apps) {
            assert_eq!(
                heap_app.handle.latest_gain().unwrap().to_bits(),
                shm_app.decisions.latest_gain().unwrap().to_bits()
            );
            assert_eq!(
                heap_app.handle.beats_processed(),
                shm_app.decisions.beats_processed()
            );
        }
        assert_eq!(in_heap.total_beats(), over_shm.total_beats());
    }

    #[test]
    fn threaded_shm_loop_loses_nothing() {
        let mut bench = ShmMultiAppLoop::new(8, 2).expect("shm backing available");
        assert_eq!(bench.workers(), 2);
        let mut beats = 0;
        for _ in 0..25 {
            beats += bench.step();
        }
        assert_eq!(beats, 25 * 8 * BEATS_PER_QUANTUM as u64);
    }

    #[test]
    fn threaded_daemon_loop_loses_nothing() {
        let workers = 2;
        let mut bench = DaemonMultiAppLoop::new(8, workers);
        assert_eq!(bench.workers(), workers);
        let mut beats = 0;
        for _ in 0..25 {
            beats += bench.step();
        }
        assert_eq!(beats, 25 * 8 * BEATS_PER_QUANTUM as u64);
    }
}
