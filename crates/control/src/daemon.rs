//! The PowerDial daemon: one control process driving many applications.
//!
//! The paper's server-consolidation experiments run *many* instrumented
//! applications under a single PowerDial controller. This module provides
//! that multi-application runtime:
//!
//! ```text
//!  app 0 ──beat──► SPSC ring ─┐
//!  app 1 ──beat──► SPSC ring ─┤  shard 0 (worker thread) ─┐
//!  app 2 ──beat──► SPSC ring ─┼─►                         ├─► tick()
//!  app 3 ──beat──► SPSC ring ─┤  shard 1 (worker thread) ─┘
//!     ⋮                       ⋮
//! ```
//!
//! * Each registered application gets a lock-free
//!   [`powerdial_heartbeats::channel`] SPSC ring; the application side
//!   ([`AppHandle`]) pushes one `Copy` beat record per unit of work —
//!   wait-free, allocation-free, no syscalls.
//! * Applications are **sharded** across worker threads round-robin (the
//!   first [`DaemonConfig::inline_apps`] land on the caller's inline shard,
//!   so tiny fleets skip the cross-thread round trip entirely). Once per
//!   actuation quantum ([`PowerDialDaemon::tick`]) every shard drains each
//!   of its channels in one batch into a reused scratch buffer and steps
//!   the existing O(1) [`PowerDialRuntime`] through the **batched decision
//!   kernel**, so control decisions are batched per quantum exactly as the
//!   paper's actuator prescribes.
//! * Decisions flow back through a handful of per-app atomics (latest knob
//!   setting, gain, achieved speedup, expected QoS loss), read by the
//!   application without any lock.
//!
//! # The batched decision kernel
//!
//! The runtime's decide-before-observe ordering only *consumes* an
//! observed rate at a quantum boundary (`beat_in_quantum == 0`); interior
//! beats walk the already-planned per-beat schedule and ignore their
//! observation. [`DaemonShard::run_quantum`] exploits that: boundary beats
//! are stepped individually, and each maximal run of interior beats is
//! folded in one pass — [`PowerDialRuntime::advance_in_quantum`] skips the
//! schedule walk, `SlidingWindow::push_slice` folds the span's latencies.
//! The result is **bit-identical** to the per-beat walk, which lives on
//! only as a test oracle in [`naive`]: [`DaemonShard::run_quantum_with`]
//! runs the *same* guarded sweep with that per-beat kernel swapped in, and
//! [`naive::SerialMutexDaemon`] runs it serially behind mutexes. The
//! `daemon_batch_equivalence` suite pins the relationship under ragged
//! drains, idle-skip, and the drain cap.
//!
//! # Fairness: the per-quantum drain cap
//!
//! With [`DaemonConfig::drain_cap`] set, a shard drains at most that many
//! beats from one app per quantum; the rest stay in the ring for the next
//! quantum. One flooded ring therefore delays its shard-mates by a bounded
//! amount of work instead of an entire backlog. Beats are never dropped by
//! the cap — they are deferred (the ring's own backpressure still applies
//! to the producer). `0` disables the cap.
//!
//! # Idle channels: the silent-streak skip
//!
//! With [`DaemonConfig::idle_skip_limit`] set to `k`, an app whose drain
//! has come up empty `k` quanta in a row is polled only every `k + 1`
//! quanta afterwards (the skipped quanta never touch the app's transport —
//! no cache line, no shm page). The first non-empty drain resets the
//! streak. Worst-case added decision latency for a waking app is `k`
//! quanta; `0` (the default) disables skipping, which is the right call
//! whenever bounded reaction latency matters more than idle cost (e.g. the
//! chaos harness's recovery-latency assertions).
//!
//! # The spin→yield→park ladder
//!
//! Driver loops that tick continuously (the supervisor's serve loop, a
//! dedicated daemon process) burn a core even when every channel is idle.
//! [`IdleLadder`] encodes the standard escalation: a few empty iterations
//! **spin** (lowest wake latency), further emptiness **yields** the core,
//! and a persistently idle daemon **parks** in bounded, exponentially
//! growing sleeps (capped at 1 ms so a waking fleet is never more than a
//! millisecond away). Any work resets the ladder to spinning.
//!
//! The per-quantum drain loop ([`DaemonShard::run_quantum`]) is
//! steady-state allocation-free — the `no_alloc` integration test steps a
//! shard under a counting allocator to prove it — and a shard whose
//! scratch buffer was grown by a flood shrinks it back on an amortized
//! cold path (every [`SHRINK_EPOCH_QUANTA`] quanta) once the flood
//! subsides. There is one guarded sweep per shard; the only thing
//! [`DaemonShard::run_quantum_with`] changes is the decision kernel it
//! runs. The serial, mutex-guarded baseline the benchmarks compare
//! against is [`naive::SerialMutexDaemon`].
//!
//! With `workers: 0` the daemon runs **inline**: no threads are spawned and
//! [`PowerDialDaemon::tick`] processes every shard on the calling thread.
//! This mode is deterministic (used by the consolidation experiments and
//! the equivalence tests); threaded mode has the same per-app semantics but
//! interleaves beat arrival with draining.
//!
//! # Fault containment and self-healing
//!
//! The daemon extends the paper's "keep applications responsive while the
//! environment misbehaves" guarantee to its own tenants. Faults are
//! contained at two nested perimeters, each with an explicit state
//! machine:
//!
//! ```text
//!  app:    Healthy ──panic / poisoned window──► Quarantined ──reap──► Evicted
//!            │  ▲                                   │
//!            │  └──── (never: quarantine is         └─ channel parked,
//!            │         one-way until eviction)         safe-state published
//!            ▼
//!          served every quantum
//!
//!  shard:  Live ──panic escaping containment / injected kill──► Dead
//!            ▲                                                    │
//!            └──────── respawn_dead(): fresh thread, ◄────────────┘
//!                      surviving slots migrated intact
//!                      (state: Respawned ≡ Live)
//! ```
//!
//! * **Per-app isolation.** Each app's per-quantum drain+decision step
//!   runs under a [`std::panic::catch_unwind`] guard (one guard per fleet
//!   *sweep*, with a cursor naming the slot mid-step, so blame stays
//!   per-app while the hot path stays batched and pays no per-slot
//!   landing pad). A panic, or a typed
//!   [`powerdial_heartbeats::WindowOverflow`] from a poisoned latency
//!   stream, blames exactly one app: it transitions to
//!   [`QuarantineReason`]-typed quarantine — its channel is parked (never
//!   drained or stepped again), its decision block publishes the
//!   configured safe state ([`DaemonConfig::safe_point`]) so the client
//!   ladder degrades cleanly, and the shard keeps serving its neighbors
//!   in the same quantum. Quarantine is one-way: the slot stays parked
//!   until [`PowerDialDaemon::unregister`]/[`PowerDialDaemon::reap_dead`]
//!   evicts it (a reaper treats a quarantined app's undrained backlog as
//!   forfeit — it would never be processed anyway).
//! * **Shard resurrection.** When a worker thread does die (a panic
//!   escaping containment, an injected kill), the facade marks the shard
//!   dead — [`PowerDialDaemon::try_tick`] surfaces the death once as
//!   [`ControlError::ShardDead`], registration routes around the corpse —
//!   and [`PowerDialDaemon::respawn_dead`] resurrects it: the worker's
//!   shard state is recovered through the poisoned mutex, the slot that
//!   was mid-step (if any) is quarantined, and a fresh thread is spawned
//!   *at the same shard index* with every surviving app's
//!   `AppShared`/segment binding migrated intact — runtimes, windows, and
//!   undrained transports included, so decisions resume bit-identically
//!   and no beat is lost beyond channel capacity. (The PR 6 shm
//!   warm-start block stays current throughout and remains the recovery
//!   path for *daemon-process* death, where in-heap state cannot
//!   survive.) Incidents are counted on the facade and traced as
//!   `shard_dead`/`shard_respawned`/`migrated` records.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use powerdial_heartbeats::channel::{beat_channel, BeatConsumer, BeatSample, BeatTransport};
use powerdial_heartbeats::shm::{
    DecisionRead, ShmConsumer, ShmDecision, ShmPeerProbe, ShmWarmState, WarmRead,
};
use powerdial_heartbeats::telemetry::{
    DecisionTraceRecord, DecisionTraceRing, LatencyHistogram, TraceReason,
};
use powerdial_heartbeats::{BeatProducer, HeartbeatTag, SlidingWindow, Timestamp, WindowOverflow};
use powerdial_knobs::{KnobTable, PointIdx};

use crate::error::ControlError;
use crate::runtime::{IndexedDecision, PowerDialRuntime, RuntimeConfig};
use crate::telemetry::{
    AppTelemetryReport, IncidentCounts, ShardTelemetry, TelemetrySnapshot, QOS_PPM_SCALE,
};

/// Identifier of an application registered with a [`PowerDialDaemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(u64);

impl AppId {
    /// Returns the raw identifier value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (for the telemetry tests).
    #[cfg(test)]
    pub(crate) const fn from_raw(value: u64) -> Self {
        AppId(value)
    }
}

/// Configuration of a [`PowerDialDaemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Worker threads to shard applications across. `0` runs the daemon
    /// inline: ticks process every shard on the calling thread.
    pub workers: usize,
    /// Capacity, in beat records, of each application's SPSC channel.
    /// Should comfortably exceed the number of beats an application emits
    /// per actuation quantum; beats beyond it are rejected (backpressure).
    pub channel_capacity: usize,
    /// Sliding-window size, in heartbeats, for the daemon-side rate
    /// estimate fed to each application's controller (the paper uses 20).
    pub window_size: usize,
    /// In threaded mode, the first `inline_apps` registered applications
    /// are placed on the caller's inline shard instead of a worker, so a
    /// small fleet pays zero cross-thread round trips per tick. Decisions
    /// are placement-independent (the shards run identical control code);
    /// only which thread does the work changes. Ignored in inline mode
    /// (`workers: 0`), where everything is inline anyway.
    pub inline_apps: usize,
    /// Silent-streak threshold for skipping idle channels: after this many
    /// consecutive empty drains an app is polled only every
    /// `idle_skip_limit + 1` quanta (worst-case added decision latency for
    /// a waking app: `idle_skip_limit` quanta). `0` disables skipping.
    pub idle_skip_limit: u32,
    /// Maximum beats drained from one app per quantum (the fairness cap);
    /// excess beats stay queued for the next quantum. `0` means uncapped.
    pub drain_cap: usize,
    /// Telemetry instrumentation (on by default): per-app beat-latency
    /// and QoS-loss histograms recorded on the drain path (allocation-
    /// free; see [`powerdial_heartbeats::telemetry`]) plus a per-shard
    /// decision trace of [`TRACE_CAPACITY`] records, exported off the
    /// drain path by [`PowerDialDaemon::telemetry_snapshot`]. Off, every
    /// shard — inline, worker, or respawned worker — keeps no histograms
    /// and no trace, and the snapshot reports no apps and no records.
    /// Disable only when the last few ns/beat matter more than
    /// observability.
    pub telemetry: bool,
    /// Knob-table point index published for a quarantined application —
    /// the configured safe state its clients degrade to. The default `0`
    /// is the baseline (speedup 1.0, zero QoS loss) point of every table
    /// the calibrator emits; an out-of-range index is clamped to the
    /// app's table at quarantine time.
    pub safe_point: u32,
}

impl DaemonConfig {
    /// Default channel capacity: several quanta of the paper's default
    /// 20-beat quantum.
    pub const DEFAULT_CHANNEL_CAPACITY: usize = 256;

    /// Default [`DaemonConfig::inline_apps`]: fleets up to this size never
    /// pay a cross-thread round trip per tick.
    pub const DEFAULT_INLINE_APPS: usize = 4;

    /// Validates the configuration.
    fn validate(&self) -> Result<(), ControlError> {
        if self.channel_capacity == 0 {
            return Err(ControlError::ZeroChannelCapacity);
        }
        if self.window_size == 0 {
            return Err(ControlError::ZeroWindowSize);
        }
        Ok(())
    }
}

impl Default for DaemonConfig {
    /// One worker per available core (capped at 8 — the per-quantum work is
    /// memory-bound well before that), default channel capacity, and the
    /// paper's 20-beat window.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        DaemonConfig {
            workers,
            channel_capacity: DaemonConfig::DEFAULT_CHANNEL_CAPACITY,
            window_size: 20,
            inline_apps: DaemonConfig::DEFAULT_INLINE_APPS,
            idle_skip_limit: 0,
            drain_cap: 0,
            telemetry: true,
            safe_point: 0,
        }
    }
}

/// Capacity, in records, of each shard's decision trace when
/// [`DaemonConfig::telemetry`] is on: a few dozen quanta of history per
/// shard at fleet scale, a few KiB of fixed storage.
pub const TRACE_CAPACITY: usize = 256;

/// Why an application was quarantined (the typed `Quarantined { reason }`
/// state of the fault-containment machine — see the module docs).
///
/// Readable lock-free from the app side via
/// [`DecisionView::quarantine_reason`] (an [`AppHandle`] derefs to its view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// A panic unwound out of the app's drain+decision step and was
    /// caught by the per-app containment guard.
    Panic,
    /// The app's latency stream overflowed its sliding window's summed
    /// nanoseconds ([`powerdial_heartbeats::WindowOverflow`]) — a poison
    /// producer, not an organic workload.
    WindowOverflow,
}

impl QuarantineReason {
    /// Stable lowercase name (used in diagnostics).
    pub const fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::Panic => "panic",
            QuarantineReason::WindowOverflow => "window_overflow",
        }
    }

    /// Encoding stored in the shared atomic (0 = healthy).
    const fn code(self) -> u64 {
        match self {
            QuarantineReason::Panic => 1,
            QuarantineReason::WindowOverflow => 2,
        }
    }

    const fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(QuarantineReason::Panic),
            2 => Some(QuarantineReason::WindowOverflow),
            _ => None,
        }
    }
}

/// Decision state shared between a daemon shard and an [`AppHandle`],
/// published through atomics so neither side ever blocks the other.
#[derive(Debug, Default)]
struct AppShared {
    /// `(decision_count << 32) | point_idx`. A single atomic so the "is
    /// there a decision yet" flag and the setting index can never tear;
    /// the count wraps at 2³² (it only signals freshness/presence).
    decision: AtomicU64,
    /// Bit pattern of the latest decision's knob gain (f64).
    gain_bits: AtomicU64,
    /// Bit pattern of the latest quantum's achieved speedup (f64).
    achieved_speedup_bits: AtomicU64,
    /// Bit pattern of the latest quantum's expected QoS loss (f64).
    qos_loss_bits: AtomicU64,
    /// Total beats the daemon has processed for this application.
    beats_processed: AtomicU64,
    /// [`QuarantineReason::code`] once the app is quarantined (0 =
    /// healthy). Written exactly once, by the owning shard.
    quarantined: AtomicU64,
}

impl AppShared {
    /// The published decision words, in the shm decision block's layout.
    fn published(&self) -> ShmDecision {
        ShmDecision {
            point_idx: self.decision.load(Ordering::Acquire) as u32,
            gain_bits: self.gain_bits.load(Ordering::Acquire),
            achieved_speedup_bits: self.achieved_speedup_bits.load(Ordering::Acquire),
            qos_loss_bits: self.qos_loss_bits.load(Ordering::Acquire),
        }
    }
}

/// A read-only view of the daemon's latest control decision for one
/// application: the one reader of the decision atomics.
///
/// Every registration hands one out — [`AppHandle`] derefs to its view,
/// and shm-registered applications ([`PowerDialDaemon::register_shm`]),
/// whose beat *producer* lives in another process, get the view alone —
/// so in-process observers (experiment drivers, benchmarks, equivalence
/// tests) read decisions the same way for either transport. All reads
/// are lock-free atomic loads.
#[derive(Debug, Clone)]
pub struct DecisionView {
    id: AppId,
    shared: Arc<AppShared>,
}

impl DecisionView {
    /// The application's daemon-assigned identifier.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// Index (into the app's knob table) of the latest decided setting, or
    /// `None` before the daemon has processed any beat.
    pub fn latest_point(&self) -> Option<PointIdx> {
        let packed = self.shared.decision.load(Ordering::Acquire);
        if packed >> 32 == 0 {
            None
        } else {
            Some(PointIdx::new(packed as u32))
        }
    }

    /// The latest decided knob gain (instantaneous speedup), or `None`
    /// before the first decision.
    pub fn latest_gain(&self) -> Option<f64> {
        self.latest_point()
            .map(|_| f64::from_bits(self.shared.gain_bits.load(Ordering::Acquire)))
    }

    /// The achieved (time-averaged) speedup of the most recent quantum the
    /// daemon planned for this app, or `None` before the first decision.
    pub fn achieved_speedup(&self) -> Option<f64> {
        self.latest_point()
            .map(|_| f64::from_bits(self.shared.achieved_speedup_bits.load(Ordering::Acquire)))
    }

    /// The expected QoS loss of the most recent planned quantum, or `None`
    /// before the first decision.
    pub fn expected_qos_loss(&self) -> Option<f64> {
        self.latest_point()
            .map(|_| f64::from_bits(self.shared.qos_loss_bits.load(Ordering::Acquire)))
    }

    /// Total beats the daemon has processed for this application.
    pub fn beats_processed(&self) -> u64 {
        self.shared.beats_processed.load(Ordering::Acquire)
    }

    /// Why this application was quarantined, or `None` while it is
    /// healthy. Once `Some`, the decision accessors serve the configured
    /// safe state and no further beats will ever be processed.
    pub fn quarantine_reason(&self) -> Option<QuarantineReason> {
        QuarantineReason::from_code(self.shared.quarantined.load(Ordering::Acquire))
    }
}

/// The application side of a daemon registration: push beats in, read the
/// latest control decision out (through the [`DecisionView`] it derefs
/// to). Both directions are lock-free.
///
/// The handle is `Send` but not `Sync`/`Clone` — it owns the single
/// producer half of the app's SPSC channel, so exactly one thread emits
/// beats (move the handle to hand it off).
#[derive(Debug)]
pub struct AppHandle {
    view: DecisionView,
    producer: BeatProducer,
    next_tag: HeartbeatTag,
    last_timestamp: Option<Timestamp>,
}

impl std::ops::Deref for AppHandle {
    type Target = DecisionView;

    fn deref(&self) -> &DecisionView {
        &self.view
    }
}

impl AppHandle {
    /// The application's daemon-assigned identifier.
    pub fn id(&self) -> AppId {
        self.view.id
    }

    /// Emits one heartbeat at `now`: builds the beat record (sequence tag
    /// and latency since the previous beat) and pushes it onto the
    /// channel. Wait-free and allocation-free.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when the channel is full. The beat
    /// still counts for latency bookkeeping (the next accepted beat's
    /// latency spans the gap), so a drop degrades the rate estimate
    /// smoothly instead of corrupting it.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous beat.
    pub fn beat(&mut self, now: Timestamp) -> Result<(), BeatSample> {
        let latency = match self.last_timestamp {
            Some(last) => now - last,
            None => powerdial_heartbeats::TimestampDelta::ZERO,
        };
        let sample = BeatSample {
            tag: self.next_tag,
            timestamp: now,
            latency,
        };
        self.next_tag = self.next_tag.next();
        self.last_timestamp = Some(now);
        self.producer.try_push(sample)
    }

    /// Pushes an already-built beat record (e.g. one derived from a
    /// [`powerdial_heartbeats::HeartbeatRecord`] via
    /// [`BeatSample::from_record`]) without touching the handle's own
    /// tag/timestamp bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when the channel is full.
    pub fn push_sample(&mut self, sample: BeatSample) -> Result<(), BeatSample> {
        self.producer.try_push(sample)
    }

    /// Beats rejected by the channel so far (backpressure).
    pub fn beats_rejected(&self) -> u64 {
        self.producer.rejected()
    }

    /// A standalone view of this app's decision state (what
    /// [`PowerDialDaemon::register_shm`] returns for cross-process apps).
    pub fn decision_view(&self) -> DecisionView {
        self.view.clone()
    }
}

/// A beat source a daemon shard drains: the seam over which the in-heap
/// SPSC ring and the cross-process shared-memory segment are
/// interchangeable. The control code downstream of a drain is identical —
/// where the bytes lived is invisible to it.
#[derive(Debug)]
enum BeatSource {
    /// In-heap lock-free SPSC ring ([`powerdial_heartbeats::channel`]).
    Channel(BeatConsumer),
    /// Cross-process shared-memory segment
    /// ([`powerdial_heartbeats::shm`]).
    Shm(ShmConsumer),
}

impl BeatSource {
    /// The transport behind this source, as the
    /// [`BeatTransport`] seam both variants implement.
    fn transport(&mut self) -> &mut dyn BeatTransport {
        match self {
            BeatSource::Channel(consumer) => consumer,
            BeatSource::Shm(consumer) => consumer,
        }
    }

    fn drain_into_capped(&mut self, out: &mut Vec<BeatSample>, cap: usize) -> usize {
        self.transport().drain_into_capped(out, cap)
    }
}

/// Daemon-side control state for one application: the O(1) runtime, the
/// daemon's own sliding-window rate estimate, and the shared decision
/// atomics. Separated from the channel so the lock-free shard and the
/// mutex-guarded baseline run *identical* control code.
#[derive(Debug)]
struct ControlState {
    runtime: PowerDialRuntime,
    window: SlidingWindow,
    shared: Arc<AppShared>,
    decisions: u64,
    /// Observed rate inherited from a crashed predecessor daemon's
    /// warm-start block. Primes the decide-before-observe step only while
    /// this daemon's own window is still empty (the window never empties
    /// once a sample lands, so the seed naturally expires); without it the
    /// first post-adoption quantum would skip its controller update and the
    /// integrator would diverge from an uninterrupted run forever.
    seed_rate: Option<f64>,
}

/// The decision kernels are the daemon's per-beat hot path: implicit
/// overflow semantics are banned here (clippy `arithmetic_side_effects`);
/// every index/counter op is an explicit `wrapping_*` with its bound
/// argued in place.
#[deny(clippy::arithmetic_side_effects)]
impl ControlState {
    /// The batched decision kernel, counterpart of the per-beat oracle
    /// `ControlState::process_drained` in [`naive`]:
    /// boundary beats (where the runtime consumes an observation and
    /// replans) are stepped individually, and every maximal run of
    /// interior beats is folded in one pass —
    /// [`PowerDialRuntime::advance_in_quantum`] advances the schedule
    /// walk, [`SlidingWindow::push_slice`] folds the latencies. Interior
    /// beats never consult the window's rate, because the per-beat path
    /// computes and then *ignores* it for them; skipping the computation
    /// is therefore exact, and the published decision sequence is
    /// bit-identical to the per-beat path's (pinned by the
    /// `daemon_batch_equivalence` suite).
    ///
    /// `lat_scratch` is the caller's reused latency buffer (grows to at
    /// most one drain's worth of beats; steady-state allocation-free).
    ///
    /// # Errors
    ///
    /// [`WindowOverflow`] under the same poisoned-stream condition as
    /// the per-beat oracle — the overflow is only *observed*
    /// at a boundary beat's rate read, so the batched and per-beat paths
    /// blame the same drain (both quarantine within the quantum that
    /// drained the poison).
    fn process_drained_batched(
        &mut self,
        samples: &[BeatSample],
        lat_scratch: &mut Vec<powerdial_heartbeats::TimestampDelta>,
    ) -> Result<u64, WindowOverflow> {
        if samples.is_empty() {
            return Ok(0);
        }
        let quantum = self.runtime.quantum_heartbeats();
        let mut last = None;
        let mut i = 0usize;
        while i < samples.len() {
            let beat_in_quantum = self.runtime.beat_in_quantum();
            if beat_in_quantum == 0 {
                // Boundary beat: decide before observing, exactly as the
                // per-beat path does.
                let observed = self
                    .window
                    .rate()?
                    .map(|r| r.beats_per_second())
                    .or(self.seed_rate);
                let decision = self.runtime.on_heartbeat_idx(observed);
                if samples[i].tag.value() != 0 {
                    self.window.push(samples[i].latency);
                }
                last = Some(decision);
                // `i < samples.len()` (loop guard), so the increment
                // cannot wrap.
                i = i.wrapping_add(1);
            } else {
                // Interior span: everything up to the next boundary (or the
                // end of the drain), folded in one step. The runtime keeps
                // `beat_in_quantum < quantum`, and `i < samples.len()` by
                // the loop guard, so neither subtraction underflows.
                let span = (quantum.wrapping_sub(beat_in_quantum) as usize)
                    .min(samples.len().wrapping_sub(i));
                let decision = self.runtime.advance_in_quantum(span as u32);
                lat_scratch.clear();
                lat_scratch.extend(
                    samples[i..i.wrapping_add(span)]
                        .iter()
                        .filter(|s| s.tag.value() != 0)
                        .map(|s| s.latency),
                );
                self.window.push_slice(lat_scratch);
                last = Some(decision);
                i = i.wrapping_add(span);
            }
        }
        let decision = last.expect("non-empty batch");
        self.publish_batch(decision, samples.len());
        Ok(samples.len() as u64)
    }

    /// Publication tail shared by the per-beat and batched kernels: store
    /// the batch's final decision and the current schedule's aggregates
    /// into the shared atomics.
    fn publish_batch(&mut self, decision: IndexedDecision, batch_len: usize) {
        let schedule = self
            .runtime
            .current_schedule()
            .expect("schedule exists after stepping");
        let published = ShmDecision {
            point_idx: decision.point_idx.as_usize() as u32,
            gain_bits: decision.gain.to_bits(),
            achieved_speedup_bits: schedule.achieved_speedup.to_bits(),
            qos_loss_bits: schedule.expected_qos_loss(self.runtime.table()).to_bits(),
        };
        self.publish(published);
        self.shared
            .beats_processed
            .fetch_add(batch_len as u64, Ordering::AcqRel);
    }

    /// The one writer of the app's published decision: stores the value
    /// words, then the packed word `(seq & 0xFFFF_FFFF) << 32 | point`
    /// under a fresh sequence number, which is what makes them fresh. The
    /// sequence only signals presence/freshness, so the masked value 0
    /// (which reads as "no decision yet") is skipped on wraparound and
    /// `latest_point` stays `Some`.
    fn publish(&mut self, decision: ShmDecision) {
        let shared = &self.shared;
        shared
            .gain_bits
            .store(decision.gain_bits, Ordering::Release);
        shared
            .achieved_speedup_bits
            .store(decision.achieved_speedup_bits, Ordering::Release);
        shared
            .qos_loss_bits
            .store(decision.qos_loss_bits, Ordering::Release);
        self.decisions = self.decisions.wrapping_add(1);
        if self.decisions & 0xFFFF_FFFF == 0 {
            self.decisions = self.decisions.wrapping_add(1);
        }
        shared.decision.store(
            (self.decisions & 0xFFFF_FFFF) << 32 | u64::from(decision.point_idx),
            Ordering::Release,
        );
    }
}

/// The decision that serves table point `point` verbatim: gain and
/// achieved speedup are the point's speedup, QoS loss is the point's.
fn table_decision(table: &KnobTable, point: PointIdx) -> ShmDecision {
    let speedup = table.speedup_of(point).to_bits();
    ShmDecision {
        point_idx: point.as_usize() as u32,
        gain_bits: speedup,
        achieved_speedup_bits: speedup,
        qos_loss_bits: table.point(point).qos_loss.value().to_bits(),
    }
}

/// A decision-trace record of `app`'s `decision`.
fn trace_record(
    app: AppId,
    timestamp: Timestamp,
    reason: TraceReason,
    decision: ShmDecision,
) -> DecisionTraceRecord {
    DecisionTraceRecord {
        seq: 0,
        timestamp,
        app: app.value(),
        point_idx: decision.point_idx,
        reason,
        gain: f64::from_bits(decision.gain_bits),
        achieved_speedup: f64::from_bits(decision.achieved_speedup_bits),
        qos_loss: f64::from_bits(decision.qos_loss_bits),
    }
}

/// Per-app hot-path telemetry: the two fixed-footprint histograms the
/// drain loop records into, boxed so an `AppSlot` stays small for the
/// shard's slot-scan locality (the box is one pointer; the histograms
/// are ~8 KiB that only the owning app's drain touches).
#[derive(Debug)]
struct SlotTelemetry {
    /// Per-beat latency distribution, nanoseconds.
    beat_latency_ns: LatencyHistogram,
    /// Per-quantum expected QoS loss, parts per million.
    qos_loss_ppm: LatencyHistogram,
    /// Timestamp of the last beat folded into a decision (stamps the
    /// trace record of a reap/unregister, which has no beat of its own).
    last_beat: Timestamp,
    /// Set for an adopted app until its first processed quantum, whose
    /// trace record is tagged [`TraceReason::WarmStart`].
    warm_start_pending: bool,
}

impl SlotTelemetry {
    fn new(warm_start_pending: bool) -> Box<SlotTelemetry> {
        Box::new(SlotTelemetry {
            beat_latency_ns: LatencyHistogram::new(),
            qos_loss_ppm: LatencyHistogram::new(),
            last_beat: Timestamp::from_nanos(0),
            warm_start_pending,
        })
    }

    /// Warms the histogram cache lines `record_telemetry` will touch.
    /// At fleet scale the per-app histograms exceed L2, so the drain
    /// loop issues this right after draining — the decision kernel's
    /// work then overlaps the line fills instead of the record path
    /// stalling on them.
    #[inline]
    fn prefetch(&self) {
        self.beat_latency_ns.prefetch();
        self.qos_loss_ppm.prefetch();
    }
}

/// One application owned by a shard: its beat source plus control state.
#[derive(Debug)]
struct AppSlot {
    id: AppId,
    consumer: BeatSource,
    control: ControlState,
    /// Consecutive quanta whose drain came up empty (the silent streak).
    silent_streak: u32,
    /// Quanta left to skip before the next poll of an idle app.
    skip_countdown: u32,
    /// Hot-path metric state; `None` when telemetry is disabled.
    telemetry: Option<Box<SlotTelemetry>>,
    /// `Some` once the app is quarantined: the slot is parked (its
    /// transport is never drained and its runtime never stepped again)
    /// until eviction. One-way — see the module's containment diagram.
    quarantined: Option<QuarantineReason>,
    /// Fault-injection hook ([`PowerDialDaemon::inject_app_panic`] /
    /// [`DaemonShard::arm_panic`]): the next processing step panics
    /// inside the containment guard.
    panic_armed: bool,
}

/// Quanta per scratch-shrink epoch: the amortization period of the
/// cold-path check that returns flood-grown scratch capacity to the
/// steady-state working set.
pub const SHRINK_EPOCH_QUANTA: u32 = 64;

/// Floor below which scratch capacity is never shrunk (pointless churn).
const SHRINK_FLOOR: usize = 64;

/// A shard of the daemon: the set of applications one worker owns, plus
/// the scratch buffers their channels drain into.
///
/// Exposed publicly so tests and benchmarks can drive the exact per-quantum
/// drain loop the worker threads run — on the calling thread, under a
/// counting allocator, or single-stepped for equivalence checks.
#[derive(Debug, Default)]
pub struct DaemonShard {
    apps: Vec<AppSlot>,
    scratch: Vec<BeatSample>,
    /// Latency buffer of the batched kernel (one interior span at a time).
    lat_scratch: Vec<powerdial_heartbeats::TimestampDelta>,
    /// Silent-streak threshold for skipping idle apps (0 = disabled).
    idle_skip_limit: u32,
    /// Per-app, per-quantum drain cap (0 = uncapped).
    drain_cap: usize,
    /// Largest single drain observed in the current shrink epoch.
    epoch_peak: usize,
    /// Quanta run in the current shrink epoch.
    epoch_quanta: u32,
    /// Decision trace of this shard's apps (capacity 0 = disabled).
    trace: DecisionTraceRing,
    /// Knob-table point published for quarantined apps (see
    /// [`DaemonConfig::safe_point`]); clamped to each app's table at
    /// quarantine time.
    safe_point: u32,
    /// The app whose drain+decision step is currently executing, recorded
    /// before the containment guard runs it. A panic *inside* the guard
    /// quarantines the app and clears this; a panic that somehow escapes
    /// (or an injected worker crash) leaves it set, so the façade's
    /// resurrection path can blame exactly one app when it recovers the
    /// shard from the dead worker.
    in_flight: Option<u64>,
}

impl DaemonShard {
    /// Creates an empty shard tuned by `config`: its idle-skip threshold,
    /// drain cap and quarantine safe point, plus a decision trace of
    /// [`TRACE_CAPACITY`] records when telemetry is on (none when off).
    /// The inline shard, every worker shard and every respawned worker
    /// are built here.
    pub fn from_config(config: &DaemonConfig) -> Self {
        let trace_capacity = if config.telemetry { TRACE_CAPACITY } else { 0 };
        DaemonShard {
            idle_skip_limit: config.idle_skip_limit,
            drain_cap: config.drain_cap,
            trace: DecisionTraceRing::with_capacity(trace_capacity),
            safe_point: config.safe_point,
            ..DaemonShard::default()
        }
    }

    /// Current capacity of the shard's drain scratch buffer, in beat
    /// records — observable so tests can pin the flood-then-shrink
    /// behavior.
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Number of applications this shard owns.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when the shard owns no applications.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    fn push_slot(&mut self, slot: AppSlot) {
        self.apps.push(slot);
    }

    fn remove(&mut self, id: AppId) -> bool {
        match self.apps.iter().position(|slot| slot.id == id) {
            Some(index) => {
                let slot = self.apps.swap_remove(index);
                // A reaped/unregistered shm app's decision and warm-start
                // blocks are reset before the daemon lets go of the
                // mapping, so the segment's next tenant starts from
                // `Empty` — neither a previous app's stale knob setting
                // nor its controller trajectory leaks into a reuse.
                if let BeatSource::Shm(consumer) = &slot.consumer {
                    consumer.reset_decision();
                    consumer.reset_warm_state();
                }
                if let Some(telemetry) = &slot.telemetry {
                    self.trace.push(trace_record(
                        slot.id,
                        telemetry.last_beat,
                        TraceReason::SafeReset,
                        slot.control.shared.published(),
                    ));
                }
                true
            }
            None => false,
        }
    }

    /// Resets an app's idle-skip bookkeeping so the next quantum polls
    /// its transport unconditionally. Used by the reaper when a skipped
    /// slot's producer died with beats still pending — the countdown
    /// must not delay draining (and thus reaping) the corpse.
    fn wake(&mut self, id: AppId) {
        if let Some(slot) = self.apps.iter_mut().find(|slot| slot.id == id) {
            slot.silent_streak = 0;
            slot.skip_countdown = 0;
        }
    }

    /// Arms the explicit fault-injection hook: `id`'s next processing
    /// step panics *inside* the containment guard, exercising the
    /// quarantine path end to end. Test-only by convention — production
    /// code has no reason to call it. Returns `false` when the shard does
    /// not own `id`.
    pub fn arm_panic(&mut self, id: AppId) -> bool {
        match self.apps.iter_mut().find(|slot| slot.id == id) {
            Some(slot) => {
                slot.panic_armed = true;
                true
            }
            None => false,
        }
    }

    /// Parks a faulty app: records the blame, publishes the configured
    /// safe-state so the app (and, for shm apps, its client-side ladder)
    /// lands on a known-good knob setting instead of whatever the fault
    /// left behind, and resets the shm warm-start block so a successor
    /// daemon cold-starts this app rather than warm-starting from
    /// possibly-poisoned controller state. One-way: the slot is skipped by
    /// every subsequent quantum until it is evicted (unregister/reap).
    ///
    /// Runs *outside* the containment guard on state the guard protects
    /// (shared atomics, the knob table, the segment's seqlocked blocks) —
    /// all of which stay structurally valid across an unwind out of the
    /// control kernels.
    fn quarantine_slot(
        slot: &mut AppSlot,
        safe_point: u32,
        trace: &mut DecisionTraceRing,
        reason: QuarantineReason,
    ) {
        slot.quarantined = Some(reason);
        let table = slot.control.runtime.table();
        let point = PointIdx::new(safe_point.min(table.len().saturating_sub(1) as u32));
        let safe = table_decision(table, point);
        // Publish through the same packed-sequence word as a healthy
        // decision so `latest_point` observers see a *fresh* safe decision
        // rather than the fault's leftovers.
        slot.control.publish(safe);
        slot.control
            .shared
            .quarantined
            .store(reason.code(), Ordering::Release);
        if let BeatSource::Shm(consumer) = &slot.consumer {
            // The client reads a *published* safe decision (its ladder
            // serves it as `Published`, not a fallback) within its next
            // decision poll.
            consumer.publish_decision(safe);
            consumer.reset_warm_state();
        }
        let timestamp = slot
            .telemetry
            .as_deref()
            .map_or(Timestamp::from_nanos(0), |t| t.last_beat);
        trace.push(trace_record(
            slot.id,
            timestamp,
            TraceReason::Quarantined,
            safe,
        ));
    }

    /// Drains one app's transport, honoring the idle-skip streak and the
    /// drain cap, and returns the beats drained. The sweep has already
    /// skipped a slot whose countdown is running, so a slot deep in a
    /// silent streak arrives here only to be polled and re-arm the
    /// countdown.
    fn drain_slot(
        slot: &mut AppSlot,
        scratch: &mut Vec<BeatSample>,
        idle_skip_limit: u32,
        drain_cap: usize,
    ) -> usize {
        if idle_skip_limit > 0 && slot.silent_streak >= idle_skip_limit {
            slot.skip_countdown = idle_skip_limit;
        }
        let cap = if drain_cap == 0 {
            usize::MAX
        } else {
            drain_cap
        };
        let drained = slot.consumer.drain_into_capped(scratch, cap);
        if drained == 0 {
            slot.silent_streak = slot.silent_streak.saturating_add(1);
        } else {
            slot.silent_streak = 0;
            slot.skip_countdown = 0;
        }
        drained
    }

    /// Amortized cold-path scratch maintenance: once per
    /// [`SHRINK_EPOCH_QUANTA`] quanta, if the scratch capacity exceeds
    /// four times the epoch's largest drain, shrink it to twice that peak.
    /// In steady state the capacity tracks the working set and the check
    /// never fires (`shrink_to` counts as a realloc, and the `no_alloc`
    /// suites must stay green); after a flood subsides, one epoch later
    /// the burst-sized buffer is returned.
    fn maintain_scratch(&mut self, quantum_peak: usize) {
        self.epoch_peak = self.epoch_peak.max(quantum_peak);
        self.epoch_quanta += 1;
        if self.epoch_quanta < SHRINK_EPOCH_QUANTA {
            return;
        }
        let watermark = self.epoch_peak.max(SHRINK_FLOOR) * 2;
        if self.scratch.capacity() > watermark * 2 {
            self.scratch.shrink_to(watermark);
        }
        if self.lat_scratch.capacity() > watermark * 2 {
            self.lat_scratch.shrink_to(watermark);
        }
        self.epoch_peak = 0;
        self.epoch_quanta = 0;
    }

    /// Runs one actuation quantum: drains every app's channel in one batch
    /// (at most [`DaemonConfig::drain_cap`] beats, skipping apps deep in a
    /// silent streak) and steps its controller through the batched
    /// decision kernel. Returns the total beats processed. Steady-state
    /// allocation-free: the scratch buffers and every runtime's planning
    /// buffer are reused in place.
    ///
    /// **Fault containment.** The sweep over the fleet runs under a
    /// `catch_unwind` guard — one guard per *sweep*, not per app, so at
    /// fleet scale the landing-pad setup amortizes to nothing and the
    /// only per-slot cost is keeping the sweep cursor current. A panic
    /// (or a poisoned latency stream overflowing the rate window) blames
    /// exactly one app — the cursor names the slot that was mid-step
    /// when the guard tripped — that app is
    /// [quarantined](PowerDialDaemon::quarantine_reason) and the sweep
    /// *resumes with its neighbor*, so every other app in the same
    /// quantum keeps being served; their decision sequences are
    /// bit-identical to a no-fault run, because the faulty slot's step
    /// shares no control state with its neighbors (the scratch buffers
    /// are refilled per slot).
    pub fn run_quantum(&mut self) -> u64 {
        self.sweep(|control, _, samples, lat_scratch| {
            control.process_drained_batched(samples, lat_scratch)
        })
    }

    /// The per-beat reference run of the same sweep: identical drains
    /// (idle-skip, drain cap), containment and publication as
    /// [`DaemonShard::run_quantum`], but the decision kernel is the
    /// per-beat oracle of [`naive`], so every beat steps the runtime
    /// individually and `on_decision` sees every per-beat decision (tests
    /// and diagnostics; the callback runs on the shard's thread). The
    /// batched kernel is property-tested against this path.
    pub fn run_quantum_with(
        &mut self,
        on_decision: &mut impl FnMut(AppId, IndexedDecision),
    ) -> u64 {
        self.sweep(|control, id, samples, _| control.process_drained(id, samples, on_decision))
    }

    /// The one guarded sweep behind both quantum entry points: drain each
    /// live slot, run `kernel` on the drained beats, then publish to shm
    /// and record telemetry — all under one `catch_unwind` per sweep, with
    /// the blame cursor and quarantine described on
    /// [`DaemonShard::run_quantum`].
    fn sweep(
        &mut self,
        mut kernel: impl FnMut(
            &mut ControlState,
            AppId,
            &[BeatSample],
            &mut Vec<powerdial_heartbeats::TimestampDelta>,
        ) -> Result<u64, WindowOverflow>,
    ) -> u64 {
        let DaemonShard {
            apps,
            scratch,
            lat_scratch,
            idle_skip_limit,
            drain_cap,
            trace,
            safe_point,
            in_flight,
            ..
        } = self;
        let mut beats = 0u64;
        let mut peak = 0usize;
        let mut idx = 0usize;
        while idx < apps.len() {
            // Everything the guarded sweep mutates lives in plain memory
            // the outer frame still owns, so the values written before a
            // panic (processed counts, the cursor, `in_flight`) survive
            // the unwind and the culprit is `apps[idx]`.
            let sweep = catch_unwind(AssertUnwindSafe(|| {
                while idx < apps.len() {
                    let slot = &mut apps[idx];
                    if slot.quarantined.is_some() {
                        idx += 1;
                        continue;
                    }
                    // Idle-skip fast path, ahead of `drain_slot`: pure
                    // slot-field arithmetic that cannot panic, so a
                    // parked fleet pays no blame bookkeeping at all.
                    if *idle_skip_limit > 0
                        && slot.silent_streak >= *idle_skip_limit
                        && slot.skip_countdown > 0
                    {
                        slot.skip_countdown -= 1;
                        idx += 1;
                        continue;
                    }
                    // From here a step can genuinely panic: record which
                    // slot, so an *escaped* panic (worker death) still
                    // blames the app mid-step. Cleared once per sweep —
                    // nothing between slots can trip the guard.
                    *in_flight = Some(slot.id.value());
                    if slot.panic_armed {
                        slot.panic_armed = false;
                        panic!("injected app panic (fault-injection hook)");
                    }
                    let drained = Self::drain_slot(slot, scratch, *idle_skip_limit, *drain_cap);
                    if drained > 0 {
                        if let Some(telemetry) = &slot.telemetry {
                            telemetry.prefetch();
                        }
                    }
                    match kernel(&mut slot.control, slot.id, scratch, lat_scratch) {
                        Ok(processed) => {
                            Self::publish_shm(slot, processed);
                            Self::record_telemetry(slot, scratch, trace, processed);
                            peak = peak.max(drained);
                            beats += processed;
                        }
                        Err(WindowOverflow) => {
                            Self::quarantine_slot(
                                slot,
                                *safe_point,
                                trace,
                                QuarantineReason::WindowOverflow,
                            );
                        }
                    }
                    idx += 1;
                }
                *in_flight = None;
            }));
            if sweep.is_err() {
                // The slot the cursor names panicked mid-step: contain
                // the blast there and resume the sweep with its neighbor.
                *in_flight = None;
                Self::quarantine_slot(&mut apps[idx], *safe_point, trace, QuarantineReason::Panic);
                idx += 1;
            }
        }
        self.maintain_scratch(peak);
        beats
    }

    /// Hot-path telemetry tail of a processed drain: fold each observed
    /// beat latency and the quantum's QoS loss into the slot's
    /// histograms, and append one decision-trace record. Histogram
    /// records and the ring push are allocation-free (the `no_alloc`
    /// suites run with telemetry enabled); a disabled slot costs one
    /// `None` check.
    #[inline]
    fn record_telemetry(
        slot: &mut AppSlot,
        samples: &[BeatSample],
        trace: &mut DecisionTraceRing,
        processed: u64,
    ) {
        let Some(telemetry) = slot.telemetry.as_deref_mut() else {
            return;
        };
        if processed == 0 {
            return;
        }
        // First-beat zero latency is a convention, not an observation
        // (the same tag-0 rule the control window applies).
        telemetry.beat_latency_ns.record_all(
            samples
                .iter()
                .filter(|sample| sample.tag.value() != 0)
                .map(|sample| sample.latency.as_nanos()),
        );
        let published = slot.control.shared.published();
        let qos_loss = f64::from_bits(published.qos_loss_bits);
        let qos_ppm = if qos_loss.is_finite() && qos_loss > 0.0 {
            (qos_loss * QOS_PPM_SCALE) as u64
        } else {
            0
        };
        telemetry.qos_loss_ppm.record(qos_ppm);
        if let Some(last) = samples.last() {
            telemetry.last_beat = last.timestamp;
        }
        let reason = if telemetry.warm_start_pending {
            telemetry.warm_start_pending = false;
            TraceReason::WarmStart
        } else {
            TraceReason::Boundary
        };
        trace.push(trace_record(
            slot.id,
            telemetry.last_beat,
            reason,
            published,
        ));
    }

    /// Clones this shard's telemetry (per-app histograms + trace) for a
    /// snapshot. Cold path: runs between quanta, allocates freely, and
    /// never perturbs the histograms it copies.
    pub fn telemetry(&self) -> ShardTelemetry {
        ShardTelemetry {
            apps: self
                .apps
                .iter()
                .filter_map(|slot| {
                    let telemetry = slot.telemetry.as_deref()?;
                    Some(AppTelemetryReport {
                        app: slot.id,
                        beats: slot.control.shared.beats_processed.load(Ordering::Acquire),
                        beat_latency_ns: telemetry.beat_latency_ns.clone(),
                        qos_loss_ppm: telemetry.qos_loss_ppm.clone(),
                    })
                })
                .collect(),
            trace: self.trace.to_vec(),
        }
    }

    /// Re-publication of a processed quantum's decision through an shm
    /// app's segment (atomics only — the quantum loop stays
    /// allocation-free). No-op for in-heap channels or empty drains.
    /// The words are re-read from the shared atomics the kernel just
    /// stored — the ones [`DecisionView`] serves — so a decision seen via
    /// shm is bit-identical to the in-process view by construction.
    fn publish_shm(slot: &AppSlot, processed: u64) {
        if processed > 0 {
            if let BeatSource::Shm(consumer) = &slot.consumer {
                let published = slot.control.shared.published();
                consumer.publish_decision(published);
                // Keep the segment's warm-start block current so a
                // successor daemon resumes from this actuation if we die
                // after this store.
                // `publish_shm` only runs after a successfully processed
                // batch, so the window cannot be in overflow here; treat
                // the impossible case as "no rate yet".
                let rate = slot
                    .control
                    .window
                    .rate()
                    .ok()
                    .flatten()
                    .map(|r| r.beats_per_second())
                    .unwrap_or(0.0);
                consumer.publish_warm_state(ShmWarmState {
                    point_idx: published.point_idx,
                    speedup_bits: slot.control.runtime.controller().speedup().to_bits(),
                    observed_rate_bits: rate.to_bits(),
                    beat_in_quantum: u64::from(slot.control.runtime.beat_in_quantum()),
                });
            }
        }
    }

    /// The planned per-beat knob indices of `id`'s current quantum (empty
    /// before its first beat), for equivalence tests.
    pub fn planned_beat_indices(&self, id: AppId) -> Option<&[PointIdx]> {
        self.apps
            .iter()
            .find(|slot| slot.id == id)
            .map(|slot| slot.control.runtime.planned_beat_indices())
    }

    /// Number of quanta `id`'s runtime has planned so far.
    pub fn quanta_planned(&self, id: AppId) -> Option<u64> {
        self.apps
            .iter()
            .find(|slot| slot.id == id)
            .map(|slot| slot.control.runtime.quanta_planned())
    }
}

/// Commands sent from the daemon façade to a worker thread. A command
/// carries only work that must run *on the worker thread*: the quantum
/// and the telemetry clone, which stay on the worker's core, and the
/// thread's own death or shutdown. Bookkeeping — registering, evicting,
/// waking or arming a slot — does not need the thread: the façade takes
/// the shard lock between ticks instead (see
/// [`PowerDialDaemon::with_shard`]). Every command except `Shutdown` is
/// acknowledged on the worker's ack channel.
enum Command {
    /// Run one quantum; the ack carries the beats processed.
    Tick,
    /// Send the shard's telemetry back on the provided channel (the ack
    /// still follows, as for every command).
    Telemetry(mpsc::Sender<ShardTelemetry>),
    /// Panic the worker thread itself, simulating a shard death whose
    /// panic escaped containment (test-only by convention). Never
    /// acknowledged — the sender observes the death on the ack channel.
    Crash,
    Shutdown,
}

/// One spawned worker: its command/ack channels, join handle, and a
/// façade-side handle on the shard itself.
struct Worker {
    commands: mpsc::Sender<Command>,
    acks: mpsc::Receiver<u64>,
    thread: Option<JoinHandle<()>>,
    /// The worker's shard, locked by whichever side is working on it. The
    /// thread holds the lock only while it runs a command, and the façade
    /// waits for every ack, so between ticks the lock is free: the façade
    /// takes it for bookkeeping (register, unregister, the reaper's wake,
    /// fault injection) and, once the thread dies,
    /// [`PowerDialDaemon::respawn_dead`] recovers the surviving apps'
    /// live state through it and migrates them onto a fresh worker.
    shard: Arc<Mutex<DaemonShard>>,
    /// Set when a send or receive on the worker's channels fails — the
    /// thread panicked and is gone. A dead worker is never commanded or
    /// locked for bookkeeping again; its apps stay parked on the dead
    /// shard until [`PowerDialDaemon::respawn_dead`] migrates them, and
    /// the rest of the daemon keeps going.
    dead: bool,
    /// Applications currently placed on this worker. Workers with zero
    /// apps are not ticked (no cross-thread round trip for empty shards).
    apps: usize,
}

/// The sharded multi-application PowerDial daemon.
///
/// # Example
///
/// ```
/// use powerdial_control::{ControllerConfig, DaemonConfig, PowerDialDaemon, RuntimeConfig};
/// use powerdial_heartbeats::Timestamp;
/// use powerdial_knobs::{CalibrationPoint, KnobTable, ConfigParameter, ParameterSpace};
/// use powerdial_qos::{QosLoss, QosLossBound};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let space = ParameterSpace::builder()
/// #     .parameter(ConfigParameter::new("k", vec![0.0, 1.0], 0.0)?)
/// #     .build()?;
/// # let points = vec![
/// #     CalibrationPoint { setting_index: 0, setting: space.setting(0).unwrap(),
/// #                        speedup: 1.0, qos_loss: QosLoss::new(0.0) },
/// #     CalibrationPoint { setting_index: 1, setting: space.setting(1).unwrap(),
/// #                        speedup: 2.0, qos_loss: QosLoss::new(0.05) },
/// # ];
/// # let table = KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED)?;
/// // Inline mode (workers: 0) keeps everything on this thread.
/// let mut daemon = PowerDialDaemon::new(DaemonConfig {
///     workers: 0,
///     ..DaemonConfig::default()
/// })?;
/// let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0)?);
/// let mut app = daemon.register(config, table)?;
///
/// // The application emits beats; the daemon controls once per quantum.
/// for beat in 0..40u64 {
///     app.beat(Timestamp::from_millis(beat * 50)).unwrap(); // 20 beats/s: too slow
///     if beat % 20 == 19 {
///         daemon.tick();
///     }
/// }
/// assert_eq!(app.beats_processed(), 40);
/// assert!(app.latest_gain().unwrap() >= 1.0);
/// # Ok(())
/// # }
/// ```
pub struct PowerDialDaemon {
    config: DaemonConfig,
    /// Threaded mode: one worker per shard.
    workers: Vec<Worker>,
    /// Inline mode (`workers: 0`): the single shard, ticked on the caller.
    inline_shard: DaemonShard,
    /// Where each app lives and (for shm apps) its liveness probe.
    placements: HashMap<u64, Placement>,
    next_id: u64,
    next_worker: usize,
    total_beats: u64,
    ticks: u64,
    /// Worker indices awaiting a tick ack (reused across ticks so the tick
    /// loop never allocates).
    tick_pending: Vec<usize>,
    /// Reused buffer for [`PowerDialDaemon::reap_dead`]'s dead-app scan —
    /// the every-supervision-cycle empty case touches no allocator.
    reap_scratch: Vec<AppId>,
    /// Reused buffer for the reaper's wake pass (dead producer, beats
    /// still pending, slot possibly idle-skipped): `(app, worker)` pairs
    /// whose skip state must be cleared so the next tick drains them.
    wake_scratch: Vec<(AppId, Option<usize>)>,
    /// Worker threads found dead so far (lifetime count; monotonic).
    shard_deaths: u64,
    /// Dead workers respawned by [`PowerDialDaemon::respawn_dead`].
    shard_respawns: u64,
    /// Apps migrated off dead shards onto their replacements.
    apps_migrated: u64,
}

/// Facade-side record of one registered app: which shard owns it, plus —
/// for shm-backed apps — a probe of its segment, kept here so the reaper
/// can check peer liveness without a round-trip to the owning worker.
#[derive(Debug)]
struct Placement {
    /// Owning worker index (`None` = inline shard).
    worker: Option<usize>,
    /// Segment probe for shm-backed apps; `None` for in-heap channels.
    probe: Option<ShmPeerProbe>,
    /// The app's decision view, kept here so the façade can observe
    /// quarantine without touching the owning shard (the reaper and the
    /// incident counters both read it).
    view: DecisionView,
}

impl std::fmt::Debug for PowerDialDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerDialDaemon")
            .field("config", &self.config)
            .field("apps", &self.placements.len())
            .field("ticks", &self.ticks)
            .field("total_beats", &self.total_beats)
            .finish()
    }
}

impl PowerDialDaemon {
    /// Creates a daemon and spawns its worker threads (none in inline
    /// mode).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroChannelCapacity`] or
    /// [`ControlError::ZeroWindowSize`] for an invalid configuration.
    pub fn new(config: DaemonConfig) -> Result<Self, ControlError> {
        config.validate()?;
        let workers: Vec<Worker> = (0..config.workers)
            .map(|index| Self::spawn_worker(index, &config).expect("spawn daemon worker"))
            .collect();
        let tick_pending = Vec::with_capacity(workers.len());
        Ok(PowerDialDaemon {
            config,
            workers,
            inline_shard: DaemonShard::from_config(&config),
            placements: HashMap::new(),
            next_id: 0,
            next_worker: 0,
            total_beats: 0,
            ticks: 0,
            tick_pending,
            reap_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            shard_deaths: 0,
            shard_respawns: 0,
            apps_migrated: 0,
        })
    }

    /// Builds one worker: its shard (shared with the façade through an
    /// `Arc<Mutex>` for post-mortem recovery), channels, and thread. Used
    /// both at construction and by [`PowerDialDaemon::respawn_dead`];
    /// spawn failure is fatal at construction but survivable during
    /// resurrection (the recovered apps fall back to the inline shard).
    fn spawn_worker(index: usize, config: &DaemonConfig) -> std::io::Result<Worker> {
        let (command_tx, command_rx) = mpsc::channel::<Command>();
        let (ack_tx, ack_rx) = mpsc::channel::<u64>();
        let shard = Arc::new(Mutex::new(DaemonShard::from_config(config)));
        let thread_shard = Arc::clone(&shard);
        let thread = std::thread::Builder::new()
            .name(format!("powerdial-shard-{index}"))
            .spawn(move || worker_main(thread_shard, command_rx, ack_tx))?;
        Ok(Worker {
            commands: command_tx,
            acks: ack_rx,
            thread: Some(thread),
            shard,
            dead: false,
            apps: 0,
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Registers an application: builds its SPSC channel and O(1) runtime,
    /// assigns it to a shard round-robin, and returns the application-side
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the runtime configuration
    /// has a zero-heartbeat quantum.
    pub fn register(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
    ) -> Result<AppHandle, ControlError> {
        let (producer, consumer) = beat_channel(self.config.channel_capacity);
        let view = self.register_source(
            config,
            table,
            BeatSource::Channel(consumer),
            None,
            None,
            None,
        )?;
        Ok(AppHandle {
            view,
            producer,
            next_tag: HeartbeatTag::default(),
            last_timestamp: None,
        })
    }

    /// Registers an application whose beats arrive from *another process*
    /// through a shared-memory segment: the daemon takes ownership of the
    /// attached [`ShmConsumer`] and drains it exactly like an in-heap
    /// channel — the control path downstream of the drain is identical.
    ///
    /// Returns a [`DecisionView`] (there is no producer half to hand back:
    /// the producing process attaches its own
    /// [`powerdial_heartbeats::shm::ShmProducer`] to the segment). The
    /// daemon keeps a liveness probe of the segment, so
    /// [`PowerDialDaemon::reap_dead`] can detect and unregister apps whose
    /// producing process died.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the runtime configuration
    /// has a zero-heartbeat quantum.
    pub fn register_shm(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
        consumer: ShmConsumer,
    ) -> Result<DecisionView, ControlError> {
        let probe = consumer.probe();
        self.register_source(
            config,
            table,
            BeatSource::Shm(consumer),
            Some(probe),
            None,
            None,
        )
    }

    /// Registers an application by *adopting* a shared-memory segment left
    /// behind by a crashed predecessor daemon (the segment arrives back over
    /// the broker's reattach hello; the consumer role was claimed via
    /// [`ShmConsumer::adopt`], stepping over the dead claimant).
    ///
    /// Recovery happens here, not in the transport layer, because only the
    /// daemon knows the knob table needed to validate and re-synthesize
    /// decisions:
    ///
    /// 1. **Warm start.** The segment's warm-start block (the predecessor's
    ///    last actuation: point index, controller speedup, observed rate,
    ///    beat-in-quantum) is read under its seqlock. A consistent block
    ///    whose point index is in range and whose speedup is finite
    ///    warm-starts this daemon's controller
    ///    ([`PowerDialRuntime::warm_start`]); a torn, empty, or implausible
    ///    block falls back to a cold controller — recovery never trusts
    ///    garbage into the control law.
    /// 2. **Torn-decision healing.** If the predecessor died *mid-publish*
    ///    of the decision block, the application is stuck reading
    ///    last-known-good forever. A warm point re-synthesizes the decision
    ///    from the table (gain = achieved = `speedup_of(point)`, QoS loss
    ///    from the table); with no warm state the block is reset to Empty so
    ///    the app degrades cleanly instead of spinning on a torn seqlock.
    /// 3. **Continuity.** A consistent published decision also seeds this
    ///    daemon's [`DecisionView`]/shared state, so in-process observers of
    ///    the successor see the predecessor's last decision immediately
    ///    instead of `None` until the first new quantum.
    ///
    /// Beats the application pushed across the outage are still in the ring
    /// (they live in the segment, not the dead process) and are drained on
    /// the first tick — nothing is lost beyond channel capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the runtime configuration
    /// has a zero-heartbeat quantum.
    pub fn register_shm_adopted(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
        consumer: ShmConsumer,
    ) -> Result<DecisionView, ControlError> {
        let probe = consumer.probe();
        let warm = match consumer.read_warm_state() {
            WarmRead::Ready(w)
                if (w.point_idx as usize) < table.len()
                    && f64::from_bits(w.speedup_bits).is_finite() =>
            {
                Some(w)
            }
            _ => None,
        };
        // Heal a decision block the predecessor tore mid-publish: re-publish
        // from warm state when we have it, otherwise reset to Empty so the
        // client's ladder degrades instead of retrying a torn read forever.
        if matches!(probe.read_decision(), DecisionRead::Torn) {
            match warm {
                Some(w) => {
                    consumer.publish_decision(table_decision(&table, PointIdx::new(w.point_idx)))
                }
                None => consumer.reset_decision(),
            }
        }
        let seed = match probe.read_decision() {
            DecisionRead::Ready(d) if (d.point_idx as usize) < table.len() => Some(d),
            _ => None,
        };
        self.register_source(
            config,
            table,
            BeatSource::Shm(consumer),
            Some(probe),
            warm,
            seed,
        )
    }

    /// Shared registration path for both transports. `warm` restores the
    /// controller's integrator and primes the first quantum's observed rate
    /// (adoption path); `seed` pre-publishes a predecessor's decision into
    /// the shared state so observers see it before the first quantum. The
    /// slot is pushed straight onto its shard (the inline one, or a live
    /// worker's between ticks), so a registration can never be lost in
    /// flight.
    fn register_source(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
        consumer: BeatSource,
        probe: Option<ShmPeerProbe>,
        warm: Option<ShmWarmState>,
        seed: Option<ShmDecision>,
    ) -> Result<DecisionView, ControlError> {
        let mut runtime = PowerDialRuntime::new(config, table)?;
        let mut seed_rate = None;
        if let Some(w) = warm {
            // Speedup finiteness was validated by the adoption path; a
            // failure here (non-finite after a racing scribble) just means
            // a cold start.
            let _ = runtime.warm_start(f64::from_bits(w.speedup_bits));
            let rate = f64::from_bits(w.observed_rate_bits);
            if rate.is_finite() && rate > 0.0 {
                seed_rate = Some(rate);
            }
        }
        let shared = Arc::new(AppShared::default());
        let mut control = ControlState {
            runtime,
            window: SlidingWindow::new(self.config.window_size),
            shared: Arc::clone(&shared),
            decisions: 0,
            seed_rate,
        };
        if let Some(d) = seed {
            control.publish(d);
        }
        let id = AppId(self.next_id);
        self.next_id += 1;
        let slot = AppSlot {
            id,
            consumer,
            control,
            // Fresh slots always start with cleared idle-skip bookkeeping
            // — in particular an *adopted* segment must not inherit a
            // predecessor's skip streak, or its backlog of outage beats
            // would wait out a countdown it never earned.
            silent_streak: 0,
            skip_countdown: 0,
            telemetry: self
                .config
                .telemetry
                .then(|| SlotTelemetry::new(warm.is_some())),
            quarantined: None,
            panic_armed: false,
        };
        let worker = self.pick_worker();
        self.with_shard(worker, |shard| shard.push_slot(slot))
            .expect("pick_worker places apps on live shards only");
        if let Some(index) = worker {
            self.workers[index].apps += 1;
        }
        let view = DecisionView { id, shared };
        self.placements.insert(
            id.0,
            Placement {
                worker,
                probe,
                view: view.clone(),
            },
        );
        Ok(view)
    }

    /// Records a worker-death transition exactly once (idempotent), so
    /// the incident counter matches the number of distinct shard deaths.
    fn mark_dead(&mut self, worker: usize) {
        if !self.workers[worker].dead {
            self.workers[worker].dead = true;
            self.shard_deaths += 1;
        }
    }

    /// Chooses the worker for a new app: `None` places it on the inline
    /// shard — always in inline mode, for the first
    /// [`DaemonConfig::inline_apps`] registrations in threaded mode (small
    /// fleets skip the cross-thread round trip), and whenever every worker
    /// is dead. Otherwise round-robin over live workers.
    fn pick_worker(&mut self) -> Option<usize> {
        if self.workers.is_empty() || self.inline_shard.len() < self.config.inline_apps {
            return None;
        }
        for _ in 0..self.workers.len() {
            let index = self.next_worker;
            self.next_worker = (self.next_worker + 1) % self.workers.len();
            if !self.workers[index].dead {
                return Some(index);
            }
        }
        None
    }

    /// Removes an application from its shard. Beats still in its channel
    /// are discarded; the application's handle keeps working but nothing
    /// drains its channel any more (pushes eventually see backpressure).
    /// For shm apps the consumer (and with it this process's mapping) is
    /// dropped. Returns `false` if `id` was never registered or already
    /// removed.
    pub fn unregister(&mut self, id: AppId) -> bool {
        let Some(Placement { worker, .. }) = self.placements.remove(&id.0) else {
            return false;
        };
        let removed = self.with_shard(worker, |shard| shard.remove(id)) == Some(true);
        if let (true, Some(index)) = (removed, worker) {
            self.workers[index].apps -= 1;
        }
        removed
    }

    /// Reaps abandoned shared-memory applications: every shm-registered
    /// app whose producing process has died **and** whose segment has been
    /// fully drained is unregistered, and the reaped ids are returned.
    ///
    /// Beats the producer managed to publish before dying survive in the
    /// segment, so the reap protocol is: [`PowerDialDaemon::tick`] first
    /// (collect the stragglers), then `reap_dead`. An app with a dead
    /// producer but pending beats is deliberately left for the next
    /// tick+reap round rather than losing its tail — but its idle-skip
    /// state is cleared here, so that next tick is guaranteed to drain
    /// it even if the slot was deep in a skip countdown (liveness is
    /// probed from the façade and is independent of skip state; without
    /// the wake, a SIGKILLed producer behind an idle-skipped segment
    /// would sit unreaped for up to `idle_skip_limit` extra quanta).
    /// Called every supervision cycle, so the overwhelmingly common
    /// nothing-is-dead case is allocation-free: the scan reuses an
    /// internal scratch buffer and returns an empty `Vec` (which holds no
    /// heap block) when it found nothing. Only a cycle that actually reaps
    /// — rare by definition — pays for the returned list (the scratch's
    /// allocation is handed to the caller).
    pub fn reap_dead(&mut self) -> Vec<AppId> {
        self.reap_scratch.clear();
        self.wake_scratch.clear();
        for (id, placement) in &self.placements {
            if let Some(probe) = placement.probe.as_ref() {
                // Liveness is probed from the façade, so a slot deep in
                // an idle-skip streak is judged exactly like any other —
                // skipping a poll must never postpone noticing a death.
                if probe.producer_state().is_dead() {
                    // A quarantined app's ring is never drained again, so
                    // waiting for `pending() == 0` would park the corpse
                    // forever: its backlog is forfeit, reap immediately
                    // (freeing the slot — and the segment — for reuse).
                    if probe.pending() == 0 || placement.view.quarantine_reason().is_some() {
                        self.reap_scratch.push(AppId(*id));
                    } else {
                        // The producer died with beats still in the ring.
                        // Clear the slot's skip countdown so the *next*
                        // tick drains the stragglers and the reap after
                        // it collects the corpse — instead of idling out
                        // up to `idle_skip_limit` quanta first.
                        self.wake_scratch.push((AppId(*id), placement.worker));
                    }
                }
            }
        }
        for index in 0..self.wake_scratch.len() {
            let (id, worker) = self.wake_scratch[index];
            self.with_shard(worker, |shard| shard.wake(id));
        }
        if self.reap_scratch.is_empty() {
            return Vec::new();
        }
        let dead = std::mem::take(&mut self.reap_scratch);
        for id in &dead {
            self.unregister(*id);
        }
        dead
    }

    /// Runs one actuation quantum across every shard (in parallel in
    /// threaded mode) and returns the total beats processed. Blocks until
    /// every live shard has finished its quantum.
    ///
    /// Degraded, never panicking: a worker found dead (its thread
    /// panicked) is skipped from then on and its beats are simply absent
    /// from the count — the other shards keep being served. Use
    /// [`PowerDialDaemon::try_tick`] to observe a death when it happens.
    pub fn tick(&mut self) -> u64 {
        self.tick_impl().0
    }

    /// [`PowerDialDaemon::tick`] that surfaces a worker death: returns
    /// [`ControlError::ShardDead`] (naming the first dead shard) on the
    /// tick that *detects* the death, after still collecting every live
    /// shard's quantum. Subsequent ticks skip the dead shard silently and
    /// return `Ok` again, so a supervision loop can log the event once and
    /// keep serving the surviving shards.
    ///
    /// # Errors
    ///
    /// [`ControlError::ShardDead`] when a worker thread was newly found
    /// dead during this tick.
    pub fn try_tick(&mut self) -> Result<u64, ControlError> {
        match self.tick_impl() {
            (_, Some(shard)) => Err(ControlError::ShardDead { shard }),
            (beats, None) => Ok(beats),
        }
    }

    /// Shared tick body: broadcast to live, non-empty workers first (so
    /// their shards run concurrently with the inline shard), run the
    /// inline shard, then collect acks. Returns the beats processed by the
    /// shards that answered plus the first worker newly discovered dead,
    /// if any. Allocation-free: the pending list is a reused buffer.
    fn tick_impl(&mut self) -> (u64, Option<usize>) {
        let mut newly_dead = None;
        self.tick_pending.clear();
        for index in 0..self.workers.len() {
            if self.workers[index].dead || self.workers[index].apps == 0 {
                continue;
            }
            match self.workers[index].commands.send(Command::Tick) {
                Ok(()) => self.tick_pending.push(index),
                Err(_) => {
                    self.mark_dead(index);
                    newly_dead.get_or_insert(index);
                }
            }
        }
        let mut beats = self.inline_shard.run_quantum();
        for pending in 0..self.tick_pending.len() {
            let index = self.tick_pending[pending];
            match self.workers[index].acks.recv() {
                Ok(shard_beats) => beats += shard_beats,
                Err(_) => {
                    self.mark_dead(index);
                    newly_dead.get_or_insert(index);
                }
            }
        }
        self.total_beats += beats;
        self.ticks += 1;
        (beats, newly_dead)
    }

    /// Number of applications currently registered.
    pub fn app_count(&self) -> usize {
        self.placements.len()
    }

    /// Total beats processed across all ticks.
    pub fn total_beats(&self) -> u64 {
        self.total_beats
    }

    /// Number of ticks (actuation quanta) run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Collects a [`TelemetrySnapshot`] across every shard: per-app
    /// beat-latency and QoS-loss histograms, exact fleet-wide rollups,
    /// and the merged decision trace. Render it with
    /// [`TelemetrySnapshot::to_json`].
    ///
    /// Cold path by design: the walk runs between quanta (worker shards
    /// answer a `Telemetry` command from their command loop, the inline
    /// shard is read directly), clones histogram state rather than
    /// draining it, and is the one telemetry operation allowed to
    /// allocate. Dead workers are skipped — their apps' metrics are
    /// absent from the snapshot, matching the daemon's degraded-shard
    /// contract. With [`DaemonConfig::telemetry`] off the snapshot is
    /// empty (no apps, no trace).
    pub fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        let mut shards = Vec::with_capacity(self.workers.len() + 1);
        shards.push(self.inline_shard.telemetry());
        for index in 0..self.workers.len() {
            if self.workers[index].apps == 0 {
                continue;
            }
            if self.workers[index].dead {
                // The worker can't answer a command, but its shard
                // outlives it: read the telemetry post-mortem through the
                // façade's handle (the corpse's apps stay visible until
                // `respawn_dead` migrates them).
                let guard = self.workers[index]
                    .shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                shards.push(guard.telemetry());
                continue;
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            if self.command(index, Command::Telemetry(reply_tx)).is_none() {
                continue;
            }
            // The ack arrived, so the worker's send preceded it; a recv
            // failure here means the receiver outlived a poisoned send
            // and the shard contributed nothing.
            if let Ok(shard) = reply_rx.try_recv() {
                shards.push(shard);
            }
        }
        TelemetrySnapshot::from_shards(self.ticks, self.total_beats, shards, self.incident_counts())
    }

    /// Worker threads in use (0 = inline mode).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads still alive (dead = panicked mid-quantum). Equals
    /// [`PowerDialDaemon::workers`] until a shard dies.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.dead).count()
    }

    /// Resurrects every dead worker: joins the corpse, recovers its shard
    /// post-mortem, blames (quarantines) the app whose step was in flight
    /// when the thread died, reconciles the shard's slots against the
    /// façade's placements, and migrates the surviving apps — *live*
    /// control state, not a warm-start rebuild — onto a freshly spawned
    /// thread at the same worker index, so every placement stays valid.
    /// Returns the number of shards respawned.
    ///
    /// Call it from the supervision loop next to
    /// [`PowerDialDaemon::reap_dead`]; a fleet then resumes full service
    /// within one supervision cycle of a shard death, losing nothing
    /// beyond what died mid-quantum (beats still in the survivors'
    /// channels are drained by the next tick — they live in the channels,
    /// not the dead thread).
    ///
    /// If spawning the replacement thread fails, the recovered apps fall
    /// back onto the inline shard instead (service continuity over
    /// parallelism); the worker then stays dead.
    pub fn respawn_dead(&mut self) -> usize {
        let mut respawned = 0;
        for index in 0..self.workers.len() {
            if self.workers[index].dead {
                respawned += usize::from(self.respawn_worker(index));
            }
        }
        respawned
    }

    /// Resurrects one dead worker (see [`PowerDialDaemon::respawn_dead`]).
    /// Returns `true` when a replacement thread now serves the shard's
    /// surviving apps at the same index.
    fn respawn_worker(&mut self, index: usize) -> bool {
        // Join the corpse first: afterwards no other thread can hold a
        // clone of the shard handle, so the unwrap below cannot race.
        if let Some(thread) = self.workers[index].thread.take() {
            let _ = thread.join();
        }
        let placeholder = Arc::new(Mutex::new(DaemonShard::default()));
        let old_arc = std::mem::replace(&mut self.workers[index].shard, placeholder);
        let mut shard = match Arc::try_unwrap(old_arc) {
            // An injected `Crash` panics while holding the lock, so the
            // mutex is typically poisoned — the state under it is exactly
            // what the dead worker last saw, and recovery wants it.
            Ok(mutex) => mutex
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            Err(arc) => {
                // Unreachable after the join; put the handle back and
                // leave the worker parked rather than lose its apps.
                self.workers[index].shard = arc;
                return false;
            }
        };
        // Blame exactly one app: the step that was executing when the
        // thread died. Contained faults never reach this path (the
        // quantum loop clears `in_flight` after each guard); only a panic
        // that escaped containment — e.g. an injected worker crash —
        // leaves it set.
        if let Some(blamed) = shard.in_flight.take() {
            let DaemonShard {
                apps,
                trace,
                safe_point,
                ..
            } = &mut shard;
            if let Some(slot) = apps.iter_mut().find(|slot| slot.id.value() == blamed) {
                if slot.quarantined.is_none() {
                    DaemonShard::quarantine_slot(slot, *safe_point, trace, QuarantineReason::Panic);
                }
            }
        }
        // Reconcile against the placements: apps unregistered while the
        // worker was dead lost their placement but kept their slot, so
        // evict them now (resetting their segments, as a live unregister
        // would).
        let stale: Vec<AppId> = shard
            .apps
            .iter()
            .map(|slot| slot.id)
            .filter(|id| !self.placements.contains_key(&id.value()))
            .collect();
        for id in stale {
            shard.remove(id);
        }
        // Incident trace: the death, the respawn, and one record per
        // migrated app (records materialize when the shard is recovered,
        // which is also the only point the façade can touch its trace).
        let incident = |reason: TraceReason, app: u64| DecisionTraceRecord {
            app,
            reason,
            ..DecisionTraceRecord::default()
        };
        shard
            .trace
            .push(incident(TraceReason::ShardDead, index as u64));
        let survivors = shard.apps.len() as u64;
        match Self::spawn_worker(index, &self.config) {
            Ok(replacement) => {
                shard
                    .trace
                    .push(incident(TraceReason::ShardRespawned, index as u64));
                {
                    let DaemonShard { apps, trace, .. } = &mut shard;
                    for slot in apps.iter() {
                        trace.push(incident(TraceReason::Migrated, slot.id.value()));
                    }
                }
                let old = std::mem::replace(&mut self.workers[index], replacement);
                drop(old);
                // Move the recovered shard — apps, trace, scratch — into
                // the replacement wholesale: migration preserves live
                // controller state bit-for-bit, which is strictly stronger
                // than the warm-start block a cross-process successor
                // would rebuild from.
                *self.workers[index]
                    .shard
                    .lock()
                    .expect("fresh shard mutex cannot be poisoned") = shard;
                self.workers[index].apps = survivors as usize;
                self.shard_respawns += 1;
                self.apps_migrated += survivors;
                true
            }
            Err(_) => {
                // No replacement thread: fall back to the inline shard so
                // the survivors keep being served, just not in parallel.
                for record in shard.trace.iter() {
                    self.inline_shard.trace.push(*record);
                }
                for slot in shard.apps.drain(..) {
                    if let Some(placement) = self.placements.get_mut(&slot.id.value()) {
                        placement.worker = None;
                    }
                    self.inline_shard
                        .trace
                        .push(incident(TraceReason::Migrated, slot.id.value()));
                    self.inline_shard.push_slot(slot);
                }
                self.workers[index].apps = 0;
                self.apps_migrated += survivors;
                false
            }
        }
    }

    /// Fault-injection hook (test-only by convention): arms `id` so its
    /// next processing step panics *inside* the per-app containment
    /// guard. Returns `false` for an unknown app or one parked on a dead
    /// shard.
    pub fn inject_app_panic(&mut self, id: AppId) -> bool {
        let Some(worker) = self.placements.get(&id.0).map(|placement| placement.worker) else {
            return false;
        };
        self.with_shard(worker, |shard| shard.arm_panic(id)) == Some(true)
    }

    /// Fault-injection hook (test-only by convention): kills worker
    /// `worker`'s thread with a panic that escapes containment — the
    /// thread dies holding its shard lock, the worst case resurrection
    /// must handle. Returns `true` once the worker is observed dead.
    pub fn inject_worker_panic(&mut self, worker: usize) -> bool {
        if worker >= self.workers.len() || self.workers[worker].dead {
            return false;
        }
        // `Crash` is never acknowledged: `command` observes the death on
        // the ack channel and marks the worker dead.
        let _ = self.command(worker, Command::Crash);
        self.workers[worker].dead
    }

    /// Quarantine state of `id` as the façade observes it (through the
    /// app's shared decision atomics — no round-trip to the owning
    /// worker). `None` while healthy or for an unknown id.
    pub fn quarantine_reason(&self, id: AppId) -> Option<QuarantineReason> {
        self.placements
            .get(&id.0)
            .and_then(|placement| placement.view.quarantine_reason())
    }

    /// Number of currently quarantined (parked but not yet evicted) apps.
    pub fn quarantined_apps(&self) -> usize {
        self.placements
            .values()
            .filter(|placement| placement.view.quarantine_reason().is_some())
            .count()
    }

    /// Worker-thread deaths observed so far (lifetime count).
    pub fn shard_deaths(&self) -> u64 {
        self.shard_deaths
    }

    /// Dead workers successfully resurrected by
    /// [`PowerDialDaemon::respawn_dead`].
    pub fn shard_respawns(&self) -> u64 {
        self.shard_respawns
    }

    /// Apps migrated off dead shards (onto replacements or the inline
    /// shard).
    pub fn apps_migrated(&self) -> u64 {
        self.apps_migrated
    }

    /// The fault-containment incident counters, as embedded in
    /// [`PowerDialDaemon::telemetry_snapshot`]'s `incidents` section.
    pub fn incident_counts(&self) -> IncidentCounts {
        IncidentCounts {
            shard_deaths: self.shard_deaths,
            shard_respawns: self.shard_respawns,
            apps_migrated: self.apps_migrated,
            quarantined_apps: self.quarantined_apps() as u64,
        }
    }

    /// In inline mode (`workers: 0`), the daemon's single shard, for tests
    /// and diagnostics that drive its sweep directly — with the batched
    /// kernel ([`DaemonShard::run_quantum`]) or the per-beat oracle
    /// ([`DaemonShard::run_quantum_with`]). `None` in threaded mode.
    ///
    /// Quanta run directly on the shard bypass the daemon's
    /// [`PowerDialDaemon::total_beats`]/[`PowerDialDaemon::ticks`]
    /// bookkeeping.
    pub fn inline_shard_mut(&mut self) -> Option<&mut DaemonShard> {
        if self.workers.is_empty() {
            Some(&mut self.inline_shard)
        } else {
            None
        }
    }

    /// Runs `f` on the shard that owns `worker`'s apps: the inline shard
    /// for `None`, otherwise the worker's shard under its lock. The one
    /// way the façade reaches a shard for bookkeeping. Called only
    /// between ticks, when every live worker is parked on its command
    /// channel with the lock released, so the lock is uncontended and `f`
    /// never races a quantum. `None` for a dead worker: its shard is left
    /// for [`PowerDialDaemon::respawn_dead`] to recover.
    fn with_shard<R>(
        &mut self,
        worker: Option<usize>,
        f: impl FnOnce(&mut DaemonShard) -> R,
    ) -> Option<R> {
        let Some(index) = worker else {
            return Some(f(&mut self.inline_shard));
        };
        let worker = &self.workers[index];
        if worker.dead {
            return None;
        }
        let mut shard = worker
            .shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(f(&mut shard))
    }

    /// Sends a command to a worker and waits for its acknowledgement.
    /// `None` when the worker is (or is discovered to be) dead — the
    /// command had no effect.
    fn command(&mut self, worker: usize, command: Command) -> Option<u64> {
        if self.workers[worker].dead {
            return None;
        }
        if self.workers[worker].commands.send(command).is_err() {
            self.mark_dead(worker);
            return None;
        }
        match self.workers[worker].acks.recv() {
            Ok(ack) => Some(ack),
            Err(_) => {
                self.mark_dead(worker);
                None
            }
        }
    }
}

impl Drop for PowerDialDaemon {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // The worker may already be gone if it panicked; ignore errors.
            let _ = worker.commands.send(Command::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Worker thread body: run each command against the shared shard and
/// acknowledge it. Only work that must run on this thread arrives here
/// (the quantum, the telemetry clone, an injected crash); the façade does
/// its bookkeeping under the same lock between ticks, while this loop
/// waits for the next command with the lock released.
fn worker_main(
    shard: Arc<Mutex<DaemonShard>>,
    commands: mpsc::Receiver<Command>,
    acks: mpsc::Sender<u64>,
) {
    while let Ok(command) = commands.recv() {
        // A poisoned mutex here would mean a panic escaped a previous
        // holder (a command, or the façade's bookkeeping) — unreachable
        // today (the quantum loop contains panics and a `Crash` kills
        // the thread for good), but recovering the guard is the
        // conservative choice either way.
        let mut guard = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ack = match command {
            Command::Tick => guard.run_quantum(),
            Command::Telemetry(reply) => {
                // A dropped receiver just means the façade gave up on
                // the snapshot; the ack below keeps the protocol in
                // lockstep either way.
                let _ = reply.send(guard.telemetry());
                0
            }
            // Deliberately panics while *holding the lock*: the façade's
            // resurrection path must cope with a poisoned shard mutex,
            // the worst-case a real escaped panic would leave behind.
            Command::Crash => panic!("injected worker crash (fault-injection hook)"),
            Command::Shutdown => break,
        };
        drop(guard);
        if acks.send(ack).is_err() {
            break;
        }
    }
}

/// Where an [`IdleLadder`] currently sits: the escalation stage an idle
/// driver loop is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Busy-spin with [`std::hint::spin_loop`]: lowest wake latency, one
    /// core burned. The first rung after any work.
    Spin,
    /// Yield the core to the scheduler each iteration.
    Yield,
    /// Sleep in exponentially growing, bounded naps (up to
    /// [`IdleLadder::MAX_PARK`]): a persistently idle daemon stops burning
    /// a core, yet a waking fleet is never more than one nap away.
    Park,
}

/// The spin→yield→park escalation for driver loops that tick a daemon
/// continuously (the supervisor's serve loop, a dedicated daemon process).
///
/// Call [`IdleLadder::idle`] after an iteration that found no work — it
/// spins, yields, or naps according to the current rung and escalates.
/// Call [`IdleLadder::reset`] after an iteration that *did* work (beats
/// drained, an attach served) to drop back to spinning. The ladder is
/// pure policy over `std` primitives; it holds no handle to the daemon.
#[derive(Debug)]
pub struct IdleLadder {
    idle_streak: u32,
    park: std::time::Duration,
}

impl IdleLadder {
    /// Idle iterations spent spinning before the ladder yields.
    pub const SPIN_LIMIT: u32 = 64;
    /// Idle iterations spent yielding before the ladder parks.
    pub const YIELD_LIMIT: u32 = 64;
    /// First nap length once the ladder parks.
    pub const INITIAL_PARK: std::time::Duration = std::time::Duration::from_micros(50);
    /// Nap length cap: the worst-case extra latency a waking fleet sees.
    pub const MAX_PARK: std::time::Duration = std::time::Duration::from_millis(1);

    /// A ladder at its lowest rung (spinning).
    pub fn new() -> Self {
        IdleLadder {
            idle_streak: 0,
            park: IdleLadder::INITIAL_PARK,
        }
    }

    /// The rung the next [`IdleLadder::idle`] call will act on.
    pub fn rung(&self) -> LadderRung {
        if self.idle_streak < IdleLadder::SPIN_LIMIT {
            LadderRung::Spin
        } else if self.idle_streak < IdleLadder::SPIN_LIMIT + IdleLadder::YIELD_LIMIT {
            LadderRung::Yield
        } else {
            LadderRung::Park
        }
    }

    /// Records an idle iteration: spin, yield, or nap according to the
    /// current rung, escalate, and return the rung that was acted on.
    pub fn idle(&mut self) -> LadderRung {
        let rung = self.rung();
        match rung {
            LadderRung::Spin => std::hint::spin_loop(),
            LadderRung::Yield => std::thread::yield_now(),
            LadderRung::Park => {
                std::thread::sleep(self.park);
                self.park = (self.park * 2).min(IdleLadder::MAX_PARK);
            }
        }
        self.idle_streak = self.idle_streak.saturating_add(1);
        rung
    }

    /// Records a productive iteration: back to spinning, nap length reset.
    pub fn reset(&mut self) {
        self.idle_streak = 0;
        self.park = IdleLadder::INITIAL_PARK;
    }
}

impl Default for IdleLadder {
    fn default() -> Self {
        IdleLadder::new()
    }
}

pub mod naive {
    //! The serial, mutex-guarded multi-app baseline.
    //!
    //! What the daemon looked like before the lock-free rework: every
    //! application's beats go through a `Mutex<VecDeque>` channel
    //! ([`MutexChannel`]), and one thread drains and controls every
    //! application in sequence. Kept for the `multiapp` benchmark (the
    //! speedup denominator) and for equivalence tests — the control code
    //! itself is *shared* with the lock-free shard, so any divergence
    //! between the two is a channel bug, not a control bug.
    //!
    //! The per-beat decision walk (`ControlState::process_drained`) lives
    //! here too: it is the oracle the batched kernel is checked against
    //! (through [`super::DaemonShard::run_quantum_with`]) and the kernel
    //! of the serial baseline.

    use super::{AppId, AppShared, ControlState, DaemonConfig, DecisionView};
    use crate::error::ControlError;
    use crate::runtime::{IndexedDecision, PowerDialRuntime, RuntimeConfig};
    use powerdial_heartbeats::channel::BeatSample;
    use powerdial_heartbeats::naive::MutexChannel;
    use powerdial_heartbeats::{HeartbeatTag, SlidingWindow, Timestamp, WindowOverflow};
    use powerdial_knobs::KnobTable;
    use std::sync::Arc;

    #[deny(clippy::arithmetic_side_effects)]
    impl ControlState {
        /// Processes one batch of drained beats: for each beat, read the
        /// current windowed rate, step the runtime (decide *before*
        /// observing the beat's own latency — the same ordering as the
        /// single-app serial loop, so decision sequences are beat-for-beat
        /// identical), then fold the latency into the window. Publishes the
        /// final decision of the batch to the shared atomics.
        ///
        /// # Errors
        ///
        /// A poisoned latency stream that overflows the window's summed
        /// nanoseconds surfaces as [`WindowOverflow`]; nothing is published
        /// for the batch and the caller quarantines the app.
        pub(super) fn process_drained(
            &mut self,
            id: AppId,
            samples: &[BeatSample],
            on_decision: &mut impl FnMut(AppId, IndexedDecision),
        ) -> Result<u64, WindowOverflow> {
            if samples.is_empty() {
                return Ok(0);
            }
            let mut last = None;
            for sample in samples {
                let observed = self
                    .window
                    .rate()?
                    .map(|r| r.beats_per_second())
                    .or(self.seed_rate);
                let decision = self.runtime.on_heartbeat_idx(observed);
                on_decision(id, decision);
                // The first beat of a stream has no predecessor; its zero
                // latency is a convention, not an observation (mirrors
                // `HeartbeatMonitor::try_heartbeat`).
                if sample.tag.value() != 0 {
                    self.window.push(sample.latency);
                }
                last = Some(decision);
            }
            let decision = last.expect("non-empty batch");
            self.publish_batch(decision, samples.len());
            Ok(samples.len() as u64)
        }
    }

    /// The application-side handle of a [`SerialMutexDaemon`] registration:
    /// same surface as [`super::AppHandle`] (it derefs to the same
    /// [`DecisionView`]), but every beat takes the channel mutex.
    #[derive(Debug, Clone)]
    pub struct NaiveAppHandle {
        view: DecisionView,
        channel: MutexChannel<BeatSample>,
        next_tag: HeartbeatTag,
        last_timestamp: Option<Timestamp>,
    }

    impl std::ops::Deref for NaiveAppHandle {
        type Target = DecisionView;

        fn deref(&self) -> &DecisionView {
            &self.view
        }
    }

    impl NaiveAppHandle {
        /// Emits one heartbeat at `now` (locks the channel mutex).
        ///
        /// # Errors
        ///
        /// Returns the rejected record when the channel is full.
        pub fn beat(&mut self, now: Timestamp) -> Result<(), BeatSample> {
            let latency = match self.last_timestamp {
                Some(last) => now - last,
                None => powerdial_heartbeats::TimestampDelta::ZERO,
            };
            let sample = BeatSample {
                tag: self.next_tag,
                timestamp: now,
                latency,
            };
            self.next_tag = self.next_tag.next();
            self.last_timestamp = Some(now);
            self.channel.try_push(sample)
        }
    }

    /// One app of the serial daemon: mutex channel + the shared control
    /// state.
    struct NaiveSlot {
        id: AppId,
        channel: MutexChannel<BeatSample>,
        control: ControlState,
    }

    /// The pre-optimization multi-app runtime: mutex-guarded channels, one
    /// thread, apps drained and controlled strictly in sequence.
    pub struct SerialMutexDaemon {
        config: DaemonConfig,
        apps: Vec<NaiveSlot>,
        scratch: Vec<BeatSample>,
        next_id: u64,
        total_beats: u64,
    }

    impl SerialMutexDaemon {
        /// Creates a serial daemon (the `workers` field of the
        /// configuration is ignored — there is exactly one, the caller).
        ///
        /// # Errors
        ///
        /// Returns [`ControlError::ZeroChannelCapacity`] or
        /// [`ControlError::ZeroWindowSize`] for an invalid configuration.
        pub fn new(config: DaemonConfig) -> Result<Self, ControlError> {
            config.validate()?;
            Ok(SerialMutexDaemon {
                config,
                apps: Vec::new(),
                scratch: Vec::new(),
                next_id: 0,
                total_beats: 0,
            })
        }

        /// Registers an application, returning its mutex-channel handle.
        ///
        /// # Errors
        ///
        /// Returns [`ControlError::ZeroQuantum`] when the runtime
        /// configuration has a zero-heartbeat quantum.
        pub fn register(
            &mut self,
            config: RuntimeConfig,
            table: KnobTable,
        ) -> Result<NaiveAppHandle, ControlError> {
            let runtime = PowerDialRuntime::new(config, table)?;
            let channel = MutexChannel::new(self.config.channel_capacity);
            let shared = Arc::new(AppShared::default());
            let id = AppId(self.next_id);
            self.next_id += 1;
            self.apps.push(NaiveSlot {
                id,
                channel: channel.clone(),
                control: ControlState {
                    runtime,
                    window: SlidingWindow::new(self.config.window_size),
                    shared: Arc::clone(&shared),
                    decisions: 0,
                    seed_rate: None,
                },
            });
            Ok(NaiveAppHandle {
                view: DecisionView { id, shared },
                channel,
                next_tag: HeartbeatTag::default(),
                last_timestamp: None,
            })
        }

        /// Runs one actuation quantum over every app, serially, on the
        /// calling thread. Returns the total beats processed.
        ///
        /// # Panics
        ///
        /// On a poisoned latency stream whose summed nanoseconds overflow
        /// the rate window — the baseline has no quarantine machinery (the
        /// sharded daemon parks such an app instead).
        pub fn tick(&mut self) -> u64 {
            let mut beats = 0;
            for slot in &mut self.apps {
                slot.channel.drain_into(&mut self.scratch);
                beats += slot
                    .control
                    .process_drained(slot.id, &self.scratch, &mut |_, _| {})
                    .expect("window latency sum overflow in serial baseline");
            }
            self.total_beats += beats;
            beats
        }

        /// Number of applications registered.
        pub fn app_count(&self) -> usize {
            self.apps.len()
        }

        /// Total beats processed across all ticks.
        pub fn total_beats(&self) -> u64 {
            self.total_beats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::runtime::RuntimeConfig;
    use powerdial_knobs::{CalibrationPoint, ConfigParameter, ParameterSpace};
    use powerdial_qos::{QosLoss, QosLossBound};

    fn test_table() -> KnobTable {
        let speedups = [1.0, 2.0, 4.0];
        let values: Vec<f64> = (0..speedups.len()).map(|i| i as f64).collect();
        let space = ParameterSpace::builder()
            .parameter(ConfigParameter::new("k", values, 0.0).unwrap())
            .build()
            .unwrap();
        let points = speedups
            .iter()
            .enumerate()
            .map(|(i, &s)| CalibrationPoint {
                setting_index: i,
                setting: space.setting(i).unwrap(),
                speedup: s,
                qos_loss: QosLoss::new((s - 1.0) * 0.02),
            })
            .collect();
        KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
    }

    fn runtime_config() -> RuntimeConfig {
        RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
    }

    fn inline_daemon() -> PowerDialDaemon {
        PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 64,
            inline_apps: 0,
            ..DaemonConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            PowerDialDaemon::new(DaemonConfig {
                workers: 0,
                channel_capacity: 0,
                inline_apps: 0,
                ..DaemonConfig::default()
            }),
            Err(ControlError::ZeroChannelCapacity)
        ));
        assert!(matches!(
            PowerDialDaemon::new(DaemonConfig {
                workers: 0,
                channel_capacity: 8,
                window_size: 0,
                inline_apps: 0,
                ..DaemonConfig::default()
            }),
            Err(ControlError::ZeroWindowSize)
        ));
        assert!(DaemonConfig::default().workers >= 1);
    }

    #[test]
    fn inline_daemon_controls_a_slow_app() {
        let mut daemon = inline_daemon();
        let mut app = daemon.register(runtime_config(), test_table()).unwrap();
        assert_eq!(daemon.app_count(), 1);
        assert!(app.latest_point().is_none());
        assert!(app.latest_gain().is_none());

        // 20 beats/s against a 30 beats/s target: the controller must ask
        // for speedup, so boosted settings appear.
        let mut now = Timestamp::ZERO;
        let mut boosted = false;
        for _ in 0..10 {
            for _ in 0..20 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(50);
                app.beat(now).unwrap();
            }
            daemon.tick();
            if app.latest_gain().unwrap_or(1.0) > 1.0 {
                boosted = true;
            }
        }
        assert!(boosted, "slow app should receive a boosted setting");
        assert_eq!(app.beats_processed(), 200);
        assert_eq!(daemon.total_beats(), 200);
        assert_eq!(daemon.ticks(), 10);
        assert!(app.achieved_speedup().unwrap() >= 1.0);
        assert!(app.expected_qos_loss().unwrap() >= 0.0);
        assert_eq!(app.beats_rejected(), 0);
    }

    #[test]
    fn threaded_daemon_matches_inline_daemon() {
        // Same beat streams through a 2-worker daemon and the inline one:
        // per-app decision state must end identical (the shards run the
        // same code; only the thread that runs it differs).
        let mut threaded = PowerDialDaemon::new(DaemonConfig {
            workers: 2,
            channel_capacity: 64,
            inline_apps: 0,
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut inline = inline_daemon();

        let mut threaded_apps: Vec<AppHandle> = (0..4)
            .map(|_| threaded.register(runtime_config(), test_table()).unwrap())
            .collect();
        let mut inline_apps: Vec<AppHandle> = (0..4)
            .map(|_| inline.register(runtime_config(), test_table()).unwrap())
            .collect();
        assert_eq!(threaded.workers(), 2);

        let mut now = Timestamp::ZERO;
        for _ in 0..8 {
            for _ in 0..20 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(40);
                for (app_index, app) in threaded_apps.iter_mut().enumerate() {
                    // Distinct per-app latencies so apps genuinely differ.
                    let offset =
                        powerdial_heartbeats::TimestampDelta::from_millis(app_index as u64);
                    app.beat(now + offset).unwrap();
                }
                for (app_index, app) in inline_apps.iter_mut().enumerate() {
                    let offset =
                        powerdial_heartbeats::TimestampDelta::from_millis(app_index as u64);
                    app.beat(now + offset).unwrap();
                }
            }
            let a = threaded.tick();
            let b = inline.tick();
            assert_eq!(a, b);
        }
        for (threaded_app, inline_app) in threaded_apps.iter().zip(&inline_apps) {
            assert_eq!(threaded_app.beats_processed(), inline_app.beats_processed());
            assert_eq!(threaded_app.latest_point(), inline_app.latest_point());
            assert_eq!(
                threaded_app.latest_gain().unwrap().to_bits(),
                inline_app.latest_gain().unwrap().to_bits()
            );
            assert_eq!(
                threaded_app.achieved_speedup().unwrap().to_bits(),
                inline_app.achieved_speedup().unwrap().to_bits()
            );
        }
    }

    #[test]
    fn unregister_inline_and_threaded() {
        for workers in [0usize, 2] {
            let mut daemon = PowerDialDaemon::new(DaemonConfig {
                workers,
                channel_capacity: 16,
                window_size: 4,
                inline_apps: 0,
                ..DaemonConfig::default()
            })
            .unwrap();
            let mut a = daemon.register(runtime_config(), test_table()).unwrap();
            let b = daemon.register(runtime_config(), test_table()).unwrap();
            assert_eq!(daemon.app_count(), 2);

            assert!(daemon.unregister(b.id()));
            assert!(!daemon.unregister(b.id()), "double unregister");
            assert_eq!(daemon.app_count(), 1);

            // The remaining app still gets controlled.
            let mut now = Timestamp::ZERO;
            for _ in 0..8 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(10);
                a.beat(now).unwrap();
            }
            assert_eq!(daemon.tick(), 8);
            assert_eq!(a.beats_processed(), 8);
        }
    }

    #[test]
    fn serial_mutex_daemon_matches_lock_free_daemon() {
        // Identical beat streams, identical decisions: the mutex baseline
        // shares the control code, so the only difference is the channel.
        let mut lock_free = inline_daemon();
        let mut serial = naive::SerialMutexDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 64,
            inline_apps: 0,
            ..DaemonConfig::default()
        })
        .unwrap();

        let mut fast_app = lock_free.register(runtime_config(), test_table()).unwrap();
        let mut slow_app = serial.register(runtime_config(), test_table()).unwrap();

        let mut now = Timestamp::ZERO;
        for quantum in 0..12 {
            let period_ms = 20 + (quantum % 5) * 10;
            for _ in 0..20 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(period_ms);
                fast_app.beat(now).unwrap();
                slow_app.beat(now).unwrap();
            }
            assert_eq!(lock_free.tick(), serial.tick());
            assert_eq!(
                fast_app.latest_gain().unwrap().to_bits(),
                slow_app.latest_gain().unwrap().to_bits(),
                "decision diverged at quantum {quantum}"
            );
        }
        assert_eq!(fast_app.beats_processed(), slow_app.beats_processed());
        assert_eq!(serial.app_count(), 1);
        assert_eq!(serial.total_beats(), 240);
    }

    #[test]
    fn shm_backed_app_is_controlled_like_a_channel_app() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();
        assert_eq!(daemon.app_count(), 1);
        assert!(view.latest_point().is_none());

        // 20 beats/s against a 30 beats/s target, through shared memory.
        let mut now = Timestamp::ZERO;
        let mut tag = HeartbeatTag::default();
        let mut boosted = false;
        for _ in 0..10 {
            for _ in 0..20 {
                let last = now;
                now += powerdial_heartbeats::TimestampDelta::from_millis(50);
                producer
                    .try_push(BeatSample {
                        tag,
                        timestamp: now,
                        latency: if tag.value() == 0 {
                            powerdial_heartbeats::TimestampDelta::ZERO
                        } else {
                            now - last
                        },
                    })
                    .unwrap();
                tag = tag.next();
            }
            daemon.tick();
            if view.latest_gain().unwrap_or(1.0) > 1.0 {
                boosted = true;
            }
        }
        assert!(boosted, "slow shm app should receive a boosted setting");
        assert_eq!(view.beats_processed(), 200);
        assert!(view.achieved_speedup().unwrap() >= 1.0);
        assert!(view.expected_qos_loss().unwrap() >= 0.0);
    }

    #[test]
    fn reap_dead_collects_abandoned_shm_apps() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();
        // Channel-backed apps are never reaped.
        let _channel_app = daemon.register(runtime_config(), test_table()).unwrap();
        assert_eq!(daemon.app_count(), 2);

        // Producer alive: nothing to reap.
        assert!(daemon.reap_dead().is_empty());

        // Publish two beats, then simulate the producing process dying by
        // replacing its PID with one that cannot exist.
        for tag in 0..2u64 {
            producer
                .try_push(BeatSample {
                    tag: HeartbeatTag(tag),
                    timestamp: Timestamp::from_millis(tag * 40),
                    latency: powerdial_heartbeats::TimestampDelta::from_millis(40 * tag.min(1)),
                })
                .unwrap();
        }
        segment
            .header()
            .producer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // Dead producer but undrained beats: the tail is not abandoned.
        assert!(daemon.reap_dead().is_empty());
        assert_eq!(daemon.tick(), 2, "stragglers survive the producer");
        assert_eq!(view.beats_processed(), 2);

        // Drained and dead: reaped.
        assert_eq!(daemon.reap_dead(), vec![view.id()]);
        assert_eq!(daemon.app_count(), 1);
        assert!(daemon.reap_dead().is_empty(), "reap is idempotent");
    }

    /// Regression: idle-skip used to starve death detection. A producer
    /// SIGKILLed while its slot was deep in a skip countdown left its
    /// final beats undrained for up to `idle_skip_limit` further quanta
    /// (the skipped drains never touched the transport), postponing the
    /// reap by the same amount. `reap_dead` now probes liveness
    /// independently of skip state and wakes the slot, so the next
    /// tick+reap round collects the corpse — whether the slot sits on the
    /// inline shard or on a worker's.
    #[test]
    fn killed_producer_behind_idle_skipped_slot_is_reaped_promptly() {
        assert_idle_skipped_corpse_reaped_promptly(0);
        assert_idle_skipped_corpse_reaped_promptly(1);
    }

    /// The reaper regression above with the app placed on the inline shard
    /// (`workers: 0`) or on worker 0 (`workers: 1`, `inline_apps: 0`).
    fn assert_idle_skipped_corpse_reaped_promptly(workers: usize) {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        let limit = 8u32;
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers,
            channel_capacity: 64,
            inline_apps: 0,
            idle_skip_limit: limit,
            ..DaemonConfig::default()
        })
        .unwrap();

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();

        // Idle the app until its slot is mid skip-countdown: `limit` empty
        // polls build the streak, one more arms the countdown, one more
        // starts consuming it.
        for _ in 0..limit + 2 {
            assert_eq!(daemon.tick(), 0);
        }

        // The producer publishes two last beats and is SIGKILLed.
        for tag in 0..2u64 {
            producer
                .try_push(BeatSample {
                    tag: HeartbeatTag(tag),
                    timestamp: Timestamp::from_millis(tag * 40),
                    latency: powerdial_heartbeats::TimestampDelta::from_millis(40 * tag.min(1)),
                })
                .unwrap();
        }
        segment
            .header()
            .producer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // The reaper sees the death through the skip state. No reap yet —
        // the tail is pending — but the slot is woken.
        assert!(daemon.reap_dead().is_empty());
        // The very next tick drains the stragglers despite the countdown
        // (pre-fix: up to `limit` zero-beat quanta first)...
        assert_eq!(daemon.tick(), 2, "wake must defeat the skip countdown");
        assert_eq!(view.beats_processed(), 2);
        // ...and the reap right after it collects the corpse.
        assert_eq!(daemon.reap_dead(), vec![view.id()]);
        assert_eq!(daemon.app_count(), 0);
    }

    /// The packed decision word's sequence wraps at 2³²; the masked value
    /// 0 reads as "no decision yet", so the encoder must skip it.
    #[test]
    fn decision_sequence_wraparound_keeps_latest_point_published() {
        // Read back through the app's decision view, as an observer would.
        let shared = DecisionView {
            id: AppId(0),
            shared: Arc::new(AppShared::default()),
        };
        shared
            .shared
            .decision
            .store(0xFFFF_FFFF << 32, Ordering::Release);
        let mut control = ControlState {
            runtime: PowerDialRuntime::new(runtime_config(), test_table()).unwrap(),
            window: SlidingWindow::new(20),
            shared: Arc::clone(&shared.shared),
            decisions: 0xFFFF_FFFF,
            seed_rate: None,
        };
        // One quantum of 50 ms beats, replayed: the kernel reads only
        // tags and latencies, never the timestamps.
        let samples: Vec<BeatSample> = (1..=20)
            .map(|beat| BeatSample {
                tag: HeartbeatTag(beat),
                timestamp: Timestamp::from_millis(beat * 50),
                latency: powerdial_heartbeats::TimestampDelta::from_millis(50),
            })
            .collect();
        let mut lat_scratch = Vec::new();
        let mut last_seq = 0xFFFF_FFFF;
        for _ in 0..2 {
            let processed = control.process_drained_batched(&samples, &mut lat_scratch);
            assert_eq!(processed.unwrap(), 20);
            assert!(shared.latest_point().is_some(), "wraparound hid it");
            let seq = shared.shared.decision.load(Ordering::Acquire) >> 32;
            assert_ne!(seq, last_seq, "the sequence must move on every publish");
            last_seq = seq;
        }
    }

    /// Feeds one 20-beat quantum of 50 ms-spaced beats to every app.
    fn feed_quantum(apps: &mut [AppHandle], now: &mut Timestamp) {
        for _ in 0..20 {
            *now += powerdial_heartbeats::TimestampDelta::from_millis(50);
            for app in apps.iter_mut() {
                app.beat(*now).unwrap();
            }
        }
    }

    /// With telemetry off, no shard keeps histograms or a trace: not the
    /// inline shard, not a worker shard, and not a worker respawned after
    /// a crash. The telemetry-on twin proves each shard kind would report.
    #[test]
    fn telemetry_off_holds_on_inline_worker_and_respawned_shards() {
        for telemetry in [true, false] {
            let mut daemon = PowerDialDaemon::new(DaemonConfig {
                workers: 1,
                channel_capacity: 64,
                inline_apps: 1,
                telemetry,
                ..DaemonConfig::default()
            })
            .unwrap();
            // The first app lands on the inline shard, the second on the
            // worker.
            let mut apps: Vec<AppHandle> = (0..2)
                .map(|_| daemon.register(runtime_config(), test_table()).unwrap())
                .collect();
            let mut now = Timestamp::ZERO;
            feed_quantum(&mut apps, &mut now);
            assert_eq!(daemon.tick(), 40);
            assert!(daemon.inject_worker_panic(0));
            assert_eq!(daemon.respawn_dead(), 1);
            // A third app lands on the respawned worker.
            apps.push(daemon.register(runtime_config(), test_table()).unwrap());
            feed_quantum(&mut apps, &mut now);
            assert_eq!(daemon.tick(), 60);

            let snapshot = daemon.telemetry_snapshot();
            if telemetry {
                assert_eq!(snapshot.apps.len(), 3);
                for app in &apps {
                    assert!(
                        snapshot.trace.iter().any(|r| r.app == app.id().value()
                            && r.reason == TraceReason::Boundary),
                        "app {} traced no decision",
                        app.id().value()
                    );
                }
                assert!(snapshot
                    .trace
                    .iter()
                    .any(|r| r.reason == TraceReason::ShardDead));
            } else {
                assert_eq!(snapshot.apps.len(), 0, "telemetry off kept histograms");
                assert_eq!(snapshot.trace.len(), 0, "telemetry off kept a trace");
            }
        }
    }

    #[test]
    fn backpressure_surfaces_on_full_channel() {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 4,
            window_size: 4,
            inline_apps: 0,
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut app = daemon.register(runtime_config(), test_table()).unwrap();
        let mut now = Timestamp::ZERO;
        let mut rejected = 0;
        for _ in 0..10 {
            now += powerdial_heartbeats::TimestampDelta::from_millis(10);
            if app.beat(now).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 6, "capacity-4 channel accepts 4 of 10 beats");
        assert_eq!(app.beats_rejected(), 6);
        assert_eq!(daemon.tick(), 4);
        // After a drain, pushes flow again.
        now += powerdial_heartbeats::TimestampDelta::from_millis(10);
        assert!(app.beat(now).is_ok());
    }

    /// Pushes one 20-beat quantum of 50 ms-spaced beats (20 beats/s against
    /// the 30 beats/s target) into an shm producer.
    fn push_slow_quantum(
        producer: &mut powerdial_heartbeats::shm::ShmProducer,
        now: &mut Timestamp,
        tag: &mut HeartbeatTag,
    ) {
        for _ in 0..20 {
            let last = *now;
            *now += powerdial_heartbeats::TimestampDelta::from_millis(50);
            producer
                .try_push(BeatSample {
                    tag: *tag,
                    timestamp: *now,
                    latency: if tag.value() == 0 {
                        powerdial_heartbeats::TimestampDelta::ZERO
                    } else {
                        *now - last
                    },
                })
                .unwrap();
            *tag = tag.next();
        }
    }

    #[test]
    fn adopted_daemon_resumes_predecessor_state_and_drains_outage_beats() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();

        // Five quanta of slow beats: the predecessor daemon publishes
        // decisions and keeps the warm-start block current.
        let mut now = Timestamp::ZERO;
        let mut tag = HeartbeatTag::default();
        for _ in 0..5 {
            push_slow_quantum(&mut producer, &mut now, &mut tag);
            daemon.tick();
        }
        let last_point = view.latest_point().unwrap();
        let last_gain = view.latest_gain().unwrap();
        assert!(matches!(
            segment.header().read_warm_state(),
            WarmRead::Ready(_)
        ));

        // SIGKILL the predecessor: nothing is reset, the consumer claim
        // goes stale. (mem::forget models the kill — Drop never runs — and
        // the PID overwrite models the claimant process no longer existing.)
        std::mem::forget(daemon);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // The application keeps beating across the outage; beats wait in
        // the ring (they live in the segment, not the dead process).
        push_slow_quantum(&mut producer, &mut now, &mut tag);

        // A successor daemon adopts the segment.
        let adopted = ShmConsumer::adopt(Arc::clone(&segment)).unwrap();
        let mut successor = inline_daemon();
        let view2 = successor
            .register_shm_adopted(runtime_config(), test_table(), adopted)
            .unwrap();

        // The predecessor's final decision is visible *before* the first
        // tick — observers never regress to "no decision yet".
        assert_eq!(view2.latest_point(), Some(last_point));
        assert_eq!(view2.latest_gain().unwrap().to_bits(), last_gain.to_bits());

        // The outage quantum drains in full on the first tick.
        assert_eq!(successor.tick(), 20);
        assert_eq!(view2.beats_processed(), 20);
        assert!(matches!(producer.read_decision(), DecisionRead::Ready(_)));
    }

    #[test]
    fn adopted_daemon_matches_uninterrupted_run_bit_for_bit() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        // Two identical slow-beat streams. Daemon A runs ten quanta
        // uninterrupted; daemon B is killed after five and a warm-started
        // successor finishes the rest. Warm start restores the integrator
        // bit-exactly and seeds the first quantum's observed rate from the
        // warm block, so the successor's decisions are bit-identical to the
        // uninterrupted run from the first post-crash quantum onward.
        let seg_a =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let seg_b =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let mut producer_a = ShmProducer::attach(Arc::clone(&seg_a)).unwrap();
        let mut producer_b = ShmProducer::attach(Arc::clone(&seg_b)).unwrap();
        let consumer_a = ShmConsumer::attach(Arc::clone(&seg_a)).unwrap();
        let consumer_b = ShmConsumer::attach(Arc::clone(&seg_b)).unwrap();

        let mut daemon_a = inline_daemon();
        let mut daemon_b = inline_daemon();
        let view_a = daemon_a
            .register_shm(runtime_config(), test_table(), consumer_a)
            .unwrap();
        let view_b = daemon_b
            .register_shm(runtime_config(), test_table(), consumer_b)
            .unwrap();

        let mut now_a = Timestamp::ZERO;
        let mut tag_a = HeartbeatTag::default();
        let mut now_b = Timestamp::ZERO;
        let mut tag_b = HeartbeatTag::default();
        for _ in 0..5 {
            push_slow_quantum(&mut producer_a, &mut now_a, &mut tag_a);
            push_slow_quantum(&mut producer_b, &mut now_b, &mut tag_b);
            daemon_a.tick();
            daemon_b.tick();
        }
        assert_eq!(
            view_a.latest_gain().unwrap().to_bits(),
            view_b.latest_gain().unwrap().to_bits()
        );

        // Kill daemon B; its app beats on through the outage.
        std::mem::forget(daemon_b);
        seg_b
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        push_slow_quantum(&mut producer_b, &mut now_b, &mut tag_b);

        let adopted = ShmConsumer::adopt(Arc::clone(&seg_b)).unwrap();
        let mut successor = inline_daemon();
        let view_b2 = successor
            .register_shm_adopted(runtime_config(), test_table(), adopted)
            .unwrap();

        for quantum in 5..10 {
            push_slow_quantum(&mut producer_a, &mut now_a, &mut tag_a);
            daemon_a.tick();
            if quantum > 5 {
                // Quantum 5's beats were already pushed during the outage.
                push_slow_quantum(&mut producer_b, &mut now_b, &mut tag_b);
            }
            successor.tick();
            assert_eq!(view_a.latest_point(), view_b2.latest_point());
            assert_eq!(
                view_a.latest_gain().unwrap().to_bits(),
                view_b2.latest_gain().unwrap().to_bits(),
                "gain diverged at quantum {quantum}"
            );
            assert_eq!(
                view_a.achieved_speedup().unwrap().to_bits(),
                view_b2.achieved_speedup().unwrap().to_bits(),
                "achieved speedup diverged at quantum {quantum}"
            );
        }
        assert_eq!(view_b2.beats_processed(), 100);
    }

    #[test]
    fn adoption_heals_torn_decision_block() {
        use powerdial_heartbeats::shm::{
            Segment, SegmentGeometry, ShmConsumer, ShmProducer, ShmWarmState,
        };
        use std::sync::atomic::Ordering;

        // Predecessor died mid-publish (odd decision seq) but its warm
        // block survived: adoption re-synthesizes the decision from the
        // knob table so the app is not stuck on a torn seqlock forever.
        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        segment.header().publish_warm_state(ShmWarmState {
            point_idx: 2,
            speedup_bits: 4.0f64.to_bits(),
            observed_rate_bits: 20.0f64.to_bits(),
            beat_in_quantum: 0,
        });
        segment.header().decision_seq.store(3, Ordering::Release);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert!(matches!(producer.read_decision(), DecisionRead::Torn));

        let adopted = ShmConsumer::adopt(Arc::clone(&segment)).unwrap();
        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm_adopted(runtime_config(), test_table(), adopted)
            .unwrap();
        match producer.read_decision() {
            DecisionRead::Ready(d) => {
                assert_eq!(d.point_idx, 2);
                assert_eq!(f64::from_bits(d.gain_bits), 4.0);
                assert_eq!(f64::from_bits(d.achieved_speedup_bits), 4.0);
                assert_eq!(f64::from_bits(d.qos_loss_bits), (4.0 - 1.0) * 0.02);
            }
            other => panic!("expected healed decision, got {other:?}"),
        }
        assert_eq!(view.latest_point(), Some(PointIdx::new(2)));
        assert_eq!(view.latest_gain(), Some(4.0));
        drop(daemon);

        // Torn decision and *no* warm state: the block is reset to Empty so
        // the application degrades per its ladder instead of spinning.
        let seg2 =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let producer2 = ShmProducer::attach(Arc::clone(&seg2)).unwrap();
        seg2.header().decision_seq.store(7, Ordering::Release);
        seg2.header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert!(matches!(producer2.read_decision(), DecisionRead::Torn));

        let adopted2 = ShmConsumer::adopt(Arc::clone(&seg2)).unwrap();
        let mut daemon2 = inline_daemon();
        let view2 = daemon2
            .register_shm_adopted(runtime_config(), test_table(), adopted2)
            .unwrap();
        assert!(matches!(producer2.read_decision(), DecisionRead::Empty));
        assert!(view2.latest_point().is_none());
    }

    #[test]
    fn reap_and_reregister_churn_resets_segment_state() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        // Repeated register → producer death → reap → re-register cycles on
        // one segment: every round must release the consumer claim and
        // reset both seqlock blocks, or state from a dead tenant leaks into
        // the next one.
        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let mut daemon = inline_daemon();
        for round in 0..5u64 {
            let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
            let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
            let view = daemon
                .register_shm(runtime_config(), test_table(), consumer)
                .unwrap();
            assert_eq!(daemon.app_count(), 1, "round {round}");

            let base = Timestamp::from_millis(round * 10_000);
            for tag in 0..2u64 {
                producer
                    .try_push(BeatSample {
                        tag: HeartbeatTag(tag),
                        timestamp: base
                            + powerdial_heartbeats::TimestampDelta::from_millis(tag * 40),
                        latency: powerdial_heartbeats::TimestampDelta::from_millis(40 * tag.min(1)),
                    })
                    .unwrap();
            }
            assert_eq!(daemon.tick(), 2, "round {round}");
            assert!(matches!(
                segment.header().read_decision(),
                DecisionRead::Ready(_)
            ));
            assert!(matches!(
                segment.header().read_warm_state(),
                WarmRead::Ready(_)
            ));

            // The producing process dies; tick-then-reap collects the app.
            segment
                .header()
                .producer_pid
                .store(0x7FFF_FF00, Ordering::Release);
            assert_eq!(daemon.reap_dead(), vec![view.id()], "round {round}");
            assert_eq!(daemon.app_count(), 0);

            // Claims released and blocks reset for the segment's next tenant.
            assert_eq!(segment.header().consumer_pid.load(Ordering::Acquire), 0);
            assert!(matches!(
                segment.header().read_decision(),
                DecisionRead::Empty
            ));
            assert!(matches!(
                segment.header().read_warm_state(),
                WarmRead::Empty
            ));

            // Free the producer role for the next round (the dead-PID
            // sentinel was stored over this process's live claim, so Drop
            // must not run — it would CAS the wrong value).
            std::mem::forget(producer);
            segment.header().producer_pid.store(0, Ordering::Release);
            segment.header().producer_nonce.store(0, Ordering::Release);
        }
    }
}
