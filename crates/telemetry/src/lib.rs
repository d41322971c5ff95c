//! # idd-telemetry — unified search/runtime tracing
//!
//! The solver portfolio and the deployment runtime are judged by end-state
//! artifacts (`SolveResult`, `DeploymentReport`, the journal); this crate
//! records *where time went*: which member published which incumbent, how
//! long each build slot sat idle, when a replan fired and what it decided.
//! It is a deliberately small, hand-rolled tracing core — the offline build
//! environment rules out the `tracing` ecosystem (see `vendor/README.md`) —
//! built around three ideas:
//!
//! 1. **Per-thread lock-free buffers.** A [`TrackRecorder`] owns a plain
//!    `Vec<Event>`; recording an event is a `push`, with no atomics and no
//!    locks on the hot path. The buffer is submitted to the shared
//!    [`Collector`] exactly once, when the recorder drops — mirroring the
//!    scoped-thread shape of the portfolio runner, where every member
//!    joins before the race reports.
//! 2. **Deterministic merged order.** [`Telemetry::drain`] sorts the
//!    submitted buffers by `(track, seq)` — a key assigned at *emission*,
//!    not at submission — so the merged [`TraceStream`] is independent of
//!    thread scheduling. Everything nondeterministic (wall-clock
//!    microseconds, shared-incumbent epochs observed across threads) lives
//!    in dedicated [`Event`] fields that the deterministic exporter
//!    ignores.
//! 3. **Two exporters.** [`summary::render`] produces a golden-stable text
//!    summary (logical clocks and counters only); [`chrome::render`]
//!    produces Chrome trace-event JSON loadable in Perfetto or
//!    `chrome://tracing`, wall-clock and epochs included.
//!
//! [`Telemetry`] defaults to **off**: every handle degenerates to a no-op
//! that records nothing and allocates nothing, so instrumented code paths
//! are bit-identical to their pre-telemetry selves unless a caller opts in
//! with [`Telemetry::recording`].
//!
//! Code that cannot thread a recorder through its signatures (the solver
//! trait's `run` is fixed) emits through an *installed* recorder instead:
//! [`TrackHandle::install`] parks the recorder in a thread-local slot, and
//! the free functions ([`mark`], [`counter`], ...) write to whatever is
//! installed on the current thread — or do nothing at all.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod summary;

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies one *track* (a timeline lane): a portfolio member, the
/// deployment event loop, or one build slot. Assigned by registration
/// order, so registering tracks deterministically (e.g. on the main thread,
/// in member order) keys the merged stream deterministically.
pub type TrackId = usize;

/// What one telemetry event records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A wall-clock span opened (closed by a matching [`EventKind::SpanEnd`]
    /// on the same track). Durations are wall-clock only, so begin/end pairs
    /// appear in the Chrome export but carry no deterministic timing.
    SpanBegin {
        /// Span label ("run", ...).
        name: String,
    },
    /// Closes the innermost [`EventKind::SpanBegin`] with the same name.
    SpanEnd {
        /// Span label.
        name: String,
    },
    /// A complete span on the *logical* clock: `[start, end]` in
    /// deployment-clock seconds. Fully deterministic.
    Span {
        /// Span label ("busy", "idle", ...).
        name: String,
        /// Logical-clock start.
        start: f64,
        /// Logical-clock end (`>= start`).
        end: f64,
    },
    /// A monotone counter total (emitted once, at the end of the producing
    /// phase).
    Counter {
        /// Counter name ("iterations", "restarts", ...).
        name: String,
        /// The total.
        value: u64,
    },
    /// An instantaneous gauge sample ("queue depth is 3 now").
    Gauge {
        /// Gauge name ("pending", ...).
        name: String,
        /// The sampled value.
        value: f64,
    },
    /// A point event ("incumbent published", "dispatch", "replan", ...).
    Mark {
        /// Event name.
        name: String,
        /// Deterministic detail string (objective, index, trigger, ...).
        detail: String,
    },
}

impl EventKind {
    /// The event's name label, whatever its shape.
    pub fn name(&self) -> &str {
        match self {
            EventKind::SpanBegin { name }
            | EventKind::SpanEnd { name }
            | EventKind::Span { name, .. }
            | EventKind::Counter { name, .. }
            | EventKind::Gauge { name, .. }
            | EventKind::Mark { name, .. } => name,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The track this event belongs to.
    pub track: TrackId,
    /// Per-track emission sequence number (0-based): the deterministic sort
    /// key within a track.
    pub seq: u64,
    /// Logical (deployment) clock at emission, when the producer has one.
    /// `None` for solver-side events, which have no logical clock.
    pub clock: Option<f64>,
    /// Wall-clock microseconds since the collector was created.
    /// **Nondeterministic** — excluded from the deterministic exporter and
    /// from [`Event::deterministic_view`].
    pub wall_us: u64,
    /// Shared-incumbent epoch observed at emission, where applicable.
    /// **Nondeterministic** under concurrency (epochs count cross-thread
    /// publications) — excluded like `wall_us`.
    pub epoch: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The deterministic projection of this event: everything except
    /// `wall_us` and `epoch`, with the logical clock by bit pattern. Two
    /// runs of the same seeded workload produce identical projections
    /// regardless of thread count or scheduling.
    pub fn deterministic_view(&self) -> (TrackId, u64, Option<u64>, EventKind) {
        (
            self.track,
            self.seq,
            self.clock.map(f64::to_bits),
            self.kind.clone(),
        )
    }
}

/// The shared sink: registered track names plus every submitted buffer.
#[derive(Debug)]
pub struct Collector {
    start: Instant,
    inner: Mutex<CollectorState>,
}

#[derive(Debug, Default)]
struct CollectorState {
    tracks: Vec<String>,
    buffers: Vec<Vec<Event>>,
}

impl Collector {
    fn new() -> Self {
        Self {
            start: Instant::now(),
            inner: Mutex::new(CollectorState::default()),
        }
    }

    fn register(&self, name: String) -> TrackId {
        let mut state = self.lock();
        state.tracks.push(name);
        state.tracks.len() - 1
    }

    fn submit(&self, buffer: Vec<Event>) {
        if !buffer.is_empty() {
            self.lock().buffers.push(buffer);
        }
    }

    fn wall_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CollectorState> {
        // A recorder never panics between related writes (buffers are
        // submitted wholesale), so a poisoned lock only reflects a peer's
        // unrelated panic: recover rather than cascade.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The telemetry handle: either **off** (the default — every operation is a
/// no-op) or **recording** into a shared [`Collector`]. Cloning shares the
/// collector; handles are cheap to pass around and `Send + Sync`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
}

impl Telemetry {
    /// The no-op handle (the default): nothing is recorded, nothing is
    /// allocated, instrumented code behaves bit-identically to
    /// uninstrumented code.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording handle with a fresh collector.
    pub fn recording() -> Self {
        Self {
            collector: Some(Arc::new(Collector::new())),
        }
    }

    /// `true` when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Registers a track and returns its handle. Track ids follow
    /// registration order — register on one thread, in a deterministic
    /// order, to key the merged stream deterministically. Off handles
    /// return a no-op track.
    pub fn register(&self, name: impl Into<String>) -> TrackHandle {
        match &self.collector {
            Some(collector) => TrackHandle {
                track: collector.register(name.into()),
                collector: Some(Arc::clone(collector)),
            },
            None => TrackHandle {
                track: 0,
                collector: None,
            },
        }
    }

    /// Merges every submitted buffer into one [`TraceStream`], ordered by
    /// `(track, seq)`. Call after all recorders have dropped (e.g. after
    /// the scoped threads joined) — events still sitting in a live recorder
    /// are not included. Draining an off handle yields an empty stream.
    pub fn drain(&self) -> TraceStream {
        let Some(collector) = &self.collector else {
            return TraceStream::default();
        };
        let mut state = collector.lock();
        let tracks = state.tracks.clone();
        let mut events: Vec<Event> = std::mem::take(&mut state.buffers)
            .into_iter()
            .flatten()
            .collect();
        drop(state);
        events.sort_by(|a, b| a.track.cmp(&b.track).then(a.seq.cmp(&b.seq)));
        TraceStream { tracks, events }
    }
}

/// A registered track: the factory for its [`TrackRecorder`].
#[derive(Debug, Clone)]
pub struct TrackHandle {
    collector: Option<Arc<Collector>>,
    track: TrackId,
}

impl TrackHandle {
    /// This track's id (0 for no-op handles).
    pub fn id(&self) -> TrackId {
        self.track
    }

    /// An owned recorder for this track. Recording is a plain `Vec` push;
    /// the buffer is submitted to the collector when the recorder drops.
    pub fn recorder(&self) -> TrackRecorder {
        TrackRecorder {
            collector: self.collector.clone(),
            track: self.track,
            seq: 0,
            buffer: Vec::new(),
        }
    }

    /// Installs a recorder for this track into the current thread's slot
    /// and returns the guard that uninstalls (and submits) it on drop.
    /// While installed, the free functions ([`mark`], [`counter`],
    /// [`span_begin`], ...) on this thread record here. Installs nest: the
    /// guard restores whatever was installed before it.
    pub fn install(&self) -> RecorderGuard {
        let recorder = self.collector.is_some().then(|| self.recorder());
        let prev = ACTIVE.with(|slot| slot.replace(recorder));
        RecorderGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }
}

/// An owned per-thread event buffer for one track. All emission methods are
/// lock-free (`Vec::push`); the buffer is submitted wholesale when the
/// recorder drops. A recorder created from an off [`Telemetry`] records
/// nothing.
#[derive(Debug)]
pub struct TrackRecorder {
    collector: Option<Arc<Collector>>,
    track: TrackId,
    seq: u64,
    buffer: Vec<Event>,
}

impl TrackRecorder {
    fn push(&mut self, clock: Option<f64>, epoch: Option<u64>, kind: EventKind) {
        self.push_at(None, clock, epoch, kind);
    }

    /// Pushes an event stamped with the wall time `at` (now when `None`).
    fn push_at(
        &mut self,
        at: Option<Instant>,
        clock: Option<f64>,
        epoch: Option<u64>,
        kind: EventKind,
    ) {
        let Some(collector) = &self.collector else {
            return;
        };
        let seq = self.seq;
        self.seq += 1;
        self.buffer.push(Event {
            track: self.track,
            seq,
            clock,
            wall_us: collector.wall_us(at.unwrap_or_else(Instant::now)),
            epoch,
            kind,
        });
    }

    /// Records a point event without a logical clock.
    pub fn mark(&mut self, name: &str, detail: impl Into<String>) {
        self.push(
            None,
            None,
            EventKind::Mark {
                name: name.to_string(),
                detail: detail.into(),
            },
        );
    }

    /// Records a point event stamped with the logical clock.
    pub fn mark_at(&mut self, clock: f64, name: &str, detail: impl Into<String>) {
        self.push(
            Some(clock),
            None,
            EventKind::Mark {
                name: name.to_string(),
                detail: detail.into(),
            },
        );
    }

    /// Records a point event tagged with a shared-incumbent epoch (the
    /// epoch is excluded from deterministic exports).
    pub fn mark_epoch(&mut self, name: &str, detail: impl Into<String>, epoch: u64) {
        self.push(
            None,
            Some(epoch),
            EventKind::Mark {
                name: name.to_string(),
                detail: detail.into(),
            },
        );
    }

    /// Records a counter total.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.push(
            None,
            None,
            EventKind::Counter {
                name: name.to_string(),
                value,
            },
        );
    }

    /// Records a gauge sample at the logical clock.
    pub fn gauge_at(&mut self, clock: f64, name: &str, value: f64) {
        self.push(
            Some(clock),
            None,
            EventKind::Gauge {
                name: name.to_string(),
                value,
            },
        );
    }

    /// Records a complete logical-clock span (`end` is clamped up to
    /// `start`: a negative-length span is a caller bug that must not poison
    /// duration sums).
    pub fn span(&mut self, name: &str, start: f64, end: f64) {
        self.push(
            Some(start),
            None,
            EventKind::Span {
                name: name.to_string(),
                start,
                end: end.max(start),
            },
        );
    }

    /// Opens a wall-clock span.
    pub fn span_begin(&mut self, name: &str) {
        self.push(
            None,
            None,
            EventKind::SpanBegin {
                name: name.to_string(),
            },
        );
    }

    /// Closes the innermost wall-clock span with this name.
    pub fn span_end(&mut self, name: &str) {
        self.push(
            None,
            None,
            EventKind::SpanEnd {
                name: name.to_string(),
            },
        );
    }

    /// Records, after the fact, a wall-clock span that ran from `start` to
    /// `end` — for work another thread did on this track's behalf. It nests
    /// inside whatever span is open here.
    pub fn span_between(&mut self, name: &str, start: Instant, end: Instant) {
        let name = name.to_string();
        self.push_at(
            Some(start),
            None,
            None,
            EventKind::SpanBegin { name: name.clone() },
        );
        self.push_at(
            Some(end.max(start)),
            None,
            None,
            EventKind::SpanEnd { name },
        );
    }

    /// Number of events buffered (0 for no-op recorders).
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }
}

impl Drop for TrackRecorder {
    fn drop(&mut self) {
        if let Some(collector) = &self.collector {
            collector.submit(std::mem::take(&mut self.buffer));
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<TrackRecorder>> = const { RefCell::new(None) };
}

/// Uninstalls (and thereby submits) the thread's recorder on drop,
/// restoring whatever was installed before. Deliberately `!Send`: the guard
/// must drop on the thread that installed it.
#[derive(Debug)]
pub struct RecorderGuard {
    prev: Option<TrackRecorder>,
    // The guard must drop on the installing thread (it swaps a
    // thread-local); a raw pointer makes it !Send without runtime cost.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        // Swap the previous recorder back in; the one we installed drops
        // here, submitting its buffer.
        let prev = self.prev.take();
        ACTIVE.with(|slot| slot.replace(prev));
    }
}

/// Runs `f` on the thread's installed recorder, if any. The no-recorder
/// path is a thread-local read and a branch.
pub fn with_active<F: FnOnce(&mut TrackRecorder)>(f: F) {
    ACTIVE.with(|slot| {
        if let Some(recorder) = slot.borrow_mut().as_mut() {
            f(recorder);
        }
    });
}

/// [`TrackRecorder::mark`] on the thread's installed recorder (no-op
/// without one).
pub fn mark(name: &str, detail: impl Into<String>) {
    let detail = detail.into();
    with_active(|r| r.mark(name, detail));
}

/// [`TrackRecorder::mark_epoch`] on the thread's installed recorder.
pub fn mark_epoch(name: &str, detail: impl Into<String>, epoch: u64) {
    let detail = detail.into();
    with_active(|r| r.mark_epoch(name, detail, epoch));
}

/// [`TrackRecorder::counter`] on the thread's installed recorder.
pub fn counter(name: &str, value: u64) {
    with_active(|r| r.counter(name, value));
}

/// [`TrackRecorder::span_begin`] on the thread's installed recorder.
pub fn span_begin(name: &str) {
    with_active(|r| r.span_begin(name));
}

/// [`TrackRecorder::span_end`] on the thread's installed recorder.
pub fn span_end(name: &str) {
    with_active(|r| r.span_end(name));
}

/// The merged, `(track, seq)`-ordered event stream of one collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStream {
    /// Track names, indexed by [`TrackId`].
    pub tracks: Vec<String>,
    /// Every event, sorted by `(track, seq)`.
    pub events: Vec<Event>,
}

impl TraceStream {
    /// The name of a track (`"?"` for an id no track was registered for —
    /// events from no-op recorders never reach a stream, so this only
    /// happens on caller error).
    pub fn track_name(&self, track: TrackId) -> &str {
        self.tracks.get(track).map(String::as_str).unwrap_or("?")
    }

    /// The events of one track, in emission order.
    pub fn events_for(&self, track: TrackId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.track == track)
    }

    /// Sums every [`EventKind::Counter`] with this name across all tracks.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Counter { name: n, value } if n == name => *value,
                _ => 0,
            })
            .sum()
    }

    /// Sums the durations of every logical-clock [`EventKind::Span`] with
    /// this name on this track.
    pub fn span_total(&self, track: TrackId, name: &str) -> f64 {
        self.events_for(track)
            .map(|e| match &e.kind {
                EventKind::Span {
                    name: n,
                    start,
                    end,
                } if n == name => end - start,
                _ => 0.0,
            })
            .sum()
    }

    /// The deterministic projection of the whole stream (see
    /// [`Event::deterministic_view`]): identical across runs and thread
    /// counts for the same seeded workload.
    pub fn deterministic_view(&self) -> Vec<(TrackId, u64, Option<u64>, EventKind)> {
        self.events.iter().map(Event::deterministic_view).collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_between_stamps_the_given_interval() {
        let telemetry = Telemetry::recording();
        let track = telemetry.register("seed");
        let start = Instant::now();
        let end = start + std::time::Duration::from_millis(5);
        track.recorder().span_between("seed", start, end);
        let stream = telemetry.drain();
        let events: Vec<_> = stream.events_for(track.id()).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.name(), "seed");
        assert!(matches!(events[0].kind, EventKind::SpanBegin { .. }));
        assert!(matches!(events[1].kind, EventKind::SpanEnd { .. }));
        assert_eq!(events[1].wall_us - events[0].wall_us, 5_000);
    }

    #[test]
    fn off_handles_record_nothing() {
        let telemetry = Telemetry::off();
        assert!(!telemetry.is_enabled());
        let track = telemetry.register("solver/vns");
        let mut recorder = track.recorder();
        recorder.mark("publish", "objective=1.0");
        recorder.counter("iterations", 42);
        assert!(recorder.is_empty());
        drop(recorder);
        let _guard = track.install();
        mark("publish", "objective=2.0");
        counter("iterations", 7);
        drop(_guard);
        assert!(telemetry.drain().is_empty());
    }

    #[test]
    fn recorded_events_merge_in_track_seq_order() {
        let telemetry = Telemetry::recording();
        assert!(telemetry.is_enabled());
        let a = telemetry.register("a");
        let b = telemetry.register("b");
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);

        // Submit b's buffer *before* a's: the drain must still order by
        // (track, seq), not by submission.
        let mut rb = b.recorder();
        rb.mark_at(2.0, "dispatch", "i0");
        rb.span("busy", 0.0, 2.0);
        drop(rb);
        let mut ra = a.recorder();
        ra.counter("iterations", 3);
        ra.mark("publish", "objective=9.5");
        drop(ra);

        let stream = telemetry.drain();
        assert_eq!(stream.tracks, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(stream.len(), 4);
        assert_eq!(stream.events[0].track, 0);
        assert_eq!(stream.events[0].seq, 0);
        assert_eq!(stream.events[1].kind.name(), "publish");
        assert_eq!(stream.events[2].track, 1);
        assert_eq!(stream.events[2].clock, Some(2.0));
        assert_eq!(stream.counter_total("iterations"), 3);
        assert!((stream.span_total(1, "busy") - 2.0).abs() < 1e-12);
        // A second drain finds the buffers consumed.
        assert!(telemetry.drain().is_empty());
    }

    #[test]
    fn installed_recorders_nest_and_restore() {
        let telemetry = Telemetry::recording();
        let outer = telemetry.register("outer");
        let inner = telemetry.register("inner");
        {
            let _outer_guard = outer.install();
            mark("outer-mark", "");
            {
                let _inner_guard = inner.install();
                mark("inner-mark", "");
            }
            // The outer recorder is active again.
            mark("outer-mark-2", "");
        }
        let stream = telemetry.drain();
        let outer_events: Vec<_> = stream.events_for(0).map(|e| e.kind.name()).collect();
        let inner_events: Vec<_> = stream.events_for(1).map(|e| e.kind.name()).collect();
        assert_eq!(outer_events, vec!["outer-mark", "outer-mark-2"]);
        assert_eq!(inner_events, vec!["inner-mark"]);
    }

    #[test]
    fn deterministic_view_hides_wall_clock_and_epoch() {
        let telemetry = Telemetry::recording();
        let track = telemetry.register("t");
        let mut r = track.recorder();
        r.mark_epoch("incumbent", "objective=4.0", 17);
        drop(r);
        let stream = telemetry.drain();
        assert_eq!(stream.events[0].epoch, Some(17));
        let (track_id, seq, clock, kind) = stream.events[0].deterministic_view().clone();
        assert_eq!((track_id, seq, clock), (0, 0, None));
        assert_eq!(
            kind,
            EventKind::Mark {
                name: "incumbent".into(),
                detail: "objective=4.0".into()
            }
        );
    }

    #[test]
    fn spans_clamp_negative_durations() {
        let telemetry = Telemetry::recording();
        let track = telemetry.register("slot0");
        let mut r = track.recorder();
        r.span("busy", 5.0, 3.0);
        drop(r);
        let stream = telemetry.drain();
        assert_eq!(stream.span_total(0, "busy"), 0.0);
    }

    #[test]
    fn cross_thread_buffers_merge_deterministically() {
        let telemetry = Telemetry::recording();
        let tracks: Vec<TrackHandle> = (0..4)
            .map(|k| telemetry.register(format!("member{k}")))
            .collect();
        std::thread::scope(|scope| {
            for track in &tracks {
                scope.spawn(move || {
                    let _guard = track.install();
                    for i in 0..50u64 {
                        mark("step", format!("i={i}"));
                    }
                    counter("iterations", 50);
                });
            }
        });
        let stream = telemetry.drain();
        assert_eq!(stream.len(), 4 * 51);
        assert_eq!(stream.counter_total("iterations"), 200);
        // Per-track order is emission order regardless of interleaving.
        for t in 0..4 {
            let seqs: Vec<u64> = stream.events_for(t).map(|e| e.seq).collect();
            assert_eq!(seqs, (0..51).collect::<Vec<_>>());
        }
    }
}
