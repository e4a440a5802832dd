//! Per-layer instruments for the traced runs. Everything here hooks the
//! program's public observer traits or wraps its public types; nothing is
//! added inside the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use coca_dcsim::{Decision, Policy, PolicyTelemetry, SimError, SlotFeedback, SlotObservation};
use coca_obs::{EngineObserver, Phase, SolveEvent, SolverObserver};
use serde::Value;

/// Sums engine phases and solver events. Counters are statistics that
/// publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Layers {
    pub slots: AtomicU64,
    pub env_prep_ns: AtomicU64,
    pub solve_ns: AtomicU64,
    pub record_ns: AtomicU64,
    pub checkpoints: AtomicU64,
    /// Time from the end of a slot to the engine's checkpoint notification
    /// that follows it: the `SimEngine::checkpoint` state copy.
    pub checkpoint_ns: AtomicU64,
    last_slot_end: Mutex<Option<Instant>>,
    pub solves: AtomicU64,
    pub symmetric_rounds: AtomicU64,
    pub gsd_iterations: AtomicU64,
    pub gsd_accepted: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub waterfill_evals: AtomicU64,
    pub candidate_batches: AtomicU64,
    pub batched_candidates: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Reads a counter as a float metric value.
pub fn get(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// Reads a nanosecond counter in seconds.
pub fn secs(counter: &AtomicU64) -> f64 {
    get(counter) * 1e-9
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl EngineObserver for Layers {
    fn on_slot_end(&self, _t: usize, _lanes: usize) {
        add(&self.slots, 1);
        *self.last_slot_end.lock().expect("observer mutex poisoned") = Some(Instant::now());
    }

    fn on_phase(&self, phase: Phase, elapsed: Duration) {
        let counter = match phase {
            Phase::EnvPrep => &self.env_prep_ns,
            Phase::Solve => &self.solve_ns,
            Phase::Record => &self.record_ns,
        };
        add(counter, elapsed.as_nanos() as u64);
    }

    fn on_checkpoint(&self, _t: usize) {
        add(&self.checkpoints, 1);
        if let Some(at) = *self.last_slot_end.lock().expect("observer mutex poisoned") {
            add(&self.checkpoint_ns, at.elapsed().as_nanos() as u64);
        }
    }

    fn timing_enabled(&self) -> bool {
        true
    }
}

impl SolverObserver for Layers {
    fn on_solve(&self, ev: &SolveEvent) {
        add(&self.solves, 1);
        if ev.solver == "symmetric" {
            add(&self.symmetric_rounds, ev.iterations as u64);
        }
        if ev.solver.starts_with("gsd") {
            add(&self.gsd_iterations, ev.iterations as u64);
            add(&self.gsd_accepted, ev.accepted as u64);
        }
        add(&self.cache_hits, ev.cache_hits);
        add(&self.cache_misses, ev.cache_misses);
        add(&self.waterfill_evals, ev.bisection_evals);
        add(&self.candidate_batches, ev.candidate_batches);
        add(&self.batched_candidates, ev.batched_candidates);
    }
}

/// A policy wrapper that times [`Policy::decide`] and forwards the rest.
pub struct TimedPolicy<P> {
    pub inner: P,
    pub decide_time: Duration,
    pub decisions: u64,
}

impl<P: Policy> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            decide_time: Duration::ZERO,
            decisions: 0,
        }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &SlotObservation) -> Result<Decision, SimError> {
        let t0 = Instant::now();
        let decision = self.inner.decide(obs);
        self.decide_time += t0.elapsed();
        self.decisions += 1;
        decision
    }

    fn feedback(&mut self, fb: &SlotFeedback) {
        self.inner.feedback(fb);
    }

    fn telemetry(&self) -> Option<PolicyTelemetry> {
        self.inner.telemetry()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn snapshot(&self) -> Result<Value, SimError> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: &Value) -> Result<(), SimError> {
        self.inner.restore(state)
    }
}
