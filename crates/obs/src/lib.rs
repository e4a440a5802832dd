//! Structured observability for the COCA reproduction.
//!
//! The paper's controller is meant to run online for a whole year of slots
//! (Algorithm 1); production carbon-aware schedulers live or die by their
//! telemetry. This crate is the single home for that telemetry, with four
//! pieces (plus [`persist`], the atomic state-file writer every runner
//! shares):
//!
//! * **Observer traits** ([`EngineObserver`], [`SolverObserver`]) — hook
//!   points the simulation engine and the P3 solvers call at well-defined
//!   moments (slot start/end, phase timings, checkpoints; solve summaries,
//!   deficit-queue samples, frame resets). Every method has a no-op
//!   default, and [`NoopObserver`] implements both traits with *zero* work
//!   — the engine gates its `Instant::now()` calls on
//!   [`EngineObserver::timing_enabled`], so an unobserved (or
//!   noop-observed) hot path pays nothing.
//! * **Metrics registry** ([`MetricsRegistry`]) — counters, gauges with an
//!   optional recorded trajectory, and fixed-bucket histograms. Handles are
//!   `Arc`-shared and internally atomic, so hot-path updates are lock-free;
//!   the registry's lock is only taken at registration and snapshot time.
//! * **Snapshot + exporters** ([`MetricsSnapshot`]) — a serializable
//!   point-in-time copy of the registry with JSON round-trip and
//!   Prometheus-text rendering, plus a tiny checked-in-schema validator
//!   ([`MetricsSchema`]) used by CI to pin the shape of `repro --metrics`
//!   output.
//! * **Span logger** ([`logger`]) — structured, levelled stderr lines with
//!   slot/frame/lane context (`[resume t=24] …`), replacing the ad-hoc
//!   `eprintln!` diagnostics that used to pollute CI-parsed output. A
//!   `--quiet` run drops everything below [`logger::Level::Error`].
//!
//! [`MetricsObserver`] ties the pieces together: one struct implementing
//! both observer traits that routes every event into a shared registry
//! under the canonical metric names (see its docs for the list).

#![deny(missing_docs, unsafe_code)]

pub mod batch;
pub mod logger;
pub mod metrics;
pub mod observer;
pub mod persist;
pub mod snapshot;

mod metrics_observer;
mod sync;

pub use batch::BatchMetrics;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use metrics_observer::MetricsObserver;
pub use observer::{EngineObserver, NoopObserver, Phase, SolveEvent, SolverObserver};
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSchema, MetricsSnapshot,
};
