//! Service wiring: ingest thread → push channel → engine →
//! wire sink / metrics / checkpoints.
//!
//! [`run_stream`] is the resident path: it restores from a checkpoint when
//! asked, spawns the reader thread, and drives
//! [`SimEngine::run_service`] until the stream closes or the stop flag is
//! raised (SIGTERM), checkpointing atomically (`.tmp` + rename) on the
//! configured cadence and always once at exit. The engine's one lane
//! records into a [`WireSink`], which keeps running totals only, so memory
//! and checkpoint size stay flat however long the service runs. A stream
//! that ends on a malformed line is an error, not a clean end: no `end`
//! message is published. [`run_batch`] is the same pipeline minus
//! residency — the whole stream is materialized first and the engine runs
//! to completion — and exists so stream-vs-batch bit-identity is a
//! one-`diff` property ingrained in the test suite.
//!
//! [`SimEngine::run_service`]: coca_dcsim::SimEngine::run_service

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use coca_core::{CocaConfig, CocaController, SymmetricSolver, VSchedule};
use coca_dcsim::{
    push_source_at, Cluster, CostParams, EngineBuilder, EngineState, ServiceConfig, ServiceExit,
    SimEngine, SinkState, SlotSource, SummarySink,
};
use coca_obs::persist::{read_json, write_json};
use coca_obs::{MetricsObserver, MetricsRegistry};
use coca_traces::EnvironmentTrace;

use crate::ingest::run_ingest;
use crate::proto::{InMsg, OutMsg};
use crate::publish::Publisher;
use crate::sink::WireSink;

/// Everything the service needs to build its cluster and controller.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Homogeneous server groups in the fleet.
    pub groups: usize,
    /// Servers per group.
    pub servers_per_group: usize,
    /// Cost model.
    pub cost: CostParams,
    /// Lyapunov weight V (constant schedule).
    pub v: f64,
    /// Frame length T (slots between deficit-queue resets).
    pub frame_length: usize,
    /// Budgeting-period length J (slots).
    pub horizon: usize,
    /// Capping aggressiveness α.
    pub alpha: f64,
    /// Total RECs Z for the period (kWh).
    pub rec_total: f64,
    /// Push-channel capacity (bounds producer lead; backpressure beyond).
    pub queue_capacity: usize,
    /// Checkpoint file; required for `--resume` and cadence checkpoints.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint every `n` slots (`None`: only at shutdown).
    pub checkpoint_every: Option<usize>,
    /// Resume from `checkpoint_path` instead of starting at slot 0.
    pub resume: bool,
    /// Raise the stop flag once this slot has been simulated *and*
    /// checkpointed — deterministic shutdown injection for tests/CI.
    /// Requires a checkpoint cadence that lands on the slot.
    pub stop_at_slot: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            groups: 4,
            servers_per_group: 10,
            cost: CostParams::default(),
            v: 100.0,
            frame_length: 24,
            horizon: 72,
            alpha: 1.0,
            rec_total: 100.0,
            queue_capacity: 64,
            checkpoint_path: None,
            checkpoint_every: None,
            resume: false,
            stop_at_slot: None,
        }
    }
}

/// What a completed service run reports back.
#[derive(Debug)]
pub struct ServeReport {
    /// Why the run ended.
    pub exit: ServiceExit,
    /// Slots simulated in total (including any resumed prefix).
    pub slots: usize,
    /// Running totals over every simulated slot (including any resumed
    /// prefix, carried in the checkpoint).
    pub summary: SummarySink,
}

impl ServeConfig {
    /// Builds the controller, validating first what
    /// [`CocaController::new`] would panic on, so a bad flag is an error.
    fn controller(
        &self,
        cluster: &Arc<Cluster>,
        observer: &Arc<MetricsObserver>,
    ) -> Result<CocaController<SymmetricSolver>, String> {
        let cfg = CocaConfig {
            v: VSchedule::Constant(self.v),
            frame_length: self.frame_length,
            horizon: self.horizon,
            alpha: self.alpha,
            rec_total: self.rec_total,
        };
        cfg.validate()?;
        self.cost.validate().map_err(|e| e.to_string())?;
        let mut solver = SymmetricSolver::new();
        solver.set_observer(Arc::clone(observer) as _);
        let mut controller =
            CocaController::new(Arc::clone(cluster), self.cost, cfg, solver);
        controller.set_observer(Arc::clone(observer) as _);
        Ok(controller)
    }

    fn cluster(&self) -> Result<Arc<Cluster>, String> {
        if self.groups == 0 || self.servers_per_group == 0 {
            return Err("fleet must have at least one group and one server".into());
        }
        Ok(Arc::new(Cluster::homogeneous(self.groups, self.servers_per_group)))
    }
}

/// Loads an [`EngineState`] checkpoint from disk.
pub fn read_checkpoint(path: &Path) -> Result<EngineState, String> {
    read_json(path)
}

/// Writes an [`EngineState`] checkpoint atomically: serialize to
/// `<path>.tmp`, then rename over `path`, so a crash mid-write never
/// leaves a torn checkpoint behind.
pub fn write_checkpoint(path: &Path, state: &EngineState) -> Result<(), String> {
    write_json(path, state)
}

/// The one lane's running totals.
fn lane_summary<Src: SlotSource>(engine: &SimEngine<'_, Src>) -> Result<SummarySink, String> {
    match engine.sink_state(0).map_err(|e| e.to_string())? {
        SinkState::Summary(summary) => Ok(summary),
        SinkState::Records(_) => Err("the wire sink must keep totals, not records".into()),
    }
}

/// Runs the resident service over a live NDJSON stream.
///
/// When the stream closes, the reader thread is joined: if it stopped on
/// a malformed or out-of-order line, the run fails with that line's error
/// and publishes no `end` (the final checkpoint, at the last good slot, is
/// still written). On a stop-flag exit the reader is left detached: it may
/// legitimately be parked in a blocking read on a quiet stream, and the
/// push channel's `receiver_gone` close makes its eventual death clean.
pub fn run_stream(
    cfg: &ServeConfig,
    input: Box<dyn BufRead + Send>,
    publisher: Arc<Publisher>,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
) -> Result<ServeReport, String> {
    let cluster = cfg.cluster()?;
    let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
    let controller = cfg.controller(&cluster, &observer)?;
    if cfg.queue_capacity == 0 {
        return Err("queue capacity must be at least 1".into());
    }

    let resumed = if cfg.resume {
        let path = cfg
            .checkpoint_path
            .as_deref()
            .ok_or_else(|| "--resume requires a checkpoint path".to_string())?;
        Some(read_checkpoint(path)?)
    } else {
        None
    };
    let first_slot = resumed.as_ref().map_or(0, |s| s.t);

    let (handle, source) = push_source_at(cfg.queue_capacity, first_slot);
    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cfg.cost)
        .rec_total(cfg.rec_total)
        .observer(Arc::clone(&observer) as _)
        .policy_with_sink(
            Box::new(controller),
            Box::new(WireSink::new("coca", Arc::clone(&publisher))),
        )
        .build(source)
        .map_err(|e| e.to_string())?;
    if let Some(state) = &resumed {
        engine.restore(state).map_err(|e| e.to_string())?;
    }

    let reader = std::thread::spawn(move || run_ingest(input, &handle));

    let checkpoint_slot = registry.gauge("serve_checkpoint_slot");
    let checkpoint_path = cfg.checkpoint_path.clone();
    let stop_at = cfg.stop_at_slot;
    let stop_for_hook = Arc::clone(&stop);
    let service_cfg =
        ServiceConfig { checkpoint_every: cfg.checkpoint_every, ..Default::default() };
    let exit = engine
        .run_service(&service_cfg, &stop, |state| {
            if let Some(path) = &checkpoint_path {
                write_checkpoint(path, state).map_err(coca_dcsim::SimError::Internal)?;
            }
            checkpoint_slot.record(state.t, state.t as f64);
            if stop_at.is_some_and(|n| state.t >= n) {
                // audit:atomic(stop-flag raise; SeqCst pairs with run_service's read)
                stop_for_hook.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    if exit == ServiceExit::Closed {
        // The reader closed the channel on its way out, so this join is
        // immediate.
        match reader.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(e.to_string()),
            Err(_) => return Err("ingest thread panicked".into()),
        }
    }

    let slots = engine.t();
    publisher.publish(&OutMsg::End { slots });
    Ok(ServeReport { exit, slots, summary: lane_summary(&engine)? })
}

/// Materializes the whole ingest stream, then runs the engine to the end —
/// the reference the stream path is diffed against.
pub fn run_batch(
    cfg: &ServeConfig,
    input: Box<dyn BufRead + Send>,
    publisher: Arc<Publisher>,
    registry: Arc<MetricsRegistry>,
) -> Result<ServeReport, String> {
    if cfg.resume {
        return Err("batch mode does not support --resume".into());
    }
    let cluster = cfg.cluster()?;
    let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
    let controller = cfg.controller(&cluster, &observer)?;
    let trace = read_trace_ndjson(input)?;
    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cfg.cost)
        .rec_total(cfg.rec_total)
        .observer(Arc::clone(&observer) as _)
        .policy_with_sink(
            Box::new(controller),
            Box::new(WireSink::new("coca", Arc::clone(&publisher))),
        )
        .build(&trace)
        .map_err(|e| e.to_string())?;
    engine.run_to_end().map_err(|e| e.to_string())?;
    let slots = engine.t();
    publisher.publish(&OutMsg::End { slots });
    Ok(ServeReport { exit: ServiceExit::Closed, slots, summary: lane_summary(&engine)? })
}

/// Parses a full ingest NDJSON stream into an [`EnvironmentTrace`].
pub fn read_trace_ndjson(input: Box<dyn BufRead + Send>) -> Result<EnvironmentTrace, String> {
    let mut trace = EnvironmentTrace {
        workload: Vec::new(),
        onsite: Vec::new(),
        offsite: Vec::new(),
        price: Vec::new(),
    };
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("read line {}: {e}", i + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match InMsg::parse(trimmed).map_err(|e| format!("line {}: {e}", i + 1))? {
            InMsg::End => break,
            InMsg::Slot(env) => {
                if env.t != trace.workload.len() {
                    return Err(format!(
                        "line {}: slot {} out of order (expected {})",
                        i + 1,
                        env.t,
                        trace.workload.len()
                    ));
                }
                trace.workload.push(env.arrival_rate);
                trace.onsite.push(env.onsite);
                trace.offsite.push(env.offsite);
                trace.price.push(env.price);
            }
        }
    }
    trace.validate()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use coca_traces::TraceConfig;
    use std::io::Write;
    use std::sync::Mutex;

    fn test_cfg() -> ServeConfig {
        ServeConfig { groups: 2, servers_per_group: 5, rec_total: 10.0, ..Default::default() }
    }

    fn test_trace(hours: usize) -> EnvironmentTrace {
        let cluster = Cluster::homogeneous(2, 5);
        TraceConfig {
            hours,
            peak_arrival_rate: 0.4 * cluster.max_capacity(),
            onsite_energy_kwh: 5.0,
            offsite_energy_kwh: 5.0,
            ..Default::default()
        }
        .generate()
    }

    fn ndjson(trace: &EnvironmentTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        replay(trace, 0, 0.0, &mut buf).unwrap();
        buf
    }

    /// A publisher whose every published byte lands in the returned buffer.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Captured {
        fn publisher(&self) -> Arc<Publisher> {
            let publisher = Publisher::new();
            publisher.subscribe(Box::new(self.clone()));
            publisher
        }
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn stream(cfg: &ServeConfig, input: Vec<u8>) -> (Result<ServeReport, String>, String) {
        let out = Captured::default();
        let report = run_stream(
            cfg,
            Box::new(std::io::Cursor::new(input)),
            out.publisher(),
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        );
        (report, out.text())
    }

    fn assert_same_summary(a: &SummarySink, b: &SummarySink) {
        assert_eq!(a.slots, b.slots);
        for (x, y) in [
            (a.total_cost, b.total_cost),
            (a.total_brown_energy, b.total_brown_energy),
            (a.total_offsite, b.total_offsite),
            (a.total_facility_energy, b.total_facility_energy),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "summary differs: {a:?} vs {b:?}");
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coca-serve-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stream_and_batch_runs_are_bit_identical() {
        let trace = test_trace(30);
        let input = ndjson(&trace);

        let (stream_report, stream_bytes) = stream(&test_cfg(), input.clone());
        let stream_report = stream_report.unwrap();
        assert_eq!(stream_report.exit, ServiceExit::Closed);
        assert_eq!(stream_report.slots, 30);

        let batch_out = Captured::default();
        let batch_report = run_batch(
            &test_cfg(),
            Box::new(std::io::Cursor::new(input)),
            batch_out.publisher(),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        assert_eq!(stream_bytes, batch_out.text(), "bit-exact published stream");
        assert_eq!(stream_bytes.lines().count(), 31, "30 decisions and the end line");
        assert_same_summary(&stream_report.summary, &batch_report.summary);
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        let trace = test_trace(24);
        let dir = tmp_dir("resume");
        let ckpt = dir.join("resume-test.ckpt.json");

        // Uninterrupted reference.
        let (reference, reference_bytes) = stream(&test_cfg(), ndjson(&trace));
        let reference = reference.unwrap();

        // Interrupted run: stop after slot 12 (checkpoint cadence 4).
        let cfg = ServeConfig {
            checkpoint_path: Some(ckpt.clone()),
            checkpoint_every: Some(4),
            stop_at_slot: Some(12),
            ..test_cfg()
        };
        let (first, first_bytes) = stream(&cfg, ndjson(&trace));
        let first = first.unwrap();
        assert_eq!(first.exit, ServiceExit::Stopped);
        assert_eq!(first.slots, 12);
        let (first_decisions, first_end) =
            first_bytes.trim_end().rsplit_once('\n').expect("decisions then end");
        assert_eq!(first_end, OutMsg::End { slots: 12 }.to_line());

        // Resume: feed the remainder of the stream from slot 12.
        let mut rest = Vec::new();
        replay(&trace, 12, 0.0, &mut rest).unwrap();
        let cfg = ServeConfig { resume: true, stop_at_slot: None, ..cfg };
        let (resumed, resumed_bytes) = stream(&cfg, rest);
        let resumed = resumed.unwrap();
        assert_eq!(resumed.exit, ServiceExit::Closed);
        assert_eq!(resumed.slots, 24);
        assert_eq!(
            format!("{first_decisions}\n{resumed_bytes}"),
            reference_bytes,
            "interrupted + resumed publish the uninterrupted bytes"
        );
        assert_same_summary(&resumed.summary, &reference.summary);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_line_fails_the_run_and_publishes_no_end() {
        let trace = test_trace(10);
        let text = String::from_utf8(ndjson(&trace)).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        // Slots 0..=4 are lines 1–5; line 6 is garbage.
        lines.insert(5, "this is not json");
        let input = lines.join("\n").into_bytes();

        let dir = tmp_dir("malformed");
        let ckpt = dir.join("serve.ckpt.json");
        let cfg = ServeConfig { checkpoint_path: Some(ckpt.clone()), ..test_cfg() };
        let (report, published) = stream(&cfg, input);
        let err = report.expect_err("a malformed line is not a clean end");
        assert!(err.contains("line 6"), "error must name the line: {err}");
        assert!(!published.contains("\"type\":\"end\""), "no end message: {published}");
        assert_eq!(published.lines().count(), 5, "the five good slots were decided");
        let state = read_checkpoint(&ckpt).expect("final checkpoint written");
        assert_eq!(state.t, 5, "checkpoint at the last good slot");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_settings_are_errors_not_panics() {
        let input = ndjson(&test_trace(4));
        for (cfg, want) in [
            (ServeConfig { frame_length: 7, ..test_cfg() }, "multiple of the frame length 7"),
            (ServeConfig { alpha: 0.0, ..test_cfg() }, "alpha 0 must be positive"),
            (ServeConfig { v: f64::NAN, ..test_cfg() }, "NaN"),
            (
                ServeConfig { cost: CostParams { gamma: 1.5, ..CostParams::default() }, ..test_cfg() },
                "gamma 1.5",
            ),
        ] {
            let (report, published) = stream(&cfg, input.clone());
            let err = report.err().unwrap_or_default();
            assert!(err.contains(want), "run_stream: want {want:?}, got {err:?}");
            assert!(published.is_empty());
            let err = run_batch(
                &cfg,
                Box::new(std::io::Cursor::new(input.clone())),
                Publisher::new(),
                Arc::new(MetricsRegistry::new()),
            )
            .err()
            .unwrap_or_default();
            assert!(err.contains(want), "run_batch: want {want:?}, got {err:?}");
        }
        let (report, _) = stream(&ServeConfig { queue_capacity: 0, ..test_cfg() }, input);
        assert!(report.err().unwrap_or_default().contains("queue capacity"));
    }

    #[test]
    fn ndjson_trace_parse_rejects_disorder() {
        let trace = test_trace(3);
        let mut buf = Vec::new();
        replay(&trace, 1, 0.0, &mut buf).unwrap();
        let err =
            read_trace_ndjson(Box::new(std::io::Cursor::new(buf))).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }
}
