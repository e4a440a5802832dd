//! The resident service's checkpoint has constant size: it carries the
//! wire sink's running totals and the controller's queue and warm start,
//! not every record so far. A checkpoint taken after 2,400 slots must be
//! as small as one taken after 24, and resuming from it must publish the
//! uninterrupted run's bytes.

use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use coca::prelude::*;
use coca::serve::{read_checkpoint, replay, run_stream, Publisher};

const SLOTS: usize = 2_448;

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

fn fleet() -> ServeConfig {
    ServeConfig { groups: 2, servers_per_group: 5, rec_total: 10.0, ..Default::default() }
}

fn trace() -> EnvironmentTrace {
    let cfg = fleet();
    let cluster = Cluster::homogeneous(cfg.groups, cfg.servers_per_group);
    TraceConfig {
        hours: SLOTS,
        peak_arrival_rate: 0.5 * cfg.cost.gamma * cluster.max_capacity(),
        onsite_energy_kwh: 500.0,
        offsite_energy_kwh: 500.0,
        seed: 11,
        ..Default::default()
    }
    .generate()
}

/// The ingest NDJSON for `trace` from slot `first` on.
fn ndjson(trace: &EnvironmentTrace, first: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    replay(trace, first, 0.0, &mut buf).unwrap();
    buf
}

/// One `run_stream` over `input`; returns its report and published text.
fn stream(cfg: &ServeConfig, input: Vec<u8>) -> (ServeReport, String) {
    let out = Captured::default();
    let publisher = Publisher::new();
    publisher.subscribe(Box::new(out.clone()));
    let report = run_stream(
        cfg,
        Box::new(Cursor::new(input)),
        publisher,
        Arc::new(MetricsRegistry::new()),
        Arc::new(AtomicBool::new(false)),
    )
    .unwrap();
    let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
    (report, text)
}

/// Runs until the checkpoint at `stop_at` and returns the checkpoint's
/// size in bytes and the decisions published before the stop.
fn stop_at(trace: &EnvironmentTrace, path: &Path, stop_at: usize) -> (u64, String) {
    let cfg = ServeConfig {
        checkpoint_path: Some(path.to_path_buf()),
        checkpoint_every: Some(24),
        stop_at_slot: Some(stop_at),
        ..fleet()
    };
    let (report, published) = stream(&cfg, ndjson(trace, 0));
    assert_eq!(report.exit, ServiceExit::Stopped);
    assert_eq!(report.slots, stop_at);
    let state = read_checkpoint(path).unwrap();
    assert_eq!(state.t, stop_at);
    assert!(
        matches!(&state.lanes[0].sink, SinkState::Summary(s) if s.slots == stop_at),
        "the service checkpoints totals, not records"
    );
    let (decisions, end) = published.trim_end().rsplit_once('\n').unwrap();
    assert_eq!(end, OutMsg::End { slots: stop_at }.to_line());
    (std::fs::metadata(path).unwrap().len(), format!("{decisions}\n"))
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coca-serve-ckpt-size-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serve_checkpoint_size_is_independent_of_t_and_resume_is_bit_exact() {
    let trace = trace();
    let dir = tmp_dir();
    let path = dir.join("serve.ckpt.json");

    let (reference, reference_bytes) = stream(&fleet(), ndjson(&trace, 0));
    assert_eq!(reference.slots, SLOTS);

    let (early, _) = stop_at(&trace, &path, 24);
    let (late, before) = stop_at(&trace, &path, 2_400);
    assert!(
        late.abs_diff(early) <= 256,
        "checkpoint at t=2400 is {late} B, at t=24 {early} B"
    );

    let cfg = ServeConfig { checkpoint_path: Some(path), resume: true, ..fleet() };
    let (resumed, after) = stream(&cfg, ndjson(&trace, 2_400));
    assert_eq!(resumed.exit, ServiceExit::Closed);
    assert_eq!(resumed.slots, SLOTS);
    assert_eq!(before + &after, reference_bytes, "resume publishes the uninterrupted bytes");
    assert_eq!(resumed.summary.slots, reference.summary.slots);
    assert_eq!(resumed.summary.total_cost.to_bits(), reference.summary.total_cost.to_bits());
    assert_eq!(
        resumed.summary.total_brown_energy.to_bits(),
        reference.summary.total_brown_energy.to_bits()
    );

    std::fs::remove_dir_all(&dir).ok();
}
