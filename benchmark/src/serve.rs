//! The serve workloads: seeded NDJSON slot streams fed, as fast as the
//! service reads them, to a release `coca-serve run` child over one
//! loopback TCP ingest connection, with decisions read from its stdout.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coca_core::{CocaConfig, CocaController, SymmetricSolver, VSchedule};
use coca_dcsim::{push_source_at, Cluster, EngineBuilder, ServiceConfig};
use coca_obs::MetricsRegistry;
use coca_serve::{
    read_checkpoint, run_batch, run_ingest, write_checkpoint, InMsg, OutMsg, Publisher,
    ServeConfig, WireSink,
};
use coca_traces::TraceConfig;

use crate::batch::{core_metrics, engine_metrics};
use crate::layers::{self, Layers};
use crate::stats::median;
use crate::sys::{peak_rss_mb, wait_with_cpu};
use crate::{Args, Metric, Outcome};

/// Spawns that only measure time-to-ready, made before each measured
/// stream so the samples spread across the run; `setup_s` is the median
/// over them and the streams' own spawns.
const SETUP_SPAWNS_PER_STREAM: usize = 10;
const END_PREFIX: &[u8] = b"{\"type\":\"end\"";
/// Decision lines between two reads of the child's peak resident set. The
/// child may exit before the read at `end` lands, so the last poll must be
/// close to the end of the stream.
const RSS_POLL_LINES: usize = 256;

/// One serve workload's fixed shape; the seed picks the trace.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub groups: usize,
    pub servers_per_group: usize,
    pub hours: usize,
    pub checkpoint_every: Option<usize>,
}

pub fn shape(workload: &str) -> Option<Shape> {
    let (hours, checkpoint_every) = match workload {
        "serve_stream" => (5 * 8_760, None),
        "serve_ckpt" => (8_760, Some(24)),
        _ => return None,
    };
    Some(Shape {
        groups: 2,
        servers_per_group: 5,
        hours,
        checkpoint_every,
    })
}

impl Shape {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            groups: self.groups,
            servers_per_group: self.servers_per_group,
            ..ServeConfig::default()
        }
    }
}

/// The ingest stream: slot lines then one `end` line, each with its `\n`.
pub struct Input {
    pub bytes: Vec<u8>,
    pub slots: usize,
}

impl Input {
    pub fn from_lines(lines: impl IntoIterator<Item = String>) -> Self {
        let mut bytes = Vec::new();
        let mut count = 0;
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            count += 1;
        }
        Self {
            bytes,
            slots: count - 1,
        }
    }
}

/// Seeded input: a synthetic trace peaking at half the fleet's maximum
/// servable rate (γ × full-speed capacity), as `coca-serve replay` would
/// encode it.
fn generate(shape: &Shape, seed: u64) -> Input {
    let cfg = shape.config();
    let cluster = Cluster::homogeneous(shape.groups, shape.servers_per_group);
    let trace = TraceConfig {
        hours: shape.hours,
        peak_arrival_rate: 0.5 * cfg.cost.gamma * cluster.max_capacity(),
        onsite_energy_kwh: 500.0,
        offsite_energy_kwh: 500.0,
        seed,
        ..TraceConfig::default()
    }
    .generate();
    Input::from_lines(
        trace
            .slots()
            .map(|env| InMsg::Slot(env).to_line())
            .chain([InMsg::End.to_line()]),
    )
}

/// A `Write` into shared memory.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("buffer mutex poisoned")
            .extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The expected publish stream: `run_batch` over the same input, the
/// repository's stream ≡ batch reference.
fn reference(shape: &Shape, input: &Input) -> Result<Vec<u8>, String> {
    let publisher = Publisher::new();
    let buf = SharedBuf::default();
    publisher.subscribe(Box::new(buf.clone()));
    run_batch(
        &shape.config(),
        Box::new(io::Cursor::new(input.bytes.clone())),
        publisher,
        Arc::new(MetricsRegistry::new()),
    )?;
    let bytes = buf.0.lock().expect("buffer mutex poisoned").clone();
    Ok(bytes)
}

/// Slots whose decision line is missing or differs from the reference at
/// its position, plus one when the closing `end` line is missing or wrong.
pub fn slot_errors(expected: &[u8], got: &[u8], slots: usize) -> usize {
    let mut want = expected.split_inclusive(|&b| b == b'\n');
    let mut have = got.split_inclusive(|&b| b == b'\n');
    let mut errors = 0;
    for _ in 0..slots {
        if want.next() != have.next() {
            errors += 1;
        }
    }
    if want.ne(have) {
        errors += 1;
    }
    errors.min(slots.max(1))
}

/// Everything read from the publish stream.
#[derive(Debug, Default)]
pub struct ReadLog {
    pub bytes: Vec<u8>,
    /// When the `end` line was read.
    pub end_at: Option<Instant>,
    /// The writer's peak resident set as last read, in MiB.
    pub peak_rss_mb: Option<f64>,
}

/// Reads publish lines until EOF, noting when the `end` line arrives and
/// reading the peak resident set of process `pid` every
/// [`RSS_POLL_LINES`] lines and at `end`, while it is still running.
pub fn read_stream<R: BufRead>(mut input: R, pid: u32) -> io::Result<ReadLog> {
    let mut log = ReadLog::default();
    let mut lines = 0;
    loop {
        let start = log.bytes.len();
        if input.read_until(b'\n', &mut log.bytes)? == 0 {
            return Ok(log);
        }
        lines += 1;
        let end = log.bytes[start..].starts_with(END_PREFIX);
        if end {
            log.end_at = Some(Instant::now());
        }
        if end || lines % RSS_POLL_LINES == 0 {
            log.peak_rss_mb = peak_rss_mb(Some(pid)).or(log.peak_rss_mb);
        }
    }
}

struct Spawned {
    child: Child,
    addr: String,
    ready_s: f64,
    stderr: std::thread::JoinHandle<String>,
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Spawns `coca-serve run --listen` and waits for its `ingest listening
/// on` line; `ready_s` is spawn-to-listening.
fn spawn(bin: &Path, shape: &Shape, ckpt: Option<&Path>) -> Result<Spawned, String> {
    let mut last_err = String::new();
    for _ in 0..3 {
        let addr = format!("127.0.0.1:{}", free_port().map_err(|e| e.to_string())?);
        let mut cmd = Command::new(bin);
        cmd.args(["run", "--listen", &addr])
            .args(["--groups", &shape.groups.to_string()])
            .args(["--servers-per-group", &shape.servers_per_group.to_string()]);
        if let (Some(path), Some(every)) = (ckpt, shape.checkpoint_every) {
            cmd.arg("--checkpoint")
                .arg(path)
                .args(["--checkpoint-every", &every.to_string()]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let mut line = String::new();
        let ready = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break None,
                Ok(_) if line.contains("ingest listening on") => break Some(t0.elapsed()),
                Ok(_) => seen.push_str(&line),
            }
        };
        match ready {
            Some(ready) => {
                let stderr = std::thread::spawn(move || {
                    let mut rest = String::new();
                    let _ = stderr.read_to_string(&mut rest);
                    seen + &rest
                });
                return Ok(Spawned {
                    child,
                    addr,
                    ready_s: ready.as_secs_f64(),
                    stderr,
                });
            }
            None => {
                let _ = wait_with_cpu(&child);
                last_err = seen;
            }
        }
    }
    Err(format!("coca-serve never listened: {last_err}"))
}

/// Connects to the child's ingest port; on failure the child, still
/// waiting for that connection, is killed and reaped.
fn connect(spawned: &mut Spawned) -> Result<TcpStream, String> {
    TcpStream::connect(&spawned.addr).map_err(|e| {
        let _ = spawned.child.kill();
        let _ = wait_with_cpu(&spawned.child);
        format!("connect to coca-serve: {e}")
    })
}

/// One measured stream through a child process.
struct ChildStream {
    ready_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    errors: usize,
    problems: Vec<String>,
}

fn run_child_stream(
    bin: &Path,
    shape: &Shape,
    input: &Input,
    expected: &[u8],
    ckpt: Option<&Path>,
) -> Result<ChildStream, String> {
    if let Some(path) = ckpt {
        let _ = std::fs::remove_file(path);
    }
    let mut spawned = spawn(bin, shape, ckpt)?;
    let mut conn = connect(&mut spawned)?;
    let stdout = spawned.child.stdout.take().expect("stdout is piped");
    let (first, written, read) = std::thread::scope(|s| {
        let pid = spawned.child.id();
        let reader = s.spawn(move || read_stream(BufReader::with_capacity(1 << 16, stdout), pid));
        let first = Instant::now();
        let written = conn.write_all(&input.bytes).and_then(|()| conn.flush());
        (
            first,
            written,
            reader.join().expect("reader thread panicked"),
        )
    });
    drop(conn);
    let (code, cpu_s) = wait_with_cpu(&spawned.child).map_err(|e| format!("wait: {e}"))?;
    let stderr = spawned.stderr.join().unwrap_or_default();
    written.map_err(|e| format!("write ingest: {e}"))?;
    let read = read.map_err(|e| format!("read decisions: {e}"))?;

    let mut problems = Vec::new();
    if code != 0 {
        problems.push(format!("coca-serve exited {code}: {}", stderr.trim()));
    }
    let mut errors = slot_errors(expected, &read.bytes, input.slots);
    if let Some(path) = ckpt {
        match read_checkpoint(path) {
            Ok(state) if state.t == input.slots => {}
            Ok(state) => {
                problems.push(format!(
                    "final checkpoint at t={} of {}",
                    state.t, input.slots
                ));
                errors = errors.max(1);
            }
            Err(e) => {
                problems.push(e);
                errors = errors.max(1);
            }
        }
    }
    if read.peak_rss_mb.is_none() {
        problems.push("coca-serve exited before its memory was read".into());
    }
    let end = read.end_at.unwrap_or_else(Instant::now);
    Ok(ChildStream {
        ready_s: spawned.ready_s,
        wall_s: end.duration_since(first).as_secs_f64(),
        cpu_s,
        rss_mb: read.peak_rss_mb.unwrap_or(0.0),
        errors,
        problems,
    })
}

/// Spawn-to-listening of a child that is then told the stream is over.
fn ready_only(bin: &Path, shape: &Shape, ckpt: Option<&Path>) -> Result<f64, String> {
    let mut spawned = spawn(bin, shape, ckpt)?;
    let mut conn = connect(&mut spawned)?;
    // Errors here end the stream early; the child then exits on its own.
    let _ = conn.write_all(format!("{}\n", InMsg::End.to_line()).as_bytes());
    let mut stdout = spawned.child.stdout.take().expect("stdout is piped");
    let _ = stdout.read_to_end(&mut Vec::new());
    drop(conn);
    let (code, _) = wait_with_cpu(&spawned.child).map_err(|e| format!("wait: {e}"))?;
    let stderr = spawned.stderr.join().unwrap_or_default();
    if code != 0 {
        return Err(format!("coca-serve exited {code}: {}", stderr.trim()));
    }
    Ok(spawned.ready_s)
}

pub fn run(args: &Args, shape: &Shape, work: &Path) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let input = generate(shape, args.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let expected = reference(shape, &input)?;
    let ckpt: Option<PathBuf> = shape.checkpoint_every.map(|_| work.join("serve.ckpt.json"));
    let ckpt = ckpt.as_deref();

    let mut ready = Vec::new();
    let mut out = Outcome::default();
    let mut streams = Vec::new();
    let budget = Duration::from_secs(args.seconds).as_secs_f64();
    let started = Instant::now();
    loop {
        for _ in 0..SETUP_SPAWNS_PER_STREAM {
            ready.push(ready_only(&args.serve_bin, shape, ckpt)?);
        }
        let mut stream = run_child_stream(&args.serve_bin, shape, &input, &expected, ckpt)?;
        out.attempted += input.slots;
        out.failed += stream.errors;
        out.problems.extend(std::mem::take(&mut stream.problems));
        ready.push(stream.ready_s);
        let unit = stream.wall_s;
        streams.push(stream);
        if args.trace || started.elapsed().as_secs_f64() + unit > budget {
            break;
        }
    }
    let med = |f: fn(&ChildStream) -> f64| median(&streams.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(|s| s.wall_s);

    if !args.trace {
        out.metrics = vec![
            Metric::new("setup_s", median(&ready), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("cpu_s", med(|s| s.cpu_s), "s"),
            Metric::new("peak_rss_mb", med(|s| s.rss_mb), "MB"),
        ];
        out.notes
            .push(format!("slots_per_s = {} 1/s", input.slots as f64 / wall_s));
        return Ok(out);
    }

    let traced = traced_stream(shape, &input, &expected, work)?;
    out.attempted += input.slots;
    out.failed += traced.errors;
    out.problems.extend(traced.problems.iter().cloned());
    let mut m = traced.metrics;
    m.push(Metric::new("traces.generate_s", generate_s, "s"));
    m.push(Metric::new(
        "bench.trace_overhead_pct",
        (traced.wall_s - wall_s) / wall_s * 100.0,
        "%",
    ));
    out.metrics = m;
    Ok(out)
}

/// The ingest side of the traced run: hands out `input` and sums the time
/// its consumer spends between reads — parse plus push, including
/// backpressure.
struct TimedInput<'a> {
    input: &'a [u8],
    last_return: Option<Instant>,
    busy: Duration,
}

impl Read for TimedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(at) = self.last_return {
            self.busy += at.elapsed();
        }
        let n = self.input.read(buf)?;
        self.last_return = Some(Instant::now());
        Ok(n)
    }
}

/// The harness's publish subscriber: collects the stream and times the
/// writes into it.
#[derive(Default)]
struct TimedSink {
    bytes: Vec<u8>,
    write_time: Duration,
}

#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<TimedSink>>);

impl Write for SharedSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let t0 = Instant::now();
        let mut sink = self.0.lock().expect("sink mutex poisoned");
        sink.bytes.extend_from_slice(data);
        sink.write_time += t0.elapsed();
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Traced {
    wall_s: f64,
    errors: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

/// The service rebuilt in-process from the pieces `run_stream` wires
/// together — `push_source_at`, `run_ingest`, `EngineBuilder`, `WireSink`,
/// `Publisher`, `run_service` and `write_checkpoint` — with observers on
/// the engine and solver and timers around ingest, publish and checkpoint.
fn traced_stream(
    shape: &Shape,
    input: &Input,
    expected: &[u8],
    work: &Path,
) -> Result<Traced, String> {
    let cfg = shape.config();
    let obs = Arc::new(Layers::default());
    let cluster = Arc::new(Cluster::homogeneous(cfg.groups, cfg.servers_per_group));
    let mut solver = SymmetricSolver::new();
    solver.set_observer(Arc::clone(&obs) as _);
    let mut controller = CocaController::new(
        Arc::clone(&cluster),
        cfg.cost,
        CocaConfig {
            v: VSchedule::Constant(cfg.v),
            frame_length: cfg.frame_length,
            horizon: cfg.horizon,
            alpha: cfg.alpha,
            rec_total: cfg.rec_total,
        },
        solver,
    );
    controller.set_observer(Arc::clone(&obs) as _);
    let publisher = Publisher::new();
    let sink = SharedSink::default();
    publisher.subscribe(Box::new(sink.clone()));
    let (handle, source) = push_source_at(cfg.queue_capacity, 0);
    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cfg.cost)
        .rec_total(cfg.rec_total)
        .observer(Arc::clone(&obs) as _)
        .policy_with_sink(
            Box::new(controller),
            Box::new(WireSink::new("coca", Arc::clone(&publisher))),
        )
        .build(source)
        .map_err(|e| e.to_string())?;

    let ckpt_path = work.join("traced.ckpt.json");
    let mut ckpt_time = Duration::ZERO;
    let mut ckpt_sizes: Vec<u64> = Vec::new();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (ingest, exit, ingest_busy) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut reader = TimedInput {
                input: &input.bytes,
                last_return: None,
                busy: Duration::ZERO,
            };
            let stats = run_ingest(BufReader::new(&mut reader), &handle);
            (stats, reader.busy)
        });
        let service = ServiceConfig {
            checkpoint_every: shape.checkpoint_every,
            ..Default::default()
        };
        let exit = engine.run_service(&service, &stop, |state| {
            if shape.checkpoint_every.is_none() {
                return Ok(());
            }
            let t0 = Instant::now();
            write_checkpoint(&ckpt_path, state).map_err(coca_dcsim::SimError::Internal)?;
            ckpt_time += t0.elapsed();
            let size = std::fs::metadata(&ckpt_path).map_or(0, |m| m.len());
            ckpt_sizes.push(size);
            Ok(())
        });
        let (stats, busy) = ingest.join().expect("ingest thread panicked");
        (stats, exit, busy)
    });
    publisher.publish(&OutMsg::End { slots: engine.t() });
    let wall_s = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if let Err(e) = exit {
        problems.push(format!("traced service: {e}"));
    }
    if let Err(e) = ingest {
        problems.push(format!("traced ingest: {e}"));
    }
    let sink = std::mem::take(&mut *sink.0.lock().expect("sink mutex poisoned"));
    let mut errors = slot_errors(expected, &sink.bytes, input.slots);
    if shape.checkpoint_every.is_some() {
        match read_checkpoint(&ckpt_path) {
            Ok(state) if state.t == input.slots => {}
            _ => {
                problems.push("traced final checkpoint missing or short".into());
                errors = errors.max(1);
            }
        }
    }

    // Wire codec costs over this workload's own lines.
    let t0 = Instant::now();
    for line in input.bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        std::hint::black_box(InMsg::parse(text)?);
    }
    let parse_s = t0.elapsed().as_secs_f64();
    let decoded: Vec<OutMsg> = std::str::from_utf8(expected)
        .map_err(|e| e.to_string())?
        .lines()
        .map(OutMsg::parse)
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    for msg in &decoded {
        std::hint::black_box(msg.to_line());
    }
    let encode_s = t0.elapsed().as_secs_f64();

    let mut metrics = engine_metrics(&obs);
    metrics.extend(core_metrics(&obs, &Layers::default()));
    metrics.extend([
        Metric::new("engine.checkpoints", layers::get(&obs.checkpoints), "count"),
        Metric::new("engine.checkpoint_s", layers::secs(&obs.checkpoint_ns), "s"),
        Metric::new(
            "engine.checkpoint_bytes_max",
            ckpt_sizes.iter().copied().max().unwrap_or(0) as f64,
            "bytes",
        ),
        Metric::new(
            "engine.checkpoint_bytes_total",
            ckpt_sizes.iter().sum::<u64>() as f64,
            "bytes",
        ),
        Metric::new("serve.ingest_bytes", input.bytes.len() as f64, "bytes"),
        Metric::new("serve.ingest_busy_s", ingest_busy.as_secs_f64(), "s"),
        Metric::new("serve.parse_s", parse_s, "s"),
        Metric::new("serve.encode_s", encode_s, "s"),
        Metric::new("serve.publish_bytes", sink.bytes.len() as f64, "bytes"),
        Metric::new("serve.publish_write_s", sink.write_time.as_secs_f64(), "s"),
        Metric::new("serve.checkpoint_s", ckpt_time.as_secs_f64(), "s"),
        Metric::new(
            "serve.checkpoint_bytes_last",
            ckpt_sizes.last().copied().unwrap_or(0) as f64,
            "bytes",
        ),
    ]);
    Ok(Traced {
        wall_s,
        errors,
        problems,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_or_altered_streams_count_errors() {
        let want = b"a\nb\nc\nend\n";
        assert_eq!(slot_errors(want, want, 3), 0);
        assert_eq!(slot_errors(want, b"a\nb\n", 3), 2, "missing slot and end");
        assert_eq!(slot_errors(want, b"a\nx\nc\nend\n", 3), 1, "altered slot");
        assert_eq!(slot_errors(want, b"a\nc\nb\nend\n", 3), 2, "out of order");
        assert_eq!(slot_errors(want, b"", 3), 3, "nothing read");
    }
}
