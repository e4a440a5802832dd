//! End-to-end benchmark of the COCA reproduction.
//!
//! ```text
//! coca-benchmark --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! coca-benchmark --write-reference PATH
//! ```
//!
//! Run from the repository root (see `benchmark/run.sh`, which builds
//! both binaries first). With `--trace 0` it prints every end-to-end
//! metric; with `--trace 1` every per-layer metric, timed from here around
//! calls into each layer's public functions. The last stdout line is one
//! JSON object; the exit code is non-zero when an output check fails.
//! `BENCHMARK.json` lists the workloads and metrics, and
//! `benchmark/NOTES.md` explains them.

mod batch;
mod layers;
mod serve;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run did and measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Derived figures printed for people, outside the JSON result.
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 3] = ["batch_small", "serve_stream", "serve_ckpt"];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("scenarios.spec_s.ablation_frame_reset", "s"),
    ("scenarios.spec_s.fig1_workloads", "s"),
    ("scenarios.spec_s.fig2_constant_v", "s"),
    ("scenarios.spec_s.fig2_varying_v", "s"),
    ("scenarios.spec_s.fig3_perfect_hp", "s"),
    ("scenarios.spec_s.fig4_gsd", "s"),
    ("scenarios.spec_s.fig5_budget_fiu", "s"),
    ("scenarios.spec_s.fig5_budget_msr", "s"),
    ("scenarios.spec_s.fig5_overestimation", "s"),
    ("scenarios.spec_s.fig5_switching", "s"),
    ("scenarios.spec_s.portfolio", "s"),
    ("scenarios.spec_s.summary", "s"),
    ("scenarios.materialize_s", "s"),
    ("scenarios.assemble_s", "s"),
    ("scenarios.run_s", "s"),
    ("scenarios.result_bytes", "bytes"),
    ("scenarios.parallel_speedup", "ratio"),
    ("setup.build_s", "s"),
    ("setup.builds", "count"),
    ("calibrate.vstar_s", "s"),
    ("calibrate.calls", "count"),
    ("calibrate.probes", "count"),
    ("engine.slots", "count"),
    ("engine.env_prep_s", "s"),
    ("engine.solve_s", "s"),
    ("engine.record_s", "s"),
    ("engine.checkpoints", "count"),
    ("engine.checkpoint_bytes_max", "bytes"),
    ("engine.checkpoint_bytes_total", "bytes"),
    ("engine.checkpoint_s", "s"),
    ("core.solves", "count"),
    ("core.symmetric_rounds", "count"),
    ("core.gsd_iterations", "count"),
    ("core.gsd_accept_ratio", "ratio"),
    ("core.gsd_cache_hit_ratio", "ratio"),
    ("opt.waterfill_evals", "count"),
    ("opt.candidate_batches", "count"),
    ("opt.batched_candidates", "count"),
    ("baselines.perfect_hp_s", "s"),
    ("baselines.perfect_hp_decisions", "count"),
    ("traces.generate_s", "s"),
    ("serve.ingest_bytes", "bytes"),
    ("serve.ingest_busy_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.publish_bytes", "bytes"),
    ("serve.publish_write_s", "s"),
    ("serve.checkpoint_s", "s"),
    ("serve.checkpoint_bytes_last", "bytes"),
    ("bench.trace_overhead_pct", "%"),
];

fn usage() -> String {
    "usage: coca-benchmark --serve-bin PATH --workload <batch_small|serve_stream|serve_ckpt> \
     --seed N --seconds S --trace 0|1"
        .to_string()
}

fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: bad value {raw:?}"))
}

enum Command {
    Run(Args),
    WriteReference(PathBuf),
}

fn parse_args() -> Result<Command, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value::<String>(&mut it, &flag)?),
            "--seed" => seed = Some(value(&mut it, &flag)?),
            "--seconds" => seconds = Some(value(&mut it, &flag)?),
            "--trace" => trace = Some(value::<u8>(&mut it, &flag)?),
            "--serve-bin" => serve_bin = Some(value::<PathBuf>(&mut it, &flag)?),
            "--write-reference" => return Ok(Command::WriteReference(value(&mut it, &flag)?)),
            _ => return Err(usage()),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; {}", usage()));
    }
    let trace = match trace.ok_or_else(usage)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };
    let seconds: u64 = seconds.ok_or_else(usage)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace,
        serve_bin: serve_bin.ok_or_else(usage)?,
    }))
}

/// Scratch space inside the checkout, removed when the run ends.
fn work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !args.serve_bin.is_file() {
        return Err(format!(
            "no coca-serve binary at {}",
            args.serve_bin.display()
        ));
    }
    let work = work_dir(&args.workload)?;
    let outcome = match serve::shape(&args.workload) {
        Some(shape) => serve::run(args, &shape, &work),
        None => batch::run(args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Succeeds only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let mut outcome = outcome?;
    if args.trace {
        fill_per_layer(&mut outcome.metrics)?;
    }
    Ok(outcome)
}

/// Orders traced metrics as [`PER_LAYER`] lists them, with 0 for layers
/// the workload does not run; rejects a name missing from the list.
fn fill_per_layer(metrics: &mut Vec<Metric>) -> Result<(), String> {
    for m in metrics.iter() {
        if !PER_LAYER
            .iter()
            .any(|(name, unit)| *name == m.name && *unit == m.unit)
        {
            return Err(format!(
                "traced metric {} ({}) is not in PER_LAYER",
                m.name, m.unit
            ));
        }
    }
    let mut filled = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = metrics
            .iter()
            .find(|m| m.name == *name)
            .map_or(0.0, |m| m.value);
        filled.push(Metric::new(name, value, unit));
    }
    *metrics = filled;
    Ok(())
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::WriteReference(path)) => {
            let result = work_dir("reference").and_then(|work| {
                let result = batch::write_reference(&work, &path);
                let _ = std::fs::remove_dir_all(&work);
                result
            });
            return match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("coca-benchmark: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("coca-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("coca-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("coca-benchmark: check failed: {problem}");
    }
    let correct = outcome.failed == 0
        && outcome.problems.is_empty()
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for m in &outcome.metrics {
        println!("{} {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{} {note}", args.workload);
    }
    println!(
        "{} error_rate = {error_rate} ({} failed of {} attempted)",
        args.workload, outcome.failed, outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
