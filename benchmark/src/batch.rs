//! `batch_small`: every committed scenario spec at small scale, driven
//! in-process through the public calls `repro batch` makes per spec.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coca_baselines::PerfectHp;
use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::{SymmetricSolver, VSchedule};
use coca_dcsim::{Cluster, EngineBuilder, SlotProblem};
use coca_experiments::figures::{self, Figure};
use coca_experiments::parallel;
use coca_experiments::setup::{ExperimentScale, PaperSetup};
use coca_obs::logger::{self, Level};
use coca_obs::MetricsRegistry;
use coca_opt::schedule::TemperatureSchedule;
use coca_scenarios::runner::BatchOptions;
use coca_scenarios::{assemble, manifest, spec, BatchRunner, Manifest, Spec};
use coca_traces::{TraceConfig, WorkloadKind};
use serde::Value;

use crate::layers::{self, Layers, TimedPolicy};
use crate::stats::median;
use crate::sys::{peak_rss_mb, self_cpu_s};
use crate::{Args, Metric, Outcome};

/// Where the committed specs live, relative to the checkout root.
const SPEC_DIR: &str = "scenarios";
/// Figure samples of the default seed, checked to 1e-9 relative.
pub const REFERENCE: &str = "benchmark/reference/batch_small.json";
/// Worker threads, as `repro --workers 2 batch` on a 2-core machine.
const WORKERS: usize = 2;
/// Planning passes timed before each spec of a measured pass; `setup_s`
/// is the median over all of them. Spreading them across the run, rather
/// than timing them back to back, keeps one slow or fast spell of the
/// machine from deciding the figure.
const PLAN_PASSES_PER_SPEC: usize = 170;
const REL_TOL: f64 = 1e-9;

struct Planned {
    spec: Spec,
    manifest: Manifest,
}

fn scale(seed: u64) -> ExperimentScale {
    ExperimentScale {
        seed,
        ..ExperimentScale::small()
    }
}

/// Discovers, loads and materializes every spec: the batch's set-up. It
/// writes nothing.
fn plan(seed: u64) -> Result<Vec<Planned>, String> {
    spec::discover(Path::new(SPEC_DIR))?
        .iter()
        .map(|path| {
            let spec = Spec::load(path)?;
            let manifest = manifest::materialize(&spec, scale(seed))?;
            Ok(Planned { spec, manifest })
        })
        .collect()
}

/// One pass of the whole batch into a fresh directory.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// `(spec, stem, figure)` in batch order.
    figures: Vec<(String, String, Figure)>,
    /// Runs per spec that did not complete fresh: failed, skipped,
    /// resumed or never attempted.
    bad_runs: Vec<(String, usize)>,
    runs: usize,
    spec_s: Vec<(String, f64)>,
    assemble_s: f64,
    result_bytes: u64,
}

/// Runs every spec, timing only the spec work: planning passes timed into
/// `plan_s` between specs are excluded from `wall_s` and `cpu_s`.
fn run_pass(
    planned: &[Planned],
    dir: &Path,
    workers: usize,
    registry: Option<Arc<MetricsRegistry>>,
    mut plan_s: Option<(&mut Vec<f64>, u64)>,
) -> Result<Pass, String> {
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        figures: Vec::new(),
        bad_runs: Vec::new(),
        runs: 0,
        spec_s: Vec::new(),
        assemble_s: 0.0,
        result_bytes: 0,
    };
    for p in planned {
        if let Some((samples, seed)) = plan_s.as_mut() {
            for _ in 0..PLAN_PASSES_PER_SPEC {
                let t0 = Instant::now();
                std::hint::black_box(plan(*seed)?);
                samples.push(t0.elapsed().as_secs_f64());
            }
        }
        let cpu0 = self_cpu_s();
        let spec_t0 = Instant::now();
        let runner = BatchRunner::new(
            &p.manifest,
            BatchOptions {
                dir: dir.join(&p.spec.name),
                workers,
                registry: registry.clone(),
                ..Default::default()
            },
        );
        let summary = runner.run()?;
        let bad = summary.failures.len() + summary.skipped + summary.resumed + summary.pending;
        pass.runs += summary.total;
        pass.bad_runs.push((p.spec.name.clone(), bad));
        let results = runner.load_results()?;
        let asm_t0 = Instant::now();
        for (stem, fig) in assemble::assemble(&p.spec, &p.manifest, &results)? {
            pass.figures.push((p.spec.name.clone(), stem, fig));
        }
        pass.assemble_s += asm_t0.elapsed().as_secs_f64();
        let spec_s = spec_t0.elapsed().as_secs_f64();
        pass.cpu_s += self_cpu_s() - cpu0;
        pass.wall_s += spec_s;
        pass.spec_s.push((p.spec.name.clone(), spec_s));
    }
    // The process peak so far; planning passes stay far below a batch.
    pass.peak_rss_mb = peak_rss_mb(None).ok_or("no VmHWM for this process")?;
    for p in planned {
        let runs = dir.join(&p.spec.name).join("runs");
        for entry in std::fs::read_dir(&runs).map_err(|e| format!("{}: {e}", runs.display()))? {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| e.to_string())?;
            pass.result_bytes += meta.len();
        }
    }
    Ok(pass)
}

fn figure_samples(fig: &Figure) -> impl Iterator<Item = f64> + '_ {
    fig.series
        .iter()
        .flat_map(|s| s.x.iter().chain(&s.y).copied())
}

fn figures_json(figures: &[(String, String, Figure)]) -> Value {
    let seq = |v: &[f64]| Value::Seq(v.iter().map(|&x| Value::Float(x)).collect());
    Value::Seq(
        figures
            .iter()
            .map(|(spec, stem, fig)| {
                let series = fig
                    .series
                    .iter()
                    .map(|s| {
                        Value::Map(vec![
                            ("name".into(), Value::Str(s.name.clone())),
                            ("x".into(), seq(&s.x)),
                            ("y".into(), seq(&s.y)),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    ("spec".into(), Value::Str(spec.clone())),
                    ("stem".into(), Value::Str(stem.clone())),
                    ("series".into(), Value::Seq(series)),
                ])
            })
            .collect(),
    )
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Specs whose figures fail a check: a non-finite sample, or (with a
/// reference) any sample, series or figure that differs from it.
fn bad_figure_specs(
    figures: &[(String, String, Figure)],
    reference: Option<&Value>,
) -> Vec<String> {
    let mut bad: Vec<String> = Vec::new();
    let mut flag = |spec: &str| {
        if !bad.iter().any(|s| s == spec) {
            bad.push(spec.to_string());
        }
    };
    for (spec, _, fig) in figures {
        if !figure_samples(fig).all(f64::is_finite) {
            flag(spec);
        }
    }
    if let Some(reference) = reference {
        let got = figures_json(figures);
        let (Some(want), Some(got)) = (reference.as_seq(), got.as_seq()) else {
            flag("reference");
            return bad;
        };
        if want.len() != got.len() {
            flag("reference");
        }
        for (w, g) in want.iter().zip(got) {
            let spec = match g.get_field("spec") {
                Some(Value::Str(s)) => s.clone(),
                _ => "reference".to_string(),
            };
            if !values_close(w, g) {
                flag(&spec);
            }
        }
    }
    bad
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => close(*x, *y),
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => close(*x as f64, *y),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| values_close(p, q))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kp, p), (kq, q))| kp == kq && values_close(p, q))
        }
        _ => a == b,
    }
}

fn load_reference() -> Result<Value, String> {
    let text = std::fs::read_to_string(REFERENCE).map_err(|e| format!("read {REFERENCE}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {REFERENCE}: {e}"))
}

/// Counts failed runs of one pass: runs that did not complete fresh, plus
/// every run of a spec whose figures fail a check.
fn failed_runs(
    planned: &[Planned],
    pass: &Pass,
    reference: Option<&Value>,
) -> (usize, Vec<String>) {
    let bad_specs = bad_figure_specs(&pass.figures, reference);
    let mut failed = 0;
    let mut problems = Vec::new();
    for (p, (name, bad)) in planned.iter().zip(&pass.bad_runs) {
        if bad_specs.contains(name) {
            failed += p.manifest.runs.len();
            problems.push(format!("{name}: figures fail the sample check"));
        } else if *bad > 0 {
            failed += bad;
            problems.push(format!(
                "{name}: {bad} run(s) failed, skipped, resumed or pending"
            ));
        }
    }
    if bad_specs.iter().any(|s| s == "reference") {
        problems.push("figure list differs from the reference".into());
        failed = failed.max(1);
    }
    (failed, problems)
}

fn fresh_dir(work: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = work.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

/// Writes the default seed's figure samples as the stored reference.
pub fn write_reference(work: &Path, path: &Path) -> Result<(), String> {
    logger::set_level(Level::Error);
    parallel::set_default_workers(WORKERS);
    let planned = plan(ExperimentScale::small().seed)?;
    let pass = run_pass(
        &planned,
        &fresh_dir(work, "reference")?,
        WORKERS,
        None,
        None,
    )?;
    let (failed, problems) = failed_runs(&planned, &pass, None);
    if failed > 0 {
        return Err(format!("reference batch failed: {problems:?}"));
    }
    let json = serde_json::to_string(&figures_json(&pass.figures)).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    logger::set_level(Level::Error);
    parallel::set_default_workers(WORKERS);

    let planned = plan(args.seed)?;
    let mut plan_s = Vec::new();
    let mut out = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut pass_no = 0;
    loop {
        let dir = fresh_dir(work, &format!("pass{pass_no}"))?;
        let pass = run_pass(
            &planned,
            &dir,
            WORKERS,
            None,
            Some((&mut plan_s, args.seed)),
        )?;
        let unit = Duration::from_secs_f64(pass.wall_s);
        passes.push(pass);
        pass_no += 1;
        if args.trace || started.elapsed() + unit > budget {
            break;
        }
    }
    // Loaded only now, so its parse does not count in the passes' peak.
    let reference = if args.seed == ExperimentScale::small().seed {
        Some(load_reference()?)
    } else {
        None
    };
    for pass in &passes {
        let (failed, problems) = failed_runs(&planned, pass, reference.as_ref());
        out.attempted += pass.runs;
        out.failed += failed;
        out.problems.extend(problems);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);

    if !args.trace {
        out.metrics = vec![
            Metric::new("setup_s", median(&plan_s), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new(
                "cpu_s",
                median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::new(
                "peak_rss_mb",
                median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
                "MB",
            ),
        ];
        return Ok(out);
    }

    // Traced: one pass with the batch metrics registry, one single-worker
    // pass for the parallel speed-up, then replays of the layers the
    // runner calls privately.
    let registry = Arc::new(MetricsRegistry::new());
    let traced = run_pass(
        &planned,
        &fresh_dir(work, "traced")?,
        WORKERS,
        Some(Arc::clone(&registry)),
        None,
    )?;
    parallel::set_default_workers(1);
    let serial = run_pass(&planned, &fresh_dir(work, "serial")?, 1, None, None)?;
    parallel::set_default_workers(WORKERS);
    for pass in [&traced, &serial] {
        let (failed, problems) = failed_runs(&planned, pass, reference.as_ref());
        out.attempted += pass.runs;
        out.failed += failed;
        out.problems.extend(problems);
    }
    let run_s = registry
        .snapshot()
        .histogram("batch_run_seconds")
        .map_or(0.0, |h| h.sum);

    let mut m = Vec::new();
    for (spec, s) in &traced.spec_s {
        m.push(Metric::new(&format!("scenarios.spec_s.{spec}"), *s, "s"));
    }
    let t0 = Instant::now();
    for p in &planned {
        std::hint::black_box(manifest::materialize(&p.spec, scale(args.seed))?);
    }
    m.push(Metric::new(
        "scenarios.materialize_s",
        t0.elapsed().as_secs_f64(),
        "s",
    ));
    m.push(Metric::new("scenarios.assemble_s", traced.assemble_s, "s"));
    m.push(Metric::new("scenarios.run_s", run_s, "s"));
    m.push(Metric::new(
        "scenarios.result_bytes",
        traced.result_bytes as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "scenarios.parallel_speedup",
        serial.wall_s / traced.wall_s,
        "ratio",
    ));
    m.extend(replay_layers(&planned)?);
    m.push(Metric::new(
        "bench.trace_overhead_pct",
        (traced.wall_s - wall_s) / wall_s * 100.0,
        "%",
    ));
    out.metrics = m;
    Ok(out)
}

fn workload_kind(name: &str) -> Result<WorkloadKind, String> {
    match name {
        "fiu" => Ok(WorkloadKind::Fiu),
        "msr" => Ok(WorkloadKind::Msr),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn param<'v>(cfg: &'v Value, key: &str) -> Option<&'v Value> {
    cfg.get_field(key).filter(|v| !matches!(v, Value::Null))
}

fn param_num(cfg: &Value, key: &str, default: f64) -> f64 {
    param(cfg, key).and_then(spec::num).unwrap_or(default)
}

fn param_uint(cfg: &Value, key: &str, default: usize) -> usize {
    param(cfg, key).and_then(spec::uint).unwrap_or(default)
}

/// Calibration probe counts a run asks the runner's shared V* cache for:
/// calibrated lanes, or a calibrated run config.
fn calibrated_probes(cfg: &Value) -> Vec<usize> {
    let calibrated = |v: &Value| param(v, "v_mode").and_then(spec::str_of) == Some("calibrated");
    let mut probes = Vec::new();
    if calibrated(cfg) {
        probes.push(param_uint(cfg, "calib_probes", 7));
    }
    for lane in param(cfg, "lanes").and_then(Value::as_seq).unwrap_or(&[]) {
        if calibrated(lane) {
            probes.push(param_uint(
                lane,
                "calib_probes",
                param_uint(cfg, "calib_probes", 7),
            ));
        }
    }
    probes
}

/// Replays, outside the batch and with the same public calls and
/// arguments, the layers `BatchRunner` calls from its private run context:
/// one `PaperSetup::build` per spec that needs a setup, one `calibrate_v`
/// per distinct calibrated probe count, the Fig. 3 COCA-vs-PerfectHP duel
/// with engine and solver observers attached, and the Fig. 4 GSD chains.
fn replay_layers(planned: &[Planned]) -> Result<Vec<Metric>, String> {
    let mut build_s = 0.0;
    let mut builds = 0usize;
    let mut generate_s = 0.0;
    let mut vstar_s = 0.0;
    let mut calls = 0usize;
    let mut probes_total = 0usize;
    let mut fig3 = None;
    let mut fig4 = None;
    for p in planned {
        let m = &p.manifest;
        if m.runs.iter().all(|r| r.kind == "workloads") {
            continue;
        }
        let kind = workload_kind(&m.workload)?;
        let base_trace = TraceConfig {
            hours: m.scale.hours,
            workload_kind: kind,
            peak_arrival_rate: m.scale.peak_util
                * Cluster::scaled_paper_datacenter(m.scale.groups, m.scale.servers_per_group)
                    .max_capacity(),
            onsite_energy_kwh: 0.0,
            offsite_energy_kwh: 0.0,
            mean_price: m.scale.mean_price,
            seed: m.scale.seed,
            ..Default::default()
        };
        let t0 = Instant::now();
        std::hint::black_box(base_trace.generate());
        generate_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let setup = PaperSetup::build(m.scale, kind, m.budget_fraction)
            .map_err(|e| format!("setup build: {e}"))?;
        build_s += t0.elapsed().as_secs_f64();
        builds += 1;

        let mut probe_counts: Vec<usize> = m
            .runs
            .iter()
            .flat_map(|r| calibrated_probes(&r.config))
            .collect();
        probe_counts.sort_unstable();
        probe_counts.dedup();
        let mut vstar = None;
        for probes in probe_counts {
            let t0 = Instant::now();
            let v = figures::calibrate_v(&setup, probes).map_err(|e| format!("calibrate: {e}"))?;
            vstar_s += t0.elapsed().as_secs_f64();
            calls += 1;
            probes_total += probes;
            vstar = Some(v);
        }
        match p.spec.name.as_str() {
            "fig3_perfect_hp" => fig3 = Some((setup, vstar.ok_or("fig3 has no calibrated lane")?)),
            "fig4_gsd" => fig4 = Some((setup, m.clone())),
            _ => {}
        }
    }
    let (fig3_setup, vstar) = fig3.ok_or("no fig3_perfect_hp spec")?;
    let (fig4_setup, fig4_manifest) = fig4.ok_or("no fig4_gsd spec")?;

    let obs = Arc::new(Layers::default());
    let (hp_s, hp_decisions) = replay_duel(&fig3_setup, vstar, &obs)?;
    let gsd = Arc::new(Layers::default());
    replay_gsd(&fig4_setup, &fig4_manifest, &gsd)?;

    let mut m = vec![
        Metric::new("setup.build_s", build_s, "s"),
        Metric::new("setup.builds", builds as f64, "count"),
        Metric::new("calibrate.vstar_s", vstar_s, "s"),
        Metric::new("calibrate.calls", calls as f64, "count"),
        Metric::new("calibrate.probes", probes_total as f64, "count"),
        Metric::new("traces.generate_s", generate_s, "s"),
        Metric::new("baselines.perfect_hp_s", hp_s, "s"),
        Metric::new(
            "baselines.perfect_hp_decisions",
            hp_decisions as f64,
            "count",
        ),
    ];
    m.extend(engine_metrics(&obs));
    m.extend(core_metrics(&obs, &gsd));
    Ok(m)
}

/// The Fig. 3 duel as `BatchRunner` builds it (one frame over the whole
/// small-scale horizon), with observers on the engine and COCA's solver
/// and a timer around PerfectHP's decisions.
fn replay_duel(setup: &PaperSetup, vstar: f64, obs: &Arc<Layers>) -> Result<(f64, u64), String> {
    let frame = setup.trace.len();
    let mut coca = figures::coca_policy(setup, VSchedule::Constant(vstar), frame);
    coca.solver_mut().set_observer(Arc::clone(obs) as _);
    coca.set_observer(Arc::clone(obs) as _);
    let hp = PerfectHp::<SymmetricSolver>::new(
        Arc::clone(&setup.cluster),
        setup.cost,
        &setup.trace,
        setup.rec_total,
        48.min(frame),
    )
    .map_err(|e| format!("perfect_hp plan: {e}"))?;
    let mut hp = TimedPolicy::new(hp);
    EngineBuilder::new(Arc::clone(&setup.cluster), setup.cost)
        .rec_total(setup.rec_total)
        .observer(Arc::clone(obs) as _)
        .policy(Box::new(&mut coca))
        .policy(Box::new(&mut hp))
        .build(&setup.trace)
        .and_then(|engine| engine.run_and_finish())
        .map_err(|e| format!("duel replay: {e}"))?;
    Ok((hp.decide_time.as_secs_f64(), hp.decisions))
}

/// The Fig. 4 GSD chains as the `gsd_trace` run kind builds them, with a
/// solver observer attached.
fn replay_gsd(base: &PaperSetup, m: &Manifest, obs: &Arc<Layers>) -> Result<(), String> {
    for run in &m.runs {
        let cfg = &run.config;
        let slot = param_uint(cfg, "slot", 1500) % base.trace.len();
        let v = param_num(cfg, "v_mult", 1.0) * base.characteristic_v();
        let g_typ = figures::typical_slot_objective(base, slot, v)
            .map_err(|e| format!("gsd replay: {e}"))?;
        let delta = param_num(cfg, "delta_mult", 1.0) * g_typ;
        let init = match param(cfg, "init").and_then(spec::str_of) {
            None => None,
            Some(name) => Some(
                figures::gsd_initial_levels(base, name)
                    .ok_or_else(|| format!("unknown GSD initial point {name:?}"))?,
            ),
        };
        let env = base.trace.slot(slot);
        let problem = SlotProblem {
            cluster: &base.cluster,
            arrival_rate: env.arrival_rate,
            onsite: env.onsite,
            energy_weight: v * env.price,
            delay_weight: v * base.cost.beta,
            gamma: base.cost.gamma,
            pue: base.cost.pue,
        };
        if init.as_ref().is_some_and(|l| !problem.is_feasible(l)) {
            continue;
        }
        let mut gsd = GsdSolver::new(GsdOptions {
            iterations: param_uint(cfg, "iterations", 500),
            schedule: TemperatureSchedule::Constant(delta),
            record_trace: true,
            warm_start: false,
            seed: 1500,
            ..Default::default()
        });
        gsd.set_observer(Arc::clone(obs) as _);
        if let Some(levels) = init {
            gsd.set_initial(levels);
        }
        use coca_core::P3Solver;
        let _ = std::hint::black_box(
            gsd.solve(&problem)
                .map_err(|e| format!("gsd replay: {e}"))?,
        );
    }
    Ok(())
}

/// `engine.*` metrics from an engine observer; checkpoint metrics are
/// filled in by the caller where checkpoints are taken.
pub fn engine_metrics(obs: &Layers) -> Vec<Metric> {
    vec![
        Metric::new("engine.slots", layers::get(&obs.slots), "count"),
        Metric::new("engine.env_prep_s", layers::secs(&obs.env_prep_ns), "s"),
        Metric::new("engine.solve_s", layers::secs(&obs.solve_ns), "s"),
        Metric::new("engine.record_s", layers::secs(&obs.record_ns), "s"),
    ]
}

/// `core.*` metrics: P3 solves from `p3`, GSD chains from `gsd`; `opt.*`
/// metrics: the optimization kernels' work under both.
pub fn core_metrics(p3: &Layers, gsd: &Layers) -> Vec<Metric> {
    let both =
        |f: fn(&Layers) -> &std::sync::atomic::AtomicU64| layers::get(f(p3)) + layers::get(f(gsd));
    let hits = layers::get(&gsd.cache_hits);
    let lookups = hits + layers::get(&gsd.cache_misses);
    vec![
        Metric::new("core.solves", layers::get(&p3.solves), "count"),
        Metric::new(
            "core.symmetric_rounds",
            layers::get(&p3.symmetric_rounds),
            "count",
        ),
        Metric::new(
            "core.gsd_iterations",
            layers::get(&gsd.gsd_iterations),
            "count",
        ),
        Metric::new(
            "core.gsd_accept_ratio",
            layers::ratio(
                layers::get(&gsd.gsd_accepted),
                layers::get(&gsd.gsd_iterations),
            ),
            "ratio",
        ),
        Metric::new(
            "core.gsd_cache_hit_ratio",
            layers::ratio(hits, lookups),
            "ratio",
        ),
        Metric::new("opt.waterfill_evals", both(|l| &l.waterfill_evals), "count"),
        Metric::new(
            "opt.candidate_batches",
            both(|l| &l.candidate_batches),
            "count",
        ),
        Metric::new(
            "opt.batched_candidates",
            both(|l| &l.batched_candidates),
            "count",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_experiments::Series;

    fn figures(y: f64) -> Vec<(String, String, Figure)> {
        let fig = Figure {
            title: "t".into(),
            x_label: "x".into(),
            series: vec![Series::new("s", vec![0.0, 1.0], vec![2.0, y])],
        };
        vec![("spec".into(), "stem".into(), fig)]
    }

    #[test]
    fn figure_check_flags_drift_beyond_1e9_and_non_finite_samples() {
        let reference = figures_json(&figures(3.0));
        let check = |y: f64| bad_figure_specs(&figures(y), Some(&reference));
        assert!(check(3.0).is_empty());
        assert!(
            check(3.0 * (1.0 + 1e-12)).is_empty(),
            "within 1e-9 relative"
        );
        assert_eq!(check(3.0 * (1.0 + 1e-6)), vec!["spec".to_string()]);
        assert_eq!(
            bad_figure_specs(&figures(f64::NAN), None),
            vec!["spec".to_string()]
        );
    }
}
