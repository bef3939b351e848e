//! In-process side of the swapsim benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench-harness trace-scenario SCENARIO.json JOBS OUT_DIR
//!     Scenario::run, then the same replications rebuilt from public
//!     calls with a span around each; replays of the inner layers.
//! perfbench-harness trace-figures JOBS RESULTS_DIR OUT_DIR
//!     Every paper figure through one pool with a span per figure call,
//!     study trace and artifact write; artifacts compared to RESULTS_DIR;
//!     then each figure's study scenario rebuilt from public calls.
//! ```
//!
//! The trace modes write `OUT_DIR/spans.json` (every span),
//! `OUT_DIR/self_time.json` (count, total and self time per span name),
//! `OUT_DIR/layers.json` (the per-layer metrics) and
//! `OUT_DIR/digest.txt` (the rebuilt results' full-precision text).

mod full_text;
mod replicate;
mod spans;

use experiments::scenario::Scenario;
use experiments::{ablations, extensions, figures, output, schedule, studies, timing, Scale};
use serde::Serialize;
use simulator::runner::ReplicatedResult;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Named per-layer tallies: counts, busy seconds and nanosecond totals.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_owned()).or_insert(0.0) += v;
    }

    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// Raises `key` to at least `v`.
    pub fn max(&mut self, key: &str, v: f64) {
        let e = self.0.entry(key.to_owned()).or_insert(v);
        *e = e.max(v);
    }

    /// Adds `calls` calls that took `ns_per_call` each on average.
    pub fn add_timed(&mut self, key: &str, ns_per_call: f64, calls: usize) {
        self.add(&format!("{key}.total_ns"), ns_per_call * calls as f64);
        self.add(&format!("{key}.calls"), calls as f64);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str, scale: f64) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            scale * self.get(num) / d
        } else {
            0.0
        }
    }

    /// The per-layer metrics under their published names, every one
    /// present (zero where the layer did not run).
    fn published(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let copy = [
            "realize.calls",
            "realize.distinct",
            "realize.busy_s",
            "realize.segments",
            "fault_plan.calls",
            "fault_plan.busy_s",
            "fault_plan.events",
            "blackouts.busy_s",
            "strategy.runs",
            "strategy.busy_s",
            "strategy.sim_iterations",
            "strategy.adaptations",
            "strategy.nothing.busy_s",
            "strategy.dlb.busy_s",
            "strategy.swap.busy_s",
            "strategy.cr.busy_s",
            "strategy.dlb_swap.busy_s",
            "strategy.oracle.busy_s",
            "strategy.faulted.busy_s",
            "strategy.failures",
            "strategy.recoveries",
            "strategy.aborts",
            "strategy.truncated",
            "decision.calls",
            "placement.calls",
            "output.write.busy_s",
            "output.bytes",
            "study_trace.busy_s",
            "obs.events",
            "pool.busy_s",
            "pool.workers",
        ];
        for k in copy {
            out.insert(k.to_owned(), self.get(k));
        }
        let derived = [
            (
                "realize.ns_per_segment",
                "realize.busy_s",
                "realize.segments",
                1e9,
            ),
            (
                "strategy.ns_per_iteration",
                "strategy.busy_s",
                "strategy.sim_iterations",
                1e9,
            ),
            (
                "exec.iteration.ns",
                "exec.iteration.total_ns",
                "exec.iteration.calls",
                1.0,
            ),
            (
                "cpu.completion.ns",
                "cpu.completion.total_ns",
                "cpu.completion.calls",
                1.0,
            ),
            (
                "cpu.mean_delivered.ns",
                "cpu.mean_delivered.total_ns",
                "cpu.mean_delivered.calls",
                1.0,
            ),
            (
                "timeline.segments_per_window",
                "timeline.segments",
                "timeline.windows",
                1.0,
            ),
            ("decision.ns", "decision.total_ns", "decision.calls", 1.0),
            (
                "decision.snapshots_per_call",
                "decision.snapshots",
                "decision.calls",
                1.0,
            ),
            (
                "history.predict.ns",
                "history.predict.total_ns",
                "history.predict.calls",
                1.0,
            ),
            (
                "history.samples_per_call",
                "history.samples",
                "history.predict.calls",
                1.0,
            ),
            ("placement.ns", "placement.total_ns", "placement.calls", 1.0),
            (
                "placement.candidates_per_call",
                "placement.candidates",
                "placement.calls",
                1.0,
            ),
        ];
        for (name, num, den, scale) in derived {
            out.insert(name.to_owned(), self.ratio(num, den, scale));
        }
        out
    }
}

#[derive(Serialize)]
struct LayerReport {
    /// Wall seconds of the traced part of the run (the spans' run).
    traced_wall_s: f64,
    /// Wall seconds of the untraced in-process reference run, if any.
    reference_wall_s: f64,
    /// Whether the rebuilt results are byte-identical to the reference.
    identical: bool,
    /// Deterministic artifacts compared with the oracle directory.
    artifacts_compared: usize,
    /// Names of compared artifacts that differ from the oracle.
    artifacts_mismatched: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

fn write_json(path: &Path, value: &impl Serialize) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("{e:?}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn write_trace(
    out_dir: &Path,
    rec: Recorder,
    report: &LayerReport,
    digest: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let spans = rec.into_spans();
    #[derive(Serialize)]
    struct SelfTime {
        name: String,
        spans: u64,
        total_s: f64,
        self_s: f64,
    }
    let table: Vec<SelfTime> = spans::self_times(&spans)
        .into_iter()
        .map(|(name, n, total, own)| SelfTime {
            name,
            spans: n,
            total_s: total as f64 * 1e-9,
            self_s: own as f64 * 1e-9,
        })
        .collect();
    write_json(&out_dir.join("spans.json"), &spans)?;
    write_json(&out_dir.join("self_time.json"), &table)?;
    write_json(&out_dir.join("layers.json"), report)?;
    std::fs::write(out_dir.join("digest.txt"), digest)
        .map_err(|e| format!("cannot write digest: {e}"))
}

fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a valid scenario: {e:?}"))
}

fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(0) => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("JOBS must be a number, got '{s}'")),
    }
}

fn trace_scenario(scenario: &str, jobs: &str, out_dir: &str) -> Result<(), String> {
    let mut s = load_scenario(scenario)?;
    let jobs = parse_jobs(jobs)?;
    s.jobs = jobs;
    let t0 = Instant::now();
    let reference = s.run();
    let reference_wall_s = t0.elapsed().as_secs_f64();

    let rec = Recorder::new();
    let mut m = Layers::default();
    let t0 = Instant::now();
    let rebuilt = {
        let mut main = rec.local(0);
        main.span("scenario", None, |_, id| {
            replicate::run_decomposed(&s, jobs, &rec, Some(id), &mut m)
        })
        .0
    };
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let text = full_text::digest_text(&rebuilt);
    let identical = text == full_text::digest_text(&reference);
    replicate::replay_layers(&s, &rebuilt, &mut m);
    let report = LayerReport {
        traced_wall_s,
        reference_wall_s,
        identical,
        artifacts_compared: 0,
        artifacts_mismatched: Vec::new(),
        metrics: m.published(),
    };
    write_trace(Path::new(out_dir), rec, &report, &text)
}

/// Every figure id the `paper_figures` workload's commands generate:
/// `report`'s figures, the ablations, the extensions and `fig1`–`fig3`.
fn paper_figure_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = Vec::new();
    let all = experiments::report::REPORT_FIGURES
        .iter()
        .chain(ablations::ALL_ABLATIONS.iter())
        .chain(extensions::ALL_EXTENSIONS.iter())
        .chain(["fig1", "fig2", "fig3"].iter());
    for &id in all {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

struct FigureOutcome {
    layers: Layers,
    study: Option<Vec<ReplicatedResult>>,
    written: Vec<PathBuf>,
}

fn trace_figures(jobs: &str, results_dir: &str, out_dir: &str) -> Result<(), String> {
    let jobs = parse_jobs(jobs)?;
    let mut scale = Scale::full();
    scale.jobs = jobs;
    let study_scale = Scale { jobs: 1, ..scale };
    let ids = paper_figure_ids();
    let out_dir = Path::new(out_dir);
    let artifacts_dir = out_dir.join("artifacts");
    // Same queue discipline as `swapsim`'s batch commands: one pool,
    // heaviest figures first by the static weight table.
    let mut rank: Vec<usize> = (0..ids.len()).collect();
    rank.sort_by_key(|&i| std::cmp::Reverse(schedule::weight(ids[i])));
    let mut priority = vec![0u64; ids.len()];
    for (p, &i) in rank.iter().enumerate() {
        priority[i] = p as u64;
    }
    let pool = Arc::new(simkit::pool::WorkerPool::new(jobs));

    let rec = Recorder::new();
    let t0 = Instant::now();
    let outcomes: Vec<FigureOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let (pool, rec, artifacts_dir, prio) = (&pool, &rec, &artifacts_dir, priority[i]);
                scope.spawn(move || {
                    let mut l = rec.local(i + 1);
                    let mut m = Layers::default();
                    let (out, _) = l.span("figure", None, |l, fid| {
                        let col = timing::Collection::begin(id, scale.jobs, scale.seeds);
                        let (fig, _) = l.span("figure.generate", Some(fid), |_, _| {
                            let _active = timing::activate(&col);
                            let _pool = simkit::pool::install(pool, prio);
                            figures::by_id(id, &scale)
                                .or_else(|| ablations::ablation_by_id(id, &scale))
                                .or_else(|| extensions::extension_by_id(id, &scale))
                                .expect("paper figure ids are known")
                        });
                        drop(col.finish(0.0));
                        let (study, ns) = l.span("study_trace", Some(fid), |l, sid| {
                            let (results, bundle) = studies::run_study_traced(id, &study_scale)?;
                            let (metrics, _) = l.span("metrics.from_bundle", Some(sid), |_, _| {
                                obs::Metrics::from_bundle(&bundle)
                            });
                            Some((results, bundle.event_count(), metrics))
                        });
                        let (study, metrics) = match study {
                            Some((results, events, metrics)) => {
                                m.add("study_trace.busy_s", ns as f64 * 1e-9);
                                m.add("obs.events", events as f64);
                                (Some(results), Some(metrics))
                            }
                            None => (None, None),
                        };
                        let (artifacts, ns) = l.span("output.write", Some(fid), |_, _| {
                            output::write_artifacts(artifacts_dir, &fig, None, metrics.as_ref())
                        });
                        m.add("output.write.busy_s", ns as f64 * 1e-9);
                        let written: Vec<PathBuf> =
                            [Some(artifacts.csv), Some(artifacts.json), artifacts.metrics]
                                .into_iter()
                                .flatten()
                                .collect();
                        let bytes: u64 = written
                            .iter()
                            .map(|p| std::fs::metadata(p).map_or(0, |md| md.len()))
                            .sum();
                        m.add("output.bytes", bytes as f64);
                        (study, written)
                    });
                    FigureOutcome {
                        layers: m,
                        study: out.0,
                        written: out.1,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("figure thread panicked"))
            .collect()
    });
    let traced_wall_s = t0.elapsed().as_secs_f64();

    let mut m = Layers::default();
    let mut compared = 0;
    let mut mismatched = Vec::new();
    for o in &outcomes {
        m.merge(&o.layers);
        for path in &o.written {
            let name = path.file_name().expect("artifact has a name");
            compared += 1;
            let ours =
                std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if std::fs::read(Path::new(results_dir).join(name)).ok() != Some(ours) {
                mismatched.push(name.to_string_lossy().into_owned());
            }
        }
    }

    // The strategy, realization, exec and decision layers run inside the
    // figure sweeps, out of reach of an outside span; each figure's
    // representative study scenario is rebuilt from public calls instead
    // and must match the study results byte for byte.
    let mut identical = true;
    let mut digest = String::new();
    {
        let mut main = rec.local(0);
        for (&id, o) in ids.iter().zip(&outcomes) {
            let (Some(study), Some(mut s)) = (&o.study, studies::study_scenario(id, &study_scale))
            else {
                continue;
            };
            s.jobs = 1;
            let (rebuilt, _) = main.span("study.rebuilt", None, |_, sid| {
                replicate::run_decomposed(&s, jobs, &rec, Some(sid), &mut m)
            });
            let text = full_text::digest_text(&rebuilt);
            identical &= text == full_text::digest_text(study);
            digest.push_str(&format!("figure\t{id}\n{text}"));
            replicate::replay_layers(&s, &rebuilt, &mut m);
        }
    }
    let report = LayerReport {
        traced_wall_s,
        reference_wall_s: 0.0,
        identical,
        artifacts_compared: compared,
        artifacts_mismatched: mismatched,
        metrics: m.published(),
    };
    write_trace(out_dir, rec, &report, &digest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.as_slice() {
        ["trace-scenario", scenario, jobs, out_dir] => trace_scenario(scenario, jobs, out_dir),
        ["trace-figures", jobs, results_dir, out_dir] => trace_figures(jobs, results_dir, out_dir),
        _ => Err("usage: perfbench-harness trace-scenario SCENARIO JOBS OUT_DIR | trace-figures JOBS RESULTS_DIR OUT_DIR".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::from(2)
        }
    }
}
