//! A scenario's replications rebuilt from public calls, with a span
//! around each call, plus replays of the inner layers that
//! `Strategy::run` calls and a span cannot reach from outside.
//!
//! `run_decomposed` composes each replication exactly as the runner
//! does — `PlatformSpec::realize`, `FaultPlan::generate`,
//! `Platform::apply_blackouts`, a `RunContext`, `Strategy::run` — and
//! aggregates with `runner::summarize`, so its results must be
//! byte-identical to `Scenario::run` on the same file.

use crate::spans::{Local, Recorder};
use crate::Layers;
use experiments::scenario::{Scenario, StrategyRef};
use faults::{FaultPlan, FaultSpec};
use policy::{PolicySet, SpareCandidate};
use simkit::par::{par_map_stats, worker_slot};
use simulator::exec::{run_iteration_into, IterationOutcome, RunResult};
use simulator::platform::Platform;
use simulator::runner::{summarize, ReplicatedResult};
use simulator::schedule::fastest_hosts;
use simulator::strategies::RunContext;
use std::hint::black_box;
use std::time::Instant;
use swap_core::{DecisionEngine, PerfHistory, PolicyParams, ProcessorSnapshot, SwapCost};

/// Seeds replayed through the inner layers (exec, decision, placement):
/// enough windows for a steady per-call time, few enough realizations
/// to keep the replay's memory at one platform at a time.
const REPLAY_SEEDS: usize = 8;

/// The strategy kind as named in the scenario file.
pub fn kind_of(s: &StrategyRef) -> &'static str {
    match s {
        StrategyRef::Nothing => "nothing",
        StrategyRef::Dlb => "dlb",
        StrategyRef::Swap { .. } => "swap",
        StrategyRef::Cr { .. } => "cr",
        StrategyRef::DlbSwap { .. } => "dlb_swap",
        StrategyRef::Oracle => "oracle",
    }
}

fn swap_policy(s: &StrategyRef) -> Option<PolicyParams> {
    match s {
        StrategyRef::Swap { policy }
        | StrategyRef::Cr { policy }
        | StrategyRef::DlbSwap { policy } => Some(*policy),
        _ => None,
    }
}

fn enabled_faults(s: &Scenario) -> Option<&FaultSpec> {
    s.faults.as_ref().filter(|f| f.is_enabled())
}

/// The policy bundle `Scenario::run` attaches: only with faults on.
fn policy_set(s: &Scenario) -> Option<PolicySet> {
    let f = enabled_faults(s)?;
    Some(s.policies.as_ref()?.build(f.shock_window_secs))
}

fn fault_events(plan: &FaultPlan) -> usize {
    plan.hosts
        .iter()
        .map(|h| usize::from(h.crash.is_some()) + h.blackouts.len())
        .sum::<usize>()
        + plan.link.len()
}

/// Everything one replication needs from its seed: the platform (with
/// blackouts spliced in) and the fault plan.
fn realize(
    s: &Scenario,
    seed: u64,
    l: &mut Local<'_>,
    parent: Option<u64>,
    m: &mut Layers,
) -> (Platform, Option<FaultPlan>) {
    let (platform, ns) = l.span("realize", parent, |_, _| s.platform.realize(seed));
    m.add("realize.calls", 1.0);
    m.add("realize.busy_s", ns as f64 * 1e-9);
    let segments: usize = platform
        .hosts
        .iter()
        .map(|h| h.cpu.load().points().len())
        .sum();
    m.add("realize.segments", segments as f64);
    let Some(f) = enabled_faults(s) else {
        return (platform, None);
    };
    let n_hosts = platform.hosts.len();
    let (plan, ns) = l.span("fault_plan", parent, |_, _| {
        FaultPlan::generate(f, n_hosts, s.platform.horizon, seed)
    });
    m.add("fault_plan.calls", 1.0);
    m.add("fault_plan.busy_s", ns as f64 * 1e-9);
    m.add("fault_plan.events", fault_events(&plan) as f64);
    let platform = if plan.has_blackouts() {
        let (p, ns) = l.span("blackouts", parent, |_, _| platform.apply_blackouts(&plan));
        m.add("blackouts.busy_s", ns as f64 * 1e-9);
        p
    } else {
        platform
    };
    (platform, Some(plan))
}

/// Runs every replication of `s` from public calls, distributed over
/// `jobs` workers by `simkit::par::par_map_stats` as `Scenario::run`
/// distributes them, recording a span per call and the per-layer counts
/// (and the workers' busy time) into `m`.
pub fn run_decomposed(
    s: &Scenario,
    jobs: usize,
    rec: &Recorder,
    parent: Option<u64>,
    m: &mut Layers,
) -> Vec<ReplicatedResult> {
    s.validate();
    let seeds: Vec<u64> = (0..s.replications as u64).collect();
    let policies = policy_set(s);
    m.add("realize.distinct", seeds.len() as f64);
    let mut main = rec.local(0);
    s.strategies
        .iter()
        .map(|sref| {
            main.span("strategy.batch", parent, |_, batch| {
                run_strategy(s, sref, &seeds, jobs, policies.as_ref(), rec, batch, m)
            })
            .0
        })
        .collect()
}

/// One strategy's replications, each a span under `batch` on the
/// thread of the `par_map` worker that ran it.
#[allow(clippy::too_many_arguments)]
fn run_strategy(
    s: &Scenario,
    sref: &StrategyRef,
    seeds: &[u64],
    jobs: usize,
    policies: Option<&PolicySet>,
    rec: &Recorder,
    batch: u64,
    m: &mut Layers,
) -> ReplicatedResult {
    let (strategy, alloc) = sref.build(s.app.n_active, s.allocated);
    let kind = kind_of(sref);
    let span_name = format!("strategy.{kind}");
    let (per_seed, stats) = par_map_stats(seeds, jobs, |_, &seed| {
        let mut l = rec.local(worker_slot().map_or(0, |w| w + 1));
        let mut m = Layers::default();
        let run = l
            .span("replication", Some(batch), |l, id| {
                let (platform, plan) = realize(s, seed, l, Some(id), &mut m);
                let mut ctx = RunContext::new(&platform, &s.app, alloc);
                if let Some(plan) = &plan {
                    ctx = ctx.with_faults(plan);
                }
                if let Some(ps) = policies {
                    ctx = ctx.with_policies(ps);
                }
                let (run, ns) = l.span(&span_name, Some(id), |_, _| strategy.run(&ctx));
                let secs = ns as f64 * 1e-9;
                m.add("strategy.runs", 1.0);
                m.add("strategy.busy_s", secs);
                m.add(&format!("strategy.{kind}.busy_s"), secs);
                if plan.is_some() {
                    m.add("strategy.faulted.busy_s", secs);
                }
                m.add("strategy.sim_iterations", run.iterations.len() as f64);
                m.add("strategy.adaptations", run.adaptations as f64);
                m.add("strategy.failures", run.failures as f64);
                m.add("strategy.recoveries", run.recoveries as f64);
                m.add("strategy.aborts", run.aborts as f64);
                m.add("strategy.truncated", f64::from(u8::from(run.truncated)));
                run
            })
            .0;
        (run, m)
    });
    m.add("pool.busy_s", stats.busy_secs());
    m.max("pool.workers", stats.worker_busy_secs.len() as f64);
    let mut runs = Vec::with_capacity(seeds.len());
    for (run, seed_m) in per_seed {
        runs.push(run);
        m.merge(&seed_m);
    }
    aggregate(strategy.name(), runs)
}

/// The runner's aggregation, from public pieces.
fn aggregate(strategy: String, runs: Vec<RunResult>) -> ReplicatedResult {
    let n = runs.len() as f64;
    let times: Vec<f64> = runs.iter().map(|r| r.execution_time).collect();
    ReplicatedResult {
        strategy,
        execution_time: summarize(&times),
        mean_adaptations: runs.iter().map(|r| r.adaptations as f64).sum::<f64>() / n,
        mean_adapt_time: runs.iter().map(|r| r.adapt_time_total).sum::<f64>() / n,
        runs,
        seed_wall_secs: Vec::new(),
    }
}

/// Replays the recorded iteration windows and active sets of the first
/// seeds' runs through the exec, cpu and timeline calls; the swap
/// kinds' windows also through `PerfHistory::predict` and
/// `DecisionEngine::decide` at the run's allocation size and history
/// window; and, when the scenario carries faults and policies, the
/// spare-placement rankings a traced policy run reports.
pub fn replay_layers(s: &Scenario, results: &[ReplicatedResult], m: &mut Layers) {
    let n_seeds = s.replications.min(REPLAY_SEEDS);
    let placements = placement_requests(s, n_seeds);
    let policies = policy_set(s);
    // Realization here is set-up for the replay, not a measured call:
    // its spans and counts go to a scratch recorder and tally.
    let scratch_rec = Recorder::new();
    let mut scratch_local = scratch_rec.local(0);
    let mut scratch = Layers::default();
    for seed in 0..n_seeds {
        let (platform, plan) = realize(s, seed as u64, &mut scratch_local, None, &mut scratch);
        for (sref, r) in s.strategies.iter().zip(results) {
            let run = &r.runs[seed];
            replay_exec(&platform, s, run, m);
            if let Some(policy) = swap_policy(sref) {
                let (_, alloc) = sref.build(s.app.n_active, s.allocated);
                replay_decisions(&platform, s, run, policy, alloc, m);
            }
        }
        if let (Some(ps), Some(plan), Some(reqs)) = (&policies, &plan, &placements) {
            replay_placements(&platform, plan, s, ps, &reqs[seed], m);
        }
    }
}

/// Times `f` over `items` in whole passes until at least 20 ms have
/// gone by; returns nanoseconds per item.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed().as_millis() < 20 {
        items.iter().for_each(&mut f);
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / (f64::from(passes) * items.len() as f64)
}

fn replay_exec(platform: &Platform, s: &Scenario, run: &RunResult, m: &mut Layers) {
    let app = &s.app;
    let windows: Vec<_> = run
        .iterations
        .iter()
        .filter(|r| !r.active.is_empty())
        .collect();
    let hosts: Vec<(usize, f64, f64)> = windows
        .iter()
        .flat_map(|r| r.active.iter().map(|&h| (h, r.start, r.compute_end)))
        .collect();
    let work = vec![app.flops_per_proc_iter; app.n_active.max(1)];
    // The scratch-reusing form, as the strategies' iteration loops call it.
    let mut out = IterationOutcome::default();
    let iter_ns = ns_per_item(&windows, |r| {
        let n = r.active.len().min(work.len());
        run_iteration_into(platform, app, &r.active[..n], &work[..n], r.start, &mut out);
        black_box(&out);
    });
    let completion_ns = ns_per_item(&hosts, |&(h, t0, _)| {
        black_box(
            platform.hosts[h]
                .cpu
                .completion_time(t0, app.flops_per_proc_iter),
        );
    });
    let mean_ns = ns_per_item(&hosts, |&(h, t0, t1)| {
        black_box(platform.hosts[h].mean_delivered(t0, t1.max(t0 + 1.0)));
    });
    let segments: usize = hosts
        .iter()
        .map(|&(h, t0, t1)| platform.hosts[h].cpu.load().segments_in(t0, t1).count())
        .sum();
    m.add_timed("exec.iteration", iter_ns, windows.len());
    m.add_timed("cpu.completion", completion_ns, hosts.len());
    m.add_timed("cpu.mean_delivered", mean_ns, hosts.len());
    m.add("timeline.segments", segments as f64);
    m.add("timeline.windows", hosts.len() as f64);
}

fn replay_decisions(
    platform: &Platform,
    s: &Scenario,
    run: &RunResult,
    policy: PolicyParams,
    alloc: usize,
    m: &mut Layers,
) {
    let alloc = alloc.clamp(s.app.n_active, platform.hosts.len());
    let pool = fastest_hosts(platform, alloc, 0.0);
    let engine = DecisionEngine::new(policy, SwapCost::from_link(platform.link));
    let mut histories: Vec<PerfHistory> = pool.iter().map(|_| PerfHistory::new()).collect();
    let mut stamps: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    let window = policy.history.secs();
    let mut snaps = Vec::with_capacity(pool.len());
    let (mut predict_ns, mut decide_ns, mut samples) = (0u128, 0u128, 0usize);
    let (mut predicts, mut decides) = (0usize, 0usize);
    let mut last_end = f64::NEG_INFINITY;
    for r in &run.iterations {
        if r.end <= last_end || r.duration() <= 0.0 {
            continue;
        }
        last_end = r.end;
        for (k, &h) in pool.iter().enumerate() {
            let rate = platform.hosts[h].mean_delivered(r.start, r.compute_end.max(r.start + 1.0));
            histories[k].record(r.end, rate);
            stamps[k].push(r.end);
        }
        let t0 = Instant::now();
        let preds: Vec<f64> = histories
            .iter()
            .map(|h| black_box(h.predict(policy.predictor, policy.history, r.end)).unwrap_or(0.0))
            .collect();
        predict_ns += t0.elapsed().as_nanos();
        predicts += pool.len();
        samples += if policy.history.is_instantaneous() {
            pool.len()
        } else {
            stamps
                .iter()
                .map(|st| st.iter().filter(|&&t| t >= r.end - window).count().max(1))
                .sum()
        };
        snaps.clear();
        snaps.extend(pool.iter().zip(&preds).map(|(&h, &p)| ProcessorSnapshot {
            id: h,
            active: r.active.contains(&h),
            predicted_perf: p,
        }));
        let t0 = Instant::now();
        black_box(engine.decide(&snaps, r.duration(), s.app.process_state_bytes));
        decide_ns += t0.elapsed().as_nanos();
        decides += 1;
    }
    m.add("decision.calls", decides as f64);
    m.add("decision.total_ns", decide_ns as f64);
    m.add("decision.snapshots", (decides * pool.len()) as f64);
    m.add("history.predict.calls", predicts as f64);
    m.add("history.predict.total_ns", predict_ns as f64);
    m.add("history.samples", samples as f64);
}

/// A placement consultation: its instant and the ranked candidate hosts.
type PlacementRequest = (f64, Vec<usize>);

/// The (decision instant, ranked candidate hosts) pairs of every
/// placement consultation, per replay seed, as the traced run of the
/// scenario's first seeds reports them. `None` without faults and
/// policies.
fn placement_requests(s: &Scenario, n_seeds: usize) -> Option<Vec<Vec<PlacementRequest>>> {
    policy_set(s)?;
    let mut first = s.clone();
    first.replications = n_seeds;
    let (_, bundle) = first.run_traced();
    let mut per_seed = vec![Vec::new(); n_seeds];
    for run in bundle.runs {
        let reqs = &mut per_seed[usize::try_from(run.seed).expect("seed index fits")];
        for e in run.trace.events {
            if let obs::TraceEvent::PolicyDecision { t, ranked, .. } = e {
                reqs.push((t, ranked));
            }
        }
    }
    Some(per_seed)
}

fn replay_placements(
    platform: &Platform,
    plan: &FaultPlan,
    s: &Scenario,
    ps: &PolicySet,
    reqs: &[PlacementRequest],
    m: &mut Layers,
) {
    let dist = enabled_faults(s).map(|f| f.crash_dist).unwrap_or_default();
    let requests: Vec<(f64, Vec<SpareCandidate>)> = reqs
        .iter()
        .map(|(t, ranked)| {
            let cands = ranked
                .iter()
                .map(|&host| {
                    let domain = plan.domain_of(host);
                    SpareCandidate {
                        host,
                        probe_rate: platform.hosts[host]
                            .mean_delivered((t - 60.0).max(0.0), t.max(1.0)),
                        uptime_secs: *t,
                        mtbf_secs: plan.host_mtbf(host),
                        dist,
                        domain,
                        last_domain_shock: domain.and_then(|d| plan.last_shock_before(d, *t)),
                    }
                })
                .collect();
            (*t, cands)
        })
        .collect();
    let ns = ns_per_item(&requests, |(t, cands)| {
        black_box(ps.placement.rank(cands, *t));
    });
    let candidates: usize = requests.iter().map(|(_, c)| c.len()).sum();
    m.add_timed("placement", ns, requests.len());
    m.add("placement.candidates", candidates as f64);
}
