//! The SWAP strategy: MPI process swapping under a policy (§3, §6).
//!
//! "Over-allocated, spare processors are left idle … an application does
//! not consume more resources because of over-allocation." At the end of
//! each iteration the swap manager collects performance measurements for
//! every allocated processor (active processes report their achieved
//! compute rate; swap handlers probe the spares), feeds them through the
//! policy's history window/predictor, and asks the decision engine
//! whether to exchange the slowest active processor(s) for the fastest
//! spare(s). Each admitted exchange pauses the application for
//! `α + state/β` while the process state crosses the shared link.

use super::{balanced_work, rank_replacements, Run, RunContext, Strategy};
use crate::exec::{probe_host, IterationOutcome, RunResult};
use crate::schedule::{equal_partition, fastest_hosts};
use std::collections::HashMap;
use swap_core::{
    DecisionEngine, PerfHistory, PolicyParams, ProcessorSnapshot, SwapCost, SwapDecision,
};

/// MPI process swapping with a configurable policy.
#[derive(Clone, Copy, Debug)]
pub struct Swap {
    policy: PolicyParams,
    label: &'static str,
    max_swaps: Option<usize>,
}

impl Swap {
    /// Swapping under an arbitrary policy (labelled "custom").
    pub fn new(policy: PolicyParams) -> Self {
        Swap {
            policy,
            label: "custom",
            max_swaps: None,
        }
    }

    /// The greedy policy — the paper's default "SWAP" in Figures 4–6.
    pub fn greedy() -> Self {
        Swap {
            policy: PolicyParams::greedy(),
            label: "greedy",
            max_swaps: None,
        }
    }

    /// The safe policy.
    pub fn safe() -> Self {
        Swap {
            policy: PolicyParams::safe(),
            label: "safe",
            max_swaps: None,
        }
    }

    /// The friendly policy.
    pub fn friendly() -> Self {
        Swap {
            policy: PolicyParams::friendly(),
            label: "friendly",
            max_swaps: None,
        }
    }

    /// Caps exchanges per decision point (ablation knob; the paper's
    /// policies swap "the slowest active processor(s) for the fastest
    /// inactive processor(s)" — i.e., possibly several at once).
    pub fn with_max_swaps(mut self, max: usize) -> Self {
        self.max_swaps = Some(max);
        self
    }

    /// The policy driving this strategy.
    pub fn policy(&self) -> &PolicyParams {
        &self.policy
    }
}

impl Strategy for Swap {
    fn name(&self) -> String {
        format!("swap({})", self.label)
    }

    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        let mut engine = DecisionEngine::new(self.policy, SwapCost::from_link(ctx.platform.link));
        if let Some(max) = self.max_swaps {
            engine = engine.with_max_swaps(max);
        }
        run_swapping(ctx, self.name(), engine, false)
    }
}

/// The swap manager's bookkeeping (§3): the decision engine, one
/// performance history per allocated host, and a snapshot scratch reused
/// across decision points (the replication hot path runs thousands of
/// these loops).
pub(super) struct Manager {
    engine: DecisionEngine,
    histories: HashMap<usize, PerfHistory>,
    snapshots: Vec<ProcessorSnapshot>,
}

impl Manager {
    /// A manager with empty histories for every host of `pool`.
    pub(super) fn new(engine: DecisionEngine, pool: &[usize]) -> Self {
        Manager {
            engine,
            histories: pool.iter().map(|&h| (h, PerfHistory::new())).collect(),
            snapshots: Vec::with_capacity(pool.len()),
        }
    }

    /// Records the measurements of the iteration `out` that started at
    /// `t0`: active processes report their achieved compute rate; the
    /// swap handlers probe the spares over the same window.
    pub(super) fn measure(
        &mut self,
        ctx: &RunContext<'_>,
        pool: &[usize],
        active: &[usize],
        t0: f64,
        out: &IterationOutcome,
    ) {
        for (k, &h) in active.iter().enumerate() {
            self.histories
                .get_mut(&h)
                .expect("active host is in pool")
                .record(out.end, out.measured_rates[k]);
        }
        for &h in pool.iter().filter(|h| !active.contains(h)) {
            let probed = probe_host(ctx.platform, h, t0, out.compute_end);
            self.histories
                .get_mut(&h)
                .expect("spare host is in pool")
                .record(out.end, probed);
            ctx.emit(|| obs::TraceEvent::Probe {
                t: out.end,
                host: h,
                rate: probed,
            });
        }
    }

    /// Decision point after iteration `index` (`out`, started at `t0`):
    /// predicts every pool host's performance from its history and asks
    /// the engine which exchanges pay off, auditing the decision.
    pub(super) fn decide(
        &mut self,
        ctx: &RunContext<'_>,
        pool: &[usize],
        active: &[usize],
        index: usize,
        t0: f64,
        out: &IterationOutcome,
    ) -> SwapDecision {
        let policy = *self.engine.policy();
        let iter_time = out.end - t0;
        self.snapshots.clear();
        self.snapshots.extend(pool.iter().map(|&h| {
            ProcessorSnapshot {
                id: h,
                active: active.contains(&h),
                predicted_perf: self.histories[&h]
                    .predict(policy.predictor, policy.history, out.end)
                    .expect("history has at least one sample"),
            }
        }));
        let state = ctx.app.process_state_bytes;
        let decision = self.engine.decide(&self.snapshots, iter_time, state);
        ctx.emit(|| obs::TraceEvent::SwapDecision {
            t: out.end,
            iter: index,
            old_iter_time: iter_time,
            swap_time: self.engine.cost().swap_time(state),
            app_improvement: decision.app_improvement,
            stopped_because: decision.stopped_because,
            admitted: decision.pairs.clone(),
            rejected: decision.rejected,
        });
        decision
    }

    /// The snapshots of the last decision point.
    pub(super) fn snapshots(&self) -> &[ProcessorSnapshot] {
        &self.snapshots
    }
}

/// The loop SWAP and DLB+SWAP share: allocate the `alloc` best
/// processors at startup, compute on the best `N` of those, and at the
/// end of each iteration let the swap manager exchange the slowest
/// active processor(s) for the fastest spare(s). Each admitted exchange
/// pauses the application for `α + state/β`. The last iteration performs
/// no swap — there is nothing left to amortize against. DLB+SWAP
/// (`rebalance`) also recomputes the work division every iteration.
///
/// The over-allocated spare pool doubles as a recovery pool. A crashed
/// active slot is reported at the next collective (ULFM semantics); the
/// manager treats the death as a *mandatory* swap — the payback algebra
/// is skipped entirely — and restores the process on the best surviving
/// spare from its last registered snapshot (one `α + state/β` transfer,
/// the same price as a voluntary swap). Crashed hosts leave the pool for
/// good. The failed iteration is re-run from the recovery instant. If a
/// dead slot has no spare left, the run is truncated and censored at the
/// plan's horizon.
pub(super) fn run_swapping(
    ctx: &RunContext<'_>,
    name: String,
    engine: DecisionEngine,
    rebalance: bool,
) -> RunResult {
    let plan = ctx.plan();
    let app = ctx.app;
    let n = app.n_active;
    let mut pool = fastest_hosts(ctx.platform, ctx.allocated, 0.0);
    let mut active: Vec<usize> = pool[..n].to_vec();
    let mut manager = Manager::new(engine, &pool);
    let mut work = equal_partition(n, app.flops_per_proc_iter);
    let transfer = ctx.platform.link.transfer_time(app.process_state_bytes);
    let mut run = Run::new(ctx, &plan, name, ctx.platform.startup_time(ctx.allocated));
    while !run.done() {
        if rebalance {
            work = balanced_work(ctx, &active, run.t);
        }
        if let Some(detected) = run.attempt(&active, &work) {
            // Every host known dead by the detection instant leaves the
            // pool — crashed spares are discovered here too.
            pool.retain(|&h| !plan.is_crashed(h, detected));
            let mut pause = 0.0;
            for &dead in &run.failed {
                let spares = pool.iter().copied().filter(|h| !active.contains(h));
                let ranked = rank_replacements(ctx, &plan, spares, dead, run.t, detected);
                let Some(&best) = ranked.first() else {
                    return run.truncate(detected);
                };
                let slot = active
                    .iter()
                    .position(|&h| h == dead)
                    .expect("failed host is active");
                active[slot] = best;
                ctx.emit(|| obs::TraceEvent::SwapExec {
                    t: detected + pause,
                    iter: run.index,
                    from: dead,
                    to: best,
                    bytes: app.process_state_bytes,
                    transfer_secs: transfer,
                });
                pause += transfer;
                ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                    t: detected + pause,
                    host: dead,
                    replacement: Some(best),
                    action: obs::RecoveryAction::SpareSwap,
                    pause_secs: transfer,
                });
                run.result.adaptations += 1;
                run.result.recoveries += 1;
            }
            run.resume(detected, pause, run.index);
            continue;
        }

        let out = &run.out;
        // Spares that died quietly are discovered by their failed probes
        // at the iteration boundary.
        pool.retain(|&h| !plan.is_crashed(h, out.end));
        manager.measure(ctx, &pool, &active, run.t, out);
        let active_during = active.clone();
        let mut adapt_time = 0.0;
        if run.index + 1 < app.iterations {
            let decision = manager.decide(ctx, &pool, &active, run.index, run.t, out);
            for pair in &decision.pairs {
                let slot = active
                    .iter()
                    .position(|&h| h == pair.from)
                    .expect("engine swaps an active host");
                active[slot] = pair.to;
                ctx.emit(|| obs::TraceEvent::SwapExec {
                    t: out.end + adapt_time,
                    iter: run.index,
                    from: pair.from,
                    to: pair.to,
                    bytes: app.process_state_bytes,
                    transfer_secs: transfer,
                });
                adapt_time += transfer;
            }
            run.result.adaptations += decision.pairs.len();
        }
        run.complete(active_during, adapt_time);
    }
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::super::Nothing;
    use super::*;
    use crate::platform::{Host, LoadSpec, Platform};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    #[test]
    fn no_swaps_on_a_quiescent_platform() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 8);
        let r = Swap::greedy().run(&ctx);
        assert_eq!(r.adaptations, 0, "nothing to gain, nothing swapped");
        // Identical per-iteration behaviour to NOTHING, except the larger
        // startup (8 vs 2 processes).
        let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
        let extra_startup = p.startup_time(8) - p.startup_time(2);
        assert!((r.execution_time - nothing.execution_time - extra_startup).abs() < 1e-6);
    }

    #[test]
    fn swaps_away_from_a_permanently_loaded_host() {
        // Two fast hosts, one of which becomes loaded after startup; two
        // idle spares. Greedy must move off the loaded host.
        let loaded = LoadTrace::from_intervals([(5.0, 1e9)]);
        let p = Platform {
            hosts: vec![
                Host::new(1.2e8, &LoadTrace::unloaded()),
                Host::new(1.1e8, &loaded),
                Host::new(1.0e8, &LoadTrace::unloaded()),
                Host::new(0.9e8, &LoadTrace::unloaded()),
            ],
            link: SharedLink::new(1e-4, 6e6),
            startup_per_process: 0.75,
        };
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 4);
        let r = Swap::greedy().run(&ctx);
        assert!(r.adaptations >= 1, "expected at least one swap");
        let last_active = &r.iterations.last().unwrap().active;
        assert!(
            !last_active.contains(&1),
            "loaded host 1 still active at the end: {last_active:?}"
        );

        // And the adaptive run beats doing nothing.
        let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
        assert!(
            r.execution_time < nothing.execution_time,
            "swap {} vs nothing {}",
            r.execution_time,
            nothing.execution_time
        );
    }

    #[test]
    fn beneficial_under_persistent_onoff_load() {
        let app = small_app();
        let mut swap_wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let swap = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if swap.execution_time < nothing.execution_time {
                swap_wins += 1;
            }
        }
        assert!(
            swap_wins >= 6,
            "greedy swapping won only {swap_wins}/8 replications"
        );
    }

    #[test]
    fn huge_state_makes_greedy_swapping_harmful() {
        // Swap time (1 GB / 6 MB/s ≈ 167 s) far exceeds the iteration
        // time (~15–30 s): the Figure 8 pathology.
        let mut app = small_app();
        app.process_state_bytes = 1e9;
        let mut greedy_worse = 0;
        for seed in 0..6 {
            let p = small_platform(moderate_onoff(), seed);
            let greedy = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if greedy.adaptations > 0 && greedy.execution_time > nothing.execution_time {
                greedy_worse += 1;
            }
        }
        assert!(
            greedy_worse >= 3,
            "expected greedy to hurt with 1 GB state, hurt in {greedy_worse}/6"
        );
    }

    #[test]
    fn safe_swaps_at_most_as_often_as_greedy() {
        let app = small_app();
        for seed in 0..5 {
            let p = small_platform(moderate_onoff(), seed);
            let greedy = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            let safe = Swap::safe().run(&RunContext::new(&p, &app, 8));
            assert!(
                safe.adaptations <= greedy.adaptations,
                "seed {seed}: safe {} > greedy {}",
                safe.adaptations,
                greedy.adaptations
            );
        }
    }

    #[test]
    fn deterministic_given_platform() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = Swap::greedy().run(&RunContext::new(&p, &app, 8));
        let b = Swap::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.adaptations, b.adaptations);
    }

    #[test]
    fn no_overallocation_means_no_swaps() {
        let p = small_platform(moderate_onoff(), 4);
        let app = small_app();
        let r = Swap::greedy().run(&RunContext::new(&p, &app, 2));
        assert_eq!(r.adaptations, 0);
    }

    #[test]
    fn adapt_time_matches_swap_count() {
        let p = small_platform(moderate_onoff(), 5);
        let app = small_app();
        let r = Swap::greedy().run(&RunContext::new(&p, &app, 8));
        let per_swap = p.link.transfer_time(app.process_state_bytes);
        assert!((r.adapt_time_total - r.adaptations as f64 * per_swap).abs() < 1e-9);
    }
}
