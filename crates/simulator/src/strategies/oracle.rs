//! Clairvoyant upper bound.
//!
//! Not in the paper — an analysis tool this reproduction adds. The
//! oracle sees the *future*: before every iteration it places the
//! application on the `N` hosts that will deliver the most capacity over
//! the upcoming iteration, paying nothing to move. No measurement-driven
//! policy can beat it; the gap between a policy and the oracle is the
//! value still obtainable from better prediction (`ablation_oracle`
//! quantifies it).

use super::{Run, RunContext, Strategy};
use crate::exec::RunResult;
use crate::schedule::equal_partition;

/// Free-migration, future-seeing host selection — an upper bound on every
/// swapping policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Picks the `n` hosts with the highest delivered capacity over
    /// `[t, t + window]`, best first, drawn from `candidates`.
    fn best_hosts_over(
        ctx: &RunContext<'_>,
        candidates: impl IntoIterator<Item = usize>,
        n: usize,
        t: f64,
        window: f64,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = candidates.into_iter().collect();
        ids.sort_by(|&a, &b| {
            let ca = ctx.platform.hosts[a].cpu.capacity(t, t + window);
            let cb = ctx.platform.hosts[b].cpu.capacity(t, t + window);
            cb.total_cmp(&ca).then(a.cmp(&b))
        });
        ids.truncate(n);
        ids
    }
}

impl Strategy for Oracle {
    fn name(&self) -> String {
        "oracle".to_owned()
    }

    /// The oracle also foresees crashes, but we keep it honest by only
    /// letting it avoid hosts already dead at the iteration start (it
    /// still places ahead by delivered capacity, so a mid-iteration crash
    /// can catch it). Recovery is free: the lost iteration is retried
    /// from the detection instant on the best survivors, with no transfer
    /// or restart pause — the upper bound no real recovery protocol can
    /// beat.
    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        let plan = ctx.plan();
        let app = ctx.app;
        let n = app.n_active;
        let work = equal_partition(n, app.flops_per_proc_iter);
        // Startup like NOTHING: the oracle needs no spare pool.
        let mut run = Run::new(ctx, &plan, self.name(), ctx.platform.startup_time(n));
        // Look-ahead window: the unloaded iteration time on a mid-range
        // host, refined to the previous iteration's actual length.
        let mut window = app.unloaded_iter_time(3.0e8);
        let mut prev_active: Option<Vec<usize>> = None;
        while !run.done() {
            let alive = (0..plan.hosts.len()).filter(|&h| !plan.is_crashed(h, run.t));
            let active = Oracle::best_hosts_over(ctx, alive, n, run.t, window);
            if active.len() < n {
                let t = run.t;
                return run.truncate(t);
            }
            if let Some(prev) = &prev_active {
                run.result.adaptations += active.iter().filter(|h| !prev.contains(h)).count();
            }
            if let Some(detected) = run.attempt(&active, &work) {
                ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                    t: detected,
                    host: run.failed[0],
                    replacement: None,
                    action: obs::RecoveryAction::SpareSwap,
                    pause_secs: 0.0,
                });
                run.result.recoveries += run.failed.len();
                prev_active = Some(active);
                run.resume(detected, 0.0, run.index);
                continue;
            }
            window = run.out.end - run.t;
            prev_active = Some(active.clone());
            run.complete(active, 0.0);
        }
        run.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::super::{Nothing, Swap};
    use super::*;
    use crate::platform::LoadSpec;

    #[test]
    fn matches_nothing_when_quiescent() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 2);
        let oracle = Oracle.run(&ctx);
        let nothing = Nothing.run(&ctx);
        assert!((oracle.execution_time - nothing.execution_time).abs() < 1e-6);
        assert_eq!(oracle.adaptations, 0);
    }

    #[test]
    fn never_loses_to_greedy_swapping() {
        let app = small_app();
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let oracle = Oracle.run(&RunContext::new(&p, &app, 8));
            let greedy = Swap::greedy().run(&RunContext::new(&p, &app, 8));
            assert!(
                oracle.execution_time <= greedy.execution_time + 1e-6,
                "seed {seed}: oracle {} > greedy {}",
                oracle.execution_time,
                greedy.execution_time
            );
        }
    }

    #[test]
    fn beats_nothing_under_load() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let oracle = Oracle.run(&RunContext::new(&p, &app, 2));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if oracle.execution_time < nothing.execution_time {
                wins += 1;
            }
        }
        assert!(wins >= 7, "oracle won only {wins}/8");
    }

    #[test]
    fn deterministic() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = Oracle.run(&RunContext::new(&p, &app, 2));
        let b = Oracle.run(&RunContext::new(&p, &app, 2));
        assert_eq!(a.execution_time, b.execution_time);
    }
}
