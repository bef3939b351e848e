//! Checkpoint/restart (§6, "Checkpoint/restart").
//!
//! "At each iteration, the execution rate is analyzed. If performance can
//! be increased by using another set of processors, based on the same
//! criteria used to evaluate process swapping decisions, the application
//! is checkpointed. We simulate the overhead of starting up the
//! application. We assume that application state information is written
//! to a central location. Upon application restart, the checkpoint is
//! read by each process, and execution resumes. Our simulations account
//! for the overhead of writing and reading the checkpoint."
//!
//! Unlike SWAP, a restart relocates *all* processes at once (to the `N`
//! best-predicted processors in the allocated pool), but pays the full
//! checkpoint write + MPI restart + checkpoint read each time.

use super::swap::Manager;
use super::{rank_replacements, Run, RunContext, Strategy};
use crate::exec::RunResult;
use crate::schedule::{equal_partition, fastest_hosts};
use swap_core::{DecisionEngine, PolicyParams, ProcessorSnapshot, SwapCost};

/// Checkpoint/restart driven by the same decision criteria as swapping.
#[derive(Clone, Copy, Debug)]
pub struct Cr {
    policy: PolicyParams,
}

impl Cr {
    /// CR under the greedy criteria — the paper's "CR" curves.
    pub fn greedy() -> Self {
        Cr {
            policy: PolicyParams::greedy(),
        }
    }

    /// CR under an arbitrary policy (the trigger uses the same gates as
    /// the corresponding SWAP run).
    pub fn new(policy: PolicyParams) -> Self {
        Cr { policy }
    }

    /// Cost of one checkpoint/restart cycle: write all N process states to
    /// the central store over the shared link, restart the N application
    /// processes (0.75 s each — the spare pool stays allocated from the
    /// initial launch), read the states back.
    pub fn restart_cost(ctx: &RunContext<'_>) -> f64 {
        let n = ctx.app.n_active;
        let write = ctx
            .platform
            .link
            .bulk_transfer_time(n, ctx.app.process_state_bytes);
        let read = write;
        write + ctx.platform.startup_time(n) + read
    }
}

/// What CR does at the end of a completed iteration. Whether a fault plan
/// is attached to the run picks the mode.
enum Mode {
    /// No plan: the paper's CR. The swap manager measures every pool host
    /// and, whenever the swap criteria fire, the application checkpoints
    /// and restarts on the `N` best-predicted processors, paying
    /// [`Cr::restart_cost`].
    Relocate(Manager),
    /// A plan: classic fault-tolerant checkpointing. Every
    /// `plan.checkpoint_every` completed iterations (or as the policy
    /// bundle's checkpoint policy says) the application writes a
    /// checkpoint, pausing for the N-process bulk write. The
    /// performance-triggered relocations are off: the cadence is the
    /// fault tolerance knob, not a performance policy.
    Checkpoint,
}

impl Strategy for Cr {
    fn name(&self) -> String {
        "cr".to_owned()
    }

    /// One loop for both adaptation modes: with no fault plan attached,
    /// CR relocates whenever the swap criteria fire (the paper's CR);
    /// with one, it checkpoints on a cadence instead. On a crash the
    /// run rolls back to the last checkpoint (losing everything since),
    /// pays the restart cost (read + MPI startup), and resumes on the `N`
    /// best surviving hosts in the pool. If fewer than `N` pool hosts
    /// survive, the run is censored at the plan's horizon.
    fn run(&self, ctx: &RunContext<'_>) -> RunResult {
        let plan = ctx.plan();
        let app = ctx.app;
        let n = app.n_active;
        let alloc = ctx.allocated;
        let mut pool = fastest_hosts(ctx.platform, alloc, 0.0);
        let mut active: Vec<usize> = pool[..n].to_vec();
        let mut mode = match ctx.faults {
            None => {
                let engine =
                    DecisionEngine::new(self.policy, SwapCost::from_link(ctx.platform.link));
                Mode::Relocate(Manager::new(engine, &pool))
            }
            Some(_) => Mode::Checkpoint,
        };

        let ckpt_write = ctx
            .platform
            .link
            .bulk_transfer_time(n, app.process_state_bytes);
        let restart_pause = ckpt_write + ctx.platform.startup_time(n);
        let cycle_cost = Cr::restart_cost(ctx);
        let every = plan.checkpoint_every.max(1);
        let work = equal_partition(n, app.flops_per_proc_iter);
        let mut run = Run::new(ctx, &plan, self.name(), ctx.platform.startup_time(alloc));
        // Iteration index the last durable checkpoint covers (state as of
        // the *start* of this index). Index 0 is free: the input deck.
        let mut ckpt_index = 0usize;
        // Online estimates a checkpoint policy keys on: observed mean
        // iteration time and the empirical per-host MTBF (total host-time
        // over observed failures; None until the first failure).
        let mut iter_secs_sum = 0.0;
        let mut iters_run = 0usize;

        while !run.done() {
            if let Some(detected) = run.attempt(&active, &work) {
                pool.retain(|&h| !plan.is_crashed(h, detected));
                if pool.len() < n {
                    return run.truncate(detected);
                }
                // Roll back: re-read the checkpoint, restart the N
                // application processes on the best survivors, and lose
                // every iteration since the checkpoint.
                let ranked = rank_replacements(
                    ctx,
                    &plan,
                    pool.iter().copied(),
                    run.failed[0],
                    run.t,
                    detected,
                );
                active = ranked[..n].to_vec();
                ctx.emit(|| obs::TraceEvent::RecoveryComplete {
                    t: detected + restart_pause,
                    host: run.failed[0],
                    replacement: None,
                    action: obs::RecoveryAction::Restart,
                    pause_secs: restart_pause,
                });
                run.result.adaptations += 1;
                run.result.recoveries += 1;
                run.resume(detected, restart_pause, ckpt_index);
                continue;
            }

            let out = &run.out;
            pool.retain(|&h| !plan.is_crashed(h, out.end));
            iter_secs_sum += out.end - run.t;
            iters_run += 1;
            let active_during = active.clone();
            let completed = run.index + 1;
            let mut adapt_time = 0.0;
            match &mut mode {
                Mode::Relocate(manager) => {
                    manager.measure(ctx, &pool, &active, run.t, out);
                    // The CR trigger: would the swap criteria fire? The
                    // last iteration has nothing left to amortize against.
                    if completed < app.iterations
                        && manager
                            .decide(ctx, &pool, &active, run.index, run.t, out)
                            .will_swap()
                    {
                        // Relocate to the N best-predicted processors.
                        let mut ranked: Vec<&ProcessorSnapshot> =
                            manager.snapshots().iter().collect();
                        ranked.sort_by(|a, b| {
                            b.predicted_perf
                                .total_cmp(&a.predicted_perf)
                                .then(a.id.cmp(&b.id))
                        });
                        active = ranked[..n].iter().map(|s| s.id).collect();
                        adapt_time = cycle_cost;
                        run.result.adaptations += 1;
                        ctx.emit(|| obs::TraceEvent::Checkpoint {
                            t: out.end,
                            iter: run.index,
                            bytes: n as f64 * app.process_state_bytes,
                            pause_secs: cycle_cost,
                        });
                    }
                }
                Mode::Checkpoint => {
                    // Cadence: the legacy path keeps the exact modulo
                    // trigger; the policy path asks for the interval
                    // since the last durable checkpoint (identical for
                    // `FixedInterval`, since `ckpt_index` is always a
                    // multiple of the fixed cadence, but lets `YoungDaly`
                    // drift with the observed failure rate).
                    let should_checkpoint = match ctx.policies {
                        None => completed.is_multiple_of(every),
                        Some(ps) => {
                            let failures = run.result.failures;
                            let q = policy::CheckpointQuery {
                                delta_secs: ckpt_write,
                                mtbf_secs: (failures > 0)
                                    .then(|| out.end * alloc as f64 / failures as f64),
                                mean_iter_secs: iter_secs_sum / iters_run as f64,
                                default_every: every,
                                n_active: n,
                            };
                            completed - ckpt_index >= ps.checkpoint.interval_iters(&q)
                        }
                    };
                    if should_checkpoint && completed < app.iterations {
                        adapt_time = ckpt_write;
                        ctx.emit(|| obs::TraceEvent::Checkpoint {
                            t: out.end,
                            iter: run.index,
                            bytes: n as f64 * app.process_state_bytes,
                            pause_secs: ckpt_write,
                        });
                        ckpt_index = completed;
                    }
                }
            }
            run.complete(active_during, adapt_time);
        }
        run.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{moderate_onoff, small_app, small_platform};
    use super::super::{Nothing, Swap};
    use super::*;
    use crate::platform::{Host, LoadSpec, Platform};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    #[test]
    fn no_restarts_on_quiescent_platform() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let r = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(r.adaptations, 0);
    }

    #[test]
    fn restarts_away_from_persistent_load() {
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
        let r = Cr::greedy().run(&RunContext::new(&p, &app, 4));
        assert!(r.adaptations >= 1);
        assert!(!r.iterations.last().unwrap().active.contains(&1));
    }

    #[test]
    fn restart_cost_includes_write_startup_read() {
        let p = small_platform(LoadSpec::Unloaded, 0);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 8);
        let c = Cr::restart_cost(&ctx);
        let transfer = p.link.bulk_transfer_time(2, app.process_state_bytes);
        assert!((c - (2.0 * transfer + p.startup_time(2))).abs() < 1e-9);
    }

    #[test]
    fn cr_pays_more_per_adaptation_than_swap() {
        // Same trigger criteria, heavier mechanism: with identical
        // platforms CR's adaptation time per event exceeds SWAP's.
        let p = small_platform(moderate_onoff(), 2);
        let app = small_app();
        let ctx = RunContext::new(&p, &app, 8);
        let cr = Cr::greedy().run(&ctx);
        let swap = Swap::greedy().run(&ctx);
        if cr.adaptations > 0 && swap.adaptations > 0 {
            let per_cr = cr.adapt_time_total / cr.adaptations as f64;
            let per_swap = swap.adapt_time_total / swap.adaptations as f64;
            assert!(per_cr > per_swap, "cr {per_cr} <= swap {per_swap}");
        }
    }

    #[test]
    fn beneficial_under_persistent_load_despite_cost() {
        let app = small_app();
        let mut wins = 0;
        for seed in 0..8 {
            let p = small_platform(moderate_onoff(), seed);
            let cr = Cr::greedy().run(&RunContext::new(&p, &app, 8));
            let nothing = Nothing.run(&RunContext::new(&p, &app, 2));
            if cr.execution_time < nothing.execution_time {
                wins += 1;
            }
        }
        assert!(wins >= 5, "CR won only {wins}/8 replications");
    }

    #[test]
    fn deterministic_given_platform() {
        let p = small_platform(moderate_onoff(), 3);
        let app = small_app();
        let a = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        let b = Cr::greedy().run(&RunContext::new(&p, &app, 8));
        assert_eq!(a.execution_time, b.execution_time);
    }
}
