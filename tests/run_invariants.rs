//! Integration tests: structural invariants of every strategy run.
//!
//! Whatever the strategy decides, a run's time accounting must add up,
//! active sets must stay well-formed, and results must be reproducible —
//! with no fault plan, with an inert one (which must change nothing but
//! CR's adaptation mode), and under crashes, blackouts and link windows.

use mpi_swap::faults::{FaultPlan, FaultSpec};
use mpi_swap::loadmodel::OnOffSource;
use mpi_swap::obs::{Collector, TraceEvent};
use mpi_swap::simulator::platform::{LoadSpec, PlatformSpec};
use mpi_swap::simulator::strategies::{
    Cr, Dlb, DlbSwap, Nothing, Oracle, RunContext, Strategy, Swap,
};
use mpi_swap::simulator::{AppSpec, RunResult};

fn strategies() -> Vec<(Box<dyn Strategy>, usize)> {
    vec![
        (Box::new(Nothing), 4),
        (Box::new(Swap::greedy()), 16),
        (Box::new(Swap::safe()), 16),
        (Box::new(Swap::friendly()), 16),
        (Box::new(Dlb), 4),
        (Box::new(Cr::greedy()), 16),
        (Box::new(DlbSwap::greedy()), 16),
        (Box::new(Oracle), 4),
    ]
}

fn spec() -> PlatformSpec {
    PlatformSpec::hpdc03(LoadSpec::OnOff(OnOffSource::for_duty_cycle(
        0.5, 0.08, 30.0,
    )))
}

fn app() -> AppSpec {
    let mut app = AppSpec::hpdc03(4, 1e7);
    app.iterations = 12;
    app
}

fn make_run(strategy: &dyn Strategy, alloc: usize, seed: u64) -> (RunResult, PlatformSpec) {
    let spec = spec();
    let app = app();
    let platform = spec.realize(seed);
    let ctx = RunContext::new(&platform, &app, alloc);
    (strategy.run(&ctx), spec)
}

/// Every fault class at rates that land several events inside a
/// ~15-minute run on 32 hosts.
fn busy_faults(fault_seed: u64) -> FaultSpec {
    FaultSpec {
        blackout_mtbf_secs: 1_500.0,
        blackout_repair_secs: 120.0,
        link_mtbf_secs: 600.0,
        link_window_secs: 200.0,
        link_factor: 0.25,
        ..FaultSpec::crashes_only(4_000.0, fault_seed)
    }
}

#[test]
fn time_accounting_adds_up() {
    for (strategy, alloc) in strategies() {
        let (r, _) = make_run(strategy.as_ref(), alloc, 1);
        // startup + Σ(iteration durations + adaptation pauses) == total.
        let accounted: f64 = r.startup_time
            + r.iterations
                .iter()
                .map(|it| it.duration() + it.adapt_time)
                .sum::<f64>();
        assert!(
            (accounted - r.execution_time).abs() < 1e-6,
            "{}: accounted {accounted} != total {}",
            r.strategy,
            r.execution_time
        );
        let adapt_sum: f64 = r.iterations.iter().map(|it| it.adapt_time).sum();
        assert!(
            (adapt_sum - r.adapt_time_total).abs() < 1e-9,
            "{}: adapt accounting mismatch",
            r.strategy
        );
    }
}

#[test]
fn iterations_are_contiguous_and_ordered() {
    for (strategy, alloc) in strategies() {
        let (r, _) = make_run(strategy.as_ref(), alloc, 2);
        assert_eq!(r.iterations.len(), 12, "{}", r.strategy);
        let mut expected_start = r.startup_time;
        for (i, it) in r.iterations.iter().enumerate() {
            assert_eq!(it.index, i, "{}", r.strategy);
            assert!(
                (it.start - expected_start).abs() < 1e-6,
                "{}: iteration {i} starts at {} expected {expected_start}",
                r.strategy,
                it.start
            );
            assert!(it.compute_end >= it.start);
            assert!(it.end >= it.compute_end);
            expected_start = it.end + it.adapt_time;
        }
    }
}

#[test]
fn active_sets_stay_well_formed() {
    for (strategy, alloc) in strategies() {
        let (r, _) = make_run(strategy.as_ref(), alloc, 3);
        for it in &r.iterations {
            assert_eq!(it.active.len(), 4, "{}: wrong N", r.strategy);
            let mut sorted = it.active.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "{}: duplicate hosts", r.strategy);
            assert!(
                it.active.iter().all(|&h| h < 32),
                "{}: host out of range",
                r.strategy
            );
        }
    }
}

#[test]
fn runs_are_reproducible() {
    for (strategy, alloc) in strategies() {
        let (a, _) = make_run(strategy.as_ref(), alloc, 4);
        let (b, _) = make_run(strategy.as_ref(), alloc, 4);
        assert_eq!(a.execution_time, b.execution_time, "{}", a.strategy);
        assert_eq!(a.adaptations, b.adaptations, "{}", a.strategy);
        assert_eq!(a.iterations, b.iterations, "{}", a.strategy);
    }
}

#[test]
fn different_seeds_give_different_runs_under_load() {
    let (a, _) = make_run(&Nothing, 4, 10);
    let (b, _) = make_run(&Nothing, 4, 11);
    assert_ne!(
        a.execution_time, b.execution_time,
        "independent platforms should differ"
    );
}

#[test]
fn nothing_and_dlb_never_adapt_swap_and_cr_may() {
    let (n, _) = make_run(&Nothing, 4, 5);
    let (d, _) = make_run(&Dlb, 4, 5);
    assert_eq!(n.adaptations + d.adaptations, 0);
    assert_eq!(n.adapt_time_total + d.adapt_time_total, 0.0);
    let (s, _) = make_run(&Swap::greedy(), 16, 5);
    assert!(s.iterations.iter().all(|it| it.adapt_time >= 0.0));
}

#[test]
fn an_inert_plan_changes_nothing_but_crs_mode() {
    let spec = spec();
    let app = app();
    for seed in 0..4 {
        let platform = spec.realize(seed);
        let inert = FaultPlan::empty(platform.hosts.len(), spec.horizon);
        for (strategy, alloc) in strategies() {
            let plain = strategy.run(&RunContext::new(&platform, &app, alloc));
            let with_plan =
                strategy.run(&RunContext::new(&platform, &app, alloc).with_faults(&inert));
            // An attached plan switches CR from relocation on the swap
            // criteria to fault-tolerant checkpointing.
            if plain.strategy != "cr" {
                assert_eq!(with_plan, plain, "seed {seed}");
            }
        }
    }
}

#[test]
fn faulted_runs_keep_their_invariants() {
    let spec = spec();
    let app = app();
    let n = app.n_active;
    let mut failures = 0;
    for seed in 0..6 {
        let plan = FaultPlan::generate(&busy_faults(seed), spec.n_hosts, spec.horizon, seed);
        assert!(plan.has_blackouts() && !plan.link.is_empty());
        let platform = spec.realize(seed).apply_blackouts(&plan);
        for (strategy, alloc) in strategies() {
            let collector = Collector::new();
            let ctx = RunContext::new(&platform, &app, alloc)
                .with_faults(&plan)
                .with_trace(&collector);
            let r = strategy.run(&ctx);
            let who = format!("{} seed {seed}", r.strategy);
            failures += r.failures;
            // Instants at which a recovery resumed the run.
            let resumed: Vec<f64> = collector
                .into_trace()
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::RecoveryComplete { t, .. } => Some(*t),
                    _ => None,
                })
                .collect();
            assert!(r.execution_time.is_finite(), "{who}");
            if !r.truncated {
                assert_eq!(r.iterations.len(), app.iterations, "{who}");
            }
            let mut expected_start = r.startup_time;
            for (i, it) in r.iterations.iter().enumerate() {
                assert_eq!(it.index, i, "{who}");
                assert!(
                    it.start == expected_start || resumed.contains(&it.start),
                    "{who}: iteration {i} starts at {}, neither {expected_start} nor a recovery",
                    it.start
                );
                let mut hosts = it.active.clone();
                hosts.sort_unstable();
                hosts.dedup();
                assert_eq!(hosts.len(), n, "{who}: iteration {i} active set");
                for &h in &it.active {
                    assert!(
                        !plan.is_crashed(h, it.end),
                        "{who}: iteration {i} computed on host {h}, dead by {}",
                        it.end
                    );
                }
                expected_start = it.end + it.adapt_time;
            }
        }
    }
    assert!(
        failures > 0,
        "no crash hit any run: the regime tests nothing"
    );
}
