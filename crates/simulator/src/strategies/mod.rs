//! The execution strategies: the four compared in §7 (NOTHING, SWAP,
//! DLB, CR) plus the DLB+SWAP hybrid and the clairvoyant ORACLE.
//!
//! All strategies share the BSP execution core ([`crate::exec`]), the
//! initial-schedule rules ([`crate::schedule`]) and one iteration loop
//! skeleton (`Run`); they differ only in what they do at iteration
//! boundaries and after a crash. A fault-free run is the same loop over
//! an inert fault plan, with every recovery branch never taken.

mod cr;
mod dlb;
mod dlb_swap;
mod nothing;
mod oracle;
mod swap;

pub use cr::Cr;
pub use dlb::Dlb;
pub use dlb_swap::DlbSwap;
pub use nothing::Nothing;
pub use oracle::Oracle;
pub use swap::Swap;

use crate::app::AppSpec;
use crate::exec::{
    apply_fault_overlay, run_iteration_into, IterationOutcome, IterationRecord, RunResult,
};
use crate::platform::Platform;
use crate::schedule::balanced_partition;
use std::borrow::Cow;

/// Everything a strategy needs for one run.
#[derive(Clone, Copy)]
pub struct RunContext<'a> {
    /// The realized platform (hosts with load traces, the shared link).
    pub platform: &'a Platform,
    /// The application description.
    pub app: &'a AppSpec,
    /// Processes allocated at startup. For SWAP and CR this is
    /// `N + M` (over-allocation); NOTHING and DLB allocate exactly `N`
    /// regardless. Clamped to the platform size.
    pub allocated: usize,
    /// Optional trace sink. `None` (the default) is the zero-cost path:
    /// every emission site is one branch on this option.
    pub trace: Option<&'a dyn obs::TraceSink>,
    /// Optional fault schedule. `None` (the default) runs the same loop
    /// over an inert plan sized to the platform: no host crashes and
    /// the link never degrades, so the recovery branches are never taken.
    /// CR also reads this choice: with a plan attached it checkpoints on
    /// a cadence and rolls back on crashes instead of relocating on the
    /// swap criteria.
    pub faults: Option<&'a faults::FaultPlan>,
    /// Optional decision-policy bundle. `None` (the default) keeps the
    /// legacy inline choices (probe-ranked spare placement, fixed
    /// checkpoint cadence) with no `PolicyDecision` events, so runs
    /// without a policy layer stay byte-identical to earlier builds.
    pub policies: Option<&'a policy::PolicySet>,
}

impl<'a> RunContext<'a> {
    /// Creates a context, validating the application spec against the
    /// platform.
    ///
    /// # Panics
    /// Panics if the app needs more active processors than the platform
    /// has, or the spec fails [`AppSpec::validate`].
    pub fn new(platform: &'a Platform, app: &'a AppSpec, allocated: usize) -> Self {
        app.validate();
        assert!(
            app.n_active <= platform.hosts.len(),
            "application needs {} processors, platform has {}",
            app.n_active,
            platform.hosts.len()
        );
        RunContext {
            platform,
            app,
            allocated: allocated.clamp(app.n_active, platform.hosts.len()),
            trace: None,
            faults: None,
            policies: None,
        }
    }

    /// Attaches a trace sink; all strategies emit their event stream (in
    /// simulated time) into it.
    pub fn with_trace(mut self, sink: &'a dyn obs::TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attaches a fault schedule the run loops consult for crashes and
    /// link degradation. The platform must already carry the plan's
    /// blackouts (see [`Platform::apply_blackouts`]).
    pub fn with_faults(mut self, plan: &'a faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a policy bundle; the strategies consult it at their
    /// recovery placement and checkpoint decision points (and emit a
    /// `PolicyDecision` event per consultation).
    pub fn with_policies(mut self, policies: &'a policy::PolicySet) -> Self {
        self.policies = Some(policies);
        self
    }

    /// The fault plan the run loop consults: the attached one, or an
    /// inert plan sized to the platform. Sized, not empty: placement
    /// queries such as [`faults::FaultPlan::alive_hosts`] enumerate the
    /// plan's hosts, so a zero-host plan would report none alive.
    pub(crate) fn plan(&self) -> Cow<'a, faults::FaultPlan> {
        match self.faults {
            Some(plan) => Cow::Borrowed(plan),
            None => Cow::Owned(faults::FaultPlan::empty(
                self.platform.hosts.len(),
                f64::INFINITY,
            )),
        }
    }

    /// Emits a lazily-built event when tracing is enabled.
    pub(crate) fn emit(&self, event: impl FnOnce() -> obs::TraceEvent) {
        if let Some(sink) = self.trace {
            sink.emit(event());
        }
    }

    /// Emits the standard per-iteration events: iteration start, one
    /// compute span per active process, iteration end.
    pub(crate) fn emit_iteration(
        &self,
        index: usize,
        active: &[usize],
        t0: f64,
        out: &IterationOutcome,
    ) {
        let Some(sink) = self.trace else { return };
        sink.emit(obs::TraceEvent::IterStart {
            t: t0,
            iter: index,
            active: active.to_vec(),
        });
        for (&host, &done) in active.iter().zip(&out.completions) {
            sink.emit(obs::TraceEvent::ComputeSpan {
                host,
                iter: index,
                start: t0,
                end: done,
            });
        }
        sink.emit(obs::TraceEvent::IterEnd {
            t: out.end,
            iter: index,
            compute_end: out.compute_end,
        });
    }
}

/// One strategy run in progress: the clock, the index of the iteration
/// being attempted, the result under construction, and the scratch of
/// the single iteration loop every strategy drives. A loop calls
/// [`Run::attempt`] until [`Run::done`]; on success it adapts and calls
/// [`Run::complete`], on a crash it recovers and calls [`Run::resume`]
/// or gives up with [`Run::truncate`].
pub(crate) struct Run<'r> {
    ctx: &'r RunContext<'r>,
    plan: &'r faults::FaultPlan,
    /// Start of the iteration being attempted.
    pub t: f64,
    /// Index of the iteration being attempted.
    pub index: usize,
    /// The last attempt's compute+communicate outcome.
    pub out: IterationOutcome,
    /// Active hosts whose crash failed the last attempt.
    pub failed: Vec<usize>,
    /// The result accumulated so far (`execution_time` is set at the end).
    pub result: RunResult,
}

impl<'r> Run<'r> {
    /// Starts a run of `strategy` once `startup` seconds of process
    /// launch have elapsed.
    pub fn new(
        ctx: &'r RunContext<'r>,
        plan: &'r faults::FaultPlan,
        strategy: String,
        startup: f64,
    ) -> Self {
        Run {
            ctx,
            plan,
            t: startup,
            index: 0,
            out: IterationOutcome::default(),
            failed: Vec::new(),
            result: RunResult {
                strategy,
                execution_time: startup,
                startup_time: startup,
                adaptations: 0,
                adapt_time_total: 0.0,
                iterations: Vec::with_capacity(ctx.app.iterations),
                failures: 0,
                recoveries: 0,
                aborts: 0,
                truncated: false,
            },
        }
    }

    /// Whether every iteration has completed.
    pub fn done(&self) -> bool {
        self.index >= self.ctx.app.iterations
    }

    /// Attempts iteration `index` from `t` on `active` with `work`: the
    /// compute+communicate primitive plus the fault overlay. A completed
    /// iteration is traced and `None` returned; otherwise each crashed
    /// host is counted and reported, and the detection instant returned.
    pub fn attempt(&mut self, active: &[usize], work: &[f64]) -> Option<f64> {
        let ctx = self.ctx;
        run_iteration_into(ctx.platform, ctx.app, active, work, self.t, &mut self.out);
        let Some(detected) = apply_fault_overlay(
            ctx.platform,
            ctx.app,
            active,
            self.t,
            self.plan,
            &mut self.out,
            &mut self.failed,
        ) else {
            ctx.emit_iteration(self.index, active, self.t, &self.out);
            return None;
        };
        self.result.failures += self.failed.len();
        for &h in &self.failed {
            ctx.emit(|| obs::TraceEvent::FailureDetected {
                t: detected,
                host: h,
                iter: Some(self.index),
                cause: obs::FailureCause::InjectedCrash,
                detail: None,
            });
        }
        Some(detected)
    }

    /// Records the iteration just completed on `active`, followed by an
    /// `adapt_time` pause, and moves on to the next one.
    pub fn complete(&mut self, active: Vec<usize>, adapt_time: f64) {
        self.result.iterations.push(IterationRecord {
            index: self.index,
            start: self.t,
            compute_end: self.out.compute_end,
            end: self.out.end,
            adapt_time,
            active,
        });
        self.result.adapt_time_total += adapt_time;
        self.t = self.out.end + adapt_time;
        self.index += 1;
    }

    /// Resumes after a recovery that paused `pause` seconds from the
    /// `detected` failure, re-running from iteration `from` (the failed
    /// one, a checkpoint, or 0 for a resubmission) — every record at or
    /// past `from` is lost.
    pub fn resume(&mut self, detected: f64, pause: f64, from: usize) {
        self.result.iterations.retain(|r| r.index < from);
        self.result.adapt_time_total += pause;
        self.t = detected + pause;
        self.index = from;
    }

    /// Gives up at `at`: too few hosts survive to finish, so the run is
    /// censored at the plan's horizon.
    pub fn truncate(mut self, at: f64) -> RunResult {
        self.result.truncated = true;
        self.t = self.plan.horizon.max(at);
        self.finish()
    }

    /// The finished result.
    pub fn finish(mut self) -> RunResult {
        self.result.execution_time = self.t;
        self.result
    }
}

/// DLB's work division for the iteration starting at `t`: the total
/// work split in proportion to each active host's delivered speed at
/// that instant.
pub(crate) fn balanced_work(ctx: &RunContext<'_>, active: &[usize], t: f64) -> Vec<f64> {
    let speeds: Vec<f64> = active
        .iter()
        .map(|&h| ctx.platform.hosts[h].delivered_at(t))
        .collect();
    balanced_partition(ctx.app.total_flops_per_iter(), &speeds)
}

/// Ranks `candidates` by mean delivered speed over `[t0, t1]` (best
/// first, ties by id) — how a recovering manager picks replacement hosts:
/// it has probe measurements over the failed iteration's window, nothing
/// more.
pub(crate) fn rank_by_probe(
    platform: &Platform,
    candidates: impl IntoIterator<Item = usize>,
    t0: f64,
    t1: f64,
) -> Vec<usize> {
    let mut ranked: Vec<(f64, usize)> = candidates
        .into_iter()
        .map(|h| (crate::exec::probe_host(platform, h, t0, t1), h))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, h)| h).collect()
}

/// Ranks replacement candidates at a recovery point for the failed
/// host `dead`: probe-rank them over `[t0, t1]` (the legacy order), then
/// — when a policy bundle is attached — let its placement policy re-rank
/// them, seeing everything the fault plan makes observable (effective
/// MTBF, distribution family, failure domain, last rack alarm at or
/// before `t1`), and emit the `PolicyDecision` audit event. With no
/// policy bundle this is exactly the probe ranking.
pub(crate) fn rank_replacements(
    ctx: &RunContext<'_>,
    plan: &faults::FaultPlan,
    candidates: impl IntoIterator<Item = usize>,
    dead: usize,
    t0: f64,
    t1: f64,
) -> Vec<usize> {
    let probe_ranked = rank_by_probe(ctx.platform, candidates, t0, t1);
    let Some(ps) = ctx.policies else {
        return probe_ranked;
    };
    let candidates: Vec<policy::SpareCandidate> = probe_ranked
        .iter()
        .map(|&h| {
            let domain = plan.domain_of(h);
            policy::SpareCandidate {
                host: h,
                probe_rate: crate::exec::probe_host(ctx.platform, h, t0, t1),
                uptime_secs: t1,
                mtbf_secs: plan.host_mtbf(h),
                dist: plan.crash_dist,
                domain,
                last_domain_shock: domain.and_then(|d| plan.last_shock_before(d, t1)),
            }
        })
        .collect();
    let ranked = ps.placement.rank(&candidates, t1);
    ctx.emit(|| obs::TraceEvent::PolicyDecision {
        t: t1,
        policy: ps.placement.name().to_owned(),
        failed: dead,
        chosen: ranked.first().copied(),
        ranked: ranked.clone(),
    });
    ranked
}

/// An execution strategy: how the application reacts (or not) to the
/// changing environment.
///
/// `Send + Sync` is a supertrait so the replicated runner can share one
/// strategy value across worker threads; strategies are parameter
/// bundles (policies, thresholds), so this costs implementations
/// nothing.
pub trait Strategy: Send + Sync {
    /// Human-readable label used in results and figures.
    fn name(&self) -> String;
    /// Simulates one full application run.
    fn run(&self, ctx: &RunContext<'_>) -> RunResult;
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::platform::{LoadSpec, Platform, PlatformSpec};
    use crate::AppSpec;
    use loadmodel::OnOffSource;
    use simkit::link::SharedLink;

    /// A small, fast platform/app pair for strategy unit tests.
    pub fn small_platform(load: LoadSpec, seed: u64) -> Platform {
        PlatformSpec {
            n_hosts: 8,
            speed_range: (1e8, 2e8),
            link: SharedLink::new(1e-4, 6e6),
            startup_per_process: 0.75,
            load,
            horizon: 20_000.0,
        }
        .realize(seed)
    }

    pub fn small_app() -> AppSpec {
        AppSpec {
            n_active: 2,
            // 30 iterations × ~20 s ≈ 600 s: each replication spans
            // several 80 s load sojourns (see `moderate_onoff`), so
            // benefit/harm comparisons measure the policies rather than
            // one lucky or unlucky load event.
            iterations: 30,
            flops_per_proc_iter: 3e9, // 15–30 s/iteration on these hosts
            bytes_per_proc_iter: 1e5,
            process_state_bytes: 1e6,
        }
    }

    pub fn moderate_onoff() -> LoadSpec {
        // 50% duty with mean ON = mean OFF = 80 s: load events persist
        // across ~4 of `small_app`'s ~20 s iterations (so history-driven
        // policies can exploit them) while a 10-iteration run still spans
        // ~2.5 sojourns per host — the same iteration:event:run timescale
        // ordering DESIGN.md §"Dynamism axis" fixes for the experiment
        // sweeps (60 s iterations, 375 s events, multi-hour runs). With
        // events longer than the whole run the environment would be
        // static per-replication and adaptation could never pay.
        LoadSpec::OnOff(OnOffSource::for_duty_cycle(0.5, 0.25, 20.0))
    }
}
