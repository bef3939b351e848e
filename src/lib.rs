//! # mpi-swap — facade crate
//!
//! Re-exports the whole workspace behind one dependency. See the README
//! for the architecture overview and `DESIGN.md` for the paper mapping.
//!
//! * [`swap_core`] — policies, payback algebra, decision engine (the
//!   paper's contribution).
//! * [`simkit`] — discrete-event + fluid simulation substrate.
//! * [`loadmodel`] — ON/OFF and hyperexponential CPU load models.
//! * [`faults`] — deterministic fault injection: crash/blackout/link
//!   schedules, correlated rack shocks, per-host MTBF spread.
//! * [`policy`] — the pluggable decision layer: spare-placement and
//!   checkpoint-interval policies the strategies consult.
//! * [`minimpi`] — in-process MPI-like runtime with live process swapping.
//! * [`simulator`] — platform/application models and the six execution
//!   strategies (the paper's NOTHING, SWAP, DLB and CR, plus the
//!   DLB+SWAP hybrid and the clairvoyant ORACLE) plus the experiment
//!   runner.

pub use faults;
pub use loadmodel;
pub use minimpi;
pub use obs;
pub use policy;
pub use simkit;
pub use simulator;
pub use swap_core;
