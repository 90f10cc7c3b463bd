//! Workload generation for the EnergyDx evaluation: app models, ABD
//! fault injection, stochastic users, and the 40-app fleet.
//!
//! The paper evaluates EnergyDx on 40 real apps (Table III) with traces
//! from 30+ volunteers. This crate is the synthetic equivalent:
//!
//! - [`appgen`] — deterministic generators for app packages
//!   ([`energydx_dexir::Module`]): activities, services, listeners,
//!   callback bodies with realistic invocation mixes and source-line
//!   budgets (the denominators of the code-reduction metric).
//! - [`hooks`] — behaviour hooks: "when callback X runs, start/stop
//!   this background task / acquire this resource". Hooks model
//!   behaviour that is not visible in bytecode (dynamic registration,
//!   configuration state), which is exactly what defeats static
//!   baselines.
//! - [`fault`] — the three ABD root-cause classes of §IV-A
//!   (no-sleep, loop, configuration) as concrete module mutations and
//!   hook sets, plus the *fixed* variant of each fault for the
//!   Fig.-17 before/after comparison.
//! - [`session`] — the session runner driving a
//!   [`energydx_droidsim::Device`] through a user script while applying
//!   hooks.
//! - [`users`] — stochastic user-script generation (seeded).
//! - [`scenario`] — the end-to-end bundle: app + fault + scripts →
//!   `(EventTrace, PowerTrace)` pairs ready for
//!   [`energydx::DiagnosisInput`]; includes the four case-study apps
//!   (K-9 Mail, OpenGPS, Wallabag, Tinfoil).
//! - [`fleet`](mod@fleet) — the Table-III fleet: all 40 apps with downloads,
//!   root cause, and per-app generation seeds.
//! - [`release`] — v1 → v2 release pairs (treatments injecting each
//!   ABD class, plus bug-free controls): the ground truth the
//!   differential regression detector is gated against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appgen;
pub mod fault;
pub mod fleet;
pub mod hooks;
pub mod release;
pub mod scenario;
pub mod session;
pub mod users;

pub use fault::{Fault, FaultClass};
pub use fleet::{fleet, FleetApp};
pub use hooks::{HookAction, HookSet, TaskSpec};
pub use release::{release_fleet, ReleaseCase, ReleasePair};
pub use scenario::{CollectedTraces, Scenario};
pub use session::SessionRunner;
pub use users::{Action, UserScript};
