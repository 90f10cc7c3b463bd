//! Deterministic upload fixtures shared by the crate's tests, the
//! soak binary, the ingest benchmark, and the workspace differential
//! harness. Everything is a pure function of its arguments, so two
//! processes (a daemon and a batch CLI, say) can regenerate identical
//! payloads independently.

use energydx_trace::event::{Direction, EventRecord};
use energydx_trace::store::TraceBundle;
use energydx_trace::util::{Component, UtilizationSample, UtilizationTrace};
use energydx_trace::wire;

/// A small pool of event names so fleets share vocabulary (groups
/// need multiple instances for the percentile machinery to bite).
const EVENTS: [&str; 5] = [
    "Lcom/app/Main;->onResume",
    "Lcom/app/Main;->onClick",
    "Lcom/app/Sync;->poll",
    "Lcom/app/Map;->redraw",
    "Lcom/app/Gps;->fix",
];

/// A valid session bundle whose event mix and utilization vary with
/// `(user, session)` — enough spread for manifestation points to
/// appear, deterministic enough to regenerate anywhere.
pub fn bundle(user: &str, session: u64) -> TraceBundle {
    let mut b = TraceBundle::new(user, session, "nexus5");
    // A cheap stable hash so different users get different mixes.
    let salt = user
        .bytes()
        .fold(session.wrapping_mul(0x9E37_79B9), |acc, c| {
            acc.wrapping_mul(31).wrapping_add(c as u64)
        });
    let n_events = 6 + (salt % 5) as usize;
    for i in 0..n_events {
        let event = EVENTS[(salt as usize + i) % EVENTS.len()];
        let start = 100 + 900 * i as u64;
        b.events
            .push(EventRecord::new(start, Direction::Enter, event));
        b.events
            .push(EventRecord::new(start + 400, Direction::Exit, event));
    }
    let duration = 900 * n_events as u64 + 1_000;
    let mut util = UtilizationTrace::with_period(500);
    let mut t = 500;
    while t <= duration {
        let mut s = UtilizationSample::new(t);
        let phase = (t / 500 + salt) % 7;
        s.set(Component::Cpu, 0.15 + 0.1 * phase as f64);
        s.set(Component::Display, 0.6);
        if phase == 3 {
            s.set(Component::Gps, 1.0);
        }
        util.push(s);
        t += 500;
    }
    b.utilization = util;
    b
}

/// [`bundle`] encoded to a wire-v2 payload.
pub fn payload(user: &str, session: u64) -> Vec<u8> {
    wire::encode_v2(&bundle(user, session))
}

/// [`bundle`] stamped with an app release and encoded to wire v3 —
/// the versioned twin of [`payload`] for regression-query tests.
pub fn payload_versioned(user: &str, session: u64, version: &str) -> Vec<u8> {
    wire::encode_v3(&bundle(user, session).with_app_version(version))
}
