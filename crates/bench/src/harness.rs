//! Scaffolding shared by the gated benchmark bins (`cluster`,
//! `ingest`, `query`, `spill`, `regress`, `report`): the seeded
//! damaged upload corpus and a one-shot wall-clock timer.

use energydx_fleetd::fixture;
use energydx_trace::fault::{FaultInjector, FaultKind};
use std::time::Instant;

/// The damaged corpus of the ingest, spill, query and cluster
/// benchmarks, in sorted (user, session) submit order, so a daemon's
/// accept order matches a batch `TraceStore` snapshot of the same
/// payloads. Every 9th payload is damaged but salvageable (alternating
/// truncation and bit flips), and every 23rd is cut below the wire
/// header — so repair, salvage, *and* quarantine are all on the
/// measured path.
pub fn corpus(users: usize, sessions: u64) -> Vec<Vec<u8>> {
    let mut injector = FaultInjector::new(0x1276, 1.0);
    let mut payloads = Vec::with_capacity(users * sessions as usize);
    for user in 0..users {
        for session in 0..sessions {
            let mut payload = fixture::payload(&format!("u{user:04}"), session);
            let i = payloads.len();
            if i % 23 == 7 {
                payload.truncate(6);
            } else if i % 9 == 4 {
                let kind = if (i / 9) % 2 == 0 {
                    FaultKind::Truncate
                } else {
                    FaultKind::BitFlip
                };
                payload = injector
                    .corrupt(&payload, kind)
                    .pop()
                    .expect("one payload in, one out");
            }
            payloads.push(payload);
        }
    }
    payloads
}

/// Runs `f` once; returns its result and the wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed().as_secs_f64())
}
