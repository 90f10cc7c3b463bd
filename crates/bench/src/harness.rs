//! Scaffolding shared by the gated benchmark bins (`cluster`,
//! `hotpath`, `ingest`, `query`, `spill`, `regress`, `report`): the
//! seeded damaged upload corpus, a one-shot wall-clock timer, reads of
//! a stored report's numbers, and the exact comparison of a report's
//! deterministic fields with the stored one.

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

/// The integer stored under a key path in a report written by one of
/// the bins (`&["replica", "bytes"]` reads `"replica": {"bytes": n}`),
/// read without a JSON dependency: each key is found after the one
/// before it.
pub fn stored_u64(json: &str, path: &[&str]) -> Option<u64> {
    stored_number(json, path, |c| c.is_ascii_digit())?
        .parse()
        .ok()
}

/// The decimal number stored under a key path, as [`stored_u64`].
pub fn stored_f64(json: &str, path: &[&str]) -> Option<f64> {
    stored_number(json, path, |c| c.is_ascii_digit() || c == '.')?
        .parse()
        .ok()
}

/// The leading run of `number` characters after a key path.
fn stored_number(
    json: &str,
    path: &[&str],
    number: impl Fn(char) -> bool,
) -> Option<String> {
    let mut at = 0;
    for key in path {
        let quoted = format!("\"{key}\":");
        at += json[at..].find(&quoted)? + quoted.len();
    }
    Some(
        json[at..]
            .trim_start()
            .chars()
            .take_while(|&c| number(c))
            .collect(),
    )
}

/// Compares measured fields that are pure functions of the corpus
/// (counts, file and checkpoint bytes) with the stored report, exactly.
/// Prints each mismatch and returns whether all matched; a stored
/// report that drifted from what the code produces then fails the
/// gate instead of passing under a budget's margin.
pub fn exact_fields_match(stored: &str, fields: &[(&[&str], u64)]) -> bool {
    let mut ok = true;
    for (path, measured) in fields {
        let name = path.join(".");
        match stored_u64(stored, path) {
            Some(value) if value == *measured => {}
            Some(value) => {
                eprintln!(
                    "{name}: measured {measured} but the stored report \
                     holds {value}; regenerate it with --smoke --write"
                );
                ok = false;
            }
            None => {
                eprintln!("{name}: missing from the stored report");
                ok = false;
            }
        }
    }
    ok
}
