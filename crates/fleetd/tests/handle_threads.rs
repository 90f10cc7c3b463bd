//! A dropped [`FleetdHandle`] must leave no thread behind. Tests and
//! in-process clusters drop handles without `shutdown` (that is how an
//! in-process worker is killed); if a handle kept a thread of its own,
//! each such drop would leave that thread parked for the life of the
//! process, holding the handle's whole fleet state.
//!
//! Kept in its own test binary so no other test's threads are counted.

use energydx_fleetd::fixture;
use energydx_fleetd::{FleetdHandle, ServerConfig, SubmitReply};

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .count()
}

#[test]
fn dropped_handles_leave_no_thread_behind() {
    if !std::path::Path::new("/proc/self/task").is_dir() {
        eprintln!("skipping: no /proc/self/task on this platform");
        return;
    }
    let base = threads();
    for session in 0..5 {
        let handle =
            FleetdHandle::start(ServerConfig::default()).expect("start");
        assert!(matches!(
            handle.submit("mail", fixture::payload("u1", session)),
            SubmitReply::Outcome(_)
        ));
        drop(handle);
    }
    assert_eq!(threads(), base, "5 dropped handles left threads behind");
}
