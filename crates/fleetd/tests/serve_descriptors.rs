//! `serve` must hold descriptors for the connections that are open,
//! not for every connection it ever accepted. A daemon answers short
//! `energydx query` connections for its whole life; if each one left a
//! socket behind, a long-lived daemon would run out of descriptors and
//! its checkpoint, segment and replica opens would start failing.
//!
//! Kept in its own test binary so no other test opens or closes files
//! in this process while the descriptor table is being counted.

use energydx_fleetd::client::Client;
use energydx_fleetd::protocol::{Request, Response};
use energydx_fleetd::{FleetdHandle, ServerConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open descriptors of this process.
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

#[test]
fn sequential_short_connections_leave_the_descriptor_count_flat() {
    if !std::path::Path::new("/proc/self/fd").is_dir() {
        eprintln!("skipping: no /proc/self/fd on this platform");
        return;
    }
    let handle =
        Arc::new(FleetdHandle::start(ServerConfig::default()).expect("start"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            energydx_fleetd::server::serve(listener, handle)
        })
    };
    // One connection first, so lazily opened process state (the
    // listener's first accept, thread-local buffers) is in the base.
    let ask_health = || {
        let mut client = Client::connect(&addr).expect("connect");
        let reply = client.request(&Request::Health).expect("health");
        assert!(matches!(reply, Response::Health { .. }), "{reply:?}");
    };
    ask_health();
    let base = open_descriptors();

    // Each connection is closed before the next one opens.
    for _ in 0..1_000 {
        ask_health();
    }

    // A handler notices the peer's EOF shortly after the client drops
    // its socket: wait for the last few to exit.
    const SLACK: usize = 8;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_descriptors();
    while open > base + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_descriptors();
    }
    assert!(
        open <= base + SLACK,
        "{open} descriptors open after 1000 closed connections, \
         {base} before them"
    );

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Done
    );
    server.join().unwrap().expect("serve exits cleanly");
}
