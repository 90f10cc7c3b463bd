//! Daemon-level behavior: explicit bounded backpressure, graceful
//! shutdown with checkpoint flush, restart fidelity, and the framed
//! TCP protocol end to end (including the phone-side retry loop
//! driving a live daemon through [`TcpBackend`]).

use energydx::EnergyDx;
use energydx_fleetd::convert;
use energydx_fleetd::fixture;
use energydx_fleetd::protocol::{Request, Response};
use energydx_fleetd::{
    Client, FleetdHandle, ServerConfig, SubmitReply, TcpBackend,
};
use energydx_trace::store::{IngestOutcome, RejectReason};
use energydx_trace::upload::{upload_payloads_with_retry, RetryPolicy};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("energydx-fleetd-{tag}-{}", std::process::id()))
}

/// Saturates a slow daemon from eight synchronized submitters and
/// checks the backpressure contract: the queue high-water mark never
/// exceeds the configured depth, at least one submission is shed with
/// `RetryAfter` (never silently dropped), and every submission still
/// ends in exactly one terminal outcome after retrying.
#[test]
fn backpressure_is_bounded_explicit_and_lossless() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 6;
    let handle = Arc::new(
        FleetdHandle::start(ServerConfig {
            queue_depth: 2,
            retry_after_ms: 5,
            ingest_delay_ms: 4,
            ..ServerConfig::default()
        })
        .expect("no checkpoint to restore"),
    );
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let handle = Arc::clone(&handle);
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            let user = format!("p{t:02}");
            barrier.wait();
            let mut outcomes = 0usize;
            let mut retries = 0usize;
            for session in 0..PER_THREAD {
                let payload = fixture::payload(&user, session);
                loop {
                    match handle.submit("pressure", payload.clone()) {
                        SubmitReply::Outcome(o) => {
                            assert!(o.accepted(), "fixture is valid");
                            outcomes += 1;
                            break;
                        }
                        SubmitReply::RetryAfter { ms } => {
                            retries += 1;
                            std::thread::sleep(
                                std::time::Duration::from_millis(ms),
                            );
                        }
                        SubmitReply::ShuttingDown => {
                            panic!("daemon is not shutting down")
                        }
                    }
                }
            }
            (outcomes, retries)
        }));
    }
    let mut outcomes = 0usize;
    let mut client_retries = 0usize;
    for w in workers {
        let (o, r) = w.join().unwrap();
        outcomes += o;
        client_retries += r;
    }

    let total = THREADS * PER_THREAD as usize;
    assert_eq!(outcomes, total, "every submission got a terminal outcome");
    assert!(
        handle.shed_count() >= 1,
        "8 simultaneous submitters against depth 2 must shed"
    );
    assert_eq!(
        handle.shed_count(),
        client_retries,
        "every shed was observed by a client as RetryAfter"
    );
    assert!(
        handle.max_queue_depth_seen() <= 2,
        "queue high-water mark {} exceeded configured depth 2",
        handle.max_queue_depth_seen()
    );
    // Nothing was lost and nothing double-counted: the state holds
    // exactly the unique (user, session) pairs submitted.
    let stats = handle.stats_json();
    assert!(stats.contains(&format!("\"traces\": {total}")), "{stats}");
    // The sheds the clients saw are also in the metrics registry and
    // attributed per app in the health document.
    let health = handle.health_json();
    assert!(
        health.contains(&format!("\"pressure\": {client_retries}")),
        "{health}"
    );
    let text = handle.metrics_text();
    let samples =
        energydx_obsv::parse_exposition(&text).expect("valid exposition");
    assert_eq!(
        samples.get("fleetd_uploads_shed_total").copied(),
        Some(client_retries as f64),
        "{text}"
    );
    handle.shutdown().expect("clean shutdown");
}

/// Shutdown flushes a checkpoint; a restart over the same state
/// directory serves byte-identical reports and still remembers the
/// dedup set and the quarantine.
#[test]
fn restart_from_checkpoint_preserves_reports_dedup_and_quarantine() {
    let dir = tmp_dir("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let first = FleetdHandle::start(config()).expect("fresh start");
    for session in 0..4 {
        let reply = first.submit("mail", fixture::payload("u42", session));
        assert!(matches!(reply, SubmitReply::Outcome(IngestOutcome::Clean)));
    }
    let mut corrupt = fixture::payload("u43", 0);
    corrupt.truncate(6);
    assert!(matches!(
        first.submit("mail", corrupt),
        SubmitReply::Outcome(IngestOutcome::Rejected(_))
    ));
    let report = first.diagnose_json("mail", None).expect("report");
    let health = first.health_json();
    first.shutdown().expect("flushes the final checkpoint");

    let second = FleetdHandle::start(config()).expect("restore");
    assert_eq!(
        second.diagnose_json("mail", None).expect("restored report"),
        report,
        "restart changed the report bytes"
    );
    assert_eq!(second.health_json(), health);
    // The dedup set survived: re-uploading an already-accepted
    // session is a duplicate, not a double count.
    assert_eq!(
        second.submit("mail", fixture::payload("u42", 2)),
        SubmitReply::Outcome(IngestOutcome::Rejected(RejectReason::Duplicate))
    );
    assert_eq!(
        second.diagnose_json("mail", None).expect("report"),
        report,
        "a deduped resend must not change the report"
    );
    second.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `checkpoint_every` saves as uploads commit: a daemon dropped
/// without `shutdown` after 7 accepted uploads restarts from the
/// checkpoint its sixth wrote, holding exactly the first 6.
#[test]
fn periodic_checkpoints_survive_a_drop_without_shutdown() {
    let dir = tmp_dir("periodic");
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        state_dir: Some(dir.clone()),
        checkpoint_every: 3,
        ..ServerConfig::default()
    };

    let first = FleetdHandle::start(config()).expect("fresh start");
    for session in 0..7 {
        assert_eq!(
            first.submit("mail", fixture::payload("u7", session)),
            SubmitReply::Outcome(IngestOutcome::Clean)
        );
    }
    drop(first);

    let second = FleetdHandle::start(config()).expect("restore");
    assert_eq!(second.counts(), (6, 0));
    let first_six: Vec<_> = (0..6).map(|s| fixture::bundle("u7", s)).collect();
    let reference = EnergyDx::default()
        .diagnose_reference(&convert::bundles_to_input(&first_six))
        .to_canonical_json();
    assert_eq!(
        second.diagnose_json("mail", None).expect("restored report"),
        reference,
        "the restored daemon diverged from batch over the first 6"
    );
    assert_eq!(
        second.submit("mail", fixture::payload("u7", 5)),
        SubmitReply::Outcome(IngestOutcome::Rejected(RejectReason::Duplicate)),
        "the sixth upload is in the checkpoint"
    );
    assert_eq!(
        second.submit("mail", fixture::payload("u7", 6)),
        SubmitReply::Outcome(IngestOutcome::Clean),
        "the seventh upload came after the last checkpoint"
    );
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Uploads racing `shutdown` either commit before its final checkpoint
/// and are answered with their outcome, or are answered `ShuttingDown`
/// and leave no trace: after a restart the state holds exactly the
/// uploads answered with an outcome, and a refused one is new to it.
/// Which uploads wait for the state lock as the queue closes varies
/// from run to run, so the race runs several times.
#[test]
fn shutdown_keeps_exactly_the_uploads_it_answered() {
    for round in 0..5 {
        race_uploads_against_shutdown(round);
    }
}

fn race_uploads_against_shutdown(round: usize) {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 50;
    let dir = tmp_dir(&format!("shutdown-race-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |ingest_delay_ms| ServerConfig {
        state_dir: Some(dir.clone()),
        ingest_delay_ms,
        ..ServerConfig::default()
    };
    // A 1 ms commit keeps the submitters busy well past the shutdown.
    let handle = Arc::new(FleetdHandle::start(config(1)).expect("fresh start"));
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let handle = Arc::clone(&handle);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let user = format!("r{t}");
                barrier.wait();
                let (mut answered, mut refused) = (Vec::new(), Vec::new());
                for session in 0..PER_THREAD {
                    let payload = fixture::payload(&user, session);
                    match handle.submit("race", payload.clone()) {
                        SubmitReply::Outcome(o) => {
                            assert_eq!(o, IngestOutcome::Clean);
                            answered.push(payload);
                        }
                        SubmitReply::ShuttingDown => refused.push(payload),
                        other => panic!("{THREADS} submitters shed: {other:?}"),
                    }
                }
                (answered, refused)
            })
        })
        .collect();
    barrier.wait();
    while handle.counts().0 < 8 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    handle.shutdown().expect("final checkpoint");
    let (mut answered, mut refused) = (Vec::new(), Vec::new());
    for submitter in submitters {
        let (a, r) = submitter.join().unwrap();
        answered.extend(a);
        refused.extend(r);
    }
    assert!(!refused.is_empty(), "shutdown came after every upload");
    drop(handle);

    let restarted = FleetdHandle::start(config(0)).expect("restore");
    assert_eq!(
        restarted.counts(),
        (answered.len(), 0),
        "round {round}: the checkpoint holds other uploads than were answered"
    );
    for payload in answered {
        assert_eq!(
            restarted.submit("race", payload),
            SubmitReply::Outcome(IngestOutcome::Rejected(
                RejectReason::Duplicate
            )),
            "an upload answered before shutdown is in its checkpoint"
        );
    }
    for payload in refused {
        assert_eq!(
            restarted.submit("race", payload),
            SubmitReply::Outcome(IngestOutcome::Clean),
            "an upload refused at shutdown left no trace"
        );
    }
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown is idempotent and submissions after it are refused
/// explicitly rather than hanging or panicking.
#[test]
fn submissions_after_shutdown_are_refused() {
    let handle = FleetdHandle::start(ServerConfig::default()).expect("start");
    assert!(matches!(
        handle.submit("mail", fixture::payload("u1", 0)),
        SubmitReply::Outcome(_)
    ));
    handle.shutdown().expect("first shutdown");
    handle.shutdown().expect("second shutdown is a no-op");
    assert_eq!(
        handle.submit("mail", fixture::payload("u1", 1)),
        SubmitReply::ShuttingDown
    );
}

/// The full TCP path: the phone-side retry loop uploads through
/// [`TcpBackend`] (one corrupt payload quarantined along the way),
/// and the daemon's report over the socket equals the batch reference
/// over the same accepted bundles, byte for byte.
#[test]
fn tcp_round_trip_matches_the_batch_reference() {
    let handle =
        Arc::new(FleetdHandle::start(ServerConfig::default()).expect("start"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || serve_result(listener, handle))
    };

    let users = ["u00", "u01", "u02", "u03"];
    let mut payloads: Vec<Vec<u8>> =
        users.iter().map(|u| fixture::payload(u, 0)).collect();
    payloads[2].truncate(5); // quarantined: undecodable
    let mut backend = TcpBackend::new(&addr, "mail");
    let stats = upload_payloads_with_retry(
        &payloads,
        &mut backend,
        &RetryPolicy::default(),
        7,
    );
    assert_eq!(stats.delivered, 4);
    assert_eq!(stats.gave_up, 0);
    assert_eq!(stats.outcomes.iter().filter(|o| o.accepted()).count(), 3);
    assert!(matches!(
        stats.outcomes[2],
        IngestOutcome::Rejected(RejectReason::Undecodable)
    ));

    // The batch reference over the same accepted bundles.
    let accepted: Vec<_> = [0usize, 1, 3]
        .iter()
        .map(|&i| fixture::bundle(users[i], 0))
        .collect();
    let reference = EnergyDx::default()
        .diagnose_reference(&convert::bundles_to_input(&accepted))
        .to_canonical_json();

    let mut client = Client::connect(&addr).expect("connect");
    let report = match client
        .request(&Request::Diagnose {
            app: "mail".into(),
            epoch: None,
        })
        .expect("diagnose")
    {
        Response::Report { json } => json,
        other => panic!("expected a report, got {other:?}"),
    };
    assert_eq!(report, reference, "daemon diverged from batch");

    for (req, check) in [
        (Request::Stats, "\"queue\""),
        (Request::Health, "\"status\": \"ok\""),
    ] {
        match client.request(&req).expect("query") {
            Response::Stats { json } | Response::Health { json } => {
                assert!(json.contains(check), "{json}");
            }
            other => panic!("expected json, got {other:?}"),
        }
    }
    // A metrics scrape over the socket parses and carries the ingest
    // accounting the submits above produced.
    match client.request(&Request::Metrics).expect("metrics") {
        Response::Metrics { text } => {
            let samples = energydx_obsv::parse_exposition(&text)
                .expect("valid exposition");
            assert_eq!(
                samples.get("fleetd_uploads_total;outcome=clean").copied(),
                Some(3.0),
                "{text}"
            );
            assert_eq!(
                samples
                    .get("fleetd_uploads_quarantined_total;reason=undecodable")
                    .copied(),
                Some(1.0),
                "{text}"
            );
            assert_eq!(
                samples.get("fleetd_queue_capacity").copied(),
                Some(64.0),
                "{text}"
            );
            assert!(
                samples
                    .get("fleetd_request_duration_seconds_count;kind=diagnose")
                    .copied()
                    .unwrap_or(0.0)
                    >= 1.0,
                "{text}"
            );
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    assert_eq!(
        client
            .request(&Request::Rollover { app: "mail".into() })
            .expect("rollover"),
        Response::Epoch { epoch: 1 }
    );
    // The frozen epoch still serves the same report.
    match client
        .request(&Request::Diagnose {
            app: "mail".into(),
            epoch: Some(0),
        })
        .expect("diagnose epoch 0")
    {
        Response::Report { json } => assert_eq!(json, reference),
        other => panic!("expected a report, got {other:?}"),
    }
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Done
    );
    server.join().unwrap().expect("serve exits cleanly");
}

/// A wire `Regressions` threshold the CLI would refuse is refused by
/// the daemon too, with an error naming the value: under NaN no event
/// is ever flagged on its quantile shift, under a negative one every
/// event is. A valid override still answers.
#[test]
fn a_nan_or_negative_wire_threshold_is_refused_by_value() {
    let handle =
        Arc::new(FleetdHandle::start(ServerConfig::default()).expect("start"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || serve_result(listener, handle))
    };
    let mut client = Client::connect(&addr).expect("connect");
    for (i, version) in ["1.9.0", "2.0.0"].iter().cycle().take(8).enumerate() {
        let payload = fixture::payload_versioned("u1", i as u64, version);
        let reply = client
            .request(&Request::Submit {
                app: "mail".into(),
                payload,
            })
            .expect("submit");
        assert!(matches!(reply, Response::Outcome { .. }), "{reply:?}");
    }
    let request = |threshold| Request::Regressions {
        app: "mail".into(),
        epoch: None,
        from: "1.9.0".into(),
        to: "2.0.0".into(),
        threshold: Some(threshold),
    };
    for (threshold, shown) in [(f64::NAN, "NaN"), (-0.5, "-0.5")] {
        match client.request(&request(threshold)).expect("regressions") {
            Response::Error { message } => assert!(
                message.contains(&format!("threshold {shown}:")),
                "{message}"
            ),
            other => panic!("expected an error, got {other:?}"),
        }
    }
    assert!(matches!(
        client.request(&request(0.5)).expect("regressions"),
        Response::Report { .. }
    ));
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Done
    );
    server.join().unwrap().expect("serve exits cleanly");
}

fn serve_result(
    listener: TcpListener,
    handle: Arc<FleetdHandle>,
) -> std::io::Result<()> {
    energydx_fleetd::server::serve(listener, handle)
}
