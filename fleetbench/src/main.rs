//! `fleetbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! fleetbench --workload <rollout-dashboard|spill-cluster>
//!            --seed <n> --seconds <s> --trace <0|1>
//!            --cli <path to the energydx binary> [--work <dir>]
//! ```
//!
//! Prepares the workload's server state from the seed, drives real
//! `energydx serve` processes over TCP, checks every served answer
//! against an in-process batch reference, and prints one JSON line of
//! metrics last. `--trace 1` also replays the same operations
//! in-process and prints per-layer metrics instead. See `README.md`.

mod corpus;
mod drive;
mod model;
mod procs;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;

#[derive(Debug)]
pub struct Args {
    pub kind: workload::Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cli: PathBuf,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| value(name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    Ok(Args {
        kind: workload::Kind::parse(workload)
            .ok_or(format!("unknown workload `{workload}`"))?,
        // Any integer; a negative one wraps.
        seed: need("--seed")?
            .parse::<i128>()
            .map_err(|_| "--seed takes an integer".to_string())?
            as u64,
        seconds: need("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds takes a positive number")?,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => {
                return Err(format!("--trace takes 0 or 1, not `{other}`"))
            }
        },
        cli: PathBuf::from(need("--cli")?),
        work: PathBuf::from(value("--work").unwrap_or(".fleetbench")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(2);
        }
    };
    let run = drive::run(&args);
    eprintln!(
        "fleetbench {}: {} timed uploads over {:.2} server CPU-s, \
         {} fresh / {} repeat / {} regressions / {} report samples, \
         {} accepted traces, {} of {} operations failed, {} mismatches",
        args.kind.name(),
        run.upload_ms.len(),
        run.upload_cpu_s,
        run.fresh_ms.len(),
        run.repeat_ms.len(),
        run.regress_ms.len(),
        run.report_ms.len(),
        run.accepted,
        run.tally.failed,
        run.tally.attempted,
        run.tally.mismatches,
    );
    for note in &run.tally.notes {
        eprintln!("fleetbench: {note}");
    }
    let metrics = if args.trace {
        replay::per_layer(&args, &run)
    } else {
        run.end_to_end()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns an empty sum's -0 into 0; a metric with no
            // samples prints 0 and fails the run below.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {{{}}}}}",
        run.tally.mismatches == 0 && metrics.iter().all(|m| m.1.is_finite()),
        run.tally.attempted,
        run.tally.failed,
        body.join(", ")
    );
}
