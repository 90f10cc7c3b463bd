//! The harness of the gated benchmark bins (`cluster`, `hotpath`,
//! `ingest`, `query`, `regress`, `report`, `spill`): each bin measures
//! once and declares a [`Report`] — the fields it writes and the gates
//! `--check` evaluates — and [`main`] does the rest: flags, printing,
//! writing and re-reading the stored report, and the exit code. Also
//! here: the seeded damaged upload corpus, a one-shot wall-clock
//! timer and the nearest-rank percentile.

use energydx_fleetd::fixture;
use energydx_trace::fault::{FaultInjector, FaultKind};
use std::fmt::Display;
use std::str::FromStr;
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

/// The nearest-rank `p`-quantile of an ascending, non-empty slice: the
/// element at index `⌊len · p⌋`, clamped to the last.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)]
}

/// The number stored under a key path in a report written by one of
/// the bins (`&["replica", "bytes"]` reads `"replica": {"bytes": n}`),
/// read without a JSON dependency: each key is found after the one
/// before it, and the whole token after the last one, up to the next
/// `,`, `}` or whitespace, must parse as `T`. `None` when a key is
/// missing or the token does not parse (`2.9` is no `u64`).
fn stored<T: FromStr>(json: &str, path: &[&str]) -> Option<T> {
    let mut at = 0;
    for key in path {
        let quoted = format!("\"{key}\":");
        at += json[at..].find(&quoted)? + quoted.len();
    }
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One gate of a [`Report`], kept with the dotted key path it reads
/// (or, for [`Gate::Holds`], its description).
enum Gate {
    /// The integer stored under the key equals the measured one.
    Exact(u64),
    /// The measured value is at most the number stored under the key.
    AtMost(f64),
    /// The measured value is at least the number stored under the key.
    AtLeast(f64),
    /// A condition on this run alone.
    Holds(bool),
}

/// What one run of a bin reports: its JSON fields in write order, and
/// the gates `--check` evaluates against a stored copy. Built by chained
/// calls; values print through `Display`, so a bin formats fixed
/// decimals itself (`format!("{secs:.6}")`).
#[derive(Default)]
pub struct Report {
    fields: Vec<(String, String)>,
    gates: Vec<(String, Gate)>,
}

impl Report {
    /// Writes a field that no gate reads.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Writes a corpus-determined count (a pure function of the corpus
    /// and the code) and gates it equal to the stored one, so a stored
    /// report that drifted from what the code produces fails instead of
    /// passing under a budget's margin.
    pub fn exact(mut self, key: &str, value: usize) -> Self {
        self.gates
            .push((key.to_string(), Gate::Exact(value as u64)));
        self.field(key, value)
    }

    /// Writes `child` as a one-line object under `key`; its gates read
    /// their keys inside it.
    pub fn object(mut self, key: &str, child: Report) -> Self {
        let inner: Vec<String> = child
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        self.fields
            .push((key.to_string(), format!("{{{}}}", inner.join(", "))));
        let gates = child.gates.into_iter();
        self.gates
            .extend(gates.map(|(k, gate)| (format!("{key}.{k}"), gate)));
        self
    }

    /// Gates `measured` at most the budget stored under `key`, a field
    /// this report has already written.
    pub fn at_most(mut self, key: &str, measured: f64) -> Self {
        self.assert_written(key);
        self.gates.push((key.to_string(), Gate::AtMost(measured)));
        self
    }

    /// Gates `measured` at least the budget stored under `key`, a field
    /// this report has already written.
    pub fn at_least(mut self, key: &str, measured: f64) -> Self {
        self.assert_written(key);
        self.gates.push((key.to_string(), Gate::AtLeast(measured)));
        self
    }

    /// Gates a condition that needs no stored number; `what` states it.
    pub fn holds(mut self, what: String, ok: bool) -> Self {
        self.gates.push((what, Gate::Holds(ok)));
        self
    }

    /// A budget gate and the field it reads are one key: a renamed field
    /// must fail every run, not the next regeneration.
    fn assert_written(&self, key: &str) {
        assert!(
            self.fields.iter().any(|(k, _)| k == key),
            "a gate reads `{key}`, which the report does not write"
        );
    }

    /// The report as the bins store it: one field per line, two-space
    /// indent, nested objects on their field's line.
    fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Each gate's verdict against the stored report `json` (read from
    /// `file`), with the line that says why.
    fn verdicts(&self, json: &str, file: &str) -> Vec<(bool, String)> {
        let verdict = |key: &String, gate: &Gate| {
            let path: Vec<&str> = key.split('.').collect();
            let (measured, at_most) = match *gate {
                Gate::Holds(ok) => return (ok, key.clone()),
                Gate::Exact(measured) => {
                    return match stored::<u64>(json, &path) {
                        Some(v) => (
                            v == measured,
                            format!("{key}: measured {measured}, stored {v}"),
                        ),
                        None => (false, format!("{key}: no integer in {file}")),
                    }
                }
                Gate::AtMost(measured) => (measured, true),
                Gate::AtLeast(measured) => (measured, false),
            };
            let Some(budget) = stored::<f64>(json, &path) else {
                return (false, format!("{key}: no number in {file}"));
            };
            let (failed, op) = if at_most {
                (measured > budget, "<=")
            } else {
                (measured < budget, ">=")
            };
            let line = format!("{key}: measured {measured:.3} {op} {budget}");
            (!failed, line)
        };
        self.gates
            .iter()
            .map(|(key, gate)| verdict(key, gate))
            .collect()
    }
}

/// Prints `problem` and the bin's usage line, and exits 2.
fn usage(bin: &str, reads_obsv: bool, problem: &str) -> ! {
    let obsv = if reads_obsv { " [--obsv]" } else { "" };
    eprintln!("{problem}");
    eprintln!("usage: {bin} [--smoke]{obsv} [--write <path>] [--check <path>]");
    std::process::exit(2)
}

/// A gated bin's whole `main`. Parses `--smoke`, `--write <path>`,
/// `--check <path>` and, when `reads_obsv`, `--obsv`; anything else,
/// or a path flag without its path, exits 2 before measuring. Then
/// runs `run(smoke, obsv)` once — always on the smoke corpus under
/// `--check`, since stored budgets come from smoke runs — prints the
/// report, writes it to the `--write` path, and under `--check`
/// evaluates every gate against the stored report, prints each
/// verdict, and exits 1 if any failed (an unreadable file fails too).
pub fn main(
    bin: &str,
    reads_obsv: bool,
    run: impl FnOnce(bool, bool) -> Report,
) {
    let (mut smoke, mut obsv) = (false, false);
    let (mut write, mut check) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--obsv" if reads_obsv => obsv = true,
            "--write" | "--check" => {
                let path = args.next().filter(|p| !p.starts_with("--"));
                let Some(path) = path else {
                    usage(bin, reads_obsv, &format!("{arg} needs a path"))
                };
                if arg == "--write" {
                    write = Some(path);
                } else {
                    check = Some(path);
                }
            }
            other => {
                usage(bin, reads_obsv, &format!("unknown argument: {other}"))
            }
        }
    }
    smoke |= check.is_some();

    let mode = if smoke { "\"smoke\"" } else { "\"full\"" };
    let mut report = run(smoke, obsv);
    report
        .fields
        .insert(0, ("mode".to_string(), mode.to_string()));
    let json = report.to_json();
    print!("{json}");

    if let Some(path) = write {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = check {
        let verdicts = match std::fs::read_to_string(&path) {
            Ok(stored) => report.verdicts(&stored, &path),
            Err(e) => vec![(false, format!("reading {path}: {e}"))],
        };
        for (ok, line) in &verdicts {
            eprintln!("{} {line}", if *ok { "ok  " } else { "FAIL" });
        }
        if verdicts.iter().any(|(ok, _)| !ok) {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_reads_the_whole_token_as_the_requested_type() {
        let json = "{\"kib\": 2.9, \"tiny\": 1e-3, \"neg\": -4.5, \
                    \"big\": 12}";
        assert_eq!(stored::<u64>(json, &["kib"]), None, "a fraction");
        assert_eq!(stored::<f64>(json, &["kib"]), Some(2.9));
        assert_eq!(stored::<f64>(json, &["tiny"]), Some(1e-3));
        assert_eq!(stored::<u64>(json, &["tiny"]), None, "an exponent");
        assert_eq!(stored::<f64>(json, &["neg"]), Some(-4.5));
        assert_eq!(stored::<u64>(json, &["neg"]), None, "a sign");
        assert_eq!(stored::<u64>(json, &["big"]), Some(12));
        assert_eq!(stored::<u64>(json, &["missing"]), None);
        assert_eq!(stored::<u64>("{\"n\": 12abc}", &["n"]), None);
    }

    #[test]
    fn stored_keys_match_whole_and_nest() {
        let json = "{\"json_bytes\": 5, \"json\": 7, \
                    \"replica\": {\"bytes\": 11644, \"per\": 1.5}, \
                    \"bytes\": 3}";
        assert_eq!(stored::<u64>(json, &["json"]), Some(7));
        assert_eq!(stored::<u64>(json, &["json_bytes"]), Some(5));
        assert_eq!(stored::<u64>(json, &["replica", "bytes"]), Some(11644));
        assert_eq!(stored::<f64>(json, &["replica", "per"]), Some(1.5));
        assert_eq!(stored::<u64>(json, &["replica", "missing"]), None);
    }

    fn every_shape() -> Report {
        Report::default()
            .exact("accepted", 92)
            .field("uploads_per_sec", format!("{:.0}", 10377.6))
            .field("secs", format!("{:.6}", 0.00925))
            .object(
                "replica",
                Report::default()
                    .exact("bytes", 11644)
                    .field("bytes_per_trace", format!("{:.1}", 126.56)),
            )
            .field("budget_bytes", 190)
            .at_most("budget_bytes", 126.6)
            .field("budget_ratio", 1.3)
            .at_most("budget_ratio", 1.2)
            .field("budget_min_speedup", format!("{:.1}", 2.0))
            .at_least("budget_min_speedup", 9.0)
            .holds("always".to_string(), true)
    }

    #[test]
    fn what_a_report_writes_its_check_reads_back() {
        let report = every_shape();
        let json = report.to_json();
        assert_eq!(
            json,
            "{\n  \"accepted\": 92,\n  \"uploads_per_sec\": 10378,\n  \
             \"secs\": 0.009250,\n  \
             \"replica\": {\"bytes\": 11644, \"bytes_per_trace\": 126.6},\n  \
             \"budget_bytes\": 190,\n  \"budget_ratio\": 1.3,\n  \
             \"budget_min_speedup\": 2.0\n}\n"
        );
        assert_eq!(stored::<u64>(&json, &["accepted"]), Some(92));
        assert_eq!(stored::<f64>(&json, &["uploads_per_sec"]), Some(10378.0));
        assert_eq!(stored::<f64>(&json, &["secs"]), Some(0.00925));
        assert_eq!(stored::<u64>(&json, &["replica", "bytes"]), Some(11644));
        assert_eq!(
            stored::<f64>(&json, &["replica", "bytes_per_trace"]),
            Some(126.6)
        );
        let verdicts = report.verdicts(&json, "BENCH_x.json");
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().all(|(ok, _)| *ok), "{verdicts:?}");
    }

    #[test]
    fn a_renamed_or_drifted_stored_field_fails_its_gate() {
        let report = every_shape();
        let json = report.to_json();
        let failed = |stored: &str| -> Vec<String> {
            report
                .verdicts(stored, "BENCH_x.json")
                .into_iter()
                .filter(|(ok, _)| !ok)
                .map(|(_, line)| line)
                .collect()
        };
        assert_eq!(
            failed(&json.replace("\"accepted\"", "\"acceptd\"")),
            ["accepted: no integer in BENCH_x.json"]
        );
        assert_eq!(failed(&json.replace("11644", "11645")).len(), 1);
        assert_eq!(failed(&json.replace("190", "126.5")).len(), 1);
        assert_eq!(failed(&json.replace(": 2.0", ": 9.5")).len(), 1);
        assert_eq!(failed(&json.replace(": 92", ": 92.0")).len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not write")]
    fn a_budget_gate_on_an_unwritten_field_panics() {
        let _ = Report::default()
            .field("budget_bytes", 1)
            .at_most("budget_byte", 0.0);
    }
}
