//! Adversarial-name escaping property: no app name, event name,
//! version label, or quarantine reason — however hostile — can break
//! the rendered report's well-formedness (balanced tags, quoted
//! attributes, entity-only `&`), or smuggle a live `<script>` tag in.

use std::collections::BTreeMap;

use energydx::report::{
    AnalysisStats, ManifestationPoint, RankedEvent, TraceAnalysis,
};
use energydx::{DiagnosisReport, FleetSummary};
use energydx_report::{
    build_model, check_well_formed, render_html, render_json, AppInput,
    DeploymentPanel, EpochInput, VersionInput,
};
use proptest::prelude::*;

/// Hostile markup fragments mixed into generated names.
const PAYLOADS: [&str; 8] = [
    "<script>alert(1)</script>",
    "\" onmouseover=\"x",
    "' onload='y",
    "]]></style><script>",
    "&lt;looks-escaped&gt;",
    "a&b<c>d\"e'f",
    "</td></tr></table>",
    "<svg/onload=z>",
];

/// An adversarial name: printable-ASCII noise around a hostile
/// payload, sometimes salted with control characters and a U+FFFD
/// (what non-UTF-8 salvage produces).
fn name() -> impl Strategy<Value = String> {
    ("[ -~]{0,12}", 0..PAYLOADS.len(), "[ -~]{0,12}", 0u8..2).prop_map(
        |(pre, i, post, salt)| {
            let mut s = format!("{pre}{}{post}", PAYLOADS[i]);
            if salt == 1 {
                s.push('\u{0007}');
                s.push('\u{FFFD}');
                s.insert(0, '\u{0000}');
            }
            s
        },
    )
}

/// A one-trace diagnosis whose only event is `event`.
fn report_for(event: &str) -> DiagnosisReport {
    DiagnosisReport {
        traces: vec![TraceAnalysis {
            raw_power_mw: vec![100.0, 900.0],
            events: vec![event.to_string(), event.to_string()],
            normalized_power: vec![100.0, 900.0],
            amplitudes: vec![0.0, 800.0],
            upper_fence: Some(300.0),
            manifestation_points: vec![ManifestationPoint {
                instance_index: 1,
                event: event.to_string(),
                amplitude: 800.0,
            }],
        }],
        events: vec![RankedEvent {
            event: event.to_string(),
            impacted_fraction: 1.0,
            proximity: 0,
        }],
        rankings: BTreeMap::new(),
        top_k: 5,
        stats: AnalysisStats {
            total_traces: 1,
            analyzed_traces: 1,
            skipped: Vec::new(),
            degenerate_groups: 0,
        },
    }
}

proptest! {
    #[test]
    fn hostile_names_never_break_the_report(
        app in name(),
        event in name(),
        from_version in name(),
        to_version in name(),
        reason in name(),
        missing in prop::collection::vec(0u32..9, 0..4),
    ) {
        let input = AppInput {
            app,
            detail_epoch: 0,
            epochs: vec![EpochInput {
                epoch: 0,
                summary: FleetSummary::of_report(&report_for(&event)),
                clean: 3,
                recovered: 1,
                quarantine: vec![(reason, 2)],
            }],
            versions: vec![
                VersionInput {
                    version: from_version,
                    summary: FleetSummary::of_report(&report_for(&event)),
                },
                VersionInput {
                    version: to_version,
                    summary: FleetSummary::of_report(&report_for(&event)),
                },
            ],
        };
        let model =
            build_model(&[input], DeploymentPanel::pinned(), missing, 8);
        let html = render_html(&model);
        if let Err(e) = check_well_formed(&html) {
            prop_assert!(false, "ill-formed report: {e}");
        }
        prop_assert!(
            !html.contains("<script"),
            "live script tag leaked into the report"
        );
        // The JSON artifact must stay parseable too: its canonical
        // writer escapes quotes/controls, so a round of brace
        // accounting outside string literals must balance.
        let json = render_json(&model);
        prop_assert!(balanced_json(&json), "unbalanced report.json");
    }
}

/// Cheap structural check: braces/brackets balance when scanned
/// outside JSON string literals (which is exactly what a hostile name
/// breaking out of its string would violate).
fn balanced_json(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}
