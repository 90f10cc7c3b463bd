//! Canonical JSON rendering of diagnosis reports.
//!
//! The differential harness and the golden-report regression tests
//! compare reports **byte for byte**, so the rendering must be a pure
//! function of the report value: fields appear in declaration order,
//! map keys in their `BTreeMap` order, and floats print via Rust's
//! shortest-round-trip `Display` (the same bits always produce the same
//! text). Non-finite floats — impossible in a report produced by the
//! pipeline, which sanitizes its input — render as `null` so the output
//! is always valid JSON.
//!
//! Hand-rolled rather than derived: the output is a *test oracle* and a
//! CLI artifact, and owning the byte layout keeps the determinism
//! guarantee auditable in one screen of code.

use crate::report::{
    AnalysisStats, DiagnosisReport, ManifestationPoint, RankedEvent,
    SkippedTrace, TraceAnalysis,
};
use std::fmt::Write as _;

/// Renders a report as canonical, pretty-printed JSON.
///
/// Two equal reports render to equal bytes; this is the comparison key
/// of `tests/diff_harness.rs` and the storage format of
/// `tests/golden/`.
pub fn report_json(report: &DiagnosisReport) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("traces");
        w.arr(&report.traces, trace_json);
        w.key("events");
        w.arr(&report.events, event_json);
        w.key("rankings");
        w.obj(|w| {
            for (event, ranks) in &report.rankings {
                w.key(event);
                w.floats(ranks);
            }
        });
        w.key("top_k");
        w.usize(report.top_k);
        w.key("stats");
        stats_json(w, &report.stats);
    });
    w.into_line()
}

fn trace_json(w: &mut JsonWriter, t: &TraceAnalysis) {
    w.obj(|w| {
        w.key("raw_power_mw");
        w.floats(&t.raw_power_mw);
        w.key("events");
        w.strings(&t.events);
        w.key("normalized_power");
        w.floats(&t.normalized_power);
        w.key("amplitudes");
        w.floats(&t.amplitudes);
        w.key("upper_fence");
        match t.upper_fence {
            Some(v) => w.float(v),
            None => w.out.push_str("null"),
        }
        w.key("manifestation_points");
        w.arr(&t.manifestation_points, point_json);
    });
}

fn point_json(w: &mut JsonWriter, p: &ManifestationPoint) {
    w.obj(|w| {
        w.key("instance_index");
        w.usize(p.instance_index);
        w.key("event");
        w.string(&p.event);
        w.key("amplitude");
        w.float(p.amplitude);
    });
}

fn event_json(w: &mut JsonWriter, e: &RankedEvent) {
    w.obj(|w| {
        w.key("event");
        w.string(&e.event);
        w.key("impacted_fraction");
        w.float(e.impacted_fraction);
        w.key("proximity");
        w.usize(e.proximity);
    });
}

fn stats_json(w: &mut JsonWriter, s: &AnalysisStats) {
    w.obj(|w| {
        w.key("total_traces");
        w.usize(s.total_traces);
        w.key("analyzed_traces");
        w.usize(s.analyzed_traces);
        w.key("skipped");
        w.arr(&s.skipped, |w, sk: &SkippedTrace| {
            w.obj(|w| {
                w.key("index");
                w.usize(sk.index);
                w.key("reason");
                w.string(&sk.reason);
            });
        });
        w.key("degenerate_groups");
        w.usize(s.degenerate_groups);
    });
}

/// A tiny pretty-printing JSON writer: 2-space indentation, scalar
/// arrays on one line, object members one per line.
///
/// Public because it is the *one* JSON renderer of the workspace:
/// every hand-rolled JSON surface (diagnosis reports here, fleetd's
/// stats/health documents) goes through it, so key ordering, float
/// formatting, and escaping are consistent — and byte-deterministic —
/// everywhere.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has a member (comma
    /// bookkeeping), one flag per nesting level.
    has_member: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_member: Vec::new(),
        }
    }

    /// The rendered document.
    pub fn into_string(self) -> String {
        self.out
    }

    /// The rendered document with a trailing newline — the shape every
    /// CLI/file artifact in the repo uses.
    pub fn into_line(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    /// Appends a raw token (e.g. `null`) verbatim.
    pub fn raw(&mut self, token: &str) {
        self.out.push_str(token);
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    /// Starts a member slot inside the current container: emits the
    /// separating comma and fresh-line indentation.
    fn member(&mut self) {
        if let Some(has) = self.has_member.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        self.newline();
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.indent += 1;
        self.has_member.push(false);
    }

    fn close(&mut self, bracket: char) {
        self.indent -= 1;
        let had_members = self.has_member.pop() == Some(true);
        if had_members {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Writes an object whose members are emitted by `body`.
    pub fn obj(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.open('{');
        body(self);
        self.close('}');
    }

    /// Starts an object member: comma bookkeeping, indentation, the
    /// quoted key, and the `: ` separator. The caller writes the value.
    pub fn key(&mut self, key: &str) {
        self.member();
        self.string(key);
        self.out.push_str(": ");
    }

    /// Writes an array with one member per line, each emitted by
    /// `each`.
    pub fn arr<T>(
        &mut self,
        items: &[T],
        mut each: impl FnMut(&mut JsonWriter, &T),
    ) {
        self.open('[');
        for item in items {
            self.member();
            each(self, item);
        }
        self.close(']');
    }

    /// A scalar array on a single line — number series dominate a
    /// report, and one-line arrays keep golden files diffable.
    pub fn floats(&mut self, values: &[f64]) {
        self.out.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.float(v);
        }
        self.out.push(']');
    }

    /// A string array on a single line.
    pub fn strings(&mut self, values: &[String]) {
        self.out.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.string(v);
        }
        self.out.push(']');
    }

    /// Writes a float with shortest-round-trip `Display` (always a
    /// valid JSON number that reads back as the same bits; non-finite
    /// values render as `null`).
    pub fn float(&mut self, v: f64) {
        if v.is_finite() {
            // Rust's shortest-round-trip Display: deterministic for
            // given bits, and `-0.0` keeps its sign so distinct bit
            // patterns stay distinguishable in golden files.
            let start = self.out.len();
            let _ = write!(self.out, "{v}");
            // Keep every float a JSON number that reads back as f64.
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes an unsigned integer value.
    pub fn usize(&mut self, v: usize) {
        let _ = write!(self.out, "{v}");
    }

    /// Writes a quoted, escaped JSON string.
    pub fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

impl DiagnosisReport {
    /// Renders this report as canonical JSON (see [`report_json`]).
    pub fn to_canonical_json(&self) -> String {
        report_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DiagnosisInput;
    use crate::pipeline::EnergyDx;
    use energydx_trace::event::EventInstance;
    use energydx_trace::join::PoweredInstance;

    fn instance(event: &str, start: u64, mw: f64) -> PoweredInstance {
        PoweredInstance {
            instance: EventInstance::new(event, start, start + 10),
            power_mw: mw,
        }
    }

    #[test]
    fn empty_report_renders_empty_containers() {
        let report = EnergyDx::default().diagnose(&DiagnosisInput::default());
        let json = report.to_canonical_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"traces\": []"));
        assert!(json.contains("\"rankings\": {}"));
        assert!(json.contains("\"total_traces\": 0"));
    }

    #[test]
    fn equal_reports_render_equal_bytes() {
        let traces: Vec<Vec<PoweredInstance>> = (0..3)
            .map(|t| {
                (0..12)
                    .map(|i| {
                        instance("E", i * 100, 50.0 + ((i + t) % 5) as f64)
                    })
                    .collect()
            })
            .collect();
        let input = DiagnosisInput::new(traces);
        let dx = EnergyDx::default();
        assert_eq!(
            dx.diagnose(&input).to_canonical_json(),
            dx.diagnose(&input).to_canonical_json()
        );
    }

    #[test]
    fn floats_always_read_back_as_numbers() {
        let mut w = JsonWriter::new();
        w.float(2.0);
        w.out.push(' ');
        w.float(0.5);
        w.out.push(' ');
        w.float(-0.0);
        assert_eq!(w.out, "2.0 0.5 -0.0");
        // Every rendered float parses back to the exact same bits.
        for v in [2.0f64, 0.5, -0.0, 1e300, 1e-300, 123.456] {
            let mut w = JsonWriter::new();
            w.float(v);
            let back: f64 = w.out.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {}", w.out);
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut w = JsonWriter::new();
        w.float(f64::NAN);
        w.out.push(' ');
        w.float(f64::INFINITY);
        assert_eq!(w.out, "null null");
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\u{1}");
        assert_eq!(w.out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn report_json_is_structurally_sound() {
        let input = DiagnosisInput::new(vec![(0..20)
            .map(|i| {
                instance(
                    if i == 10 { "hot" } else { "cold" },
                    i * 100,
                    if i >= 10 { 400.0 } else { 100.0 },
                )
            })
            .collect()]);
        let json = EnergyDx::default().diagnose(&input).to_canonical_json();
        // Balanced brackets and quotes — a cheap structural check that
        // does not require a JSON parser in the tree.
        let quotes = json.matches('"').count();
        assert_eq!(quotes % 2, 0);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        assert!(json.contains("\"upper_fence\": "));
    }
}
