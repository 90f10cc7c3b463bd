//! Canonical JSON rendering of diagnosis reports.
//!
//! The differential harness and the golden-report regression tests
//! compare reports **byte for byte**, so the rendering must be a pure
//! function of the report value: fields appear in declaration order,
//! map keys in their `BTreeMap` order, and floats print the text Rust's
//! shortest-round-trip `Display` prints (the same bits always produce
//! the same text). Non-finite floats — impossible in a report produced
//! by the pipeline, which sanitizes its input — render as `null` so the
//! output is always valid JSON.
//!
//! [`JsonWriter::float`] computes that `Display` text itself, exactly,
//! in integer arithmetic, for every magnitude in [2^-49, 2^53) — where
//! a report's powers, ranks and amplitudes live — and calls `write!`
//! outside it. It runs the shortest-digits search `core::fmt` runs
//! (Steele & White's, as in `flt2dec`): the fewest significant digits
//! that land inside the value's rounding interval, then the candidate
//! nearest the value, an exact tie rounding up. `tests/float_text.rs`
//! ties the two texts together over every bit class where they could
//! part.
//!
//! Two renderers share one layout, written once by the section writers
//! below: [`report_json`] renders a [`DiagnosisReport`] — the batch
//! oracle behind the CLI, the goldens and the diff harness — and
//! [`EnergyDx::render_json`](crate::EnergyDx::render_json) renders the
//! same bytes straight from an analyzed fleet's id-indexed tables,
//! escaping each event name once per id.
//!
//! Hand-rolled rather than derived: the output is a *test oracle* and a
//! CLI artifact, and owning the byte layout keeps the determinism
//! guarantee auditable in one screen of code.

use crate::report::{AnalysisStats, DiagnosisReport, RankedEvent};
use std::fmt::Write as _;

/// Renders a report as canonical, pretty-printed JSON.
///
/// Two equal reports render to equal bytes; this is the comparison key
/// of `tests/diff_harness.rs` and the storage format of
/// `tests/golden/`.
pub fn report_json(report: &DiagnosisReport) -> String {
    let mut w = JsonWriter::new();
    write_report(
        &mut w,
        &report.traces,
        |w, t| {
            trace_json(
                w,
                &t.raw_power_mw,
                t.events.iter().map(String::as_str),
                &t.normalized_power,
                &t.amplitudes,
                t.upper_fence,
                t.manifestation_points
                    .iter()
                    .map(|p| (p.instance_index, p.event.as_str(), p.amplitude)),
            );
        },
        &report.events,
        report
            .rankings
            .iter()
            .map(|(event, ranks)| (event.as_str(), ranks.as_slice())),
        report.top_k,
        &report.stats,
    );
    w.into_line()
}

/// An event name as a renderer holds it: a `&str`, escaped as it is
/// written, or an [`Escaped`] token.
pub(crate) trait EventName {
    fn write_to(self, w: &mut JsonWriter);
}

impl EventName for &str {
    fn write_to(self, w: &mut JsonWriter) {
        w.string(self);
    }
}

/// A name already quoted and escaped (see [`escaped`]), written
/// verbatim.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

impl EventName for Escaped<'_> {
    fn write_to(self, w: &mut JsonWriter) {
        w.raw(self.0);
    }
}

/// `s` as a quoted, escaped JSON string.
pub(crate) fn escaped(s: &str) -> String {
    let mut w = JsonWriter {
        out: String::with_capacity(s.len() + 2),
        ..JsonWriter::default()
    };
    w.string(s);
    w.out
}

/// The report object: its members, their order and their shapes. The
/// traces come as items that `trace` writes (through [`trace_json`]).
pub(crate) fn write_report<'r, T, N: EventName>(
    w: &mut JsonWriter,
    traces: impl IntoIterator<Item = T>,
    trace: impl FnMut(&mut JsonWriter, T),
    events: &[RankedEvent],
    rankings: impl IntoIterator<Item = (N, &'r [f64])>,
    top_k: usize,
    stats: &AnalysisStats,
) {
    w.obj(|w| {
        w.key("traces");
        w.arr(traces, trace);
        w.key("events");
        w.arr(events, event_json);
        w.key("rankings");
        w.obj(|w| {
            for (event, ranks) in rankings {
                w.name_key(event);
                w.floats(ranks);
            }
        });
        w.key("top_k");
        w.usize(top_k);
        w.key("stats");
        stats_json(w, stats);
    });
}

/// One trace's object. `events` yields the event of each instance;
/// `points` each manifestation point's instance index, event and
/// amplitude.
pub(crate) fn trace_json<N: EventName>(
    w: &mut JsonWriter,
    raw_power_mw: &[f64],
    events: impl Iterator<Item = N>,
    normalized_power: &[f64],
    amplitudes: &[f64],
    upper_fence: Option<f64>,
    points: impl Iterator<Item = (usize, N, f64)>,
) {
    w.obj(|w| {
        w.key("raw_power_mw");
        w.floats(raw_power_mw);
        w.key("events");
        w.names(events);
        w.key("normalized_power");
        w.floats(normalized_power);
        w.key("amplitudes");
        w.floats(amplitudes);
        w.key("upper_fence");
        match upper_fence {
            Some(v) => w.float(v),
            None => w.raw("null"),
        }
        w.key("manifestation_points");
        w.arr(points, |w, (instance_index, event, amplitude)| {
            w.obj(|w| {
                w.key("instance_index");
                w.usize(instance_index);
                w.key("event");
                event.write_to(w);
                w.key("amplitude");
                w.float(amplitude);
            });
        });
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
        w.arr(&s.skipped, |w, sk| {
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
        let mut buf = [0u8; 20];
        let start = decimal(v, &mut buf);
        self.push_ascii(&buf[start..]);
    }

    fn push_ascii(&mut self, bytes: &[u8]) {
        self.out
            .push_str(std::str::from_utf8(bytes).expect("digits are ASCII"));
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
        self.name_key(key);
    }

    fn name_key(&mut self, key: impl EventName) {
        self.member();
        key.write_to(self);
        self.out.push_str(": ");
    }

    /// Writes an array with one member per line, each emitted by
    /// `each`.
    pub fn arr<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut JsonWriter, T),
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

    /// An event-name array on a single line.
    fn names<N: EventName>(&mut self, names: impl Iterator<Item = N>) {
        self.out.push('[');
        for (i, name) in names.enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            name.write_to(self);
        }
        self.out.push(']');
    }

    /// Writes a float as the text `Display` prints for it — the
    /// shortest decimal that reads back as the same bits, never an
    /// exponent, `-0` keeping its sign so distinct bit patterns stay
    /// distinguishable in golden files — plus `.0` when that text has
    /// no decimal point, so it is a JSON float. Non-finite values
    /// render as `null`.
    pub fn float(&mut self, v: f64) {
        if !v.is_finite() {
            self.out.push_str("null");
            return;
        }
        let mut buf = [0u8; FLOAT_TEXT];
        if let Some(len) = display_text(v, &mut buf) {
            self.push_ascii(&buf[..len]);
            return;
        }
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    /// Writes an unsigned integer value.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a quoted, escaped JSON string. Runs that need no escape
    /// are copied whole.
    pub fn string(&mut self, s: &str) {
        self.out.push('"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            // An ASCII byte never sits inside a multi-byte character,
            // so `i` is a char boundary.
            self.out.push_str(&s[plain..i]);
            plain = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
        }
        self.out.push_str(&s[plain..]);
        self.out.push('"');
    }
}

/// `00`, `01`, …, `99`: the decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `n`'s decimal digits right-aligned into `buf`, two at a
/// time, and returns the index of the first.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// `5^i` for every scale [`display_text`] uses (up to `5^31`).
const POW5: [u128; 32] = {
    let mut pow = [1u128; 32];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1] * 5;
        i += 1;
    }
    pow
};

/// Room for the longest text [`display_text`] writes: a sign, `0.`,
/// 14 zeros and 17 significant digits.
const FLOAT_TEXT: usize = 40;

/// Writes the text `format!("{v}")` prints for a finite `v` with
/// 2^-49 ≤ |v| < 2^53, followed by `.0` when it has no decimal point,
/// into `buf` and returns its length; `None` outside that window.
///
/// Exact: every quantity is an integer. In the window the value is
/// `m / 2^t` with `m` the 53-bit mantissa and `t` in `0..=101`. Scaled
/// by `10^s = 5^s · 2^s` (`s` ≤ 31), the value and its rounding
/// interval share the denominator `2^(t + 2 - s)`, their numerators
/// fit a `u128`, and the digit candidates a `u64`.
fn display_text(v: f64, buf: &mut [u8; FLOAT_TEXT]) -> Option<usize> {
    let bits = v.to_bits();
    let t = 1075 - ((bits >> 52) & 0x7ff) as i32;
    if !(0..=101).contains(&t) {
        return None;
    }
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    if t <= 52 && m.trailing_zeros() >= t as u32 {
        // An integer, as most Step-2 ranks are: its interval is at
        // most a unit wide, so no shorter decimal lies inside and the
        // text is its digits.
        let mut text = [0u8; 20];
        let first = decimal(m >> t, &mut text);
        let sign = usize::from(v < 0.0);
        let len = sign + text.len() - first;
        buf[0] = b'-';
        buf[sign..len].copy_from_slice(&text[first..]);
        buf[len..len + 2].copy_from_slice(b".0");
        return Some(len + 2);
    }
    // `s` fraction digits resolve 17 significant digits, which always
    // land inside the rounding interval. `(e · 78913) >> 18` is
    // `floor(e · log10 2)` for |e| ≤ 1650, so `10^(16 - s)` is at most
    // `2^(52 - t)`, the value's leading binary digit.
    let s = (16 - (((52 - t) * 78913) >> 18)) as usize;
    let shift = (t + 2) as u32 - s as u32;
    // The rounding interval of `core::num::flt2dec::decode`, times
    // 4: half an ulp either side, a quarter below a power of two
    // (whose lower neighbour is closer), ends included iff `m` is even.
    let inclusive = m.is_multiple_of(2);
    let value = u128::from(4 * m) * POW5[s];
    let low = value - if m == 1 << 52 { POW5[s] } else { POW5[s] << 1 };
    let high = value + (POW5[s] << 1);
    let mask = (1u128 << shift) - 1;
    // The integers, in units of 10^-s, inside the interval. All fall
    // below 2·10^17, so they fit a `u64`.
    let (lo, hi) = if inclusive {
        ((low + mask) >> shift, high >> shift)
    } else {
        ((low >> shift) + 1, ((high + mask) >> shift) - 1)
    };
    let (mut lo, mut hi) = (lo as u64, hi as u64);
    // Fewest digits first: drop trailing digits, two at a time, then
    // one, while some multiple of the coarser unit stays inside. The
    // value's truncation drops the same digits; the last one dropped
    // decides whether it lies past the half.
    let mut truncated = (value >> shift) as u64;
    let mut dropped = 0;
    let mut first_dropped = 0;
    while lo.div_ceil(100) <= hi / 100 {
        (lo, hi) = (lo.div_ceil(100), hi / 100);
        first_dropped = truncated % 100 / 10;
        truncated /= 100;
        dropped += 2;
    }
    if lo.div_ceil(10) <= hi / 10 {
        (lo, hi) = (lo.div_ceil(10), hi / 10);
        first_dropped = truncated % 10;
        truncated /= 10;
        dropped += 1;
    }
    // Then the nearer of that truncation and one unit above it, among
    // those inside; an exact tie rounds up.
    let past_half = if dropped == 0 {
        value & mask >= 1 << (shift - 1)
    } else {
        first_dropped >= 5
    };
    let up = truncated < hi && (truncated < lo || past_half);

    let mut text = [0u8; 20];
    let first = decimal(truncated + u64::from(up), &mut text);
    let digits = &text[first..];
    // The value is 0.d₁d₂…dₙ · 10^point.
    let point = digits.len() as i32 + dropped - s as i32;
    let mut len = 0;
    let mut put = |bytes: &[u8]| {
        buf[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    if v < 0.0 {
        put(b"-");
    }
    if point <= 0 {
        put(b"0.");
        for _ in point..0 {
            put(b"0");
        }
        put(digits);
    } else if (point as usize) < digits.len() {
        put(&digits[..point as usize]);
        put(b".");
        put(&digits[point as usize..]);
    } else {
        put(digits);
        for _ in digits.len()..point as usize {
            put(b"0");
        }
        put(b".0");
    }
    Some(len)
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
