//! Event traces: timestamped callback entry/exit records.
//!
//! The on-phone logger produces one record per `log-enter`/`log-exit`
//! op. The text form matches Fig. 5 of the paper:
//!
//! ```text
//! 28223867 + Lcom/fsck/k9/service/MailService;->onDestroy
//! 28223867 - Lcom/fsck/k9/service/MailService;->onDestroy
//! 28224781 + Lcom/fsck/k9/activity/MessageList;->onItemClick
//! 28224844 - Lcom/fsck/k9/activity/MessageList;->onItemClick
//! ```
//!
//! Pairing enter/exit records yields [`EventInstance`]s — the unit the
//! 5-step analysis operates on.

use crate::error::TraceError;
use std::fmt;

/// Whether a record marks a callback entry (`+`) or exit (`-`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Callback entry (`+` in the log).
    Enter,
    /// Callback exit (`-` in the log).
    Exit,
}

impl Direction {
    /// The log sigil (`+` or `-`).
    pub fn sigil(&self) -> char {
        match self {
            Direction::Enter => '+',
            Direction::Exit => '-',
        }
    }
}

/// One logged record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventRecord {
    /// Milliseconds since device boot (system timestamp).
    pub timestamp_ms: u64,
    /// Entry or exit.
    pub direction: Direction,
    /// Event identifier, `Lcls;->name` form.
    pub event: String,
}

impl EventRecord {
    /// Creates a record.
    pub fn new(
        timestamp_ms: u64,
        direction: Direction,
        event: impl Into<String>,
    ) -> Self {
        EventRecord {
            timestamp_ms,
            direction,
            event: event.into(),
        }
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.timestamp_ms,
            self.direction.sigil(),
            self.event
        )
    }
}

/// A paired callback execution: `[start_ms, end_ms]` of one event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventInstance {
    /// Event identifier, `Lcls;->name` form.
    pub event: String,
    /// Entry timestamp (ms).
    pub start_ms: u64,
    /// Exit timestamp (ms).
    pub end_ms: u64,
}

impl EventInstance {
    /// Creates an instance; `end_ms` must be `>= start_ms`.
    pub fn new(event: impl Into<String>, start_ms: u64, end_ms: u64) -> Self {
        let instance = EventInstance {
            event: event.into(),
            start_ms,
            end_ms,
        };
        debug_assert!(instance.end_ms >= instance.start_ms);
        instance
    }

    /// Wall-clock duration of the callback execution in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms - self.start_ms
    }

    /// Midpoint timestamp, used for nearest-sample power fallback.
    pub fn midpoint_ms(&self) -> u64 {
        self.start_ms + (self.end_ms - self.start_ms) / 2
    }
}

/// An append-only sequence of event records for one user session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventTrace {
    records: Vec<EventRecord>,
}

impl EventTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        EventTrace::default()
    }

    /// Appends a record. Records are expected in non-decreasing
    /// timestamp order; [`EventTrace::validate`] checks this.
    pub fn push(&mut self, record: EventRecord) {
        self.records.push(record);
    }

    /// The raw records in log order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Checks that timestamps are non-decreasing.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfOrder`] with the first bad index.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (i, w) in self.records.windows(2).enumerate() {
            if w[1].timestamp_ms < w[0].timestamp_ms {
                return Err(TraceError::OutOfOrder { index: i + 1 });
            }
        }
        Ok(())
    }

    /// Pairs enter/exit records into instances, in chronological order
    /// of entry. Callbacks may nest (an `onCreate` that synchronously
    /// triggers an `onClick` dispatch); pairing matches each exit to
    /// the most recent unmatched enter of the same event (stack
    /// discipline per event). Enters that never see an exit (the
    /// session ended mid-callback) are closed at the last record's
    /// timestamp.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_trace::event::{Direction, EventRecord, EventTrace};
    /// let mut t = EventTrace::new();
    /// t.push(EventRecord::new(10, Direction::Enter, "LA;->onCreate"));
    /// t.push(EventRecord::new(12, Direction::Enter, "LB;->onClick"));
    /// t.push(EventRecord::new(20, Direction::Exit, "LB;->onClick"));
    /// t.push(EventRecord::new(25, Direction::Exit, "LA;->onCreate"));
    /// let inst = t.pair_instances();
    /// assert_eq!(inst[0].event, "LA;->onCreate");
    /// assert_eq!(inst[0].duration_ms(), 15);
    /// assert_eq!(inst[1].duration_ms(), 8);
    /// ```
    pub fn pair_instances(&self) -> Vec<EventInstance> {
        use std::collections::HashMap;
        // event -> stack of (entry timestamp, output slot index)
        let mut open: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut out: Vec<EventInstance> = Vec::new();
        let last_ts = self.records.last().map_or(0, |r| r.timestamp_ms);

        for record in &self.records {
            match record.direction {
                Direction::Enter => {
                    let slot = out.len();
                    out.push(EventInstance::new(
                        record.event.clone(),
                        record.timestamp_ms,
                        // Provisionally closed at session end.
                        last_ts.max(record.timestamp_ms),
                    ));
                    open.entry(record.event.as_str()).or_default().push(slot);
                }
                Direction::Exit => {
                    if let Some(slot) =
                        open.get_mut(record.event.as_str()).and_then(Vec::pop)
                    {
                        out[slot].end_ms = record.timestamp_ms;
                    }
                    // Unmatched exits are dropped: they come from
                    // callbacks begun before logging started.
                }
            }
        }
        out
    }

    /// Strictly paired variant of [`EventTrace::pair_instances`]: an
    /// exit without a matching enter is an error instead of being
    /// dropped. Used by tests and by the store's integrity check.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnmatchedExit`] on the first stray exit.
    pub fn pair_instances_strict(
        &self,
    ) -> Result<Vec<EventInstance>, TraceError> {
        use std::collections::HashMap;
        let mut open: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut out: Vec<EventInstance> = Vec::new();
        let last_ts = self.records.last().map_or(0, |r| r.timestamp_ms);
        for record in &self.records {
            match record.direction {
                Direction::Enter => {
                    let slot = out.len();
                    out.push(EventInstance::new(
                        record.event.clone(),
                        record.timestamp_ms,
                        last_ts.max(record.timestamp_ms),
                    ));
                    open.entry(record.event.as_str()).or_default().push(slot);
                }
                Direction::Exit => {
                    let slot = open
                        .get_mut(record.event.as_str())
                        .and_then(Vec::pop)
                        .ok_or_else(|| TraceError::UnmatchedExit {
                            event: record.event.clone(),
                            timestamp_ms: record.timestamp_ms,
                        })?;
                    out[slot].end_ms = record.timestamp_ms;
                }
            }
        }
        Ok(out)
    }

    /// Renders the trace in the Fig.-5 text log format.
    pub fn to_log(&self) -> String {
        let mut s = String::new();
        for r in &self.records {
            s.push_str(&r.to_string());
            s.push('\n');
        }
        s
    }

    /// Parses the Fig.-5 text log format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ParseLine`] on a malformed line.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_trace::event::EventTrace;
    /// let log = "28223867 + Lcom/fsck/k9/service/MailService;->onDestroy\n\
    ///            28223899 - Lcom/fsck/k9/service/MailService;->onDestroy\n";
    /// let t = EventTrace::from_log(log)?;
    /// assert_eq!(t.len(), 2);
    /// assert_eq!(t.to_log().lines().count(), 2);
    /// # Ok::<(), energydx_trace::TraceError>(())
    /// ```
    pub fn from_log(log: &str) -> Result<Self, TraceError> {
        let mut trace = EventTrace::new();
        for (idx, raw) in log.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let mut parts = line.splitn(3, ' ');
            let ts = parts
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| TraceError::ParseLine {
                    line: lineno,
                    message: "expected millisecond timestamp".to_string(),
                })?;
            let direction = match parts.next() {
                Some("+") => Direction::Enter,
                Some("-") => Direction::Exit,
                other => {
                    return Err(TraceError::ParseLine {
                        line: lineno,
                        message: format!("expected + or -, got {other:?}"),
                    })
                }
            };
            let event = parts.next().ok_or_else(|| TraceError::ParseLine {
                line: lineno,
                message: "missing event identifier".to_string(),
            })?;
            trace.push(EventRecord::new(ts, direction, event));
        }
        Ok(trace)
    }
}

impl FromIterator<EventRecord> for EventTrace {
    fn from_iter<T: IntoIterator<Item = EventRecord>>(iter: T) -> Self {
        EventTrace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<EventRecord> for EventTrace {
    fn extend<T: IntoIterator<Item = EventRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k9_log() -> &'static str {
        "28223867 + Lcom/fsck/k9/service/MailService;->onDestroy\n\
         28223867 - Lcom/fsck/k9/service/MailService;->onDestroy\n\
         28224781 + Lcom/fsck/k9/activity/MessageList;->onItemClick\n\
         28224844 - Lcom/fsck/k9/activity/MessageList;->onItemClick\n"
    }

    #[test]
    fn log_round_trips() {
        let t = EventTrace::from_log(k9_log()).unwrap();
        let reparsed = EventTrace::from_log(&t.to_log()).unwrap();
        assert_eq!(reparsed, t);
    }

    #[test]
    fn fig5_pairs_into_two_instances() {
        let t = EventTrace::from_log(k9_log()).unwrap();
        let inst = t.pair_instances_strict().unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst[0].duration_ms(), 0); // same-ms enter/exit
        assert_eq!(inst[1].duration_ms(), 63);
    }

    #[test]
    fn nested_same_event_pairs_lifo() {
        let mut t = EventTrace::new();
        t.push(EventRecord::new(0, Direction::Enter, "E"));
        t.push(EventRecord::new(5, Direction::Enter, "E"));
        t.push(EventRecord::new(7, Direction::Exit, "E"));
        t.push(EventRecord::new(9, Direction::Exit, "E"));
        let inst = t.pair_instances_strict().unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!((inst[0].start_ms, inst[0].end_ms), (0, 9));
        assert_eq!((inst[1].start_ms, inst[1].end_ms), (5, 7));
    }

    #[test]
    fn unmatched_enter_is_closed_at_session_end() {
        let mut t = EventTrace::new();
        t.push(EventRecord::new(10, Direction::Enter, "E"));
        t.push(EventRecord::new(50, Direction::Enter, "F"));
        t.push(EventRecord::new(60, Direction::Exit, "F"));
        let inst = t.pair_instances();
        assert_eq!(inst[0].end_ms, 60);
    }

    #[test]
    fn stray_exit_is_dropped_lenient_and_error_strict() {
        let mut t = EventTrace::new();
        t.push(EventRecord::new(10, Direction::Exit, "E"));
        assert!(t.pair_instances().is_empty());
        assert!(matches!(
            t.pair_instances_strict(),
            Err(TraceError::UnmatchedExit { .. })
        ));
    }

    #[test]
    fn validate_catches_out_of_order() {
        let mut t = EventTrace::new();
        t.push(EventRecord::new(10, Direction::Enter, "E"));
        t.push(EventRecord::new(5, Direction::Exit, "E"));
        assert_eq!(t.validate(), Err(TraceError::OutOfOrder { index: 1 }));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            EventTrace::from_log("not a log line"),
            Err(TraceError::ParseLine { line: 1, .. })
        ));
        assert!(matches!(
            EventTrace::from_log("123 ? LA;->x"),
            Err(TraceError::ParseLine { .. })
        ));
        assert!(matches!(
            EventTrace::from_log("123 +"),
            Err(TraceError::ParseLine { .. })
        ));
    }

    #[test]
    fn midpoint_is_within_interval() {
        let i = EventInstance::new("E", 10, 20);
        assert_eq!(i.midpoint_ms(), 15);
        let zero = EventInstance::new("E", 7, 7);
        assert_eq!(zero.midpoint_ms(), 7);
    }

    #[test]
    fn collect_and_extend() {
        let records = vec![
            EventRecord::new(1, Direction::Enter, "E"),
            EventRecord::new(2, Direction::Exit, "E"),
        ];
        let mut t: EventTrace = records.clone().into_iter().collect();
        t.extend(records);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn empty_log_parses_to_empty_trace() {
        let t = EventTrace::from_log("\n\n").unwrap();
        assert!(t.is_empty());
        assert!(t.pair_instances().is_empty());
    }
}
