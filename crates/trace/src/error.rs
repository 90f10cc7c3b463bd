//! Error type for trace parsing, pairing, and wire encoding.

use std::error::Error;
use std::fmt;

/// Error type for the `energydx-trace` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A text log line did not match the Fig.-5 format.
    ParseLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// An exit record appeared without a matching enter record.
    UnmatchedExit {
        /// The event identifier.
        event: String,
        /// The exit timestamp.
        timestamp_ms: u64,
    },
    /// The wire payload was truncated or corrupt.
    Wire {
        /// What was wrong.
        message: String,
    },
    /// Records were not in non-decreasing timestamp order.
    OutOfOrder {
        /// Index of the first out-of-order record.
        index: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ParseLine { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::UnmatchedExit {
                event,
                timestamp_ms,
            } => {
                write!(f, "exit without enter for {event} at {timestamp_ms} ms")
            }
            TraceError::Wire { message } => {
                write!(f, "wire format error: {message}")
            }
            TraceError::OutOfOrder { index } => {
                write!(f, "record {index} is out of timestamp order")
            }
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = TraceError::UnmatchedExit {
            event: "LA;->onPause".into(),
            timestamp_ms: 42,
        };
        assert!(e.to_string().contains("LA;->onPause"));
        assert!(e.to_string().contains("42"));
    }
}
