//! Analysis input: per-user traces of powered event instances.
//!
//! Step 1 of the analysis produces, for every collected trace, "a
//! sequence of events with their corresponding power in the
//! chronological order". [`DiagnosisInput`] is exactly that. The
//! timestamp join itself is [`energydx_trace::join::join_power`];
//! [`DiagnosisInput::from_traces`] applies it to raw
//! (event trace, power trace) pairs.

use energydx_trace::event::EventTrace;
use energydx_trace::join::{join_power, PoweredInstance};
use energydx_trace::power::PowerTrace;

/// The input to the 5-step analysis: one chronologically ordered
/// sequence of powered event instances per collected user trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiagnosisInput {
    traces: Vec<Vec<PoweredInstance>>,
}

impl DiagnosisInput {
    /// Wraps pre-joined traces.
    pub fn new(traces: Vec<Vec<PoweredInstance>>) -> Self {
        DiagnosisInput { traces }
    }

    /// Step 1: joins each `(events, power)` pair by timestamp. Power
    /// traces are expected to be already scaled to a common reference
    /// device (see `energydx_powermodel::scale_trace`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx::DiagnosisInput;
    /// # use energydx_trace::event::{Direction, EventRecord, EventTrace};
    /// # use energydx_trace::power::{PowerSample, PowerTrace};
    /// # use energydx_trace::util::Component;
    /// let mut events = EventTrace::new();
    /// events.push(EventRecord::new(0, Direction::Enter, "LA;->onResume"));
    /// events.push(EventRecord::new(600, Direction::Exit, "LA;->onResume"));
    /// let mut power = PowerTrace::new();
    /// let mut s = PowerSample::new(500);
    /// s.set_component(Component::Cpu, 150.0);
    /// power.push(s);
    /// let input = DiagnosisInput::from_traces(&[(events, power)]);
    /// assert_eq!(input.traces()[0][0].power_mw, 150.0);
    /// ```
    pub fn from_traces(pairs: &[(EventTrace, PowerTrace)]) -> Self {
        let traces = pairs
            .iter()
            .map(|(events, power)| {
                let mut instances = events.pair_instances();
                // Chronological order of entry, as the paper plots.
                instances.sort_by_key(|i| i.start_ms);
                join_power(instances, power)
            })
            .collect();
        DiagnosisInput { traces }
    }

    /// The joined traces.
    pub fn traces(&self) -> &[Vec<PoweredInstance>] {
        &self.traces
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether there are no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total instances across traces.
    pub fn instance_count(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }

    /// Per-trace count of non-finite (`NaN`/infinite) power values.
    /// Corrupt utilization samples — a bit-flipped float that survived
    /// a v1 decode, say — surface here before they can poison the
    /// group statistics.
    pub fn non_finite_counts(&self) -> Vec<usize> {
        self.traces
            .iter()
            .map(|trace| {
                trace.iter().filter(|p| !p.power_mw.is_finite()).count()
            })
            .collect()
    }

    /// Returns a copy with every trace containing non-finite power
    /// emptied out, plus `(index, non_finite_count)` for each such
    /// trace. Emptied traces keep their slot so downstream results
    /// stay parallel to the original input.
    pub fn sanitized(&self) -> (DiagnosisInput, Vec<(usize, usize)>) {
        let counts = self.non_finite_counts();
        let skipped: Vec<(usize, usize)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        if skipped.is_empty() {
            return (self.clone(), skipped);
        }
        let traces = self
            .traces
            .iter()
            .zip(&counts)
            .map(|(trace, &c)| if c > 0 { Vec::new() } else { trace.clone() })
            .collect();
        (DiagnosisInput { traces }, skipped)
    }

    /// Distinct event identifiers across all traces, sorted.
    pub fn event_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .traces
            .iter()
            .flatten()
            .map(|p| p.instance.event.clone())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx_trace::event::{Direction, EventInstance, EventRecord};
    use energydx_trace::power::PowerSample;
    use energydx_trace::util::Component;

    fn powered(event: &str, start: u64, mw: f64) -> PoweredInstance {
        PoweredInstance {
            instance: EventInstance::new(event, start, start + 10),
            power_mw: mw,
        }
    }

    #[test]
    fn event_keys_dedupe_across_traces() {
        let input = DiagnosisInput::new(vec![
            vec![powered("A", 0, 1.0), powered("B", 10, 2.0)],
            vec![powered("B", 0, 3.0)],
        ]);
        assert_eq!(input.event_keys(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(input.instance_count(), 3);
        assert_eq!(input.len(), 2);
    }

    #[test]
    fn from_traces_orders_instances_chronologically() {
        let mut events = EventTrace::new();
        // Nested callbacks: outer starts first but exits last.
        events.push(EventRecord::new(0, Direction::Enter, "Outer"));
        events.push(EventRecord::new(5, Direction::Enter, "Inner"));
        events.push(EventRecord::new(10, Direction::Exit, "Inner"));
        events.push(EventRecord::new(20, Direction::Exit, "Outer"));
        let mut power = PowerTrace::new();
        let mut s = PowerSample::new(10);
        s.set_component(Component::Cpu, 42.0);
        power.push(s);
        let input = DiagnosisInput::from_traces(&[(events, power)]);
        let trace = &input.traces()[0];
        assert_eq!(trace[0].instance.event, "Outer");
        assert_eq!(trace[1].instance.event, "Inner");
        assert!(trace.iter().all(|p| p.power_mw == 42.0));
    }

    #[test]
    fn empty_input_is_empty() {
        let input = DiagnosisInput::default();
        assert!(input.is_empty());
        assert_eq!(input.instance_count(), 0);
        assert!(input.event_keys().is_empty());
    }
}
