//! Utilization traces: periodic per-app hardware utilization samples.
//!
//! The paper's background service reads procfs every 500 ms and records
//! the utilization of each hardware component attributed to the suspect
//! app (identified by PID, so concurrent apps do not pollute the
//! numbers). A sample holds one value per component; the power model
//! turns samples into watts.

/// The hardware components tracked by the utilization sampler.
///
/// The set matches the components of the PowerTutor-style model the
/// paper builds on (§II-C): CPU, display, WiFi, GPS, cellular, audio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// CPU load attributed to the app (0..=1 per core-normalized).
    Cpu,
    /// Display on/brightness attribution (0..=1).
    Display,
    /// WiFi radio activity (0..=1; 1 = continuous transmit).
    Wifi,
    /// GPS receiver duty cycle (0..=1).
    Gps,
    /// Cellular radio activity (0..=1).
    Cellular,
    /// Audio output (0..=1).
    Audio,
}

impl Component {
    /// All components, for iteration.
    pub const ALL: [Component; 6] = [
        Component::Cpu,
        Component::Display,
        Component::Wifi,
        Component::Gps,
        Component::Cellular,
        Component::Audio,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Component::Cpu => "cpu",
            Component::Display => "display",
            Component::Wifi => "wifi",
            Component::Gps => "gps",
            Component::Cellular => "cellular",
            Component::Audio => "audio",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One 500 ms utilization sample: a value in `[0, 1]` per component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilizationSample {
    /// Milliseconds since device boot.
    pub timestamp_ms: u64,
    utilization: [f64; 6],
}

impl UtilizationSample {
    /// Creates an all-idle sample at a timestamp.
    pub fn new(timestamp_ms: u64) -> Self {
        UtilizationSample {
            timestamp_ms,
            utilization: [0.0; 6],
        }
    }

    /// The utilization of one component, in `[0, 1]`.
    pub fn get(&self, component: Component) -> f64 {
        self.utilization[component as usize]
    }

    /// Sets a component's utilization, clamped into `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_trace::util::{Component, UtilizationSample};
    /// let mut s = UtilizationSample::new(500);
    /// s.set(Component::Cpu, 0.8);
    /// s.set(Component::Gps, 7.0); // clamped
    /// assert_eq!(s.get(Component::Cpu), 0.8);
    /// assert_eq!(s.get(Component::Gps), 1.0);
    /// ```
    pub fn set(&mut self, component: Component, value: f64) {
        self.utilization[component as usize] = value.clamp(0.0, 1.0);
    }

    /// Iterates over `(component, utilization)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Component, f64)> + '_ {
        Component::ALL.into_iter().map(move |c| (c, self.get(c)))
    }
}

/// A sequence of utilization samples for one session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationTrace {
    samples: Vec<UtilizationSample>,
    /// Sampling period; the paper uses 500 ms as the accuracy/overhead
    /// trade-off.
    pub period_ms: u64,
}

impl UtilizationTrace {
    /// Creates an empty trace with the paper's default 500 ms period.
    pub fn new() -> Self {
        UtilizationTrace {
            samples: Vec::new(),
            period_ms: 500,
        }
    }

    /// Creates an empty trace with a custom sampling period.
    pub fn with_period(period_ms: u64) -> Self {
        UtilizationTrace {
            samples: Vec::new(),
            period_ms,
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: UtilizationSample) {
        self.samples.push(sample);
    }

    /// The samples in order.
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Worst backwards displacement in the trace: how far (ms) the
    /// most out-of-place sample sits below the running maximum
    /// timestamp. Zero means the samples are already in order.
    pub fn max_displacement_ms(&self) -> u64 {
        let mut running_max = 0u64;
        let mut worst = 0u64;
        for s in &self.samples {
            if s.timestamp_ms < running_max {
                worst = worst.max(running_max - s.timestamp_ms);
            } else {
                running_max = s.timestamp_ms;
            }
        }
        worst
    }

    /// Stably re-sorts the samples into timestamp order. The power
    /// model requires non-decreasing timestamps; repair calls this
    /// for bounded disorder (a damaged sample clock) instead of
    /// rejecting the whole bundle.
    pub fn sort_by_timestamp(&mut self) {
        self.samples.sort_by_key(|s| s.timestamp_ms);
    }

    /// Mean utilization of one component across the trace (0 if empty).
    pub fn mean(&self, component: Component) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.get(component)).sum::<f64>()
            / self.samples.len() as f64
    }
}

impl FromIterator<UtilizationSample> for UtilizationTrace {
    fn from_iter<T: IntoIterator<Item = UtilizationSample>>(iter: T) -> Self {
        UtilizationTrace {
            samples: iter.into_iter().collect(),
            period_ms: 500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clamps_into_unit_interval() {
        let mut s = UtilizationSample::new(0);
        s.set(Component::Cpu, -0.5);
        assert_eq!(s.get(Component::Cpu), 0.0);
        s.set(Component::Cpu, 1.5);
        assert_eq!(s.get(Component::Cpu), 1.0);
    }

    #[test]
    fn iter_yields_all_components() {
        let s = UtilizationSample::new(0);
        assert_eq!(s.iter().count(), Component::ALL.len());
    }

    #[test]
    fn default_period_is_500ms_per_paper() {
        assert_eq!(UtilizationTrace::new().period_ms, 500);
        assert_eq!(UtilizationTrace::with_period(100).period_ms, 100);
    }

    #[test]
    fn mean_of_component() {
        let mut t = UtilizationTrace::new();
        for (ts, cpu) in [(0u64, 0.2), (500, 0.4), (1000, 0.6)] {
            let mut s = UtilizationSample::new(ts);
            s.set(Component::Cpu, cpu);
            t.push(s);
        }
        assert!((t.mean(Component::Cpu) - 0.4).abs() < 1e-12);
        assert_eq!(t.mean(Component::Gps), 0.0);
    }

    #[test]
    fn mean_of_empty_trace_is_zero() {
        assert_eq!(UtilizationTrace::new().mean(Component::Cpu), 0.0);
    }

    #[test]
    fn component_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            Component::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Component::ALL.len());
    }
}
