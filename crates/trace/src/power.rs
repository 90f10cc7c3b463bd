//! Power traces and per-component power breakdowns.
//!
//! A power trace is the output of the power model: one estimated
//! app-level power value (milliwatts) per utilization sample. The
//! per-component breakdown reproduces Figs. 11 and 14, which show e.g.
//! GPS continuing to draw power after OpenGPS goes to the background.

use crate::util::Component;

/// One power sample: total app power plus the per-component split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Milliseconds since device boot.
    pub timestamp_ms: u64,
    /// Estimated app power in milliwatts.
    pub total_mw: f64,
    breakdown: [f64; 6],
}

impl PowerSample {
    /// Creates a sample from a per-component split; the total is the
    /// sum of parts.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_trace::power::PowerSample;
    /// # use energydx_trace::util::Component;
    /// let mut s = PowerSample::new(500);
    /// s.set_component(Component::Cpu, 120.0);
    /// s.set_component(Component::Gps, 300.0);
    /// assert_eq!(s.total_mw, 420.0);
    /// ```
    pub fn new(timestamp_ms: u64) -> Self {
        PowerSample {
            timestamp_ms,
            total_mw: 0.0,
            breakdown: [0.0; 6],
        }
    }

    /// Power attributed to one component (mW).
    pub fn component(&self, c: Component) -> f64 {
        self.breakdown[c as usize]
    }

    /// Sets one component's power (mW, non-negative) and updates the
    /// total.
    pub fn set_component(&mut self, c: Component, mw: f64) {
        let mw = mw.max(0.0);
        self.breakdown[c as usize] = mw;
        self.total_mw = self.breakdown.iter().sum();
    }
}

/// A sequence of power samples for one session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    samples: Vec<PowerSample>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// Appends a sample (timestamps must be non-decreasing for
    /// [`PowerTrace::mean_between`] to be meaningful).
    pub fn push(&mut self, sample: PowerSample) {
        debug_assert!(
            self.samples
                .last()
                .is_none_or(|l| sample.timestamp_ms >= l.timestamp_ms),
            "power samples must be appended in timestamp order"
        );
        self.samples.push(sample);
    }

    /// The samples in order.
    pub fn samples(&self) -> &[PowerSample] {
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

    /// Mean total power over the whole trace (0 if empty).
    pub fn mean_mw(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.total_mw).sum::<f64>()
            / self.samples.len() as f64
    }

    /// Mean total power of the samples with `start_ms <= t <= end_ms`,
    /// or `None` when no sample falls in the window.
    pub fn mean_between(&self, start_ms: u64, end_ms: u64) -> Option<f64> {
        let lo = self.samples.partition_point(|s| s.timestamp_ms < start_ms);
        let hi = self.samples.partition_point(|s| s.timestamp_ms <= end_ms);
        if lo >= hi {
            return None;
        }
        let slice = &self.samples[lo..hi];
        Some(slice.iter().map(|s| s.total_mw).sum::<f64>() / slice.len() as f64)
    }

    /// The sample nearest in time to `t`, or `None` for an empty trace.
    pub fn nearest(&self, t: u64) -> Option<&PowerSample> {
        if self.samples.is_empty() {
            return None;
        }
        let idx = self.samples.partition_point(|s| s.timestamp_ms < t);
        let candidates = [idx.checked_sub(1), Some(idx)];
        candidates
            .into_iter()
            .flatten()
            .filter_map(|i| self.samples.get(i))
            .min_by_key(|s| s.timestamp_ms.abs_diff(t))
    }

    /// Mean per-component breakdown of the samples with
    /// `start_ms <= t <= end_ms` (Figs. 11/14). Empty window → all-zero.
    pub fn breakdown_between(
        &self,
        start_ms: u64,
        end_ms: u64,
    ) -> PowerBreakdown {
        let lo = self.samples.partition_point(|s| s.timestamp_ms < start_ms);
        let hi = self.samples.partition_point(|s| s.timestamp_ms <= end_ms);
        let mut out = PowerBreakdown::default();
        if lo >= hi {
            return out;
        }
        let slice = &self.samples[lo..hi];
        for c in Component::ALL {
            let mean = slice.iter().map(|s| s.component(c)).sum::<f64>()
                / slice.len() as f64;
            out.set(c, mean);
        }
        out
    }
}

impl FromIterator<PowerSample> for PowerTrace {
    fn from_iter<T: IntoIterator<Item = PowerSample>>(iter: T) -> Self {
        let mut t = PowerTrace::new();
        for s in iter {
            t.push(s);
        }
        t
    }
}

/// Mean power per component over a window, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    mw: [f64; 6],
}

impl PowerBreakdown {
    /// Power of one component (mW).
    pub fn get(&self, c: Component) -> f64 {
        self.mw[c as usize]
    }

    /// Sets one component's power (mW).
    pub fn set(&mut self, c: Component, mw: f64) {
        self.mw[c as usize] = mw.max(0.0);
    }

    /// Total across components (mW).
    pub fn total_mw(&self) -> f64 {
        self.mw.iter().sum()
    }

    /// `(component, mW)` pairs sorted by descending power — the order
    /// a Fig.-11-style stacked chart would list them.
    pub fn ranked(&self) -> Vec<(Component, f64)> {
        let mut v: Vec<(Component, f64)> = Component::ALL
            .into_iter()
            .map(|c| (c, self.get(c)))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("power is never NaN"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64, cpu: f64, gps: f64) -> PowerSample {
        let mut s = PowerSample::new(ts);
        s.set_component(Component::Cpu, cpu);
        s.set_component(Component::Gps, gps);
        s
    }

    #[test]
    fn total_tracks_breakdown() {
        let s = sample(0, 100.0, 250.0);
        assert_eq!(s.total_mw, 350.0);
        assert_eq!(s.component(Component::Cpu), 100.0);
    }

    #[test]
    fn negative_component_power_is_clamped() {
        let mut s = PowerSample::new(0);
        s.set_component(Component::Audio, -5.0);
        assert_eq!(s.total_mw, 0.0);
    }

    #[test]
    fn mean_between_uses_inclusive_window() {
        let t: PowerTrace = (0..5)
            .map(|i| sample(i * 500, 100.0 * i as f64, 0.0))
            .collect();
        // Samples at 500 and 1000 → (100 + 200)/2.
        assert_eq!(t.mean_between(500, 1000), Some(150.0));
        assert_eq!(t.mean_between(501, 999), None);
        assert_eq!(t.mean_between(0, 10_000), Some(t.mean_mw()));
    }

    #[test]
    fn nearest_picks_closest_side() {
        let t: PowerTrace = [sample(0, 1.0, 0.0), sample(1000, 2.0, 0.0)]
            .into_iter()
            .collect();
        assert_eq!(t.nearest(400).unwrap().timestamp_ms, 0);
        assert_eq!(t.nearest(600).unwrap().timestamp_ms, 1000);
        assert_eq!(t.nearest(5000).unwrap().timestamp_ms, 1000);
        assert!(PowerTrace::new().nearest(0).is_none());
    }

    #[test]
    fn breakdown_between_averages_components() {
        let t: PowerTrace =
            [sample(0, 100.0, 300.0), sample(500, 200.0, 300.0)]
                .into_iter()
                .collect();
        let b = t.breakdown_between(0, 500);
        assert_eq!(b.get(Component::Cpu), 150.0);
        assert_eq!(b.get(Component::Gps), 300.0);
        assert_eq!(b.total_mw(), 450.0);
        // GPS dominates, as in Fig. 11.
        assert_eq!(b.ranked()[0].0, Component::Gps);
    }

    #[test]
    fn breakdown_of_empty_window_is_zero() {
        let t = PowerTrace::new();
        assert_eq!(t.breakdown_between(0, 100).total_mw(), 0.0);
    }

    #[test]
    fn mean_of_empty_trace_is_zero() {
        assert_eq!(PowerTrace::new().mean_mw(), 0.0);
    }
}
