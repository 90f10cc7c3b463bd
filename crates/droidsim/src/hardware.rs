//! Hardware state: a per-component utilization timeline.
//!
//! The simulator records every power-relevant activity as a utilization
//! interval `(start, end, level)` on a microsecond timeline, one lane
//! per hardware component. The 500 ms procfs sampler (in
//! `energydx-powermodel`) reads mean utilization per window from this
//! timeline — the same information the paper's background service reads
//! from procfs for the suspect app's PID.

use energydx_trace::util::Component;
use std::collections::BTreeMap;

/// One utilization interval on a component lane.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    start_us: u64,
    end_us: u64,
    level: f64,
}

/// Per-component utilization intervals over a session.
///
/// Overlapping intervals on the same lane add up, clamped to 1.0 at
/// query time (two half-loaded tasks saturate a core; a GPS hold plus a
/// GPS burst is still just "GPS on").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    lanes: BTreeMap<Component, Vec<Span>>,
    end_us: u64,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Adds a utilization interval. Zero-length or zero-level intervals
    /// are ignored. `level` is clamped into `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_droidsim::Timeline;
    /// # use energydx_trace::util::Component;
    /// let mut t = Timeline::new();
    /// t.add(Component::Gps, 0, 1_000_000, 1.0);
    /// assert_eq!(t.mean_utilization(Component::Gps, 0, 500_000), 1.0);
    /// assert_eq!(t.mean_utilization(Component::Gps, 1_000_000, 2_000_000), 0.0);
    /// ```
    pub fn add(
        &mut self,
        component: Component,
        start_us: u64,
        end_us: u64,
        level: f64,
    ) {
        let level = level.clamp(0.0, 1.0);
        if end_us <= start_us || level == 0.0 {
            return;
        }
        self.lanes.entry(component).or_default().push(Span {
            start_us,
            end_us,
            level,
        });
        self.end_us = self.end_us.max(end_us);
    }

    /// Timestamp of the last activity on any lane (µs).
    pub fn end_us(&self) -> u64 {
        self.end_us
    }

    /// Mean utilization of `component` over `[t0_us, t1_us)`, clamping
    /// overlapping contributions to 1.0 per instant. Returns 0 for an
    /// empty window or a lane with no activity.
    pub fn mean_utilization(
        &self,
        component: Component,
        t0_us: u64,
        t1_us: u64,
    ) -> f64 {
        if t1_us <= t0_us {
            return 0.0;
        }
        let Some(spans) = self.lanes.get(&component) else {
            return 0.0;
        };
        // Sweep over the boundary points of overlapping spans within
        // the window, summing levels per segment and clamping.
        let mut points: Vec<u64> = vec![t0_us, t1_us];
        for s in spans {
            if s.end_us > t0_us && s.start_us < t1_us {
                points.push(s.start_us.max(t0_us));
                points.push(s.end_us.min(t1_us));
            }
        }
        points.sort_unstable();
        points.dedup();

        let mut integral = 0.0;
        for w in points.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= a {
                continue;
            }
            let mid = a + (b - a) / 2;
            let level: f64 = spans
                .iter()
                .filter(|s| s.start_us <= mid && mid < s.end_us)
                .map(|s| s.level)
                .sum();
            integral += level.min(1.0) * (b - a) as f64;
        }
        integral / (t1_us - t0_us) as f64
    }

    /// Number of recorded intervals across all lanes (diagnostics).
    pub fn span_count(&self) -> usize {
        self.lanes.values().map(Vec::len).sum()
    }

    /// Merges another timeline into this one (used when a session is
    /// assembled from foreground and background recorders).
    pub fn merge(&mut self, other: &Timeline) {
        for (c, spans) in &other.lanes {
            self.lanes
                .entry(*c)
                .or_default()
                .extend(spans.iter().copied());
        }
        self.end_us = self.end_us.max(other.end_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_reads_zero() {
        let t = Timeline::new();
        assert_eq!(t.mean_utilization(Component::Cpu, 0, 1000), 0.0);
        assert_eq!(t.end_us(), 0);
    }

    #[test]
    fn partial_overlap_is_prorated() {
        let mut t = Timeline::new();
        t.add(Component::Cpu, 0, 500, 1.0);
        // Half the [0,1000) window is active.
        assert!(
            (t.mean_utilization(Component::Cpu, 0, 1000) - 0.5).abs() < 1e-12
        );
    }

    #[test]
    fn overlapping_spans_add_then_clamp() {
        let mut t = Timeline::new();
        t.add(Component::Cpu, 0, 1000, 0.7);
        t.add(Component::Cpu, 0, 1000, 0.7);
        assert_eq!(t.mean_utilization(Component::Cpu, 0, 1000), 1.0);
        t.add(Component::Wifi, 0, 1000, 0.3);
        t.add(Component::Wifi, 500, 1000, 0.3);
        let m = t.mean_utilization(Component::Wifi, 0, 1000);
        assert!((m - 0.45).abs() < 1e-12, "got {m}");
    }

    #[test]
    fn zero_length_and_zero_level_are_ignored() {
        let mut t = Timeline::new();
        t.add(Component::Gps, 100, 100, 1.0);
        t.add(Component::Gps, 0, 100, 0.0);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn level_is_clamped_on_add() {
        let mut t = Timeline::new();
        t.add(Component::Audio, 0, 1000, 5.0);
        assert_eq!(t.mean_utilization(Component::Audio, 0, 1000), 1.0);
    }

    #[test]
    fn lanes_are_independent() {
        let mut t = Timeline::new();
        t.add(Component::Gps, 0, 1000, 1.0);
        assert_eq!(t.mean_utilization(Component::Cpu, 0, 1000), 0.0);
    }

    #[test]
    fn window_outside_activity_reads_zero() {
        let mut t = Timeline::new();
        t.add(Component::Cpu, 1000, 2000, 0.8);
        assert_eq!(t.mean_utilization(Component::Cpu, 0, 1000), 0.0);
        assert_eq!(t.mean_utilization(Component::Cpu, 2000, 3000), 0.0);
    }

    #[test]
    fn empty_window_reads_zero() {
        let mut t = Timeline::new();
        t.add(Component::Cpu, 0, 1000, 0.8);
        assert_eq!(t.mean_utilization(Component::Cpu, 500, 500), 0.0);
    }

    #[test]
    fn merge_combines_lanes_and_end() {
        let mut a = Timeline::new();
        a.add(Component::Cpu, 0, 1000, 0.5);
        let mut b = Timeline::new();
        b.add(Component::Gps, 500, 3000, 1.0);
        a.merge(&b);
        assert_eq!(a.end_us(), 3000);
        assert!(a.mean_utilization(Component::Gps, 500, 3000) > 0.99);
        assert!(a.mean_utilization(Component::Cpu, 0, 1000) > 0.49);
    }

    #[test]
    fn sweep_handles_many_overlaps_exactly() {
        let mut t = Timeline::new();
        // Stairs: [0,100) 0.2, [50,150) 0.2, [100,200) 0.2.
        t.add(Component::Cpu, 0, 100, 0.2);
        t.add(Component::Cpu, 50, 150, 0.2);
        t.add(Component::Cpu, 100, 200, 0.2);
        // Integral: [0,50)=0.2, [50,100)=0.4, [100,150)=0.4, [150,200)=0.2
        // mean = (10 + 20 + 20 + 10) / 200 = 0.3
        let m = t.mean_utilization(Component::Cpu, 0, 200);
        assert!((m - 0.3).abs() < 1e-12, "got {m}");
    }
}
