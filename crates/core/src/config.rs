//! Tunable parameters of the manifestation analysis.

/// Parameters of the 5-step analysis. The defaults are the paper's
/// published choices; §III-A notes they were "decided through
/// experiments" and "can be adjusted for different training sets",
/// hence a config struct rather than constants.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Percentile of an event group used as the normalization base
    /// (Step 3). Paper: 10.
    pub base_percentile: f64,
    /// Floor for the normalization base in milliwatts, guarding
    /// against division by (near-)zero for events whose idle power
    /// rounds to 0.
    pub min_base_mw: f64,
    /// Robustness guard for the normalization base: the base is at
    /// least this fraction of the event group's *median* power. When a
    /// few instances of an event land in an aberrant context (e.g. an
    /// `onResume` immediately followed by backgrounding, whose
    /// attributed power is idle-level), the raw 10th percentile can
    /// collapse to that low mode and inflate every normal instance;
    /// the guard keeps the base anchored to the group's typical value.
    /// Set to 0 to reproduce the paper's raw percentile exactly.
    pub base_guard_fraction: f64,
    /// Tukey fence multiplier `k` in `Q3 + k·IQR` (Step 4). Paper: 3
    /// (the "upper outer fence").
    pub fence_k: f64,
    /// Minimum amount by which an amplitude must exceed the fence to
    /// be reported, guarding the degenerate `IQR == 0` case of flat
    /// normalized traces.
    pub min_fence_excess: f64,
    /// Detection smoothing: half-width of the windowed-median used by
    /// the *sustained* variation amplitude (see
    /// [`crate::amplitude::sustained_amplitudes`]). A real
    /// manifestation is a level shift, not a one-instance spike; the
    /// windowed median suppresses aberrant-context single instances.
    /// Set to 0 to detect on the paper's raw run-difference amplitude.
    pub sustained_window: usize,
    /// Manifestation window half-width in events (Step 5).
    pub window: usize,
    /// Number of events reported to the developer (Table II shows the
    /// "first six events").
    pub top_k: usize,
    /// The developer-estimated fraction of users impacted by the ABD
    /// (Step 5 sorts reported events by distance to this; K9 Mail used
    /// 15 %).
    pub developer_fraction: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            base_percentile: 10.0,
            min_base_mw: 1.0,
            base_guard_fraction: 0.5,
            fence_k: 3.0,
            min_fence_excess: 3.5,
            sustained_window: 3,
            window: 5,
            top_k: 6,
            developer_fraction: 0.15,
        }
    }
}

impl AnalysisConfig {
    /// Sets the developer-reported impacted-user fraction (clamped to
    /// `[0, 1]`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx::AnalysisConfig;
    /// let c = AnalysisConfig::default().with_developer_fraction(0.15);
    /// assert_eq!(c.developer_fraction, 0.15);
    /// ```
    pub fn with_developer_fraction(mut self, fraction: f64) -> Self {
        self.developer_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the manifestation window half-width.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the Tukey fence multiplier.
    pub fn with_fence_k(mut self, k: f64) -> Self {
        self.fence_k = k.max(0.0);
        self
    }

    /// Sets the normalization base percentile (clamped to `[0, 100]`).
    pub fn with_base_percentile(mut self, p: f64) -> Self {
        self.base_percentile = p.clamp(0.0, 100.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AnalysisConfig::default();
        assert_eq!(c.base_percentile, 10.0);
        assert_eq!(c.fence_k, 3.0);
        assert_eq!(c.top_k, 6);
    }

    #[test]
    fn builders_clamp() {
        let c = AnalysisConfig::default()
            .with_developer_fraction(7.0)
            .with_base_percentile(200.0)
            .with_fence_k(-1.0);
        assert_eq!(c.developer_fraction, 1.0);
        assert_eq!(c.base_percentile, 100.0);
        assert_eq!(c.fence_k, 0.0);
    }
}
