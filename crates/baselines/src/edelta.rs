//! The eDelta baseline (Li et al., IGSC'17 \[10\]): "Pinpointing Energy
//! Deviations in Smartphone Apps via **Comparative Trace Analysis**".
//!
//! eDelta instruments APIs at fine granularity and compares their
//! energy against a normal reference execution; an API whose energy
//! rises far above its reference after the ABD manifests is flagged.
//! Our trace-level proxy keeps the decision rule: for every API event,
//! compare a high quantile of its per-instance power in the *suspect*
//! traces against the same quantile in the *reference* traces (e.g.
//! the developer's in-lab runs of the fixed or unaffected build).
//!
//! The §V limitations are preserved by construction:
//!
//! - an ABD whose per-API deviation is small — even if it lasts the
//!   whole session — stays below the threshold and goes undetected;
//! - behaviour with no instrumented API behind it (background idle
//!   drain reported by the synthetic `Idle(No_Display)` logger event)
//!   is invisible.

use energydx::pipeline::EventGroups;
use energydx::DiagnosisInput;
use energydx_dexir::MethodKey;
use energydx_stats::percentile;

/// One flagged high-deviation API event.
#[derive(Debug, Clone, PartialEq)]
pub struct EDeltaFinding {
    /// The flagged event.
    pub event: String,
    /// The measured deviation ratio (suspect quantile over reference
    /// quantile).
    pub deviation: f64,
}

/// The eDelta analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct EDelta {
    /// Deviation ratio above which an API is flagged.
    pub threshold: f64,
    /// The quantile compared between suspect and reference.
    pub high_quantile: f64,
    /// Minimum instances per group on each side; tiny groups have
    /// meaningless quantiles.
    pub min_instances: usize,
}

impl Default for EDelta {
    fn default() -> Self {
        EDelta {
            threshold: 1.52,
            high_quantile: 95.0,
            min_instances: 4,
        }
    }
}

impl EDelta {
    /// Creates the baseline with default parameters.
    pub fn new() -> Self {
        EDelta::default()
    }

    /// Flags API events whose suspect-side power deviates from the
    /// reference by more than the threshold, sorted by descending
    /// deviation.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_baselines::EDelta;
    /// # use energydx::DiagnosisInput;
    /// # use energydx_trace::event::EventInstance;
    /// # use energydx_trace::join::PoweredInstance;
    /// let mk = |mw: f64, i: u64| PoweredInstance {
    ///     instance: EventInstance::new("LA;->api", i * 1000, i * 1000 + 10),
    ///     power_mw: mw,
    /// };
    /// let reference = DiagnosisInput::new(vec![(0..20).map(|i| mk(100.0, i)).collect()]);
    /// let suspect = DiagnosisInput::new(vec![(0..20).map(|i| mk(500.0, i)).collect()]);
    /// let findings = EDelta::new().detect(&reference, &suspect);
    /// assert_eq!(findings[0].event, "LA;->api");
    /// ```
    pub fn detect(
        &self,
        reference: &DiagnosisInput,
        suspect: &DiagnosisInput,
    ) -> Vec<EDeltaFinding> {
        let ref_groups = EventGroups::collect(reference);
        let sus_groups = EventGroups::collect(suspect);
        let mut findings: Vec<EDeltaFinding> = sus_groups
            .powers
            .iter()
            // eDelta instruments *APIs*; synthetic logger events such
            // as `Idle(No_Display)` have no API behind them.
            .filter(|(event, _)| MethodKey::parse(event).is_some())
            .filter(|(_, powers)| powers.len() >= self.min_instances)
            .filter_map(|(event, suspect_powers)| {
                let reference_powers = ref_groups.powers.get(event)?;
                if reference_powers.len() < self.min_instances {
                    return None;
                }
                let ref_high = percentile(reference_powers, self.high_quantile)
                    .expect("non-empty");
                let sus_high = percentile(suspect_powers, self.high_quantile)
                    .expect("non-empty");
                let deviation = if ref_high <= 0.0 {
                    if sus_high > 0.0 {
                        f64::INFINITY
                    } else {
                        1.0
                    }
                } else {
                    sus_high / ref_high
                };
                (deviation > self.threshold).then(|| EDeltaFinding {
                    event: event.clone(),
                    deviation,
                })
            })
            .collect();
        findings.sort_by(|a, b| {
            b.deviation
                .partial_cmp(&a.deviation)
                .expect("deviations are comparable")
                .then_with(|| a.event.cmp(&b.event))
        });
        findings
    }

    /// Whether the ABD is detected at all (the §IV-B scoring:
    /// detected apps count their reduction, undetected count 0).
    pub fn detects(
        &self,
        reference: &DiagnosisInput,
        suspect: &DiagnosisInput,
    ) -> bool {
        !self.detect(reference, suspect).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx_trace::event::EventInstance;
    use energydx_trace::join::PoweredInstance;

    fn mk(e: &str, i: u64, mw: f64) -> PoweredInstance {
        PoweredInstance {
            instance: EventInstance::new(e, i * 1000, i * 1000 + 10),
            power_mw: mw,
        }
    }

    fn input_of(event: &str, powers: &[f64]) -> DiagnosisInput {
        DiagnosisInput::new(vec![powers
            .iter()
            .enumerate()
            .map(|(i, &mw)| mk(event, i as u64, mw))
            .collect()])
    }

    #[test]
    fn strong_deviation_is_detected() {
        let reference = input_of("LA;->api", &[100.0; 20]);
        let suspect = input_of(
            "LA;->api",
            &[100.0, 100.0, 100.0, 100.0, 400.0, 400.0, 400.0, 400.0],
        );
        let findings = EDelta::new().detect(&reference, &suspect);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].deviation >= 3.9);
    }

    #[test]
    fn small_but_long_deviation_is_missed() {
        // The paper's stated eDelta blind spot: +30 % for the whole
        // session — large total energy, small per-API deviation.
        let reference = input_of("LA;->api", &[100.0; 20]);
        let suspect = input_of("LA;->api", &[130.0; 20]);
        assert!(EDelta::new().detect(&reference, &suspect).is_empty());
    }

    #[test]
    fn context_variance_present_on_both_sides_cancels() {
        // Bimodal context (100/400) in both reference and suspect:
        // the comparative quantiles cancel and nothing is flagged.
        let bimodal: Vec<f64> = (0..20)
            .map(|i| if i % 4 == 0 { 400.0 } else { 100.0 })
            .collect();
        let reference = input_of("LA;->onStop", &bimodal);
        let suspect = input_of("LA;->onStop", &bimodal);
        assert!(EDelta::new().detect(&reference, &suspect).is_empty());
    }

    #[test]
    fn non_api_events_are_invisible() {
        let reference = input_of("Idle(No_Display)", &[10.0; 20]);
        let suspect = input_of("Idle(No_Display)", &[400.0; 20]);
        assert!(EDelta::new().detect(&reference, &suspect).is_empty());
    }

    #[test]
    fn events_missing_from_the_reference_are_skipped() {
        let reference = input_of("LA;->other", &[100.0; 20]);
        let suspect = input_of("LA;->api", &[900.0; 20]);
        assert!(EDelta::new().detect(&reference, &suspect).is_empty());
    }

    #[test]
    fn tiny_groups_are_ignored() {
        let reference = input_of("LA;->api", &[100.0; 20]);
        let suspect = input_of("LA;->api", &[900.0, 900.0]);
        assert!(EDelta::new().detect(&reference, &suspect).is_empty());
    }

    #[test]
    fn zero_reference_with_positive_suspect_is_infinite_deviation() {
        let reference = input_of("LA;->api", &[0.0; 10]);
        let suspect = input_of("LA;->api", &[50.0; 10]);
        let findings = EDelta::new().detect(&reference, &suspect);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].deviation.is_infinite());
    }

    #[test]
    fn findings_sorted_by_deviation() {
        let mut ref_trace =
            input_of("LA;->mild", &[100.0; 20]).traces()[0].clone();
        ref_trace
            .extend(input_of("LB;->wild", &[100.0; 20]).traces()[0].clone());
        let reference = DiagnosisInput::new(vec![ref_trace]);
        let mut sus_trace =
            input_of("LA;->mild", &[250.0; 20]).traces()[0].clone();
        sus_trace
            .extend(input_of("LB;->wild", &[900.0; 20]).traces()[0].clone());
        let suspect = DiagnosisInput::new(vec![sus_trace]);
        let findings = EDelta::new().detect(&reference, &suspect);
        assert_eq!(findings[0].event, "LB;->wild");
        assert_eq!(findings.len(), 2);
    }
}
