//! Battery lifetime estimation.
//!
//! The paper's motivation is that an ABD "consumes an unnecessarily
//! high amount of energy and causes short battery lifetime" (§I). This
//! module turns mean power draws into the user-visible quantity: hours
//! of battery life, and how many of them an ABD costs.

/// A phone battery: capacity and nominal voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Capacity in milliamp-hours.
    pub capacity_mah: f64,
    /// Nominal voltage in volts.
    pub voltage_v: f64,
}

impl Battery {
    /// The Nexus 6 battery (3220 mAh, 3.8 V nominal).
    pub fn nexus6() -> Self {
        Battery {
            capacity_mah: 3_220.0,
            voltage_v: 3.8,
        }
    }

    /// Total energy content in milliwatt-hours.
    pub fn capacity_mwh(&self) -> f64 {
        self.capacity_mah * self.voltage_v
    }

    /// Hours until empty at a constant draw of `mean_mw` milliwatts.
    /// Returns infinity for non-positive draw.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_powermodel::battery::Battery;
    /// let b = Battery::nexus6();
    /// // A phone averaging ~700 mW lasts around 17.5 hours.
    /// let hours = b.lifetime_hours(700.0);
    /// assert!((17.0..18.0).contains(&hours));
    /// ```
    pub fn lifetime_hours(&self, mean_mw: f64) -> f64 {
        if mean_mw <= 0.0 {
            return f64::INFINITY;
        }
        self.capacity_mwh() / mean_mw
    }

    /// Battery percentage drained per hour at a constant draw.
    pub fn drain_pct_per_hour(&self, mean_mw: f64) -> f64 {
        (mean_mw.max(0.0) / self.capacity_mwh()) * 100.0
    }

    /// Hours of battery life an ABD costs, given the phone's baseline
    /// draw and the app's extra draw caused by the ABD: the difference
    /// between lifetime without and with the anomaly.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_powermodel::battery::Battery;
    /// let b = Battery::nexus6();
    /// // A 400 mW GPS leak on top of a 300 mW baseline roughly halves
    /// // standby life.
    /// let lost = b.lifetime_lost_hours(300.0, 400.0);
    /// assert!(lost > 20.0);
    /// ```
    pub fn lifetime_lost_hours(
        &self,
        baseline_mw: f64,
        abd_extra_mw: f64,
    ) -> f64 {
        let without = self.lifetime_hours(baseline_mw);
        let with = self.lifetime_hours(baseline_mw + abd_extra_mw.max(0.0));
        if without.is_infinite() {
            return f64::INFINITY;
        }
        without - with
    }
}

impl Default for Battery {
    fn default() -> Self {
        Battery::nexus6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_volt_amp_hours() {
        let b = Battery::nexus6();
        assert!((b.capacity_mwh() - 12_236.0).abs() < 1.0);
    }

    #[test]
    fn lifetime_is_inverse_in_power() {
        let b = Battery::nexus6();
        let at_500 = b.lifetime_hours(500.0);
        let at_1000 = b.lifetime_hours(1_000.0);
        assert!((at_500 / at_1000 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_draw_lasts_forever() {
        assert!(Battery::nexus6().lifetime_hours(0.0).is_infinite());
        assert!(Battery::nexus6().lifetime_hours(-5.0).is_infinite());
    }

    #[test]
    fn drain_percentage_complements_lifetime() {
        let b = Battery::nexus6();
        let mw = 611.8;
        let pct_per_hour = b.drain_pct_per_hour(mw);
        let hours = b.lifetime_hours(mw);
        assert!((pct_per_hour * hours - 100.0).abs() < 1e-6);
    }

    #[test]
    fn abd_cost_is_positive_and_monotone() {
        let b = Battery::nexus6();
        let small = b.lifetime_lost_hours(300.0, 100.0);
        let large = b.lifetime_lost_hours(300.0, 400.0);
        assert!(small > 0.0);
        assert!(large > small);
        assert_eq!(b.lifetime_lost_hours(300.0, 0.0), 0.0);
    }
}
