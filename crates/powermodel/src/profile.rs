//! Device power profiles: per-component coefficients.
//!
//! A profile gives, for each hardware component, the app-attributable
//! power draw in milliwatts when the component runs at full utilization
//! for the app. Coefficients are in the range published for the
//! PowerTutor model's reference handsets and the Nexus-class phones the
//! paper measures with a Monsoon monitor.

use energydx_trace::util::Component;

/// Per-component power coefficients of one phone model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Profile name (matches `TraceBundle::device`).
    pub name: String,
    coefficients_mw: [f64; 6],
    /// Residual app-attributed power while the app process is alive (mW).
    pub base_mw: f64,
}

impl DeviceProfile {
    /// Builds a custom profile.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_powermodel::DeviceProfile;
    /// # use energydx_trace::util::Component;
    /// let p = DeviceProfile::new("custom", 10.0)
    ///     .with_coefficient(Component::Cpu, 900.0);
    /// assert_eq!(p.coefficient(Component::Cpu), 900.0);
    /// ```
    pub fn new(name: impl Into<String>, base_mw: f64) -> Self {
        DeviceProfile {
            name: name.into(),
            coefficients_mw: [0.0; 6],
            base_mw: base_mw.max(0.0),
        }
    }

    /// Sets one component's full-utilization coefficient (mW).
    pub fn with_coefficient(mut self, component: Component, mw: f64) -> Self {
        self.coefficients_mw[component as usize] = mw.max(0.0);
        self
    }

    /// The coefficient of one component (mW at utilization 1.0).
    pub fn coefficient(&self, component: Component) -> f64 {
        self.coefficients_mw[component as usize]
    }

    /// The Nexus 6 profile — the phone the paper's §IV-F overhead
    /// numbers were measured on.
    pub fn nexus6() -> Self {
        DeviceProfile::new("nexus6", 12.0)
            .with_coefficient(Component::Cpu, 1100.0)
            .with_coefficient(Component::Display, 414.0)
            .with_coefficient(Component::Wifi, 720.0)
            .with_coefficient(Component::Gps, 429.0)
            .with_coefficient(Component::Cellular, 800.0)
            .with_coefficient(Component::Audio, 384.0)
    }

    /// A Nexus 5-class profile (smaller display, weaker radios).
    pub fn nexus5() -> Self {
        DeviceProfile::new("nexus5", 10.0)
            .with_coefficient(Component::Cpu, 950.0)
            .with_coefficient(Component::Display, 350.0)
            .with_coefficient(Component::Wifi, 650.0)
            .with_coefficient(Component::Gps, 400.0)
            .with_coefficient(Component::Cellular, 720.0)
            .with_coefficient(Component::Audio, 330.0)
    }

    /// A Galaxy-S5-class profile (AMOLED display dominates).
    pub fn galaxy_s5() -> Self {
        DeviceProfile::new("galaxy_s5", 14.0)
            .with_coefficient(Component::Cpu, 1250.0)
            .with_coefficient(Component::Display, 520.0)
            .with_coefficient(Component::Wifi, 700.0)
            .with_coefficient(Component::Gps, 445.0)
            .with_coefficient(Component::Cellular, 830.0)
            .with_coefficient(Component::Audio, 360.0)
    }

    /// Looks up a built-in profile by name (the `device` field of a
    /// trace bundle). Unknown names fall back to the Nexus 6.
    pub fn by_name(name: &str) -> Self {
        match name {
            "nexus5" => DeviceProfile::nexus5(),
            "galaxy_s5" => DeviceProfile::galaxy_s5(),
            _ => DeviceProfile::nexus6(),
        }
    }

    /// All built-in profiles.
    pub fn builtin() -> Vec<Self> {
        vec![
            DeviceProfile::nexus6(),
            DeviceProfile::nexus5(),
            DeviceProfile::galaxy_s5(),
        ]
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::nexus6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_have_positive_coefficients() {
        for p in DeviceProfile::builtin() {
            for c in Component::ALL {
                assert!(
                    p.coefficient(c) > 0.0,
                    "{} {c} must be positive",
                    p.name
                );
            }
            assert!(p.base_mw > 0.0);
        }
    }

    #[test]
    fn by_name_resolves_and_falls_back() {
        assert_eq!(DeviceProfile::by_name("nexus5").name, "nexus5");
        assert_eq!(DeviceProfile::by_name("galaxy_s5").name, "galaxy_s5");
        assert_eq!(DeviceProfile::by_name("unknown-phone").name, "nexus6");
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let p = DeviceProfile::new("x", -5.0)
            .with_coefficient(Component::Cpu, -1.0);
        assert_eq!(p.base_mw, 0.0);
        assert_eq!(p.coefficient(Component::Cpu), 0.0);
    }

    #[test]
    fn profiles_differ_across_devices() {
        let a = DeviceProfile::nexus6();
        let b = DeviceProfile::galaxy_s5();
        assert_ne!(
            a.coefficient(Component::Display),
            b.coefficient(Component::Display)
        );
    }
}
