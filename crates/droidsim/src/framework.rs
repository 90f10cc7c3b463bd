//! Power effects of framework API invocations.
//!
//! When app code invokes an energy-relevant framework API (the K9 Mail
//! manifestation point in Fig. 2 is literally `Ljava/net/Socket;->connect`),
//! hardware components light up. This module maps invocation targets to
//! transient utilization bursts. Resource *holds* (wakelock, GPS, ...)
//! are modeled separately through the `acquire`/`release` instructions.

use energydx_dexir::instr::{MethodRef, ResourceKind};
use energydx_trace::util::Component;

/// A transient hardware burst caused by one API invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// The component driven by the call.
    pub component: Component,
    /// Utilization level during the burst (0..=1).
    pub level: f64,
    /// Burst duration in microseconds.
    pub duration_us: u64,
}

impl Burst {
    /// Creates a burst.
    pub fn new(component: Component, level: f64, duration_us: u64) -> Self {
        Burst {
            component,
            level,
            duration_us,
        }
    }
}

/// One pattern rule: substring matches against the callee.
#[derive(Debug, Clone, PartialEq)]
struct EffectRule {
    class_contains: String,
    name_contains: String,
    bursts: Vec<Burst>,
}

/// The table mapping framework invocations to hardware bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkEffects {
    rules: Vec<EffectRule>,
}

impl FrameworkEffects {
    /// The standard table covering the APIs the evaluation apps use.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::instr::MethodRef;
    /// # use energydx_droidsim::FrameworkEffects;
    /// let fx = FrameworkEffects::standard();
    /// let connect = MethodRef::new("Ljava/net/Socket;", "connect", "()V");
    /// assert!(!fx.bursts_for(&connect).is_empty());
    /// let helper = MethodRef::new("Lcom/example/Util;", "format", "()V");
    /// assert!(fx.bursts_for(&helper).is_empty());
    /// ```
    pub fn standard() -> Self {
        let rule = |class: &str, name: &str, bursts: Vec<Burst>| EffectRule {
            class_contains: class.to_string(),
            name_contains: name.to_string(),
            bursts,
        };
        FrameworkEffects {
            rules: vec![
                // Network: sockets, HTTP, sync — WiFi radio plus CPU.
                rule(
                    "Ljava/net/Socket;",
                    "connect",
                    vec![
                        Burst::new(Component::Wifi, 0.9, 400_000),
                        Burst::new(Component::Cpu, 0.3, 400_000),
                    ],
                ),
                rule(
                    "Lorg/apache/http/",
                    "",
                    vec![
                        Burst::new(Component::Wifi, 0.8, 300_000),
                        Burst::new(Component::Cpu, 0.25, 300_000),
                    ],
                ),
                rule(
                    "Ljava/net/URL",
                    "open",
                    vec![
                        Burst::new(Component::Wifi, 0.8, 350_000),
                        Burst::new(Component::Cpu, 0.25, 350_000),
                    ],
                ),
                // Storage / database: CPU burst.
                rule(
                    "Landroid/database/",
                    "",
                    vec![Burst::new(Component::Cpu, 0.5, 60_000)],
                ),
                rule(
                    "Ljava/io/",
                    "",
                    vec![Burst::new(Component::Cpu, 0.35, 40_000)],
                ),
                // Rendering: CPU + display refresh.
                rule(
                    "Landroid/graphics/",
                    "",
                    vec![Burst::new(Component::Cpu, 0.4, 30_000)],
                ),
                rule(
                    "Landroid/view/",
                    "invalidate",
                    vec![Burst::new(Component::Cpu, 0.4, 30_000)],
                ),
                // Media.
                rule(
                    "Landroid/media/",
                    "",
                    vec![
                        Burst::new(Component::Audio, 0.8, 1_000_000),
                        Burst::new(Component::Cpu, 0.2, 200_000),
                    ],
                ),
                // Location one-shot reads (holds go through acquire).
                rule(
                    "Landroid/location/",
                    "getLastKnown",
                    vec![Burst::new(Component::Cpu, 0.1, 20_000)],
                ),
                // Cellular data (apps without WiFi preference).
                rule(
                    "Landroid/telephony/",
                    "",
                    vec![Burst::new(Component::Cellular, 0.8, 400_000)],
                ),
            ],
        }
    }

    /// An empty table (no invocation has hardware effects).
    pub fn none() -> Self {
        FrameworkEffects { rules: Vec::new() }
    }

    /// Adds a custom rule matching callees whose class contains
    /// `class_contains` and name contains `name_contains`.
    pub fn with_rule(
        mut self,
        class_contains: impl Into<String>,
        name_contains: impl Into<String>,
        bursts: Vec<Burst>,
    ) -> Self {
        self.rules.push(EffectRule {
            class_contains: class_contains.into(),
            name_contains: name_contains.into(),
            bursts,
        });
        self
    }

    /// The bursts triggered by invoking `target` (first matching rule).
    pub fn bursts_for(&self, target: &MethodRef) -> Vec<Burst> {
        self.rules
            .iter()
            .find(|r| {
                target.class.contains(r.class_contains.as_str())
                    && target.name.contains(r.name_contains.as_str())
            })
            .map(|r| r.bursts.clone())
            .unwrap_or_default()
    }
}

impl Default for FrameworkEffects {
    fn default() -> Self {
        FrameworkEffects::standard()
    }
}

/// The component and level a held resource keeps active, for the
/// no-sleep ABD class: a leaked GPS hold keeps the GPS lane at 1.0
/// until released (cf. Fig. 11, "GPS keeps consuming power in the
/// background").
pub fn hold_effect(kind: ResourceKind) -> (Component, f64) {
    match kind {
        ResourceKind::WakeLock => (Component::Cpu, 0.25),
        ResourceKind::Gps => (Component::Gps, 1.0),
        ResourceKind::WifiLock => (Component::Wifi, 0.5),
        ResourceKind::Sensor => (Component::Cpu, 0.15),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_connect_drives_wifi() {
        let fx = FrameworkEffects::standard();
        let bursts = fx.bursts_for(&MethodRef::new(
            "Ljava/net/Socket;",
            "connect",
            "()V",
        ));
        assert!(bursts.iter().any(|b| b.component == Component::Wifi));
        assert!(bursts.iter().any(|b| b.component == Component::Cpu));
    }

    #[test]
    fn first_matching_rule_wins() {
        let fx = FrameworkEffects::none()
            .with_rule("LA;", "", vec![Burst::new(Component::Cpu, 0.1, 10)])
            .with_rule("LA;", "f", vec![Burst::new(Component::Gps, 1.0, 10)]);
        let bursts = fx.bursts_for(&MethodRef::new("LA;", "f", "()V"));
        assert_eq!(bursts[0].component, Component::Cpu);
    }

    #[test]
    fn unknown_target_has_no_effect() {
        let fx = FrameworkEffects::standard();
        assert!(fx
            .bursts_for(&MethodRef::new("Lcom/app/Helper;", "compute", "()V"))
            .is_empty());
    }

    #[test]
    fn gps_hold_saturates_gps_lane() {
        let (c, level) = hold_effect(ResourceKind::Gps);
        assert_eq!(c, Component::Gps);
        assert_eq!(level, 1.0);
    }

    #[test]
    fn wakelock_hold_keeps_cpu_partially_awake() {
        let (c, level) = hold_effect(ResourceKind::WakeLock);
        assert_eq!(c, Component::Cpu);
        assert!(level > 0.0 && level < 1.0);
    }

    #[test]
    fn media_rule_drives_audio() {
        let fx = FrameworkEffects::standard();
        let bursts = fx.bursts_for(&MethodRef::new(
            "Landroid/media/MediaPlayer;",
            "start",
            "()V",
        ));
        assert!(bursts.iter().any(|b| b.component == Component::Audio));
    }
}
