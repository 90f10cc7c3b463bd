//! The No-sleep Detection baseline (Pathak et al., MobiSys'12 \[9\]).
//!
//! Static dataflow analysis over app bytecode: a *no-sleep bug* is a
//! power-relevant resource that some callback may leave held at exit
//! while no teardown callback of the app ever releases it — the phone
//! can then go to "sleep" with the resource still active. The analysis
//! is flow-sensitive within methods (via
//! [`energydx_dexir::dataflow::leaked_at_exit`]) and conservative
//! across callbacks.
//!
//! Scope limits (the paper's point in §IV-B): only the **no-sleep**
//! ABD class is detectable, and only when the acquisition is visible
//! in bytecode — dynamically registered leaks and loop/configuration
//! ABDs produce no findings.

use energydx_dexir::dataflow::leaked_at_exit;
use energydx_dexir::instr::ResourceKind;
use energydx_dexir::module::{MethodKey, Module};
use energydx_dexir::DexError;
use std::collections::BTreeSet;

/// Teardown callbacks in which a release "counts" as correct cleanup.
const TEARDOWN_CALLBACKS: [&str; 4] =
    ["onPause", "onStop", "onDestroy", "onUnbind"];

/// One detected no-sleep bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSleepBug {
    /// The callback that may exit with the resource held.
    pub acquiring_method: MethodKey,
    /// The leaked resource.
    pub resource: ResourceKind,
}

/// Runs the analysis over a whole app package.
///
/// # Errors
///
/// Returns [`DexError`] when a method body is malformed.
///
/// # Examples
///
/// ```
/// # use energydx_baselines::detect_no_sleep;
/// # use energydx_dexir::{Class, ComponentKind, Module};
/// # use energydx_dexir::module::Method;
/// # use energydx_dexir::instr::{Instruction, ResourceKind};
/// let mut m = Module::new("x");
/// let mut c = Class::new("LA;", ComponentKind::Activity);
/// let mut cb = Method::new("onResume", "()V");
/// cb.body = vec![
///     Instruction::AcquireResource { kind: ResourceKind::Gps },
///     Instruction::ReturnVoid,
/// ];
/// c.methods.push(cb);
/// m.add_class(c)?;
/// let bugs = detect_no_sleep(&m)?;
/// assert_eq!(bugs.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn detect_no_sleep(module: &Module) -> Result<Vec<NoSleepBug>, DexError> {
    // Resources released in any teardown callback anywhere in the app:
    // released there, the resource cannot outlive the component.
    let mut released_in_teardown: BTreeSet<ResourceKind> = BTreeSet::new();
    for class in module.classes.values() {
        for method in &class.methods {
            if TEARDOWN_CALLBACKS.contains(&method.name.as_str()) {
                released_in_teardown.extend(method.released_resources());
            }
        }
    }

    let mut bugs = Vec::new();
    for class in module.classes.values() {
        for method in &class.methods {
            let leaked = leaked_at_exit(method)?;
            for resource in leaked.iter() {
                if !released_in_teardown.contains(&resource) {
                    bugs.push(NoSleepBug {
                        acquiring_method: MethodKey::new(
                            class.name.clone(),
                            method.name.clone(),
                        ),
                        resource,
                    });
                }
            }
        }
    }
    Ok(bugs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx_dexir::instr::Instruction;
    use energydx_dexir::module::{Class, ComponentKind, Method};
    use energydx_workload::fleet;
    use energydx_workload::FaultClass;

    fn method(name: &str, body: Vec<Instruction>) -> Method {
        let mut m = Method::new(name, "()V");
        m.body = body;
        m
    }

    fn app(
        resume_body: Vec<Instruction>,
        pause_body: Vec<Instruction>,
    ) -> Module {
        let mut module = Module::new("x");
        let mut class = Class::new("LA;", ComponentKind::Activity);
        class.methods.push(method("onResume", resume_body));
        class.methods.push(method("onPause", pause_body));
        module.add_class(class).unwrap();
        module
    }

    #[test]
    fn leak_without_teardown_release_is_a_bug() {
        let module = app(
            vec![
                Instruction::AcquireResource {
                    kind: ResourceKind::WakeLock,
                },
                Instruction::ReturnVoid,
            ],
            vec![Instruction::ReturnVoid],
        );
        let bugs = detect_no_sleep(&module).unwrap();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].resource, ResourceKind::WakeLock);
        assert_eq!(bugs[0].acquiring_method.name, "onResume");
    }

    #[test]
    fn release_in_teardown_suppresses_the_bug() {
        let module = app(
            vec![
                Instruction::AcquireResource {
                    kind: ResourceKind::WakeLock,
                },
                Instruction::ReturnVoid,
            ],
            vec![
                Instruction::ReleaseResource {
                    kind: ResourceKind::WakeLock,
                },
                Instruction::ReturnVoid,
            ],
        );
        assert!(detect_no_sleep(&module).unwrap().is_empty());
    }

    #[test]
    fn balanced_acquire_release_within_method_is_clean() {
        let module = app(
            vec![
                Instruction::AcquireResource {
                    kind: ResourceKind::Gps,
                },
                Instruction::ReleaseResource {
                    kind: ResourceKind::Gps,
                },
                Instruction::ReturnVoid,
            ],
            vec![Instruction::ReturnVoid],
        );
        assert!(detect_no_sleep(&module).unwrap().is_empty());
    }

    #[test]
    fn teardown_release_of_other_resource_does_not_help() {
        let module = app(
            vec![
                Instruction::AcquireResource {
                    kind: ResourceKind::Gps,
                },
                Instruction::ReturnVoid,
            ],
            vec![
                Instruction::ReleaseResource {
                    kind: ResourceKind::WakeLock,
                },
                Instruction::ReturnVoid,
            ],
        );
        assert_eq!(detect_no_sleep(&module).unwrap().len(), 1);
    }

    #[test]
    fn fleet_static_nosleep_apps_are_detected() {
        for fleet_app in fleet().iter().filter(|a| {
            a.cause == FaultClass::NoSleep
                && !a.dynamic_leak
                && ![3, 18, 28].contains(&a.id)
        }) {
            let s = fleet_app.scenario();
            let bugs = detect_no_sleep(&s.faulty_module()).unwrap();
            assert!(!bugs.is_empty(), "{} must be detected", fleet_app.name);
            // The fixed build is clean.
            let fixed = detect_no_sleep(&s.fixed_module()).unwrap();
            assert!(fixed.is_empty(), "{} fix must pass", fleet_app.name);
        }
    }

    #[test]
    fn fleet_dynamic_leaks_are_missed() {
        for fleet_app in fleet().iter().filter(|a| a.dynamic_leak) {
            let s = fleet_app.scenario();
            assert!(
                detect_no_sleep(&s.faulty_module()).unwrap().is_empty(),
                "{} leak is dynamic and must be invisible",
                fleet_app.name
            );
        }
    }

    #[test]
    fn loop_and_configuration_apps_produce_no_findings() {
        for fleet_app in fleet().iter().filter(|a| {
            a.cause != FaultClass::NoSleep && ![3, 18, 28].contains(&a.id)
        }) {
            let s = fleet_app.scenario();
            assert!(
                detect_no_sleep(&s.faulty_module()).unwrap().is_empty(),
                "{} has no no-sleep bug",
                fleet_app.name
            );
        }
    }
}
