//! ABD fault injection: the three root-cause classes of §IV-A.
//!
//! A [`Fault`] turns a healthy app into an ABD app, and knows how to
//! produce the *fixed* variant for the Fig.-17 before/after power
//! comparison:
//!
//! - **No-sleep** — a resource acquired in one callback is never
//!   released on the teardown path. Injected *statically* (an
//!   `acquire` instruction without the matching `release` in
//!   `onPause`), which the No-sleep Detection baseline can find — or
//!   *dynamically* (via a hook), which it cannot. The paper's own
//!   Table III labels 24 apps no-sleep while its text credits the
//!   static detector with only 21; the three dynamic leaks reconcile
//!   the two numbers.
//! - **Loop** — a trigger callback starts a periodic CPU task that the
//!   teardown path fails to cancel.
//! - **Configuration** — a settings callback starts a network retry
//!   task (the K9 Mail IMAP-connection-limit story).

use crate::hooks::{HookAction, HookSet, TaskSpec};
use energydx_dexir::instr::{Instruction, ResourceKind};
use energydx_dexir::module::{MethodKey, Module};

/// The ABD root-cause class (Table III's "Root Cause" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Resource not released (`no-sleep`).
    NoSleep,
    /// Unnecessary periodic work (`loop`).
    Loop,
    /// Misconfiguration drives retries (`configuration`).
    Configuration,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::NoSleep => f.write_str("no-sleep"),
            FaultClass::Loop => f.write_str("loop"),
            FaultClass::Configuration => f.write_str("configuration"),
        }
    }
}

/// A concrete injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Static no-sleep: `acquire` injected into `trigger`'s bytecode;
    /// the matching `release` in the teardown callback exists only in
    /// the fixed variant. Visible to static dataflow analysis.
    StaticNoSleep {
        /// Callback that acquires the resource.
        trigger: MethodKey,
        /// Teardown callback that *should* release it.
        teardown: MethodKey,
        /// The leaked resource.
        resource: ResourceKind,
    },
    /// Dynamic no-sleep: the acquisition happens through a runtime
    /// hook (listener registered reflectively, say) — invisible to
    /// static analysis. The fixed variant releases in `teardown`.
    DynamicNoSleep {
        /// Callback whose hook acquires the resource.
        trigger: MethodKey,
        /// Teardown callback whose hook releases it (fixed variant).
        teardown: MethodKey,
        /// The leaked resource.
        resource: ResourceKind,
    },
    /// Loop: `trigger`'s hook starts `task`; the fixed variant cancels
    /// it in `teardown`.
    Loop {
        /// Callback that starts the periodic work.
        trigger: MethodKey,
        /// Callback that should cancel it.
        teardown: MethodKey,
        /// The periodic work.
        task: TaskSpec,
    },
    /// Configuration: `trigger`'s hook starts a retry `task`; fixing
    /// the configuration handling means the task is never started.
    Configuration {
        /// The settings callback that (mis)applies the configuration.
        trigger: MethodKey,
        /// The retry work.
        task: TaskSpec,
    },
    /// Configuration *regression*: the app always runs periodic work,
    /// but a release misreads a setting and starts the `buggy`
    /// parameterization instead of the `intended` one (the "sync
    /// interval misread as seconds" story). Unlike
    /// [`Fault::Configuration`], the fixed app still does the work —
    /// just with sane parameters — which is the shape a release-gating
    /// differential query must separate from "task removed entirely".
    ConfigBug {
        /// The callback that reads the setting and schedules the work.
        trigger: MethodKey,
        /// The correctly-parameterized task (fixed / v1 behaviour).
        intended: TaskSpec,
        /// The misparameterized task (faulty / v2 behaviour). Must
        /// share `intended`'s name so one schedule replaces the other.
        buggy: TaskSpec,
    },
}

impl Fault {
    /// The fault's root-cause class.
    pub fn class(&self) -> FaultClass {
        match self {
            Fault::StaticNoSleep { .. } | Fault::DynamicNoSleep { .. } => {
                FaultClass::NoSleep
            }
            Fault::Loop { .. } => FaultClass::Loop,
            Fault::Configuration { .. } | Fault::ConfigBug { .. } => {
                FaultClass::Configuration
            }
        }
    }

    /// The root-cause event — the callback a perfect diagnosis should
    /// lead the developer to.
    pub fn root_cause(&self) -> &MethodKey {
        match self {
            Fault::StaticNoSleep { trigger, .. }
            | Fault::DynamicNoSleep { trigger, .. }
            | Fault::Loop { trigger, .. }
            | Fault::Configuration { trigger, .. }
            | Fault::ConfigBug { trigger, .. } => trigger,
        }
    }

    /// Whether the fault is visible to static bytecode analysis.
    pub fn statically_visible(&self) -> bool {
        matches!(self, Fault::StaticNoSleep { .. })
    }

    /// Applies the fault to a healthy module, returning the faulty
    /// module. Only static faults change bytecode; dynamic faults
    /// leave the module intact (their behaviour lives in hooks).
    pub fn inject(&self, healthy: &Module) -> Module {
        let mut module = healthy.clone();
        if let Fault::StaticNoSleep {
            trigger, resource, ..
        } = self
        {
            if let Some(class) = module.classes.get_mut(&trigger.class) {
                if let Some(method) = class.method_mut(&trigger.name) {
                    method.body.insert(
                        0,
                        Instruction::AcquireResource { kind: *resource },
                    );
                }
            }
        }
        module
    }

    /// The *fixed* module: the faulty module plus the missing release
    /// on the teardown path (static no-sleep only; other classes fix
    /// behaviour via [`Fault::fixed_hooks`]).
    pub fn fix(&self, faulty: &Module) -> Module {
        let mut module = faulty.clone();
        if let Fault::StaticNoSleep {
            teardown, resource, ..
        } = self
        {
            if let Some(class) = module.classes.get_mut(&teardown.class) {
                if let Some(method) = class.method_mut(&teardown.name) {
                    method.body.insert(
                        0,
                        Instruction::ReleaseResource { kind: *resource },
                    );
                }
            }
        }
        module
    }

    /// The hook set of the *faulty* app.
    pub fn faulty_hooks(&self) -> HookSet {
        match self {
            Fault::StaticNoSleep { .. } => HookSet::new(),
            Fault::DynamicNoSleep {
                trigger, resource, ..
            } => HookSet::new()
                .on(trigger.clone(), HookAction::Acquire(*resource)),
            Fault::Loop { trigger, task, .. } => HookSet::new()
                .on(trigger.clone(), HookAction::StartTask(task.clone())),
            Fault::Configuration { trigger, task } => HookSet::new()
                .on(trigger.clone(), HookAction::StartTask(task.clone())),
            Fault::ConfigBug { trigger, buggy, .. } => HookSet::new()
                .on(trigger.clone(), HookAction::StartTask(buggy.clone())),
        }
    }

    /// The hook set of the *fixed* app.
    pub fn fixed_hooks(&self) -> HookSet {
        match self {
            Fault::StaticNoSleep { .. } => HookSet::new(),
            Fault::DynamicNoSleep {
                trigger,
                teardown,
                resource,
            } => HookSet::new()
                .on(trigger.clone(), HookAction::Acquire(*resource))
                .on(teardown.clone(), HookAction::Release(*resource)),
            Fault::Loop {
                trigger,
                teardown,
                task,
            } => HookSet::new()
                .on(trigger.clone(), HookAction::StartTask(task.clone()))
                .on(teardown.clone(), HookAction::StopTask(task.name.clone())),
            // A fixed configuration handler validates the setting and
            // never starts the retry loop.
            Fault::Configuration { .. } => HookSet::new(),
            // A fixed config-bug handler still schedules the work,
            // with the intended parameters.
            Fault::ConfigBug {
                trigger, intended, ..
            } => HookSet::new()
                .on(trigger.clone(), HookAction::StartTask(intended.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appgen::{generate, AppSpec};
    use energydx_dexir::dataflow::leaked_at_exit;

    fn spec() -> AppSpec {
        AppSpec::small("com.example.app", 5)
    }

    fn static_fault(spec: &AppSpec) -> Fault {
        Fault::StaticNoSleep {
            trigger: MethodKey::new(
                spec.class_descriptor("MainActivity"),
                "onResume",
            ),
            teardown: MethodKey::new(
                spec.class_descriptor("MainActivity"),
                "onPause",
            ),
            resource: ResourceKind::Gps,
        }
    }

    #[test]
    fn static_nosleep_is_visible_to_dataflow() {
        let spec = spec();
        let healthy = generate(&spec);
        let fault = static_fault(&spec);
        let faulty = fault.inject(&healthy);
        let method = faulty
            .method(&MethodKey::new(
                spec.class_descriptor("MainActivity"),
                "onResume",
            ))
            .unwrap();
        assert!(leaked_at_exit(method).unwrap().contains(ResourceKind::Gps));
        assert!(fault.statically_visible());
    }

    #[test]
    fn fix_adds_the_release_on_teardown() {
        let spec = spec();
        let fault = static_fault(&spec);
        let fixed = fault.fix(&fault.inject(&generate(&spec)));
        let on_pause = fixed
            .method(&MethodKey::new(
                spec.class_descriptor("MainActivity"),
                "onPause",
            ))
            .unwrap();
        assert_eq!(on_pause.released_resources(), vec![ResourceKind::Gps]);
    }

    #[test]
    fn dynamic_nosleep_leaves_bytecode_intact() {
        let spec = spec();
        let healthy = generate(&spec);
        let fault = Fault::DynamicNoSleep {
            trigger: MethodKey::new(
                spec.class_descriptor("MainActivity"),
                "onResume",
            ),
            teardown: MethodKey::new(
                spec.class_descriptor("MainActivity"),
                "onPause",
            ),
            resource: ResourceKind::WakeLock,
        };
        assert_eq!(fault.inject(&healthy), healthy);
        assert!(!fault.statically_visible());
        assert_eq!(fault.class(), FaultClass::NoSleep);
        assert_eq!(fault.faulty_hooks().len(), 1);
        assert_eq!(fault.fixed_hooks().len(), 2);
    }

    #[test]
    fn loop_fix_cancels_the_task() {
        let trigger = MethodKey::new("LA;", "menuRefresh");
        let teardown = MethodKey::new("LA;", "onPause");
        let fault = Fault::Loop {
            trigger: trigger.clone(),
            teardown: teardown.clone(),
            task: TaskSpec::cpu_loop("news", 1_500),
        };
        assert!(matches!(
            fault.fixed_hooks().actions(&teardown)[0],
            HookAction::StopTask(_)
        ));
        assert_eq!(fault.root_cause(), &trigger);
        assert_eq!(fault.class(), FaultClass::Loop);
    }

    #[test]
    fn config_bug_swaps_task_parameters_not_the_task() {
        let trigger = MethodKey::new("LSettings;", "onResume");
        let fault = Fault::ConfigBug {
            trigger: trigger.clone(),
            intended: TaskSpec::network_retry("sync", 300_000),
            buggy: TaskSpec::network_retry("sync", 1_000),
        };
        // Both builds schedule the work — only the parameters differ —
        // and the bytecode never changes.
        let faulty = fault.faulty_hooks();
        let fixed = fault.fixed_hooks();
        let period = |hooks: &HookSet| match &hooks.actions(&trigger)[0] {
            HookAction::StartTask(spec) => spec.period_ms,
            other => panic!("unexpected action {other:?}"),
        };
        assert_eq!(period(&faulty), 1_000);
        assert_eq!(period(&fixed), 300_000);
        assert_eq!(fault.class(), FaultClass::Configuration);
        assert!(!fault.statically_visible());
        assert_eq!(fault.root_cause(), &trigger);
    }

    #[test]
    fn configuration_fix_removes_the_retry() {
        let fault = Fault::Configuration {
            trigger: MethodKey::new("LSettings;", "onResume"),
            task: TaskSpec::network_retry("retry", 2_000),
        };
        assert!(!fault.faulty_hooks().is_empty());
        assert!(fault.fixed_hooks().is_empty());
        assert_eq!(fault.class(), FaultClass::Configuration);
    }
}
