//! The EnergyDx instrumenter (paper §II-C).
//!
//! Given an app package, the instrumenter injects a `log-enter` op at
//! the entry and a `log-exit` op before every return of each callback
//! that belongs to the *event pool* — the events related to user
//! interaction and activity lifecycle (Table I). Nothing else is
//! instrumented, which is what keeps the §IV-F runtime overhead small.

use crate::error::DexError;
use crate::instr::Instruction;
use crate::module::{ComponentKind, Method, MethodKey, Module};
use std::collections::BTreeSet;

/// The pool of event callbacks to instrument (paper Table I).
///
/// A method is in the pool when either
/// - its name is one of the *lifecycle* callbacks and its class is an
///   activity or service, or
/// - its name is one of the *UI* callbacks (any class — listeners are
///   often plain classes), or
/// - its name starts with one of the configured UI prefixes (apps name
///   menu handlers `menu_item_newsfeed`, `menuDeleted`, ... — cf.
///   Tables V and VI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventPool {
    lifecycle: BTreeSet<String>,
    ui: BTreeSet<String>,
    ui_prefixes: Vec<String>,
}

impl EventPool {
    /// The standard pool from Table I of the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::EventPool;
    /// let pool = EventPool::standard();
    /// assert!(pool.is_lifecycle("onResume"));
    /// assert!(pool.is_ui("onClick"));
    /// assert!(pool.is_ui("menu_item_newsfeed"));
    /// assert!(!pool.is_ui("computeChecksum"));
    /// ```
    pub fn standard() -> Self {
        let lifecycle = [
            "onCreate",
            "onStart",
            "onResume",
            "onPause",
            "onStop",
            "onDestroy",
            "onRestart",
            "onStartCommand",
            "onBind",
            "onUnbind",
        ];
        let ui = [
            "onClick",
            "onLongClick",
            "onKey",
            "onTouch",
            "onItemClick",
            "onItemSelected",
            "onMenuItemClick",
            "onOptionsItemSelected",
            "onCheckedChanged",
            "onScroll",
        ];
        EventPool {
            lifecycle: lifecycle.iter().map(|s| s.to_string()).collect(),
            ui: ui.iter().map(|s| s.to_string()).collect(),
            ui_prefixes: vec!["menu".to_string()],
        }
    }

    /// An empty pool; combine with [`EventPool::with_lifecycle`] /
    /// [`EventPool::with_ui`] to build a custom pool.
    pub fn empty() -> Self {
        EventPool {
            lifecycle: BTreeSet::new(),
            ui: BTreeSet::new(),
            ui_prefixes: Vec::new(),
        }
    }

    /// Adds a lifecycle callback name to the pool.
    pub fn with_lifecycle(mut self, name: impl Into<String>) -> Self {
        self.lifecycle.insert(name.into());
        self
    }

    /// Adds a UI callback name to the pool.
    pub fn with_ui(mut self, name: impl Into<String>) -> Self {
        self.ui.insert(name.into());
        self
    }

    /// Whether `name` is a lifecycle callback.
    pub fn is_lifecycle(&self, name: &str) -> bool {
        self.lifecycle.contains(name)
    }

    /// Whether `name` is a UI callback (exact or prefix match).
    pub fn is_ui(&self, name: &str) -> bool {
        self.ui.contains(name)
            || self
                .ui_prefixes
                .iter()
                .any(|p| name.starts_with(p.as_str()))
    }

    /// Whether a method of a class with the given component kind should
    /// be instrumented.
    pub fn selects(&self, component: ComponentKind, method_name: &str) -> bool {
        match component {
            ComponentKind::Activity | ComponentKind::Service => {
                self.is_lifecycle(method_name) || self.is_ui(method_name)
            }
            ComponentKind::Plain => self.is_ui(method_name),
        }
    }
}

impl Default for EventPool {
    fn default() -> Self {
        EventPool::standard()
    }
}

/// Result of instrumenting a module: the rewritten module plus the
/// overhead bookkeeping used by the §IV-F experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentationReport {
    /// The instrumented package (the "new APK").
    pub module: Module,
    /// Keys of the instrumented callbacks, in deterministic order.
    pub events: Vec<MethodKey>,
    /// Number of methods that received logging ops.
    pub instrumented_methods: usize,
    /// Logging instructions added in total.
    pub added_instructions: usize,
    /// Sum of abstract instruction cost before instrumentation, over
    /// the instrumented methods only.
    pub original_cost: u64,
    /// Sum of abstract instruction cost after instrumentation, over the
    /// instrumented methods only.
    pub instrumented_cost: u64,
}

impl InstrumentationReport {
    /// Mean relative latency increase of the instrumented callbacks —
    /// the paper reports 8.3 % (§IV-F).
    pub fn latency_overhead(&self) -> f64 {
        if self.original_cost == 0 {
            0.0
        } else {
            (self.instrumented_cost as f64 - self.original_cost as f64)
                / self.original_cost as f64
        }
    }
}

/// The instrumentation pass.
#[derive(Debug, Clone, Default)]
pub struct Instrumenter {
    pool: EventPool,
}

impl Instrumenter {
    /// Creates an instrumenter with the given event pool.
    pub fn new(pool: EventPool) -> Self {
        Instrumenter { pool }
    }

    /// The pool this instrumenter selects events from.
    pub fn pool(&self) -> &EventPool {
        &self.pool
    }

    /// Rewrites `module`, injecting `log-enter` at entry and `log-exit`
    /// before every return of each pool callback.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Invalid`] when the module already contains
    /// instrumentation (double instrumentation would double-log every
    /// event), and propagates validation errors for malformed bodies.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::{Instrumenter, EventPool, Module, Class, ComponentKind};
    /// # use energydx_dexir::module::Method;
    /// # use energydx_dexir::instr::Instruction;
    /// let mut m = Module::new("com.example");
    /// let mut c = Class::new("Lcom/example/Main;", ComponentKind::Activity);
    /// let mut cb = Method::new("onResume", "()V");
    /// cb.body = vec![Instruction::ReturnVoid];
    /// c.methods.push(cb);
    /// m.add_class(c)?;
    /// let report = Instrumenter::new(EventPool::standard()).instrument(&m)?;
    /// assert!(report.module.is_instrumented());
    /// # Ok::<(), energydx_dexir::DexError>(())
    /// ```
    pub fn instrument(
        &self,
        module: &Module,
    ) -> Result<InstrumentationReport, DexError> {
        if module.is_instrumented() {
            return Err(DexError::Invalid {
                message: "module is already instrumented".to_string(),
            });
        }
        module.validate()?;

        let mut out = module.clone();
        let mut events = Vec::new();
        let mut instrumented_methods = 0usize;
        let mut added_instructions = 0usize;
        let mut original_cost = 0u64;
        let mut instrumented_cost = 0u64;

        for class in out.classes.values_mut() {
            let component = class.component;
            for method in &mut class.methods {
                if !self.pool.selects(component, &method.name) {
                    continue;
                }
                let key =
                    MethodKey::new(class.name.clone(), method.name.clone());
                let event = key.to_string();
                original_cost += method.straight_line_cost();

                let before = method.body.len();
                instrument_method(method, &event);
                added_instructions += method.body.len() - before;

                instrumented_cost += method.straight_line_cost();
                instrumented_methods += 1;
                events.push(key);
            }
        }

        Ok(InstrumentationReport {
            module: out,
            events,
            instrumented_methods,
            added_instructions,
            original_cost,
            instrumented_cost,
        })
    }
}

/// Injects logging ops into one method body.
fn instrument_method(method: &mut Method, event: &str) {
    let mut body = Vec::with_capacity(method.body.len() + 2);
    body.push(Instruction::LogEnter {
        event: event.to_string(),
    });
    if method.body.is_empty() {
        // A callback with an empty body still logs a (zero-duration) event.
        body.push(Instruction::LogExit {
            event: event.to_string(),
        });
        method.body = body;
        return;
    }
    for instr in method.body.drain(..) {
        if instr.is_return() {
            body.push(Instruction::LogExit {
                event: event.to_string(),
            });
        }
        body.push(instr);
    }
    method.body = body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instruction, Reg};
    use crate::module::Class;

    fn app() -> Module {
        let mut m = Module::new("com.example");
        let mut act = Class::new("Lcom/example/Main;", ComponentKind::Activity);
        let mut on_resume = Method::new("onResume", "()V");
        on_resume.body = vec![
            Instruction::ConstInt {
                dst: Reg(0),
                value: 0,
            },
            Instruction::Invoke {
                kind: crate::instr::InvokeKind::Virtual,
                target: crate::instr::MethodRef::new(
                    "Lcom/example/Model;",
                    "load",
                    "()V",
                ),
                args: vec![Reg(0)],
            },
            Instruction::IfZero {
                src: Reg(0),
                target: "end".into(),
            },
            Instruction::ReturnVoid,
            Instruction::Label { name: "end".into() },
            Instruction::ReturnVoid,
        ];
        act.methods.push(on_resume);
        let mut helper = Method::new("computeChecksum", "()I");
        helper.body = vec![
            Instruction::ConstInt {
                dst: Reg(1),
                value: 7,
            },
            Instruction::Return { src: Reg(1) },
        ];
        act.methods.push(helper);
        m.add_class(act).unwrap();

        let mut plain =
            Class::new("Lcom/example/Listener;", ComponentKind::Plain);
        let mut on_click = Method::new("onClick", "()V");
        on_click.body = vec![
            Instruction::Invoke {
                kind: crate::instr::InvokeKind::Virtual,
                target: crate::instr::MethodRef::new(
                    "Lcom/example/Model;",
                    "refresh",
                    "()V",
                ),
                args: vec![Reg(0)],
            },
            Instruction::ReturnVoid,
        ];
        plain.methods.push(on_click);
        // A lifecycle-like name on a plain class must NOT be selected.
        let mut fake = Method::new("onResume", "()V");
        fake.body = vec![Instruction::ReturnVoid];
        plain.methods.push(fake);
        m.add_class(plain).unwrap();
        m
    }

    #[test]
    fn selects_pool_callbacks_only() {
        let report = Instrumenter::new(EventPool::standard())
            .instrument(&app())
            .unwrap();
        assert_eq!(report.instrumented_methods, 2);
        let names: Vec<String> =
            report.events.iter().map(|k| k.to_string()).collect();
        assert!(names.contains(&"Lcom/example/Main;->onResume".to_string()));
        assert!(names.contains(&"Lcom/example/Listener;->onClick".to_string()));
        // The helper and the plain-class onResume are untouched.
        assert!(!report.module.classes["Lcom/example/Main;"]
            .method("computeChecksum")
            .unwrap()
            .is_instrumented());
        assert!(!report.module.classes["Lcom/example/Listener;"]
            .method("onResume")
            .unwrap()
            .is_instrumented());
    }

    #[test]
    fn every_return_gets_a_log_exit() {
        let report = Instrumenter::new(EventPool::standard())
            .instrument(&app())
            .unwrap();
        let body = &report.module.classes["Lcom/example/Main;"]
            .method("onResume")
            .unwrap()
            .body;
        let enters = body
            .iter()
            .filter(|i| matches!(i, Instruction::LogEnter { .. }))
            .count();
        let exits = body
            .iter()
            .filter(|i| matches!(i, Instruction::LogExit { .. }))
            .count();
        let returns = body.iter().filter(|i| i.is_return()).count();
        assert_eq!(enters, 1);
        assert_eq!(exits, returns);
        assert_eq!(body.first().map(|i| i.is_instrumentation()), Some(true));
    }

    #[test]
    fn log_exit_immediately_precedes_each_return() {
        let report = Instrumenter::new(EventPool::standard())
            .instrument(&app())
            .unwrap();
        let body = &report.module.classes["Lcom/example/Main;"]
            .method("onResume")
            .unwrap()
            .body;
        for (i, instr) in body.iter().enumerate() {
            if instr.is_return() {
                assert!(
                    matches!(body[i - 1], Instruction::LogExit { .. }),
                    "return at {i} not preceded by log-exit"
                );
            }
        }
    }

    #[test]
    fn double_instrumentation_is_rejected() {
        let instrumenter = Instrumenter::new(EventPool::standard());
        let once = instrumenter.instrument(&app()).unwrap();
        assert!(matches!(
            instrumenter.instrument(&once.module),
            Err(DexError::Invalid { .. })
        ));
    }

    #[test]
    fn overhead_is_positive_but_moderate() {
        let report = Instrumenter::new(EventPool::standard())
            .instrument(&app())
            .unwrap();
        let overhead = report.latency_overhead();
        assert!(overhead > 0.0, "logging must cost something");
        // Logging must not dominate: a handful of 4-cost ops against
        // real bodies stays well under 2x.
        assert!(overhead < 1.0, "overhead {overhead} implausibly high");
    }

    #[test]
    fn empty_pool_instruments_nothing() {
        let report = Instrumenter::new(EventPool::empty())
            .instrument(&app())
            .unwrap();
        assert_eq!(report.instrumented_methods, 0);
        assert_eq!(report.module, app());
        assert_eq!(report.latency_overhead(), 0.0);
    }

    #[test]
    fn custom_pool_entries_are_honored() {
        let pool = EventPool::empty().with_ui("computeChecksum");
        let report = Instrumenter::new(pool).instrument(&app()).unwrap();
        assert_eq!(report.instrumented_methods, 1);
        assert_eq!(report.events[0].name, "computeChecksum");
    }

    #[test]
    fn menu_prefix_matches_table_v_and_vi_style_handlers() {
        let pool = EventPool::standard();
        assert!(pool.is_ui("menuDeleted"));
        assert!(pool.is_ui("menu_item_newsfeed"));
        assert!(pool.selects(ComponentKind::Activity, "menu_about"));
    }

    #[test]
    fn callback_with_empty_body_still_logs() {
        let mut m = Module::new("x");
        let mut c = Class::new("LA;", ComponentKind::Activity);
        c.methods.push(Method::new("onPause", "()V"));
        m.add_class(c).unwrap();
        let report = Instrumenter::new(EventPool::standard())
            .instrument(&m)
            .unwrap();
        let body =
            &report.module.classes["LA;"].method("onPause").unwrap().body;
        assert_eq!(body.len(), 2);
        assert!(matches!(body[0], Instruction::LogEnter { .. }));
        assert!(matches!(body[1], Instruction::LogExit { .. }));
    }

    #[test]
    fn instrumented_module_round_trips_through_text() {
        let report = Instrumenter::new(EventPool::standard())
            .instrument(&app())
            .unwrap();
        let text = crate::text::assemble_module(&report.module);
        let parsed = crate::text::parse_module(&text).unwrap();
        assert_eq!(parsed, report.module);
    }
}
