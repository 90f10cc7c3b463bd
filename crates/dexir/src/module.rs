//! App packages: classes, methods, and the component manifest.
//!
//! A [`Module`] is the analogue of a parsed APK: a set of classes, each
//! declaring callbacks (methods), plus manifest information about which
//! classes are activities and services. Every method carries a
//! `source_lines` attribute — the number of source-code lines its body
//! corresponds to — which the evaluation uses to compute the paper's
//! *code reduction* metric (§IV-B).

use crate::error::DexError;
use crate::instr::{Instruction, ResourceKind};
use std::collections::BTreeMap;
use std::fmt;

/// The Android component kind of a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// An `android.app.Activity` subclass (has a UI lifecycle).
    Activity,
    /// An `android.app.Service` subclass (background work).
    Service,
    /// A plain class (helpers, models, listeners).
    Plain,
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::Activity => f.write_str("activity"),
            ComponentKind::Service => f.write_str("service"),
            ComponentKind::Plain => f.write_str("plain"),
        }
    }
}

/// Uniquely identifies a method within a module: `(class, name)`.
///
/// Event identifiers in traces are the display form of this key,
/// e.g. `Lcom/fsck/k9/activity/MessageList;->onResume`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodKey {
    /// Class descriptor (`Lcom/example/Foo;`).
    pub class: String,
    /// Method name (`onResume`).
    pub name: String,
}

impl MethodKey {
    /// Builds a key from class descriptor and method name.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::MethodKey;
    /// let k = MethodKey::new("Lcom/example/Foo;", "onResume");
    /// assert_eq!(k.to_string(), "Lcom/example/Foo;->onResume");
    /// ```
    pub fn new(class: impl Into<String>, name: impl Into<String>) -> Self {
        MethodKey {
            class: class.into(),
            name: name.into(),
        }
    }

    /// Parses the `Lcls;->name` display form.
    pub fn parse(s: &str) -> Option<Self> {
        let (class, name) = s.split_once("->")?;
        if class.is_empty() || name.is_empty() {
            return None;
        }
        Some(MethodKey::new(class, name))
    }

    /// The short, human-readable form used in the paper's tables, e.g.
    /// `MessageList:onResume`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::MethodKey;
    /// let k = MethodKey::new("Lcom/fsck/k9/activity/MessageList;", "onResume");
    /// assert_eq!(k.short(), "MessageList:onResume");
    /// ```
    pub fn short(&self) -> String {
        let trimmed = self.class.trim_start_matches('L').trim_end_matches(';');
        let simple = trimmed.rsplit('/').next().unwrap_or(trimmed);
        format!("{simple}:{}", self.name)
    }
}

impl fmt::Display for MethodKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.class, self.name)
    }
}

/// A method body with its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    /// Method name (`onResume`).
    pub name: String,
    /// JVM-style descriptor (`()V`).
    pub descriptor: String,
    /// Number of virtual registers the body uses.
    pub registers: u16,
    /// Source lines attributed to this method (code-reduction metric).
    pub source_lines: u32,
    /// The instruction sequence.
    pub body: Vec<Instruction>,
}

impl Method {
    /// Creates a method with an empty body.
    pub fn new(name: impl Into<String>, descriptor: impl Into<String>) -> Self {
        Method {
            name: name.into(),
            descriptor: descriptor.into(),
            registers: 4,
            source_lines: 1,
            body: Vec::new(),
        }
    }

    /// Total abstract execution cost of one invocation, assuming every
    /// instruction executes once (loops are accounted for by the
    /// droidsim scheduler, which re-executes looped blocks).
    pub fn straight_line_cost(&self) -> u64 {
        self.body.iter().map(Instruction::cost).sum()
    }

    /// Whether the body contains any instrumentation logging ops.
    pub fn is_instrumented(&self) -> bool {
        self.body.iter().any(Instruction::is_instrumentation)
    }

    /// Resource kinds this method acquires.
    pub fn acquired_resources(&self) -> Vec<ResourceKind> {
        let mut out: Vec<ResourceKind> = self
            .body
            .iter()
            .filter_map(|i| match i {
                Instruction::AcquireResource { kind } => Some(*kind),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resource kinds this method releases.
    pub fn released_resources(&self) -> Vec<ResourceKind> {
        let mut out: Vec<ResourceKind> = self
            .body
            .iter()
            .filter_map(|i| match i {
                Instruction::ReleaseResource { kind } => Some(*kind),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Validates intra-method invariants: labels unique, every branch
    /// target defined.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::DuplicateLabel`] or
    /// [`DexError::UndefinedLabel`].
    pub fn validate(&self) -> Result<(), DexError> {
        let mut labels = std::collections::BTreeSet::new();
        for instr in &self.body {
            if let Instruction::Label { name } = instr {
                if !labels.insert(name.clone()) {
                    return Err(DexError::DuplicateLabel {
                        method: self.name.clone(),
                        label: name.clone(),
                    });
                }
            }
        }
        for instr in &self.body {
            if let Some(target) = instr.branch_target() {
                if !labels.contains(target) {
                    return Err(DexError::UndefinedLabel {
                        method: self.name.clone(),
                        label: target.to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A class: component kind, superclass, and methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    /// Class descriptor (`Lcom/example/Foo;`).
    pub name: String,
    /// Superclass descriptor (`Landroid/app/Activity;`).
    pub super_class: String,
    /// Component kind from the manifest.
    pub component: ComponentKind,
    /// Methods in declaration order.
    pub methods: Vec<Method>,
}

impl Class {
    /// Creates an empty class of the given kind with the conventional
    /// framework superclass.
    pub fn new(name: impl Into<String>, component: ComponentKind) -> Self {
        let super_class = match component {
            ComponentKind::Activity => "Landroid/app/Activity;",
            ComponentKind::Service => "Landroid/app/Service;",
            ComponentKind::Plain => "Ljava/lang/Object;",
        };
        Class {
            name: name.into(),
            super_class: super_class.to_string(),
            component,
            methods: Vec::new(),
        }
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Mutable lookup of a method by name.
    pub fn method_mut(&mut self, name: &str) -> Option<&mut Method> {
        self.methods.iter_mut().find(|m| m.name == name)
    }

    /// Total source lines across all methods of this class.
    pub fn source_lines(&self) -> u64 {
        self.methods.iter().map(|m| m.source_lines as u64).sum()
    }
}

/// A complete app package — the unit the instrumenter consumes and
/// produces, and the unit droidsim executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Java package name of the app (`com.fsck.k9`).
    pub package: String,
    /// Classes keyed by descriptor, in deterministic order.
    pub classes: BTreeMap<String, Class>,
}

impl Module {
    /// Creates an empty module for a package.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::{Module, Class, ComponentKind};
    /// let mut m = Module::new("com.example.app");
    /// m.add_class(Class::new("Lcom/example/app/Main;", ComponentKind::Activity))?;
    /// assert_eq!(m.classes.len(), 1);
    /// # Ok::<(), energydx_dexir::DexError>(())
    /// ```
    pub fn new(package: impl Into<String>) -> Self {
        Module {
            package: package.into(),
            classes: BTreeMap::new(),
        }
    }

    /// Adds a class.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::DuplicateClass`] when a class with the same
    /// descriptor already exists.
    pub fn add_class(&mut self, class: Class) -> Result<(), DexError> {
        if self.classes.contains_key(&class.name) {
            return Err(DexError::DuplicateClass {
                class: class.name.clone(),
            });
        }
        self.classes.insert(class.name.clone(), class);
        Ok(())
    }

    /// Looks up a method by key.
    pub fn method(&self, key: &MethodKey) -> Option<&Method> {
        self.classes.get(&key.class)?.method(&key.name)
    }

    /// All method keys in deterministic (class, declaration) order.
    pub fn method_keys(&self) -> Vec<MethodKey> {
        self.classes
            .values()
            .flat_map(|c| {
                c.methods
                    .iter()
                    .map(|m| MethodKey::new(c.name.clone(), m.name.clone()))
            })
            .collect()
    }

    /// Total source lines of the whole app (`N_All` in the paper's
    /// code-reduction metric).
    pub fn total_source_lines(&self) -> u64 {
        self.classes.values().map(Class::source_lines).sum()
    }

    /// Source lines attributed to a set of methods (`N_Diagnosis`).
    pub fn source_lines_of(&self, keys: &[MethodKey]) -> u64 {
        keys.iter()
            .filter_map(|k| self.method(k))
            .map(|m| m.source_lines as u64)
            .sum()
    }

    /// Validates every method in the module.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DexError`] found.
    pub fn validate(&self) -> Result<(), DexError> {
        for class in self.classes.values() {
            for method in &class.methods {
                method.validate()?;
            }
        }
        Ok(())
    }

    /// Whether any method carries instrumentation ops.
    pub fn is_instrumented(&self) -> bool {
        self.classes
            .values()
            .any(|c| c.methods.iter().any(Method::is_instrumented))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instruction, Reg};

    fn sample_method() -> Method {
        let mut m = Method::new("onResume", "()V");
        m.source_lines = 12;
        m.body = vec![
            Instruction::ConstInt {
                dst: Reg(0),
                value: 1,
            },
            Instruction::IfZero {
                src: Reg(0),
                target: "skip".into(),
            },
            Instruction::AcquireResource {
                kind: ResourceKind::WakeLock,
            },
            Instruction::Label {
                name: "skip".into(),
            },
            Instruction::ReturnVoid,
        ];
        m
    }

    #[test]
    fn method_key_display_and_parse_round_trip() {
        let k = MethodKey::new("Lcom/fsck/k9/K9Activity;", "onResume");
        assert_eq!(MethodKey::parse(&k.to_string()), Some(k));
        assert_eq!(MethodKey::parse("junk"), None);
    }

    #[test]
    fn method_key_short_form_matches_paper_tables() {
        let k = MethodKey::new(
            "Lcom/fsck/k9/activity/setup/AccountSettings;",
            "onResume",
        );
        assert_eq!(k.short(), "AccountSettings:onResume");
    }

    #[test]
    fn validate_accepts_well_formed_method() {
        assert!(sample_method().validate().is_ok());
    }

    #[test]
    fn validate_rejects_undefined_label() {
        let mut m = sample_method();
        m.body.retain(|i| !matches!(i, Instruction::Label { .. }));
        assert!(matches!(m.validate(), Err(DexError::UndefinedLabel { .. })));
    }

    #[test]
    fn validate_rejects_duplicate_label() {
        let mut m = sample_method();
        m.body.push(Instruction::Label {
            name: "skip".into(),
        });
        assert!(matches!(m.validate(), Err(DexError::DuplicateLabel { .. })));
    }

    #[test]
    fn acquired_and_released_resources_are_collected() {
        let m = sample_method();
        assert_eq!(m.acquired_resources(), vec![ResourceKind::WakeLock]);
        assert!(m.released_resources().is_empty());
    }

    #[test]
    fn duplicate_class_is_rejected() {
        let mut module = Module::new("com.example");
        module
            .add_class(Class::new("LFoo;", ComponentKind::Plain))
            .unwrap();
        assert!(matches!(
            module.add_class(Class::new("LFoo;", ComponentKind::Plain)),
            Err(DexError::DuplicateClass { .. })
        ));
    }

    #[test]
    fn source_line_accounting_sums_methods() {
        let mut class = Class::new("LFoo;", ComponentKind::Activity);
        class.methods.push(sample_method());
        let mut other = Method::new("onPause", "()V");
        other.source_lines = 8;
        class.methods.push(other);
        let mut module = Module::new("com.example");
        module.add_class(class).unwrap();
        assert_eq!(module.total_source_lines(), 20);
        let key = MethodKey::new("LFoo;", "onPause");
        assert_eq!(module.source_lines_of(&[key]), 8);
    }

    #[test]
    fn method_keys_are_deterministic() {
        let mut module = Module::new("com.example");
        let mut b = Class::new("LB;", ComponentKind::Plain);
        b.methods.push(Method::new("m", "()V"));
        let mut a = Class::new("LA;", ComponentKind::Plain);
        a.methods.push(Method::new("m", "()V"));
        module.add_class(b).unwrap();
        module.add_class(a).unwrap();
        let keys = module.method_keys();
        assert_eq!(keys[0].class, "LA;");
        assert_eq!(keys[1].class, "LB;");
    }

    #[test]
    fn instrumented_detection() {
        let mut module = Module::new("com.example");
        let mut class = Class::new("LFoo;", ComponentKind::Activity);
        let mut m = sample_method();
        assert!(!m.is_instrumented());
        m.body.insert(
            0,
            Instruction::LogEnter {
                event: "LFoo;->onResume".into(),
            },
        );
        assert!(m.is_instrumented());
        class.methods.push(m);
        module.add_class(class).unwrap();
        assert!(module.is_instrumented());
    }
}
