//! The register-based instruction set of the Dalvik-like IR.
//!
//! The set is intentionally small but covers everything the EnergyDx
//! pipeline and the baselines need to observe: straight-line compute,
//! control flow (so the CFG and the no-sleep dataflow analysis are
//! non-trivial), framework invocations (so energy-relevant APIs such as
//! `Ljava/net/Socket;->connect` appear in traces, cf. Fig. 2), resource
//! acquire/release (wakelocks, GPS, WiFi locks, sensors — the no-sleep
//! bug surface), and the two logging ops injected by the instrumenter.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual register index (`v0`, `v1`, ...).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Serialize,
    Deserialize,
)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Kind of method invocation, mirroring Dalvik's `invoke-*` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvokeKind {
    /// `invoke-virtual` — dispatch on the receiver's dynamic type.
    Virtual,
    /// `invoke-static` — no receiver.
    Static,
    /// `invoke-direct` — constructors and private methods.
    Direct,
}

impl InvokeKind {
    /// The smali mnemonic for this kind.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            InvokeKind::Virtual => "invoke-virtual",
            InvokeKind::Static => "invoke-static",
            InvokeKind::Direct => "invoke-direct",
        }
    }
}

/// A fully qualified method reference, e.g.
/// `Ljava/net/Socket;->connect()V`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MethodRef {
    /// Class descriptor in JVM form (`Lcom/example/Foo;`).
    pub class: String,
    /// Method name (`connect`).
    pub name: String,
    /// Method descriptor (`()V`).
    pub descriptor: String,
}

impl MethodRef {
    /// Builds a reference from its three parts.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::MethodRef;
    /// let m = MethodRef::new("Ljava/net/Socket;", "connect", "()V");
    /// assert_eq!(m.to_string(), "Ljava/net/Socket;->connect()V");
    /// ```
    pub fn new(
        class: impl Into<String>,
        name: impl Into<String>,
        descriptor: impl Into<String>,
    ) -> Self {
        MethodRef {
            class: class.into(),
            name: name.into(),
            descriptor: descriptor.into(),
        }
    }

    /// Parses a `Lcls;->name(desc)ret` reference.
    ///
    /// Returns `None` when the string is not in reference form.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_dexir::MethodRef;
    /// let m = MethodRef::parse("Ljava/net/Socket;->connect()V").unwrap();
    /// assert_eq!(m.name, "connect");
    /// ```
    pub fn parse(s: &str) -> Option<Self> {
        let (class, rest) = s.split_once("->")?;
        let open = rest.find('(')?;
        let name = &rest[..open];
        let descriptor = &rest[open..];
        if class.is_empty()
            || name.is_empty()
            || !class.starts_with('L')
            || !class.ends_with(';')
        {
            return None;
        }
        Some(MethodRef::new(class, name, descriptor))
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}{}", self.class, self.name, self.descriptor)
    }
}

/// Kinds of power-relevant system resources an app can hold.
///
/// These correspond to the resource handles whose misuse produces the
/// paper's *no-sleep* ABD class (wakelock/sensors "not properly
/// released", §IV-B).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    Serialize,
    Deserialize,
)]
pub enum ResourceKind {
    /// `PowerManager$WakeLock` — keeps the CPU awake.
    WakeLock,
    /// GPS location updates — keeps the GPS receiver powered.
    Gps,
    /// `WifiManager$WifiLock` — keeps the WiFi radio powered.
    WifiLock,
    /// A registered hardware sensor listener.
    Sensor,
}

impl ResourceKind {
    /// All resource kinds, for iteration.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::WakeLock,
        ResourceKind::Gps,
        ResourceKind::WifiLock,
        ResourceKind::Sensor,
    ];

    /// The textual name used in the assembly format.
    pub fn name(&self) -> &'static str {
        match self {
            ResourceKind::WakeLock => "wakelock",
            ResourceKind::Gps => "gps",
            ResourceKind::WifiLock => "wifilock",
            ResourceKind::Sensor => "sensor",
        }
    }

    /// Parses the textual name back into a kind.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "wakelock" => Some(ResourceKind::WakeLock),
            "gps" => Some(ResourceKind::Gps),
            "wifilock" => Some(ResourceKind::WifiLock),
            "sensor" => Some(ResourceKind::Sensor),
            _ => None,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary arithmetic operators supported by [`Instruction::BinOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
}

impl BinOp {
    /// The smali-ish mnemonic (`add-int` etc.).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinOp::Add => "add-int",
            BinOp::Sub => "sub-int",
            BinOp::Mul => "mul-int",
        }
    }

    /// Parses a mnemonic back into the operator.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        match s {
            "add-int" => Some(BinOp::Add),
            "sub-int" => Some(BinOp::Sub),
            "mul-int" => Some(BinOp::Mul),
            _ => None,
        }
    }
}

/// One instruction of the Dalvik-like IR.
///
/// Branch targets are symbolic label names (as in smali); label
/// definitions are pseudo-instructions resolved by [`crate::cfg`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Load a signed integer constant into a register.
    ConstInt {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        value: i64,
    },
    /// Load a string constant into a register.
    ConstString {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        value: String,
    },
    /// Copy one register into another.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Binary integer arithmetic.
    BinOp {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Invoke a method; `args` includes the receiver for non-static calls.
    Invoke {
        /// Invocation kind.
        kind: InvokeKind,
        /// The callee.
        target: MethodRef,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Move the result of the most recent invoke into a register.
    MoveResult {
        /// Destination register.
        dst: Reg,
    },
    /// Acquire a power-relevant resource (models e.g. `WakeLock.acquire()`).
    AcquireResource {
        /// Which resource is acquired.
        kind: ResourceKind,
    },
    /// Release a previously acquired resource.
    ReleaseResource {
        /// Which resource is released.
        kind: ResourceKind,
    },
    /// Pseudo-instruction defining a branch target.
    Label {
        /// The label name, without the leading `:`.
        name: String,
    },
    /// Unconditional jump to a label.
    Goto {
        /// Target label name.
        target: String,
    },
    /// Conditional jump when the register is zero.
    IfZero {
        /// Register tested against zero.
        src: Reg,
        /// Target label name.
        target: String,
    },
    /// Return with no value; ends the method.
    ReturnVoid,
    /// Return a register's value; ends the method.
    Return {
        /// Register holding the return value.
        src: Reg,
    },
    /// Instrumentation: log the entry of an event callback
    /// (injected by [`crate::instrument::Instrumenter`]).
    LogEnter {
        /// Event identifier `Class;->name` logged at runtime.
        event: String,
    },
    /// Instrumentation: log the exit of an event callback.
    LogExit {
        /// Event identifier `Class;->name` logged at runtime.
        event: String,
    },
}

impl Instruction {
    /// Whether this instruction terminates the method (a return).
    pub fn is_return(&self) -> bool {
        matches!(self, Instruction::ReturnVoid | Instruction::Return { .. })
    }

    /// Whether this instruction unconditionally transfers control
    /// (return or goto) so the next instruction is not a fallthrough
    /// successor.
    pub fn ends_block(&self) -> bool {
        self.is_return() || matches!(self, Instruction::Goto { .. })
    }

    /// Whether this instruction may branch to a label.
    pub fn branch_target(&self) -> Option<&str> {
        match self {
            Instruction::Goto { target }
            | Instruction::IfZero { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Whether this is a logging op injected by the instrumenter.
    pub fn is_instrumentation(&self) -> bool {
        matches!(
            self,
            Instruction::LogEnter { .. } | Instruction::LogExit { .. }
        )
    }

    /// The relative execution cost of this instruction, in abstract
    /// cost units (1 unit ≈ one simple ALU op). Used by the droidsim
    /// scheduler to model callback latency and by the §IV-F
    /// instrumentation-overhead experiment.
    pub fn cost(&self) -> u64 {
        match self {
            Instruction::Nop | Instruction::Label { .. } => 0,
            Instruction::ConstInt { .. }
            | Instruction::Move { .. }
            | Instruction::MoveResult { .. }
            | Instruction::BinOp { .. } => 1,
            Instruction::ConstString { .. } => 2,
            Instruction::Goto { .. } | Instruction::IfZero { .. } => 1,
            Instruction::ReturnVoid | Instruction::Return { .. } => 1,
            // Invocations dominate callback latency.
            Instruction::Invoke { .. } => 20,
            Instruction::AcquireResource { .. }
            | Instruction::ReleaseResource { .. } => 10,
            // Logging is a timestamp read plus an append to a lock-free
            // buffer; cheap but not free — this is what the 8.3 % §IV-F
            // latency overhead comes from.
            Instruction::LogEnter { .. } | Instruction::LogExit { .. } => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_ref_round_trips_through_display() {
        let m = MethodRef::new(
            "Lcom/fsck/k9/service/MailService;",
            "onCreate",
            "()V",
        );
        let parsed = MethodRef::parse(&m.to_string()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn method_ref_parse_rejects_malformed() {
        assert!(MethodRef::parse("not a ref").is_none());
        assert!(MethodRef::parse("Lcom/Foo;->bar").is_none()); // no descriptor
        assert!(MethodRef::parse("com/Foo->bar()V").is_none()); // missing L;
        assert!(MethodRef::parse("Lcom/Foo;->()V").is_none()); // empty name
    }

    #[test]
    fn resource_kind_names_round_trip() {
        for kind in ResourceKind::ALL {
            assert_eq!(ResourceKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ResourceKind::from_name("bogus"), None);
    }

    #[test]
    fn binop_mnemonics_round_trip() {
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn returns_end_blocks_and_branches_have_targets() {
        assert!(Instruction::ReturnVoid.ends_block());
        assert!(Instruction::Return { src: Reg(0) }.is_return());
        assert!(Instruction::Goto {
            target: "exit".into()
        }
        .ends_block());
        assert_eq!(
            Instruction::IfZero {
                src: Reg(1),
                target: "skip".into()
            }
            .branch_target(),
            Some("skip")
        );
        assert_eq!(Instruction::Nop.branch_target(), None);
        assert!(!Instruction::IfZero {
            src: Reg(1),
            target: "skip".into()
        }
        .ends_block());
    }

    #[test]
    fn instrumentation_ops_are_identified_and_cheap() {
        let enter = Instruction::LogEnter {
            event: "LFoo;->onResume".into(),
        };
        assert!(enter.is_instrumentation());
        assert!(
            enter.cost()
                < Instruction::Invoke {
                    kind: InvokeKind::Virtual,
                    target: MethodRef::new("LFoo;", "bar", "()V"),
                    args: vec![],
                }
                .cost()
        );
    }

    #[test]
    fn labels_are_free() {
        assert_eq!(
            Instruction::Label {
                name: "loop".into()
            }
            .cost(),
            0
        );
    }

    #[test]
    fn reg_displays_with_v_prefix() {
        assert_eq!(Reg(3).to_string(), "v3");
    }
}
