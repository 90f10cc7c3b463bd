//! A Dalvik-like intermediate representation and the EnergyDx
//! instrumenter.
//!
//! The paper's instrumenter (Section II-C) unpacks an APK, disassembles
//! the Dalvik bytecode into an assembly-like format (smali), injects
//! entry/exit logging into the callbacks related to user interaction and
//! activity lifecycle, and repackages the app. Since no Android
//! toolchain exists in this environment, this crate provides the closest
//! synthetic equivalent (see DESIGN.md §2):
//!
//! - [`module`] — an app package ([`module::Module`]) holding classes,
//!   methods, and a manifest of activities/services, the analogue of a
//!   parsed APK.
//! - [`instr`] — a register-based instruction set with invocations,
//!   branches, and resource acquire/release modeled as framework calls.
//! - [`text`] — a smali-like textual assembly with a round-trippable
//!   parser/assembler pair.
//! - [`cfg`](mod@cfg) — basic-block control-flow graphs over method
//!   bodies.
//! - [`dataflow`] — a small forward-dataflow framework (used by the
//!   No-sleep Detection baseline).
//! - [`instrument`] — the event pool (Table I) and the instrumentation
//!   pass that injects `log-enter`/`log-exit` ops, plus overhead
//!   accounting for the §IV-F experiments.
//!
//! # Examples
//!
//! ```
//! use energydx_dexir::instrument::{EventPool, Instrumenter};
//! use energydx_dexir::module::Module;
//! use energydx_dexir::text;
//!
//! let src = "\
//! .package com.example.app
//! .class Lcom/example/app/MainActivity;
//! .super Landroid/app/Activity;
//! .activity
//! .method onResume()V
//!   .registers 2
//!   .lines 5
//!   return-void
//! .end method
//! .end class
//! ";
//! let module: Module = text::parse_module(src)?;
//! let report = Instrumenter::new(EventPool::standard()).instrument(&module)?;
//! assert_eq!(report.instrumented_methods, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod error;
pub mod instr;
pub mod instrument;
pub mod module;
pub mod text;
pub mod verify;

pub use error::DexError;
pub use instr::{Instruction, InvokeKind, MethodRef, Reg, ResourceKind};
pub use instrument::{EventPool, InstrumentationReport, Instrumenter};
pub use module::{Class, ComponentKind, Method, MethodKey, Module};
