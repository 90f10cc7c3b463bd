//! Trace types and infrastructure for EnergyDx.
//!
//! EnergyDx collects two runtime traces per user session (paper §II-C):
//! an **event trace** — timestamped entry/exit records of instrumented
//! callbacks (Fig. 5) — and a **utilization trace** — periodic samples
//! of per-app hardware utilization. The power model turns the latter
//! into a **power trace**. This crate provides:
//!
//! - [`event`] — event records, entry/exit pairing into event
//!   *instances*, and the Fig.-5 text log format.
//! - [`util`] — utilization samples over the simulated hardware
//!   components.
//! - [`power`] — power samples and per-component power breakdowns
//!   (Figs. 11/14).
//! - [`join`] — the timestamp join assigning app power to event
//!   instances (the substrate of analysis Step 1).
//! - [`intern`] — dense `u32` event symbols and structure-of-arrays
//!   traces, the zero-copy representation of the analysis hot path.
//! - [`anonymize`] — removal of user identifiers (phone numbers, IP
//!   addresses, email addresses) before upload, per §II-B.
//! - [`wire`] — a compact binary wire format for uploading trace
//!   bundles, with CRC32-framed v2/v3 payloads and a salvaging decoder
//!   for damaged ones. Its [`wire::crc32_update`] is the one CRC32 of
//!   the workspace: a carry-less-multiply fold on x86_64 CPUs with
//!   `pclmulqdq` and `sse4.1`, a slice-by-8 table loop elsewhere.
//! - [`codec`] — the bounds-checked byte reader and writer that every
//!   binary format in the workspace is written with: uploads, daemon
//!   frames, checkpoints and spill segments.
//! - [`store`] — the backend trace store that aggregates bundles from
//!   many users (thread-safe; uploads happen "when the smartphone is
//!   charging with WiFi"), with a reject/repair/salvage ingest
//!   taxonomy and a quarantine for what cannot be kept.
//! - [`repair`] — bounded, conservative fixes for common upload
//!   defects (logger races, clock steps, stray exits).
//! - [`upload`] — the retrying phone-side upload path: exponential
//!   backoff with seeded jitter over a virtual clock.
//! - [`fault`] — seeded fault injection over wire payloads, for chaos
//!   testing the whole ingest path.
//!
//! # Examples
//!
//! ```
//! use energydx_trace::event::{Direction, EventRecord, EventTrace};
//!
//! let mut t = EventTrace::new();
//! t.push(EventRecord::new(28223867, Direction::Enter, "Lcom/fsck/k9/service/MailService;->onDestroy"));
//! t.push(EventRecord::new(28223899, Direction::Exit, "Lcom/fsck/k9/service/MailService;->onDestroy"));
//! let instances = t.pair_instances();
//! assert_eq!(instances.len(), 1);
//! assert_eq!(instances[0].duration_ms(), 32);
//! ```
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code` rather than forbidding it, for one
//! exception: the private module of the CRC fold in [`wire`], whose
//! single `unsafe` block calls the `#[target_feature]` fold once the
//! CPU has reported both features. The fold itself is safe code.
//! `ci.sh`'s `unsafe boundary` step fails on a second block.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod anonymize;
pub mod codec;
pub mod error;
pub mod event;
pub mod fault;
pub mod intern;
pub mod join;
pub mod power;
pub mod repair;
mod rng;
pub mod store;
pub mod upload;
pub mod util;
pub mod wire;

pub use error::TraceError;
pub use event::{Direction, EventInstance, EventRecord, EventTrace};
pub use fault::{FaultInjector, FaultKind, InjectionReport};
pub use intern::{EventId, EventInterner, InternedTrace};
pub use join::join_power;
pub use power::{PowerBreakdown, PowerSample, PowerTrace};
pub use repair::{RepairAction, RepairPolicy, RepairReject};
pub use store::{
    IngestOutcome, IngestReport, PhoneState, QuarantineEntry, RejectReason,
    TraceBundle, TraceStore, Uploader,
};
pub use upload::{
    FlakyBackend, RetryPolicy, StoreBackend, UploadBackend, UploadStats,
};
pub use util::{UtilizationSample, UtilizationTrace};
pub use wire::{SalvageReport, Salvaged};
