//! `fleetd`: an incremental fleet-analysis daemon.
//!
//! The batch pipeline ingests a fleet of trace uploads, converts them
//! to powered traces, and runs the 5-step manifestation analysis in
//! one shot. `fleetd` keeps the same pipeline *resident*: uploads
//! arrive one at a time over a localhost socket (or an in-process
//! handle in tests), each is folded into per-app **epoch state** as an
//! interned [`energydx::shard::ShardPartial`] delta, and queries
//! finish the folded state into a report on demand.
//!
//! The load-bearing property is *batch identity*: because
//! [`EnergyDx::map_shard`] + merge is associative with
//! [`ShardPartial::empty`] as the unit, N single-trace deltas merged
//! in accept order finish to **byte-identical** reports as one batch
//! run over the same accepted traces. Everything in this crate —
//! same-release runs extended in place, spill, checkpoint/restore,
//! crash recovery — preserves that equality, and
//! `tests/diff_harness.rs` at the workspace root proves it over random
//! schedules of uploads, spills, checkpoints, restarts, and queries.
//!
//! Module map:
//!
//! - [`convert`] — the one shared bundle → powered-trace conversion.
//! - [`state`] — deterministic epoch state ([`FleetState`]); no I/O.
//! - [`checkpoint`] — CRC-framed, versioned snapshot of the state.
//! - [`queue`] — bounded ingest queue: admission ahead of the state
//!   lock, with explicit backpressure.
//! - [`protocol`] — the framed request/response wire protocol.
//! - [`server`] — the daemon: in-process handle + TCP front end, with
//!   every request (an upload's commit included) on its connection's
//!   thread.
//! - [`client`] — blocking client + an [`UploadBackend`] adapter so
//!   the phone-side retry loop talks to a live daemon.
//! - [`cluster`] — sharded routing, worker transports, circuit
//!   breakers, and retry budgets for multi-node deployments.
//! - [`coordinator`] — the merging coordinator: routes uploads to
//!   shards, fans queries out, rebases + merges the partials.
//! - [`replicate`] — coordinator-side checkpoint replicas that seed
//!   restarted or replacement workers.
//! - [`report`] — state → deterministic operator report (static HTML
//!   + `report.json`) via `energydx-report`.
//! - [`spill`] — bounded-memory mode: cold epochs written to
//!   [`energydx_segment`] files and folded back on query.
//!
//! [`EnergyDx::map_shard`]: energydx::EnergyDx::map_shard
//! [`ShardPartial::empty`]: energydx::shard::ShardPartial::empty
//! [`UploadBackend`]: energydx_trace::upload::UploadBackend

pub mod checkpoint;
pub mod client;
pub mod cluster;
pub mod convert;
pub mod coordinator;
pub mod fixture;
pub mod protocol;
pub mod queue;
pub mod replicate;
pub mod report;
pub mod server;
pub mod spill;
pub mod state;

pub use checkpoint::{checkpoint_bytes, restore_bytes, CheckpointError};
pub use client::{Client, ClientError, ClientTimeouts, TcpBackend};
pub use cluster::{
    shard_for_payload, shard_for_user, CircuitBreaker, DegradePolicy,
    FrameTamper, InProcessTransport, Leg, RetryBudget, TcpTransport,
    WorkerSlot, WorkerTransport,
};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use protocol::{PartialStatus, Request, Response};
pub use queue::{Enqueue, IngestQueue};
pub use replicate::{Replica, ReplicaStore};
pub use server::{
    render_metrics, serve_dispatcher, Dispatch, FleetdHandle, ServerConfig,
    SubmitReply,
};
pub use spill::SpillConfig;
pub use state::{FleetConfig, FleetState, QueryError};
