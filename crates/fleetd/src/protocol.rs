//! The daemon's framed request/response protocol.
//!
//! Every message is one CRC-framed unit, in the same defensive style
//! as wire v2 and the checkpoint format:
//!
//! ```text
//! magic "EDXF" | version u8 = 1 | kind u8 | body_len u32 | body | crc32
//! ```
//!
//! The CRC32 covers `version | kind | body_len | body`, so a flipped
//! bit anywhere after the magic is caught. Decoding never panics; any
//! damage maps to a typed [`ProtocolError`] and the server answers
//! with [`Response::Error`] instead of dropping the connection.
//!
//! Both ends enforce the body cap: a reader refuses a longer declared
//! body before allocating, and an encoder refuses to build one, so an
//! oversized answer reaches the peer as a readable
//! [`Response::Error`] rather than a frame it must abandon mid-stream.

use energydx::ShardPartial;
use energydx_trace::codec::{CodecError, Reader, Writer};
use energydx_trace::store::IngestOutcome;
use energydx_trace::wire;
use std::fmt;
use std::io::{self, Read};

const MAGIC: &[u8; 4] = b"EDXF";
const VERSION: u8 = 1;
/// Upper bound on a frame body; a declared length beyond this is
/// rejected *before* any buffer is allocated, so a corrupt length
/// prefix can never trigger an OOM-sized allocation. (The in-memory
/// [`Reader`] bounds-checks every slice against the received body, so
/// this header check is the only place a length field sizes an
/// allocation.)
pub(crate) const MAX_BODY: usize = 64 << 20;

/// Why a frame or message could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Socket-level failure.
    Io(String),
    /// The peer did not produce a frame within the socket's deadline.
    TimedOut,
    /// The stream does not start a frame with the protocol magic.
    BadMagic,
    /// Unknown protocol version.
    UnsupportedVersion(u8),
    /// The stream ended inside a frame.
    Truncated,
    /// The header declares a body longer than the protocol allows;
    /// rejected before allocating.
    FrameTooLarge {
        /// The length the header declared.
        declared: u64,
        /// The protocol's cap on body length.
        max: u64,
    },
    /// Frame checksum mismatch.
    CrcMismatch,
    /// Unknown message kind for this direction.
    UnknownKind(u8),
    /// Frame intact, content inconsistent.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o: {e}"),
            ProtocolError::TimedOut => {
                f.write_str("peer exceeded the socket deadline")
            }
            ProtocolError::BadMagic => f.write_str("bad frame magic"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            ProtocolError::Truncated => f.write_str("stream ended mid-frame"),
            ProtocolError::FrameTooLarge { declared, max } => write!(
                f,
                "frame body of {declared} bytes exceeds the {max}-byte cap"
            ),
            ProtocolError::CrcMismatch => {
                f.write_str("frame fails its CRC32 check")
            }
            ProtocolError::UnknownKind(k) => {
                write!(f, "unknown message kind {k}")
            }
            ProtocolError::Malformed(d) => write!(f, "malformed frame: {d}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Malformed(e.to_string())
    }
}

/// What a client asks the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ingest one wire payload into `app`'s current epoch.
    Submit {
        /// The app the upload belongs to.
        app: String,
        /// The raw wire-v2 payload, passed through opaquely (the
        /// daemon's ingest pipeline owns decoding and salvage).
        payload: Vec<u8>,
    },
    /// Finish an epoch into a diagnosis report.
    Diagnose {
        /// The app to diagnose.
        app: String,
        /// Epoch id; `None` = the current epoch.
        epoch: Option<u64>,
    },
    /// Ingestion accounting for every app/epoch.
    Stats,
    /// Liveness summary.
    Health,
    /// Write a checkpoint now.
    Checkpoint,
    /// Freeze `app`'s current epoch and open the next one.
    Rollover {
        /// The app to roll over.
        app: String,
    },
    /// Flush a final checkpoint and exit gracefully.
    Shutdown,
    /// Prometheus-text metrics exposition (counters, gauges, stage
    /// duration histograms, queue occupancy).
    Metrics,
    /// Cluster: serialize the worker's full state as checkpoint bytes
    /// (for coordinator-side replication).
    FetchCheckpoint,
    /// Cluster: replace the worker's state with a restored checkpoint
    /// (handoff to a restarted or replacement worker).
    InstallCheckpoint {
        /// Checkpoint bytes as produced by `FetchCheckpoint`.
        data: Vec<u8>,
    },
    /// Cluster: cheap accepted/quarantined totals, used as the health
    /// probe and the staleness check before a handoff.
    Counts,
    /// Cluster: fetch the worker's folded, locally-offset
    /// [`ShardPartial`] of one selection — an epoch's whole fleet or
    /// one release of it — for coordinator-side rebasing and merging.
    /// The one partial request behind every cluster query kind. It
    /// carries the coordinator's last-seen `(epoch, incarnation,
    /// generation)` token; a worker whose resolved epoch still
    /// matches it answers [`Response::PartialNotModified`] — a few
    /// bytes instead of a full partial — so a dashboard polling an
    /// idle fleet pays wire cost proportional to what changed.
    PartialSince {
        /// The app whose partial is wanted.
        app: String,
        /// Epoch id; `None` = the current epoch.
        epoch: Option<u64>,
        /// `None` = every release; `Some(v)` = only release `v`'s
        /// traces, re-anchored to offset 0 (`Some("")` = unversioned
        /// uploads).
        version: Option<String>,
        /// Last-seen `(epoch, incarnation, generation)` from a prior
        /// [`Response::PartialState`]; `None` when the coordinator
        /// holds none.
        token: Option<(u64, u64, u64)>,
    },
    /// Differential query: diagnose the `from` and `to` releases of
    /// one epoch separately and report per-event normalized-power
    /// shifts between them. Served by a single daemon directly and by
    /// a coordinator via per-version shard fan-out.
    Regressions {
        /// The app whose releases are compared.
        app: String,
        /// Epoch id; `None` = the current epoch.
        epoch: Option<u64>,
        /// The baseline release.
        from: String,
        /// The candidate release.
        to: String,
        /// Quantile-shift threshold override; `None` = the server's
        /// default [`energydx_regress::RegressConfig`].
        threshold: Option<f64>,
    },
    /// Render the deterministic operator report (static HTML +
    /// `report.json`) over the daemon's full fleet state. Served by a
    /// single daemon directly and by a coordinator via catalog +
    /// per-epoch partial fan-out.
    Report {
        /// How many ranked app sections to keep; `None` = the
        /// renderer's default.
        top: Option<u32>,
    },
    /// Cluster: the worker's report catalog — every app/epoch's
    /// ingest accounting and version labels, plus deployment counters
    /// — so a coordinator knows what to fan partial requests for.
    Catalog,
}

/// Coarse submit outcome carried over the wire. Repairs and salvage
/// reports stay server-side (visible through `Stats`); the client
/// only needs the acceptance class and, when rejected, the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeCode {
    /// Stored verbatim.
    Clean,
    /// Stored after repair/salvage.
    Recovered,
    /// Quarantined.
    Rejected,
}

impl OutcomeCode {
    /// The class of a full [`IngestOutcome`].
    pub fn of(outcome: &IngestOutcome) -> (OutcomeCode, String) {
        match outcome {
            IngestOutcome::Clean => (OutcomeCode::Clean, String::new()),
            IngestOutcome::Recovered { .. } => {
                (OutcomeCode::Recovered, String::new())
            }
            IngestOutcome::Rejected(reason) => {
                (OutcomeCode::Rejected, reason.to_string())
            }
        }
    }
}

/// One epoch's accounting in a worker's report catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCatalog {
    /// Epoch id.
    pub epoch: u64,
    /// Uploads accepted without repair.
    pub clean: u64,
    /// Uploads accepted after repair/salvage.
    pub recovered: u64,
    /// Quarantine counts by reason label, sorted by reason.
    pub quarantine: Vec<(String, u64)>,
    /// Version labels with traces in the epoch, sorted.
    pub versions: Vec<String>,
}

/// One app's entry in a worker's report catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCatalog {
    /// App name.
    pub app: String,
    /// The worker's current epoch for the app.
    pub current_epoch: u64,
    /// Per-epoch accounting, sorted by epoch id.
    pub epochs: Vec<EpochCatalog>,
}

/// A worker's deployment-side counters (shed/spill/cache), summed by
/// the coordinator into the cluster report's deployment panel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeploymentCounters {
    /// Submissions shed with `RetryAfter`.
    pub shed: u64,
    /// Spilled segment runs on disk.
    pub spilled_runs: u64,
    /// Traces resident in spilled runs.
    pub spilled_traces: u64,
    /// Per-layer query-cache `(layer, hits, misses)`.
    pub cache: Vec<(String, u64, u64)>,
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submit's ingest outcome (the upload was processed).
    Outcome {
        /// Acceptance class.
        code: OutcomeCode,
        /// Reject reason (display form), empty unless rejected.
        reason: String,
    },
    /// Backpressure: the ingest queue is full; retry after `ms`.
    RetryAfter {
        /// Suggested client-side wait in milliseconds.
        ms: u64,
    },
    /// A canonical-JSON diagnosis report.
    Report {
        /// The report bytes, exactly as the batch CLI would print.
        json: String,
    },
    /// Canonical-JSON ingestion accounting.
    Stats {
        /// The stats document.
        json: String,
    },
    /// Canonical-JSON liveness summary.
    Health {
        /// The health document.
        json: String,
    },
    /// Result of a rollover: the new current epoch.
    Epoch {
        /// The freshly opened epoch id.
        epoch: u64,
    },
    /// The request completed with nothing to report.
    Done,
    /// The request failed; the message says why.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Prometheus text exposition of the daemon's registry.
    Metrics {
        /// The exposition body, ready to serve to a scraper.
        text: String,
    },
    /// Cluster: the worker's serialized checkpoint.
    CheckpointData {
        /// Checkpoint bytes, installable via
        /// [`Request::InstallCheckpoint`].
        data: Vec<u8>,
    },
    /// Cluster: accepted/quarantined totals.
    Counts {
        /// Uploads stored (clean + recovered) across all apps/epochs.
        accepted: u64,
        /// Uploads quarantined across all apps/epochs.
        quarantined: u64,
    },
    /// Cluster: a coordinator answered a query without every shard.
    /// The report covers the surviving workers only — explicitly
    /// labeled, never silently passed off as complete.
    Degraded {
        /// Worker indexes that could not be reached.
        missing: Vec<u32>,
        /// Canonical-JSON report over the surviving shards.
        json: String,
    },
    /// Cluster: the worker's state still matches the token a
    /// [`Request::PartialSince`] carried — the coordinator's cached
    /// partial is current, so no partial rides the wire.
    PartialNotModified {
        /// The resolved epoch id the token validated against.
        epoch: u64,
    },
    /// Cluster: the partial answering a [`Request::PartialSince`] (or
    /// why there is none), in the row layout checkpoints and spill
    /// segments share ([`energydx_segment::encode_partial`]), plus the
    /// `(incarnation, generation)` the coordinator should present as
    /// its token next time.
    PartialState {
        /// Whether the worker holds the app/epoch at all.
        status: PartialStatus,
        /// The resolved epoch id (0 unless `status` is `Found`).
        epoch: u64,
        /// The worker state's incarnation nonce (0 unless `Found`).
        incarnation: u64,
        /// The epoch's generation at fold time (0 unless `Found`).
        generation: u64,
        /// The folded, locally-offset partial (empty unless `Found`).
        partial: ShardPartial,
    },
    /// Both operator-report artifacts, byte-deterministic. A non-empty
    /// `missing` list marks a degraded cluster render: the artifacts
    /// carry the same list in their Degraded banner.
    ReportArtifacts {
        /// Worker indexes that could not be reached (empty on a
        /// single daemon or a healthy cluster).
        missing: Vec<u32>,
        /// The self-contained static HTML page.
        html: String,
        /// The canonical `report.json` document.
        json: String,
    },
    /// Cluster: the worker's report catalog (see [`Request::Catalog`]).
    Catalog {
        /// Per-app accounting, sorted by app name.
        apps: Vec<AppCatalog>,
        /// The worker's deployment counters.
        deployment: DeploymentCounters,
    },
}

/// Whether a worker could resolve a [`Request::PartialSince`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialStatus {
    /// The worker holds the epoch; the partial is its contribution.
    Found,
    /// The worker has never seen the app (an empty contribution).
    UnknownApp,
    /// The app exists on the worker but the requested epoch does not.
    UnknownEpoch,
}

/// Frame bytes before the body: magic, version, kind, body length.
const HEAD: usize = 4 + 1 + 1 + 4;
/// Body capacity reserved for messages without a bulk payload.
const SMALL_BODY: usize = 64;

/// The cap both sides enforce: the reader before allocating, the
/// sender before writing anything to the peer.
fn check_body_len(len: usize) -> Result<(), ProtocolError> {
    if len > MAX_BODY {
        return Err(ProtocolError::FrameTooLarge {
            declared: len as u64,
            max: MAX_BODY as u64,
        });
    }
    Ok(())
}

/// Starts a frame in one buffer: magic, version, and placeholders for
/// kind and body length that [`seal`] fills in. `body_len` is the
/// body's exact length when the message knows it up front (a bulk
/// payload), checked against the cap before anything is allocated.
fn open_frame(body_len: Option<usize>) -> Result<Writer, ProtocolError> {
    if let Some(len) = body_len {
        check_body_len(len)?;
    }
    let mut w =
        Writer::with_capacity(HEAD + body_len.unwrap_or(SMALL_BODY) + 4);
    w.raw(MAGIC);
    w.u8(VERSION);
    w.u8(0);
    w.u32(0);
    Ok(w)
}

/// Finishes a frame begun by [`open_frame`] once its body is written:
/// kind, body length, and the CRC32 over everything after the magic.
fn seal(w: Writer, kind: u8) -> Result<Vec<u8>, ProtocolError> {
    let mut frame = w.into_vec();
    let body_len = frame.len() - HEAD;
    check_body_len(body_len)?;
    frame[MAGIC.len() + 1] = kind;
    frame[MAGIC.len() + 2..HEAD]
        .copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = wire::crc32(&frame[MAGIC.len()..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// One decoded frame: the message kind and its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind byte.
    pub kind: u8,
    /// Message body.
    pub body: Vec<u8>,
}

/// Reads one frame from a stream. `Ok(None)` means the peer closed
/// the connection cleanly at a frame boundary.
///
/// # Errors
///
/// Any mid-frame EOF, bad magic, version/CRC mismatch, or oversized
/// body is a typed [`ProtocolError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtocolError> {
    // One byte at a time first: EOF before any byte is a clean close,
    // EOF after a partial magic is a truncated frame.
    let mut magic = [0u8; 4];
    let first = r.read(&mut magic[..1]).map_err(|e| match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            ProtocolError::TimedOut
        }
        _ => ProtocolError::Io(e.to_string()),
    })?;
    if first == 0 {
        return Ok(None);
    }
    read_fully(r, &mut magic[1..])?;
    if &magic != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let mut head = [0u8; 6];
    read_fully(r, &mut head)?;
    let version = head[0];
    if version != VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let kind = head[1];
    let body_len = u32::from_le_bytes(head[2..6].try_into().unwrap()) as usize;
    check_body_len(body_len)?;
    let mut body = vec![0u8; body_len];
    read_fully(r, &mut body)?;
    let mut crc_bytes = [0u8; 4];
    read_fully(r, &mut crc_bytes)?;
    let crc = wire::crc32_update(wire::crc32(&head), &body);
    if crc != u32::from_le_bytes(crc_bytes) {
        return Err(ProtocolError::CrcMismatch);
    }
    Ok(Some(Frame { kind, body }))
}

fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtocolError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => ProtocolError::Truncated,
        // SO_RCVTIMEO surfaces as WouldBlock on Unix, TimedOut on
        // Windows; either way the peer missed its deadline.
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            ProtocolError::TimedOut
        }
        _ => ProtocolError::Io(e.to_string()),
    })
}

impl Request {
    /// The exact body length of a request that carries a bulk payload,
    /// known before encoding; `None` for the small fixed-shape ones.
    fn bulk_body_len(&self) -> Option<usize> {
        match self {
            Request::Submit { app, payload } => {
                Some(8 + app.len() + payload.len())
            }
            Request::InstallCheckpoint { data } => Some(4 + data.len()),
            _ => None,
        }
    }

    /// Encodes the request as one framed message.
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds the protocol's frame cap (use
    /// [`Request::try_encode`] to handle that case as an error).
    pub fn encode(&self) -> Vec<u8> {
        match self.try_encode() {
            Ok(frame) => frame,
            Err(e) => panic!("request not encodable: {e}"),
        }
    }

    /// Encodes the request as one framed message, built in a single
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::FrameTooLarge`] when the body exceeds the cap
    /// every reader enforces; nothing should be sent then.
    pub fn try_encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut w = open_frame(self.bulk_body_len())?;
        let kind = match self {
            Request::Submit { app, payload } => {
                w.str(app);
                w.bytes(payload);
                1
            }
            Request::Diagnose { app, epoch } => {
                w.str(app);
                w.opt(*epoch, Writer::u64);
                2
            }
            Request::Stats => 3,
            Request::Health => 4,
            Request::Checkpoint => 6,
            Request::Rollover { app } => {
                w.str(app);
                7
            }
            Request::Shutdown => 8,
            Request::Metrics => 9,
            Request::FetchCheckpoint => 11,
            Request::InstallCheckpoint { data } => {
                w.bytes(data);
                12
            }
            Request::Counts => 13,
            Request::PartialSince {
                app,
                epoch,
                version,
                token,
            } => {
                w.str(app);
                w.opt(*epoch, Writer::u64);
                w.opt(version.as_deref(), Writer::str);
                w.opt(*token, |w, (known_epoch, incarnation, generation)| {
                    w.u64(known_epoch);
                    w.u64(incarnation);
                    w.u64(generation);
                });
                14
            }
            Request::Regressions {
                app,
                epoch,
                from,
                to,
                threshold,
            } => {
                w.str(app);
                w.opt(*epoch, Writer::u64);
                w.str(from);
                w.str(to);
                w.opt(*threshold, Writer::f64);
                15
            }
            Request::Report { top } => {
                w.opt(*top, Writer::u32);
                17
            }
            Request::Catalog => 18,
        };
        seal(w, kind)
    }

    /// Decodes a request from a received frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] / [`ProtocolError::Malformed`].
    pub fn decode(frame: &Frame) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(&frame.body);
        let req = match frame.kind {
            1 => Request::Submit {
                app: r.str("app")?,
                payload: r.bytes("payload")?,
            },
            2 => Request::Diagnose {
                app: r.str("app")?,
                epoch: r.opt("epoch flag", |r| r.u64("epoch"))?,
            },
            3 => Request::Stats,
            4 => Request::Health,
            6 => Request::Checkpoint,
            7 => Request::Rollover { app: r.str("app")? },
            8 => Request::Shutdown,
            9 => Request::Metrics,
            11 => Request::FetchCheckpoint,
            12 => Request::InstallCheckpoint {
                data: r.bytes("checkpoint data")?,
            },
            13 => Request::Counts,
            14 => Request::PartialSince {
                app: r.str("app")?,
                epoch: r.opt("epoch flag", |r| r.u64("epoch"))?,
                version: r.opt("version flag", |r| r.str("version"))?,
                token: r.opt("token flag", |r| {
                    Ok((
                        r.u64("known epoch")?,
                        r.u64("incarnation")?,
                        r.u64("generation")?,
                    ))
                })?,
            },
            15 => Request::Regressions {
                app: r.str("app")?,
                epoch: r.opt("epoch flag", |r| r.u64("epoch"))?,
                from: r.str("from version")?,
                to: r.str("to version")?,
                threshold: r.opt("threshold flag", |r| r.f64("threshold"))?,
            },
            17 => Request::Report {
                top: r.opt("top flag", |r| r.u32("top"))?,
            },
            18 => Request::Catalog,
            // Kind 5 asked for a compaction, which ingestion no longer
            // needs; kinds 10 and 16 belonged to partial requests that
            // `PartialSince` replaced. They stay unassigned, so an old
            // peer's frame is a typed error, never a misread message.
            k => return Err(ProtocolError::UnknownKind(k)),
        };
        expect_drained(&r)?;
        Ok(req)
    }
}

impl Response {
    /// The exact body length of a response that carries a bulk
    /// payload, known before encoding; `None` for the others.
    fn bulk_body_len(&self) -> Option<usize> {
        match self {
            Response::Outcome { reason, .. } => Some(5 + reason.len()),
            Response::Report { json }
            | Response::Stats { json }
            | Response::Health { json } => Some(4 + json.len()),
            Response::Error { message } => Some(4 + message.len()),
            Response::Metrics { text } => Some(4 + text.len()),
            Response::CheckpointData { data } => Some(4 + data.len()),
            Response::Degraded { missing, json } => {
                Some(8 + 4 * missing.len() + json.len())
            }
            Response::ReportArtifacts {
                missing,
                html,
                json,
            } => Some(12 + 4 * missing.len() + html.len() + json.len()),
            _ => None,
        }
    }

    /// Encodes the response as one framed message. A body over the
    /// protocol's frame cap encodes as a [`Response::Error`] naming
    /// its size and the cap instead, so the peer always receives a
    /// frame it can read.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode().unwrap_or_else(Self::error_frame)
    }

    /// `Response::Report { json }.encode()`, byte for byte, from
    /// borrowed JSON: a caller that holds the report shared encodes it
    /// without first copying it into a `Response`.
    pub(crate) fn encode_report(json: &str) -> Vec<u8> {
        open_frame(Some(4 + json.len()))
            .and_then(|mut w| {
                w.str(json);
                seal(w, 3)
            })
            .unwrap_or_else(Self::error_frame)
    }

    /// The frame [`Response::encode`] sends in place of a response it
    /// cannot encode.
    fn error_frame(e: ProtocolError) -> Vec<u8> {
        Response::Error {
            message: e.to_string(),
        }
        .encode()
    }

    /// Encodes the response as one framed message, built in a single
    /// buffer; refuses a body over the cap every reader enforces.
    fn try_encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut w = open_frame(self.bulk_body_len())?;
        let kind = match self {
            Response::Outcome { code, reason } => {
                w.u8(match code {
                    OutcomeCode::Clean => 0,
                    OutcomeCode::Recovered => 1,
                    OutcomeCode::Rejected => 2,
                });
                w.str(reason);
                1
            }
            Response::RetryAfter { ms } => {
                w.u64(*ms);
                2
            }
            Response::Report { json } => {
                w.str(json);
                3
            }
            Response::Stats { json } => {
                w.str(json);
                4
            }
            Response::Health { json } => {
                w.str(json);
                5
            }
            Response::Epoch { epoch } => {
                w.u64(*epoch);
                6
            }
            Response::Done => 7,
            Response::Error { message } => {
                w.str(message);
                8
            }
            Response::Metrics { text } => {
                w.str(text);
                9
            }
            Response::CheckpointData { data } => {
                w.bytes(data);
                11
            }
            Response::Counts {
                accepted,
                quarantined,
            } => {
                w.u64(*accepted);
                w.u64(*quarantined);
                12
            }
            Response::Degraded { missing, json } => {
                w.u32(missing.len() as u32);
                for worker in missing {
                    w.u32(*worker);
                }
                w.str(json);
                13
            }
            Response::PartialNotModified { epoch } => {
                w.u64(*epoch);
                14
            }
            Response::PartialState {
                status,
                epoch,
                incarnation,
                generation,
                partial,
            } => {
                w.u8(match status {
                    PartialStatus::Found => 0,
                    PartialStatus::UnknownApp => 1,
                    PartialStatus::UnknownEpoch => 2,
                });
                w.u64(*epoch);
                w.u64(*incarnation);
                w.u64(*generation);
                energydx_segment::encode_partial(&mut w, &partial.to_parts());
                15
            }
            Response::ReportArtifacts {
                missing,
                html,
                json,
            } => {
                w.u32(missing.len() as u32);
                for worker in missing {
                    w.u32(*worker);
                }
                w.str(html);
                w.str(json);
                16
            }
            Response::Catalog { apps, deployment } => {
                w.u32(apps.len() as u32);
                for app in apps {
                    w.str(&app.app);
                    w.u64(app.current_epoch);
                    w.u32(app.epochs.len() as u32);
                    for e in &app.epochs {
                        w.u64(e.epoch);
                        w.u64(e.clean);
                        w.u64(e.recovered);
                        w.u32(e.quarantine.len() as u32);
                        for (reason, n) in &e.quarantine {
                            w.str(reason);
                            w.u64(*n);
                        }
                        w.u32(e.versions.len() as u32);
                        for version in &e.versions {
                            w.str(version);
                        }
                    }
                }
                w.u64(deployment.shed);
                w.u64(deployment.spilled_runs);
                w.u64(deployment.spilled_traces);
                w.u32(deployment.cache.len() as u32);
                for (layer, hits, misses) in &deployment.cache {
                    w.str(layer);
                    w.u64(*hits);
                    w.u64(*misses);
                }
                17
            }
        };
        seal(w, kind)
    }

    /// Decodes a response from a received frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] / [`ProtocolError::Malformed`].
    pub fn decode(frame: &Frame) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(&frame.body);
        let resp = match frame.kind {
            1 => {
                let code = match r.u8("outcome code")? {
                    0 => OutcomeCode::Clean,
                    1 => OutcomeCode::Recovered,
                    2 => OutcomeCode::Rejected,
                    c => {
                        return Err(ProtocolError::Malformed(format!(
                            "unknown outcome code {c}"
                        )))
                    }
                };
                Response::Outcome {
                    code,
                    reason: r.str("reason")?,
                }
            }
            2 => Response::RetryAfter { ms: r.u64("ms")? },
            3 => Response::Report {
                json: r.str("json")?,
            },
            4 => Response::Stats {
                json: r.str("json")?,
            },
            5 => Response::Health {
                json: r.str("json")?,
            },
            6 => Response::Epoch {
                epoch: r.u64("epoch")?,
            },
            7 => Response::Done,
            8 => Response::Error {
                message: r.str("message")?,
            },
            9 => Response::Metrics {
                text: r.str("text")?,
            },
            11 => Response::CheckpointData {
                data: r.bytes("checkpoint data")?,
            },
            12 => Response::Counts {
                accepted: r.u64("accepted")?,
                quarantined: r.u64("quarantined")?,
            },
            13 => {
                let n = r.u32("missing count")? as usize;
                let mut missing = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    missing.push(r.u32("missing worker")?);
                }
                Response::Degraded {
                    missing,
                    json: r.str("json")?,
                }
            }
            14 => Response::PartialNotModified {
                epoch: r.u64("epoch")?,
            },
            15 => {
                let status = match r.u8("partial status")? {
                    0 => PartialStatus::Found,
                    1 => PartialStatus::UnknownApp,
                    2 => PartialStatus::UnknownEpoch,
                    s => {
                        return Err(ProtocolError::Malformed(format!(
                            "unknown partial status {s}"
                        )))
                    }
                };
                let epoch = r.u64("epoch")?;
                let incarnation = r.u64("incarnation")?;
                let generation = r.u64("generation")?;
                let partial = energydx_segment::decode_partial(&mut r)
                    .map_err(|e| ProtocolError::Malformed(e.to_string()))?;
                Response::PartialState {
                    status,
                    epoch,
                    incarnation,
                    generation,
                    partial,
                }
            }
            16 => {
                let n = r.u32("missing count")? as usize;
                let mut missing = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    missing.push(r.u32("missing worker")?);
                }
                Response::ReportArtifacts {
                    missing,
                    html: r.str("html")?,
                    json: r.str("json")?,
                }
            }
            17 => {
                let app_count = r.u32("app count")? as usize;
                let mut apps = Vec::with_capacity(app_count.min(1 << 10));
                for _ in 0..app_count {
                    let app = r.str("app")?;
                    let current_epoch = r.u64("current epoch")?;
                    let epoch_count = r.u32("epoch count")? as usize;
                    let mut epochs =
                        Vec::with_capacity(epoch_count.min(1 << 10));
                    for _ in 0..epoch_count {
                        let epoch = r.u64("epoch")?;
                        let clean = r.u64("clean")?;
                        let recovered = r.u64("recovered")?;
                        let reason_count = r.u32("reason count")? as usize;
                        let mut quarantine =
                            Vec::with_capacity(reason_count.min(1 << 10));
                        for _ in 0..reason_count {
                            let reason = r.str("reason")?;
                            quarantine.push((reason, r.u64("count")?));
                        }
                        let version_count = r.u32("version count")? as usize;
                        let mut versions =
                            Vec::with_capacity(version_count.min(1 << 10));
                        for _ in 0..version_count {
                            versions.push(r.str("version")?);
                        }
                        epochs.push(EpochCatalog {
                            epoch,
                            clean,
                            recovered,
                            quarantine,
                            versions,
                        });
                    }
                    apps.push(AppCatalog {
                        app,
                        current_epoch,
                        epochs,
                    });
                }
                let shed = r.u64("shed")?;
                let spilled_runs = r.u64("spilled runs")?;
                let spilled_traces = r.u64("spilled traces")?;
                let cache_count = r.u32("cache layer count")? as usize;
                let mut cache = Vec::with_capacity(cache_count.min(1 << 10));
                for _ in 0..cache_count {
                    let layer = r.str("cache layer")?;
                    let hits = r.u64("hits")?;
                    cache.push((layer, hits, r.u64("misses")?));
                }
                Response::Catalog {
                    apps,
                    deployment: DeploymentCounters {
                        shed,
                        spilled_runs,
                        spilled_traces,
                        cache,
                    },
                }
            }
            // Kind 10 stays unassigned, like request kinds 10 and 16.
            k => return Err(ProtocolError::UnknownKind(k)),
        };
        expect_drained(&r)?;
        Ok(resp)
    }
}

fn expect_drained(r: &Reader<'_>) -> Result<(), ProtocolError> {
    if r.remaining() != 0 {
        return Err(ProtocolError::Malformed(format!(
            "{} trailing byte(s) in frame body",
            r.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::bundles_to_input;
    use crate::fixture;

    fn sample_partial() -> ShardPartial {
        let bundles = vec![fixture::bundle("u1", 0), fixture::bundle("u2", 1)];
        let input = bundles_to_input(&bundles);
        energydx::EnergyDx::default().map_shard(input.traces(), 0)
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::Submit {
                app: "maps".into(),
                payload: vec![1, 2, 3],
            },
            Request::Diagnose {
                app: "maps".into(),
                epoch: Some(4),
            },
            Request::Diagnose {
                app: "maps".into(),
                epoch: None,
            },
            Request::Stats,
            Request::Health,
            Request::Checkpoint,
            Request::Rollover { app: "maps".into() },
            Request::Shutdown,
            Request::Metrics,
            Request::FetchCheckpoint,
            Request::InstallCheckpoint {
                data: vec![9, 8, 7, 6],
            },
            Request::Counts,
            Request::PartialSince {
                app: "maps".into(),
                epoch: Some(2),
                version: None,
                token: Some((2, 77, 5)),
            },
            Request::PartialSince {
                app: "maps".into(),
                epoch: None,
                version: None,
                token: None,
            },
            Request::Regressions {
                app: "maps".into(),
                epoch: Some(1),
                from: "1.9.0".into(),
                to: "2.0.0".into(),
                threshold: Some(0.25),
            },
            Request::Regressions {
                app: "maps".into(),
                epoch: None,
                from: "v1".into(),
                to: "v2".into(),
                threshold: None,
            },
            Request::PartialSince {
                app: "maps".into(),
                epoch: Some(2),
                version: Some("2.0.0".into()),
                token: Some((2, 77, 5)),
            },
            Request::PartialSince {
                app: "maps".into(),
                epoch: None,
                version: Some(String::new()),
                token: None,
            },
            Request::Report { top: Some(8) },
            Request::Report { top: None },
            Request::Catalog,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Outcome {
                code: OutcomeCode::Clean,
                reason: String::new(),
            },
            Response::Outcome {
                code: OutcomeCode::Rejected,
                reason: "duplicate".into(),
            },
            Response::RetryAfter { ms: 250 },
            Response::Report { json: "{}".into() },
            Response::Stats { json: "{}".into() },
            Response::Health { json: "{}".into() },
            Response::Epoch { epoch: 2 },
            Response::Done,
            Response::Error {
                message: "unknown app".into(),
            },
            Response::Metrics {
                text: "# TYPE up gauge\nup 1\n".into(),
            },
            Response::CheckpointData {
                data: vec![1, 2, 3, 4, 5],
            },
            Response::Counts {
                accepted: 41,
                quarantined: 7,
            },
            Response::Degraded {
                missing: vec![1, 2],
                json: "{}".into(),
            },
            Response::Degraded {
                missing: vec![],
                json: "{}".into(),
            },
            Response::PartialNotModified { epoch: 3 },
            Response::PartialState {
                status: PartialStatus::Found,
                epoch: 3,
                incarnation: 77,
                generation: 5,
                partial: sample_partial(),
            },
            Response::PartialState {
                status: PartialStatus::UnknownApp,
                epoch: 0,
                incarnation: 0,
                generation: 0,
                partial: ShardPartial::empty(),
            },
            Response::PartialState {
                status: PartialStatus::UnknownEpoch,
                epoch: 0,
                incarnation: 0,
                generation: 0,
                partial: ShardPartial::empty(),
            },
            Response::ReportArtifacts {
                missing: vec![1, 4],
                html: "<!DOCTYPE html>\n<html></html>\n".into(),
                json: "{}\n".into(),
            },
            Response::ReportArtifacts {
                missing: vec![],
                html: String::new(),
                json: String::new(),
            },
            Response::Catalog {
                apps: vec![AppCatalog {
                    app: "maps".into(),
                    current_epoch: 2,
                    epochs: vec![
                        EpochCatalog {
                            epoch: 1,
                            clean: 10,
                            recovered: 2,
                            quarantine: vec![("duplicate".into(), 3)],
                            versions: vec!["1.9.0".into(), "2.0.0".into()],
                        },
                        EpochCatalog {
                            epoch: 2,
                            clean: 4,
                            recovered: 0,
                            quarantine: vec![],
                            versions: vec![],
                        },
                    ],
                }],
                deployment: DeploymentCounters {
                    shed: 5,
                    spilled_runs: 2,
                    spilled_traces: 40,
                    cache: vec![
                        ("state".into(), 7, 3),
                        ("segment".into(), 1, 0),
                    ],
                },
            },
            Response::Catalog {
                apps: vec![],
                deployment: DeploymentCounters::default(),
            },
        ]
    }

    #[test]
    fn requests_round_trip_through_a_stream() {
        for req in requests() {
            let bytes = req.encode();
            let mut cursor = io::Cursor::new(bytes);
            let frame = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(Request::decode(&frame).unwrap(), req);
            assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        }
    }

    #[test]
    fn responses_round_trip_through_a_stream() {
        for resp in responses() {
            let bytes = resp.encode();
            let mut cursor = io::Cursor::new(bytes);
            let frame = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(Response::decode(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn retired_kinds_decode_as_unknown() {
        // Request kinds 10 and 16 and response kind 10 carried the
        // partial messages `PartialSince` replaced, and request kind 5
        // asked for a compaction the run-extending commit made
        // unnecessary; their bytes stay unused, so an old peer's frame
        // is a typed error.
        let frame = |kind: u8| Frame {
            kind,
            body: vec![0; 12],
        };
        for kind in [5, 10, 16] {
            assert_eq!(
                Request::decode(&frame(kind)).unwrap_err(),
                ProtocolError::UnknownKind(kind)
            );
        }
        assert_eq!(
            Response::decode(&frame(10)).unwrap_err(),
            ProtocolError::UnknownKind(10)
        );
    }

    #[test]
    fn corrupt_frames_are_typed_errors_not_panics() {
        let good = Request::Stats.encode();
        // Flip one bit in every position after the magic: all must be
        // caught by the CRC (or the version check), none may panic.
        for i in 4..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            let err = read_frame(&mut io::Cursor::new(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::CrcMismatch
                        | ProtocolError::UnsupportedVersion(_)
                        | ProtocolError::Truncated
                        | ProtocolError::FrameTooLarge { .. }
                        | ProtocolError::Malformed(_)
                ),
                "byte {i}: {err:?}"
            );
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            read_frame(&mut io::Cursor::new(bad)).unwrap_err(),
            ProtocolError::BadMagic
        );
        // Truncation at every boundary inside the frame.
        for cut in 1..good.len() {
            let err =
                read_frame(&mut io::Cursor::new(&good[..cut])).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated | ProtocolError::Io(_)),
                "cut {cut}: {err:?}"
            );
        }
    }

    /// A reader that hands out one byte per `read` call, the worst
    /// fragmentation a socket can produce.
    struct OneByteReader<R>(R);

    impl<R: Read> Read for OneByteReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn frames_read_identically_one_byte_at_a_time() {
        let frames = requests()
            .iter()
            .map(Request::encode)
            .chain(responses().iter().map(Response::encode))
            .collect::<Vec<_>>();
        for bytes in frames {
            let whole = read_frame(&mut io::Cursor::new(&bytes)).unwrap();
            let mut trickle = OneByteReader(io::Cursor::new(&bytes));
            assert_eq!(read_frame(&mut trickle).unwrap(), whole);
            assert!(read_frame(&mut trickle).unwrap().is_none());
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frame_layout_is_pinned_byte_for_byte() {
        // magic | version | kind | body_len | body | crc32, the CRC
        // computed independently (zlib) over version..body.
        let req = Request::Diagnose {
            app: "maps".into(),
            epoch: Some(4),
        };
        assert_eq!(
            hex(&req.encode()),
            "4544584601021100000004000000\
             6d6170730104000000000000003b5df0ea"
        );
        let resp = Response::Report {
            json: "{}\n".into(),
        };
        assert_eq!(
            hex(&resp.encode()),
            "45445846010307000000030000007b7d0afd2b4f9f"
        );
        // A partial's row layout, after the status, epoch, incarnation
        // and generation: names, then per run its offset and per trace
        // the ids and the powers, then the run's emptied slots.
        let resp = Response::PartialState {
            status: PartialStatus::Found,
            epoch: 2,
            incarnation: 7,
            generation: 9,
            partial: pinned_partial(),
        };
        assert_eq!(
            hex(&resp.encode()),
            "45445846010f7f00000000020000000000000007000000000000000900\
             0000000000000200000003000000677073030000006e65740100000003\
             000000000000000300000002000000010000000000000000000000\
             00205e4000000000006073400000000001000000010000000000000000\
             2045400100000004000000000000000100000000000000\
             0b3b622b"
        );
    }

    /// Two names, two traces and one emptied slot between them, in one
    /// run at offset 3.
    fn pinned_partial() -> ShardPartial {
        use energydx::shard::{SegmentParts, ShardPartialParts};
        use energydx_trace::intern::{EventId, InternedTrace};
        let trace = |ids: &[usize], powers: &[f64]| {
            let ids = ids.iter().map(|&i| EventId::from_index(i)).collect();
            InternedTrace::from_columns(ids, powers.to_vec()).unwrap()
        };
        ShardPartial::from_parts(ShardPartialParts {
            names: vec!["gps".into(), "net".into()],
            segments: vec![SegmentParts {
                offset: 3,
                traces: vec![
                    trace(&[1, 0], &[120.5, 310.0]),
                    InternedTrace::default(),
                    trace(&[1], &[42.25]),
                ],
                skipped: vec![(4, 1)],
            }],
        })
        .unwrap()
    }

    #[test]
    fn a_partial_state_holding_an_impossible_partial_is_malformed() {
        let good = Response::PartialState {
            status: PartialStatus::Found,
            epoch: 2,
            incarnation: 7,
            generation: 9,
            partial: pinned_partial(),
        }
        .encode();
        let frame = read_frame(&mut io::Cursor::new(good)).unwrap().unwrap();
        let at = |value: [u8; 8]| {
            frame.body.windows(8).position(|w| w == value).unwrap()
        };
        // A non-finite power, which mapping never leaves in a trace,
        // and a run offset whose range overflows.
        let power = at(120.5f64.to_le_bytes());
        let offset = at(3u64.to_le_bytes());
        let damage = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .map(|p| (power, p.to_le_bytes()))
            .into_iter()
            .chain([(offset, u64::MAX.to_le_bytes())]);
        for (at, value) in damage {
            let mut body = frame.body.clone();
            body[at..at + 8].copy_from_slice(&value);
            match Response::decode(&Frame { kind: 15, body }) {
                Err(ProtocolError::Malformed(_)) => {}
                other => panic!("{value:02x?} at {at}: got {other:?}"),
            }
        }
    }

    #[test]
    fn bulk_body_lengths_are_exact() {
        let sized = requests()
            .iter()
            .map(|r| (r.bulk_body_len(), r.encode()))
            .chain(responses().iter().map(|r| (r.bulk_body_len(), r.encode())))
            .collect::<Vec<_>>();
        assert!(sized.iter().any(|(len, _)| len.is_some()));
        for (len, bytes) in sized {
            if let Some(len) = len {
                assert_eq!(len, bytes.len() - HEAD - 4, "{}", hex(&bytes));
            }
        }
    }

    #[test]
    fn report_frames_from_borrowed_json_equal_the_encoded_response() {
        // Zeroed buffers near the cap keep their pages untouched until
        // an encoder copies them: a body of exactly the cap encodes,
        // one byte more is the same error frame from both encoders.
        let bodies = [
            String::new(),
            "{\n  \"traces\": []\n}\n".to_string(),
            "{\"event\": \"ünïcödé → 電池 🔋\"}".to_string(),
            String::from_utf8(vec![0; MAX_BODY - 4]).unwrap(),
            String::from_utf8(vec![0; MAX_BODY - 3]).unwrap(),
        ];
        for json in bodies {
            let len = json.len();
            let resp = Response::Report { json };
            let Response::Report { json } = &resp else {
                unreachable!("built as a Report above")
            };
            let borrowed = Response::encode_report(json);
            assert!(borrowed == resp.encode(), "{len}-byte report differs");
            let frame = read_frame(&mut io::Cursor::new(&borrowed))
                .unwrap()
                .unwrap();
            let decoded = Response::decode(&frame).unwrap();
            if len + 4 <= MAX_BODY {
                assert!(decoded == resp, "{len}-byte report round trip");
            } else {
                assert!(matches!(decoded, Response::Error { .. }));
            }
        }
    }

    #[test]
    fn an_over_cap_response_arrives_as_a_readable_error_frame() {
        // Zeroed buffers: the encoder refuses before copying them, so
        // their pages are never touched.
        let over = Response::Report {
            json: String::from_utf8(vec![0; MAX_BODY]).unwrap(),
        };
        let declared = MAX_BODY as u64 + 4;
        let too_large = ProtocolError::FrameTooLarge {
            declared,
            max: MAX_BODY as u64,
        };
        assert_eq!(over.try_encode().unwrap_err(), too_large);
        let bytes = over.encode();
        let frame = read_frame(&mut io::Cursor::new(&bytes)).unwrap().unwrap();
        match Response::decode(&frame).unwrap() {
            Response::Error { message } => {
                assert!(message.contains(&declared.to_string()), "{message}");
                assert!(message.contains(&MAX_BODY.to_string()), "{message}");
            }
            other => panic!("expected an Error frame, got {other:?}"),
        }
        // The request side refuses the same way.
        let submit = Request::Submit {
            app: "maps".into(),
            payload: vec![0; MAX_BODY],
        };
        assert_eq!(
            submit.try_encode().unwrap_err(),
            ProtocolError::FrameTooLarge {
                declared: MAX_BODY as u64 + 12,
                max: MAX_BODY as u64,
            }
        );
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocating() {
        // A hand-built header declaring a body of u32::MAX bytes (and
        // carrying none). The reader must refuse at the header, with
        // the declared size in the error — not attempt a 4 GiB buffer
        // and fail on EOF.
        let mut bad = Vec::new();
        bad.extend_from_slice(MAGIC);
        bad.push(VERSION);
        bad.push(3); // Stats
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut io::Cursor::new(bad)).unwrap_err(),
            ProtocolError::FrameTooLarge {
                declared: u32::MAX as u64,
                max: MAX_BODY as u64,
            }
        );
        // The guard is exact: one byte past the cap is already refused.
        let over = (MAX_BODY as u32) + 1;
        let mut bad = Vec::new();
        bad.extend_from_slice(MAGIC);
        bad.push(VERSION);
        bad.push(3);
        bad.extend_from_slice(&over.to_le_bytes());
        assert_eq!(
            read_frame(&mut io::Cursor::new(bad)).unwrap_err(),
            ProtocolError::FrameTooLarge {
                declared: over as u64,
                max: MAX_BODY as u64,
            }
        );
    }
}
