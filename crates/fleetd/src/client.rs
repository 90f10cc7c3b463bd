//! Blocking client for the daemon, plus the adapter that lets the
//! phone-side retry loop ([`energydx_trace::upload`]) talk to a live
//! daemon: [`TcpBackend`] maps `RetryAfter` responses into
//! [`TransientUploadError::with_retry_after`], so the daemon's
//! backpressure becomes the uploader's wait floor.

use crate::protocol::{
    read_frame, OutcomeCode, ProtocolError, Request, Response,
};
use energydx_trace::store::{IngestOutcome, RejectReason};
use energydx_trace::upload::{TransientUploadError, UploadBackend};
use std::fmt;
use std::io::{self, Write as IoWrite};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request failed client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure.
    Io(String),
    /// The peer did not connect or answer within its deadline. A hung
    /// daemon stalls one request, never the caller forever.
    TimedOut,
    /// The response could not be decoded.
    Protocol(ProtocolError),
    /// The server closed the connection before answering.
    ServerClosed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::TimedOut => {
                f.write_str("daemon did not answer within the deadline")
            }
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::ServerClosed => {
                f.write_str("server closed the connection")
            }
        }
    }
}

impl std::error::Error for ClientError {}

fn io_error(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            ClientError::TimedOut
        }
        _ => ClientError::Io(e.to_string()),
    }
}

/// Socket deadlines for a [`Client`]. Every phase of a request is
/// bounded: connecting, writing the request, reading the response. A
/// zero duration disables the corresponding deadline (blocking
/// semantics, useful only for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// Deadline for establishing the TCP connection.
    pub connect: Duration,
    /// Deadline for each read off the socket.
    pub read: Duration,
    /// Deadline for each write to the socket.
    pub write: Duration,
}

impl Default for ClientTimeouts {
    /// Generous defaults: 5 s to connect, 30 s per read/write — far
    /// above any healthy daemon's latency, tight enough that a hung
    /// peer cannot stall a caller indefinitely.
    fn default() -> Self {
        ClientTimeouts {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(30),
            write: Duration::from_secs(30),
        }
    }
}

/// A persistent connection speaking the framed protocol.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon address like `127.0.0.1:7401`, with the
    /// default [`ClientTimeouts`] on every socket phase.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connection cannot be established;
    /// [`ClientError::TimedOut`] when the peer does not accept in
    /// time.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientTimeouts::default())
    }

    /// Connects with explicit deadlines.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(
        addr: &str,
        timeouts: ClientTimeouts,
    ) -> Result<Client, ClientError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Io(e.to_string()))?
            .next()
            .ok_or_else(|| {
                ClientError::Io(format!("{addr}: no usable address"))
            })?;
        let stream = if timeouts.connect.is_zero() {
            TcpStream::connect(resolved).map_err(io_error)?
        } else {
            TcpStream::connect_timeout(&resolved, timeouts.connect)
                .map_err(io_error)?
        };
        let optional = |d: Duration| if d.is_zero() { None } else { Some(d) };
        stream
            .set_read_timeout(optional(timeouts.read))
            .and_then(|()| stream.set_write_timeout(optional(timeouts.write)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(io_error)?;
        Ok(Client { stream })
    }

    /// Sends one request and waits for its response: [`Client::send`]
    /// then [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Socket failures, a missed deadline ([`ClientError::TimedOut`]),
    /// protocol damage, or a mid-request close. A request over the
    /// frame cap fails with [`ProtocolError::FrameTooLarge`] before
    /// anything is written.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// Writes one request without waiting for its response. The
    /// daemon answers a connection's requests in order, so each
    /// [`Client::recv`] reads the reply to the oldest unanswered one.
    ///
    /// # Errors
    ///
    /// Socket failures or a missed write deadline. A request over the
    /// frame cap fails with [`ProtocolError::FrameTooLarge`] before
    /// anything is written.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let frame = req.try_encode().map_err(ClientError::Protocol)?;
        self.stream
            .write_all(&frame)
            .and_then(|()| self.stream.flush())
            .map_err(io_error)
    }

    /// Reads one response: the reply to the oldest request sent and
    /// not yet read.
    ///
    /// # Errors
    ///
    /// Socket failures, a missed read deadline
    /// ([`ClientError::TimedOut`]), protocol damage, or a close before
    /// the reply.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream) {
            Ok(Some(frame)) => {
                Response::decode(&frame).map_err(ClientError::Protocol)
            }
            Ok(None) => Err(ClientError::ServerClosed),
            Err(ProtocolError::TimedOut) => Err(ClientError::TimedOut),
            Err(e) => Err(ClientError::Protocol(e)),
        }
    }
}

fn reason_from_str(s: &str) -> RejectReason {
    match s {
        "undecodable" => RejectReason::Undecodable,
        "out-of-order-beyond-repair" => RejectReason::OutOfOrderBeyondRepair,
        "unmatched-beyond-repair" => RejectReason::UnmatchedBeyondRepair,
        "duplicate" => RejectReason::Duplicate,
        _ => RejectReason::Invalid,
    }
}

/// [`UploadBackend`] over a daemon connection: the phone-side retry
/// loop pushes payloads through this to a live `fleetd`.
///
/// The outcome is reconstructed from the wire's coarse summary:
/// `Recovered` comes back with empty repair/salvage detail (the full
/// reports stay server-side, visible via `Stats`), which is all the
/// retry loop needs — acceptance class and reject reason.
///
/// Backpressure handling: a `RetryAfter{ms}` response becomes
/// [`TransientUploadError::with_retry_after`], and when `pause_cap_ms`
/// is nonzero the backend also really sleeps `min(ms, cap)` so a
/// driving loop with a virtual clock still paces itself against a
/// live daemon.
#[derive(Debug)]
pub struct TcpBackend {
    addr: String,
    app: String,
    client: Option<Client>,
    pause_cap_ms: u64,
    /// `RetryAfter` responses observed (backpressure made visible).
    pub retry_after_seen: usize,
}

impl TcpBackend {
    /// A backend submitting to `app` on the daemon at `addr`.
    /// Connects lazily and reconnects after socket failures.
    pub fn new(addr: impl Into<String>, app: impl Into<String>) -> Self {
        TcpBackend {
            addr: addr.into(),
            app: app.into(),
            client: None,
            pause_cap_ms: 0,
            retry_after_seen: 0,
        }
    }

    /// Enables real (bounded) sleeping on `RetryAfter` responses.
    pub fn with_pause_cap_ms(mut self, cap: u64) -> Self {
        self.pause_cap_ms = cap;
        self
    }
}

impl UploadBackend for TcpBackend {
    fn receive(
        &mut self,
        payload: &[u8],
    ) -> Result<IngestOutcome, TransientUploadError> {
        if self.client.is_none() {
            self.client = Some(
                Client::connect(&self.addr)
                    .map_err(|e| TransientUploadError::new(e.to_string()))?,
            );
        }
        let client = self.client.as_mut().expect("connected above");
        let req = Request::Submit {
            app: self.app.clone(),
            payload: payload.to_vec(),
        };
        match client.request(&req) {
            Ok(Response::Outcome { code, reason }) => Ok(match code {
                OutcomeCode::Clean => IngestOutcome::Clean,
                OutcomeCode::Recovered => IngestOutcome::Recovered {
                    repairs: Vec::new(),
                    salvage: None,
                },
                OutcomeCode::Rejected => {
                    IngestOutcome::Rejected(reason_from_str(&reason))
                }
            }),
            Ok(Response::RetryAfter { ms }) => {
                self.retry_after_seen += 1;
                if self.pause_cap_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(
                        ms.min(self.pause_cap_ms),
                    ));
                }
                Err(TransientUploadError::with_retry_after(
                    "daemon ingest queue is full",
                    ms,
                ))
            }
            Ok(Response::Error { message }) => {
                Err(TransientUploadError::new(message))
            }
            Ok(other) => Err(TransientUploadError::new(format!(
                "unexpected response to submit: {other:?}"
            ))),
            Err(e) => {
                // The stream may be desynchronized; reconnect on the
                // next attempt.
                self.client = None;
                Err(TransientUploadError::new(e.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_silent_peer_times_out_instead_of_hanging() {
        // A listener that never answers: the kernel accepts the
        // connection into the backlog, the request is written, and
        // then nothing ever comes back. Without a read deadline this
        // would block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let timeouts = ClientTimeouts {
            read: Duration::from_millis(50),
            ..ClientTimeouts::default()
        };
        let mut client = Client::connect_with(&addr, timeouts).unwrap();
        let started = std::time::Instant::now();
        let err = client.request(&Request::Stats).unwrap_err();
        assert_eq!(err, ClientError::TimedOut);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the deadline, not a hang, must end the wait"
        );
    }

    #[test]
    fn an_over_cap_request_fails_before_writing_anything() {
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let submit = Request::Submit {
            app: "maps".into(),
            payload: vec![0; crate::protocol::MAX_BODY],
        };
        let err = client.request(&submit).unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Protocol(ProtocolError::FrameTooLarge { .. })
            ),
            "{err:?}"
        );
        drop(client);
        let (mut peer, _) = listener.accept().unwrap();
        let mut received = Vec::new();
        peer.read_to_end(&mut received).unwrap();
        assert!(received.is_empty(), "{} byte(s) sent", received.len());
    }

    #[test]
    fn an_unresolvable_address_is_a_typed_io_error() {
        let err = Client::connect("definitely-not-a-host.invalid:1")
            .expect_err("must not connect");
        assert!(matches!(err, ClientError::Io(_)), "{err:?}");
    }
}
