//! Retrying client with idempotent sequential request ids.
//!
//! Every command is assigned the next request id; the id is not
//! advanced until a response for it arrives. On `Busy`, a lost
//! response (server crashed), or a reset connection, the client
//! retries the **same id** after a deterministic exponential backoff
//! ([`synchrel_sim::Backoff`], seeded, equal-jitter) — so the server's
//! dedup window, not the client's luck, decides whether the command
//! runs once.
//!
//! The client speaks over any [`Transport`]: the in-process duplex,
//! TCP, or a Unix socket — retry behaviour is identical because a
//! socket read timeout and an empty duplex queue both surface as
//! "no frame yet". A non-zero `client_id` namespaces the request ids
//! (top 16 bits, see [`make_req`]) so concurrent clients cannot
//! collide in the server's dedup window.
//!
//! Time is virtual: backoff delays accumulate in
//! [`Client::waited_virtual`] instead of sleeping, which keeps the
//! chaos harness deterministic and fast.

use std::time::Duration;

use synchrel_sim::Backoff;

use crate::proto::{
    decode_frame, decode_response, make_req, request_frame, Command, Response, KIND_RESPONSE,
};
use crate::transport::{connect, Conn, ListenAddr, StreamTransport, Transport};

/// What a [`Client::call`] attempt may end in.
#[derive(Debug)]
pub enum ClientError {
    /// Retry budget exhausted without any response.
    Exhausted {
        /// Request id that never completed.
        req: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// The pump hook aborted the call (e.g. the failover harness saw
    /// the primary die and must reconnect before resuming). The
    /// request id is **not** consumed.
    Aborted {
        /// Request id the abort interrupted.
        req: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { req, attempts } => {
                write!(f, "request {req} got no response after {attempts} attempts")
            }
            ClientError::Aborted { req } => {
                write!(f, "request {req} aborted by the pump hook")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// What the pump hook tells the retry loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pump {
    /// Keep driving this request.
    Continue,
    /// Stop now; [`Client::call_ctl`] returns [`ClientError::Aborted`]
    /// without consuming the request id.
    Abort,
}

/// A client's retry accounting, carried across a resume so a failover
/// does not silently zero the counters an operator is watching.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Retransmissions (frames beyond the first per command).
    pub retries: u64,
    /// Retries caused specifically by a `Busy` response (admission
    /// backpressure), as opposed to silence.
    pub busy_retries: u64,
    /// Virtual ticks spent in backoff.
    pub waited_virtual: u64,
}

/// The retrying client half of a connection.
pub struct Client<T: Transport> {
    wire: T,
    client_id: u16,
    next_seq: u64,
    backoff_seed: u64,
    /// Base backoff delay (virtual ticks).
    backoff_base: u64,
    /// Backoff ceiling (virtual ticks).
    backoff_cap: u64,
    /// Attempts per command before giving up.
    max_attempts: u32,
    /// Total virtual ticks spent backing off.
    waited: u64,
    /// Total retransmissions (frames beyond the first per command).
    retries: u64,
    /// Retries that were answered `Busy` (admission backpressure).
    busy_retries: u64,
}

impl<T: Transport> Client<T> {
    /// A client speaking over `wire` as client 0, with seeded backoff.
    pub fn new(wire: T, seed: u64) -> Client<T> {
        Client::with_id(wire, seed, 0)
    }

    /// A client with an explicit id (the top 16 bits of every request
    /// id it issues — what keeps concurrent clients' dedup windows
    /// disjoint).
    pub fn with_id(wire: T, seed: u64, client_id: u16) -> Client<T> {
        Client {
            wire,
            client_id,
            next_seq: 0,
            backoff_seed: seed,
            backoff_base: 1,
            backoff_cap: 64,
            max_attempts: 32,
            waited: 0,
            retries: 0,
            busy_retries: 0,
        }
    }

    /// A client resuming against a recovered (or promoted) server,
    /// starting at its [`next_req`](crate::server::Server::next_req)
    /// watermark so fresh requests are not mistaken for replays of
    /// consumed ids. Counters start at zero — when the resumed client
    /// replaces one whose history matters, use
    /// [`Client::resuming_with`] so retry accounting is not silently
    /// reset by the failover.
    pub fn resuming(wire: T, seed: u64, next_req: u64) -> Client<T> {
        Client::resuming_with(wire, seed, next_req, ClientStats::default())
    }

    /// [`Client::resuming`], carrying the predecessor's counters
    /// ([`Client::counters`]) forward — retries, busy-retries, and
    /// backoff time keep accumulating across the failover instead of
    /// resetting to zero.
    pub fn resuming_with(wire: T, seed: u64, next_req: u64, carried: ClientStats) -> Client<T> {
        Client {
            next_seq: next_req,
            retries: carried.retries,
            busy_retries: carried.busy_retries,
            waited: carried.waited_virtual,
            ..Client::new(wire, seed)
        }
    }

    /// Snapshot of the retry accounting (to carry across a resume, or
    /// to report).
    pub fn counters(&self) -> ClientStats {
        ClientStats {
            retries: self.retries,
            busy_retries: self.busy_retries,
            waited_virtual: self.waited,
        }
    }

    /// Replace the connection (reconnect after a failover) keeping the
    /// id sequence and backoff state.
    pub fn set_wire(&mut self, wire: T) {
        self.wire = wire;
    }

    /// This client's id (request-id namespace).
    pub fn client_id(&self) -> u16 {
        self.client_id
    }

    /// Next request id to be issued (sequence part).
    pub fn next_req(&self) -> u64 {
        self.next_seq
    }

    /// Raise the retry budget (socket transports with real timeouts
    /// may need more patience than the in-process duplex).
    pub fn set_max_attempts(&mut self, attempts: u32) {
        self.max_attempts = attempts;
    }

    /// Total virtual ticks spent in backoff so far.
    pub fn waited_virtual(&self) -> u64 {
        self.waited
    }

    /// Total retransmitted frames so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Retries caused by a `Busy` response so far (a subset of
    /// [`Client::retries`] — the server admitted the connection but its
    /// ingest queue was full).
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Issue `cmd` and drive `pump` (the server's execution hook)
    /// until a response for this request id arrives. Retries with
    /// backoff on `Busy` or silence; same id every time.
    pub fn call(&mut self, cmd: &Command, mut pump: impl FnMut()) -> Result<Response, ClientError> {
        self.call_ctl(cmd, || {
            pump();
            Pump::Continue
        })
    }

    /// Like [`Client::call`], but the pump hook can abort the call
    /// (returning [`ClientError::Aborted`] with the id unconsumed) —
    /// how the failover harness bails out when the primary dies and a
    /// reconnect to the promoted follower is needed.
    pub fn call_ctl(
        &mut self,
        cmd: &Command,
        mut pump: impl FnMut() -> Pump,
    ) -> Result<Response, ClientError> {
        let seq = self.next_seq;
        let req = make_req(self.client_id, seq);
        let mut backoff = Backoff::new(
            self.backoff_seed ^ req.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            self.backoff_base,
            self.backoff_cap,
        );
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                self.waited += backoff.next_delay();
            }
            let _ = self.wire.send(&request_frame(req, cmd));
            if pump() == Pump::Abort {
                return Err(ClientError::Aborted { req });
            }
            if let Some(resp) = self.take_response(req) {
                match resp {
                    Response::Busy => {
                        self.busy_retries += 1;
                        continue; // backpressure: retry
                    }
                    resp => {
                        self.next_seq = seq + 1;
                        return Ok(resp);
                    }
                }
            }
            // Silence: the server crashed or the wire reset. Back off
            // and retransmit the same id.
        }
        Err(ClientError::Exhausted {
            req,
            attempts: self.max_attempts,
        })
    }

    /// Drain incoming frames until one answers `req` (stale responses
    /// from earlier attempts are discarded). A transport error reads
    /// as silence: the retry loop owns reconnection policy.
    fn take_response(&mut self, req: u64) -> Option<Response> {
        while let Some(bytes) = self.wire.recv().unwrap_or(None) {
            let Ok(frame) = decode_frame(&bytes) else {
                continue;
            };
            if frame.kind != KIND_RESPONSE || frame.req != req {
                continue;
            }
            if let Ok(resp) = decode_response(&frame.payload) {
                return Some(resp);
            }
        }
        None
    }
}

/// Full passes over the endpoint list before one
/// [`FailoverClient::call`] gives up.
const FAILOVER_ROUNDS: u32 = 8;

/// A client that survives primary death on its own: it holds an
/// **endpoint list** and rotates through it whenever the active
/// connection stops answering, pacing reconnect attempts with the same
/// seeded equal-jitter [`Backoff`] the per-request retry loop uses.
/// The request-id sequence and retry counters are carried across every
/// reconnect ([`Client::resuming_with`] semantics), so a failover can
/// never replay a consumed id — the server treats `seq >= watermark`
/// as fresh work even when the promoted follower's watermark trails —
/// and never silently zeroes the accounting an operator is watching.
///
/// Unlike the lockstep [`Client`], this type owns real socket
/// connections, so its reconnect backoff sleeps wall-clock milliseconds
/// (capped) in addition to accumulating virtual ticks.
pub struct FailoverClient {
    endpoints: Vec<ListenAddr>,
    active: usize,
    read_timeout: Duration,
    seed: u64,
    client_id: u16,
    next_seq: u64,
    stats: ClientStats,
    max_attempts: u32,
    failovers: u64,
    inner: Option<Client<StreamTransport<Conn>>>,
}

impl FailoverClient {
    /// A failover client for `endpoints` (tried in order, wrapping).
    pub fn new(endpoints: Vec<ListenAddr>, seed: u64, client_id: u16) -> FailoverClient {
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        FailoverClient {
            endpoints,
            active: 0,
            read_timeout: Duration::from_millis(10),
            seed,
            client_id,
            next_seq: 0,
            stats: ClientStats::default(),
            max_attempts: 64,
            failovers: 0,
            inner: None,
        }
    }

    /// Per-connection retry budget before rotating to the next
    /// endpoint.
    pub fn set_max_attempts(&mut self, attempts: u32) {
        self.max_attempts = attempts;
        if let Some(c) = self.inner.as_mut() {
            c.set_max_attempts(attempts);
        }
    }

    /// Per-connection socket read timeout.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
    }

    /// Endpoint rotations so far (how often the client gave up on a
    /// connection and moved to the next endpoint).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Next request id to be issued (sequence part) — survives every
    /// failover.
    pub fn next_req(&self) -> u64 {
        self.next_seq
    }

    /// Retry accounting, accumulated across all connections.
    pub fn counters(&self) -> ClientStats {
        self.stats
    }

    fn rotate(&mut self) {
        self.inner = None;
        self.active = (self.active + 1) % self.endpoints.len();
        self.failovers += 1;
    }

    /// Dial the active endpoint, walking the list until one accepts.
    /// Returns false when every endpoint refused this pass.
    fn connect_active(&mut self) -> bool {
        for _ in 0..self.endpoints.len() {
            match connect(&self.endpoints[self.active], Some(self.read_timeout)) {
                Ok(wire) => {
                    let mut c = Client::with_id(
                        wire,
                        self.seed ^ self.failovers.rotate_left(17),
                        self.client_id,
                    );
                    c.next_seq = self.next_seq;
                    c.retries = self.stats.retries;
                    c.busy_retries = self.stats.busy_retries;
                    c.waited = self.stats.waited_virtual;
                    c.set_max_attempts(self.max_attempts);
                    self.inner = Some(c);
                    return true;
                }
                Err(_) => self.rotate(),
            }
        }
        false
    }

    /// Issue `cmd`, failing over between endpoints until a response
    /// arrives or the round budget is spent.
    pub fn call(&mut self, cmd: &Command) -> Result<Response, ClientError> {
        let budget = FAILOVER_ROUNDS * self.endpoints.len() as u32;
        let mut backoff = Backoff::new(self.seed ^ 0xFA11, 1, 64);
        let mut last = ClientError::Exhausted {
            req: make_req(self.client_id, self.next_seq),
            attempts: 0,
        };
        for _ in 0..budget.max(1) {
            if self.inner.is_none() && !self.connect_active() {
                // Every endpoint refused (a standby may still be
                // promoting): pause before the next pass.
                let d = backoff.next_delay();
                self.stats.waited_virtual += d;
                std::thread::sleep(Duration::from_millis(d.min(50)));
                continue;
            }
            let Some(client) = self.inner.as_mut() else {
                continue;
            };
            match client.call(cmd, || {}) {
                Ok(resp) => {
                    self.next_seq = client.next_seq;
                    self.stats = client.counters();
                    return Ok(resp);
                }
                Err(e) => {
                    self.stats = client.counters();
                    last = e;
                    self.rotate();
                    let d = backoff.next_delay();
                    self.stats.waited_virtual += d;
                    std::thread::sleep(Duration::from_millis(d.min(50)));
                }
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{duplex, response_frame};

    #[test]
    fn busy_responses_are_counted_and_survive_resume() {
        let (client_end, server_end) = duplex();
        let mut client = Client::new(client_end, 9);
        let mut busy_left = 2u32;
        let resp = client
            .call(&Command::Verdicts, || {
                while let Some(bytes) = server_end.recv() {
                    let req = decode_frame(&bytes).unwrap().req;
                    if busy_left > 0 {
                        busy_left -= 1;
                        server_end.send(response_frame(req, &Response::Busy));
                    } else {
                        server_end.send(response_frame(req, &Response::Verdicts(vec![])));
                    }
                }
            })
            .unwrap();
        assert_eq!(resp, Response::Verdicts(vec![]));
        assert_eq!(client.busy_retries(), 2);
        assert_eq!(client.retries(), 2, "busy retries are retransmissions too");
        assert!(client.waited_virtual() > 0);

        // Resuming with carried counters keeps accumulating; the plain
        // resume documents its fresh start.
        let carried = client.counters();
        let (c2, _keep) = duplex();
        let resumed = Client::resuming_with(c2, 10, client.next_req(), carried);
        assert_eq!(resumed.counters(), carried);
        assert_eq!(resumed.next_req(), 1);
        let (c3, _keep) = duplex();
        assert_eq!(
            Client::resuming(c3, 10, 1).counters(),
            ClientStats::default()
        );
    }

    #[test]
    fn failover_client_rotates_endpoints_and_keeps_its_sequence() {
        use crate::net::{Service, ServiceConfig};
        use crate::server::{Server, ServerConfig};
        use crate::storage::SyncMemStorage;
        use synchrel_monitor::online::WireEvent;

        let mk = || Server::recover(SyncMemStorage::new(), ServerConfig::new(1)).unwrap();
        let bind = || ListenAddr::Tcp("127.0.0.1:0".into());
        let a = Service::start(&bind(), mk(), ServiceConfig::default()).unwrap();
        let b = Service::start(&bind(), mk(), ServiceConfig::default()).unwrap();
        let ingest = |i| Command::Ingest {
            process: 0,
            seq: i,
            event: WireEvent::Internal,
            labels: vec![],
        };

        let mut client = FailoverClient::new(
            vec![a.local_addr().clone(), b.local_addr().clone()],
            0xFA11,
            3,
        );
        client.set_max_attempts(16);
        for i in 0..5u64 {
            assert_eq!(client.call(&ingest(i)).unwrap(), Response::Ack);
        }
        assert_eq!(client.next_req(), 5);
        assert_eq!(client.failovers(), 0);

        // The primary dies. Nothing tells the client: its retries go
        // silent, it rotates to b, and the id sequence continues — b
        // treats the mid-stream seq 5 as fresh work, not a replay.
        drop(a.stop());
        for i in 5..8u64 {
            assert_eq!(client.call(&ingest(i)).unwrap(), Response::Ack);
        }
        assert!(client.failovers() >= 1);
        assert_eq!(client.next_req(), 8);

        let survivor = b.stop();
        assert_eq!(survivor.next_req_for(3), 8);
        assert_eq!(survivor.stats().wal_appends, 3);
    }
}
