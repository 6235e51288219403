//! Primary→follower WAL replication and follower promotion.
//!
//! ## Protocol
//!
//! The primary streams [`KIND_REPL`] frames to one follower. Each
//! frame's payload opens with a tag byte:
//!
//! * [`REPL_RECORD`] — the exact bytes of one WAL record (the same
//!   `len | crc | lsn | req | cmd` framing the primary fsynced); the
//!   frame's `req` field carries the record's LSN.
//! * [`REPL_SNAPSHOT`] — the exact bytes of one service snapshot
//!   (`"SSNP"` framing). A snapshot frame supersedes everything before
//!   it: the follower installs it and truncates its own WAL, exactly
//!   like the primary does when it takes one.
//!
//! The follower answers every frame with a [`KIND_REPL_ACK`] whose
//! `req` field is its durable LSN and whose payload tag is
//! [`ACK_OK`] — or [`ACK_RESYNC`] when it saw a gap it cannot fill
//! (records arrived out of order or were lost). On a resync request —
//! or when its own bounded queue overflows — the primary rebuilds the
//! stream from storage: current snapshot first, then every WAL record
//! after it. Replication is therefore always recoverable and **never
//! blocks the primary**: a slow follower costs lag, not throughput.
//!
//! ## Consistency argument
//!
//! The follower persists each record byte-for-byte *before* applying
//! it through the same [`apply_logged`](crate::server) path the
//! primary's drain and recovery use, and acks only what is durable.
//! Its storage therefore always holds a **prefix** of the primary's
//! durable log (snapshot + records 1..=durable, never a torn or
//! reordered subset) — a consistent cut of the acknowledged WAL
//! prefix in the Chauhan–Garg sense. [`Follower::promote`] is then
//! literally [`Server::recover`] over that storage, so everything the
//! recovery chaos sweep proves about crash restarts transfers to
//! promotion verbatim. A client that resumes against the promoted
//! server from the follower's watermark re-issues exactly the
//! unreplicated suffix; server-side dedup discards anything the
//! follower already holds.

use std::collections::{BTreeMap, VecDeque};

use synchrel_monitor::online::OnlineMonitor;
use synchrel_sim::fault::mix;

use crate::proto::{
    decode_frame, encode_frame, split_req, FrameError, KIND_HEARTBEAT, KIND_REPL, KIND_REPL_ACK,
};
use crate::server::{
    apply_logged, decode_snapshot, RecoverError, Server, ServerConfig, ServerStats,
};
use crate::storage::Storage;
use crate::wal::{self, WalError};

/// Replication payload tag: one raw WAL record.
pub const REPL_RECORD: u8 = 0;
/// Replication payload tag: one raw service snapshot.
pub const REPL_SNAPSHOT: u8 = 1;
/// Ack payload tag: plain ack of the carried durable LSN.
pub const ACK_OK: u8 = 0;
/// Ack payload tag: the follower saw a gap and needs a resync.
pub const ACK_RESYNC: u8 = 1;

/// Build the replication frame for one WAL record.
pub fn record_frame(lsn: u64, record_bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + record_bytes.len());
    payload.push(REPL_RECORD);
    payload.extend_from_slice(record_bytes);
    encode_frame(KIND_REPL, lsn, &payload)
}

/// Build the replication frame for one service snapshot. The LSN it
/// covers travels inside the snapshot bytes themselves.
pub fn snapshot_frame(snapshot_bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + snapshot_bytes.len());
    payload.push(REPL_SNAPSHOT);
    payload.extend_from_slice(snapshot_bytes);
    encode_frame(KIND_REPL, 0, &payload)
}

/// Build a follower ack frame.
pub fn ack_frame(durable_lsn: u64, resync: bool) -> Vec<u8> {
    let tag = if resync { ACK_RESYNC } else { ACK_OK };
    encode_frame(KIND_REPL_ACK, durable_lsn, &[tag])
}

const SALT_LEASE: u64 = 0x1EA5;

/// The follower's failure detector: a primary lease measured in silent
/// poll intervals ("ticks"), with **seeded jitter** on the budget so a
/// fleet of standbys does not promote in lockstep — and so a
/// deterministic harness can derive the exact detection bound from the
/// seed.
///
/// Any frame from the primary (replication record, snapshot, or
/// [`KIND_HEARTBEAT`]) refreshes the lease via [`LeaseClock::observe`];
/// every poll interval that passes without one spends a tick. When the
/// budget is spent the primary is presumed dead and the follower may
/// promote itself — the safety argument is in `DESIGN.md` §18: a
/// wrongly-suspected primary costs availability of the *old* primary's
/// unreplicated suffix, never consistency, because promotion recovers a
/// consistent acknowledged-prefix cut and clients re-issue the suffix
/// through dedup.
#[derive(Clone, Copy, Debug)]
pub struct LeaseClock {
    budget: u64,
    left: u64,
    expiries: u64,
}

impl LeaseClock {
    /// A lease of `base` ticks plus seeded jitter in `0..=jitter`.
    pub fn new(seed: u64, base: u64, jitter: u64) -> LeaseClock {
        let budget = base.max(1)
            + if jitter == 0 {
                0
            } else {
                mix(seed, SALT_LEASE, 0) % (jitter + 1)
            };
        LeaseClock {
            budget,
            left: budget,
            expiries: 0,
        }
    }

    /// The full lease budget in ticks (base + drawn jitter) — the
    /// detection-latency bound a harness checks promotions against.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The primary showed life: refresh the lease.
    pub fn observe(&mut self) {
        self.left = self.budget;
    }

    /// One silent poll interval passed. Returns `true` exactly when
    /// this tick spends the last of the lease.
    pub fn tick(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        if self.left == 0 {
            self.expiries += 1;
            return true;
        }
        false
    }

    /// Has the lease fully expired?
    pub fn expired(&self) -> bool {
        self.left == 0
    }

    /// Ticks left before expiry.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// Times the lease ran out.
    pub fn expiries(&self) -> u64 {
        self.expiries
    }
}

/// Primary-side replication state: a bounded queue of outgoing frames
/// plus the follower's acked position. Overflow (or an explicit
/// follower resync request) clears the queue and marks a
/// resync-from-storage, which [`Server::repl_next_frame`] materialises
/// lazily — the bound degrades to lag, never to blocking.
#[derive(Debug)]
pub struct Replicator {
    cap: usize,
    queue: VecDeque<Vec<u8>>,
    acked: u64,
    needs_resync: bool,
    resyncs: u64,
    overflows: u64,
}

impl Replicator {
    pub(crate) fn new(cap: usize) -> Replicator {
        Replicator {
            cap: cap.max(1),
            queue: VecDeque::new(),
            acked: 0,
            needs_resync: false,
            resyncs: 0,
            overflows: 0,
        }
    }

    /// A record became durable on the primary.
    pub(crate) fn on_logged(&mut self, lsn: u64, record_bytes: &[u8]) {
        if self.needs_resync {
            // The record is in storage; the pending resync will carry it.
            return;
        }
        if self.queue.len() >= self.cap {
            self.queue.clear();
            self.needs_resync = true;
            self.overflows += 1;
            return;
        }
        self.queue.push_back(record_frame(lsn, record_bytes));
    }

    /// The primary took a snapshot: it supersedes every queued record
    /// and repairs any follower gap, so it replaces the queue.
    pub(crate) fn on_snapshot(&mut self, snapshot_bytes: &[u8]) {
        self.queue.clear();
        self.queue.push_back(snapshot_frame(snapshot_bytes));
        self.needs_resync = false;
    }

    /// Fold in a follower ack (`req` = durable LSN, payload tag may
    /// request a resync).
    pub(crate) fn on_ack(&mut self, durable_lsn: u64, payload: &[u8]) {
        self.acked = self.acked.max(durable_lsn);
        if payload.first() == Some(&ACK_RESYNC) {
            self.queue.clear();
            self.needs_resync = true;
        }
    }

    pub(crate) fn load_resync(&mut self, frames: Vec<Vec<u8>>) {
        self.queue = frames.into();
        self.needs_resync = false;
        self.resyncs += 1;
    }

    pub(crate) fn pop_frame(&mut self) -> Option<Vec<u8>> {
        self.queue.pop_front()
    }

    /// Highest LSN the follower acked as durable.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Frames queued and not yet taken by the wire.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether the next frame pull will rebuild from storage.
    pub fn needs_resync(&self) -> bool {
        self.needs_resync
    }

    /// Times the bounded queue overflowed.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Resync streams rebuilt from storage.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }
}

/// Why the follower rejected a replication frame.
#[derive(Debug)]
pub enum ReplError {
    /// The frame did not decode.
    Frame(FrameError),
    /// The frame decoded but is not replication traffic.
    NotRepl(u8),
    /// A record payload did not scan as exactly one whole WAL record.
    BadRecord,
    /// A snapshot payload was damaged.
    Snapshot(String),
    /// Follower storage I/O failed.
    Io(std::io::Error),
    /// The primary side failed to produce a frame.
    Primary(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Frame(e) => write!(f, "replication frame: {e}"),
            ReplError::NotRepl(k) => write!(f, "not a replication frame (kind {k})"),
            ReplError::BadRecord => write!(f, "replication payload is not one WAL record"),
            ReplError::Snapshot(e) => write!(f, "replicated snapshot: {e}"),
            ReplError::Io(e) => write!(f, "follower storage: {e}"),
            ReplError::Primary(e) => write!(f, "primary: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Io(e)
    }
}

/// Follower-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FollowerStats {
    /// Records persisted and applied.
    pub records: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// Duplicate records discarded (at-least-once delivery).
    pub duplicates: u64,
    /// Gaps observed (each answered with a resync request).
    pub gaps: u64,
}

/// The replica: persists the primary's stream byte-for-byte, keeps a
/// warm monitor by applying each record through the shared
/// `apply_logged` path, and promotes via [`Server::recover`] over
/// its own storage.
#[derive(Debug)]
pub struct Follower<S: Storage> {
    storage: S,
    cfg: ServerConfig,
    monitor: OnlineMonitor,
    watermarks: BTreeMap<u64, u64>,
    /// Server-level stats fed by `apply_logged` (forced-loss and
    /// apply-error accounting must match what recovery will derive).
    server_stats: ServerStats,
    durable: u64,
    stats: FollowerStats,
}

impl<S: Storage> Follower<S> {
    /// Bring a follower up from its own storage (empty for a fresh
    /// standby; non-empty when it restarts mid-stream — same recovery
    /// rules as the server, including torn-tail truncation).
    pub fn open(mut storage: S, cfg: ServerConfig) -> Result<Follower<S>, RecoverError> {
        let snap = storage.snapshot_bytes()?;
        let (mut monitor, applied_through, mut watermarks, shed) = match snap {
            Some(bytes) => decode_snapshot(&bytes).map_err(RecoverError::Snapshot)?,
            None => {
                let mut m = OnlineMonitor::new(cfg.processes);
                if cfg.pruning {
                    m.enable_pruning();
                }
                (m, 0, BTreeMap::new(), 0)
            }
        };
        let mut server_stats = ServerStats {
            shed,
            ..ServerStats::default()
        };

        let wal_bytes = storage.wal_bytes()?;
        let scan = wal::scan(&wal_bytes)?;
        if scan.torn {
            storage.wal_replace(&wal_bytes[..scan.valid_len])?;
        }
        let mut durable = applied_through;
        for rec in &scan.records {
            if rec.lsn <= applied_through {
                continue;
            }
            apply_logged(&mut monitor, &rec.cmd, cfg.max_pending, &mut server_stats);
            durable = rec.lsn;
            let (client, seq) = split_req(rec.req);
            let wm = watermarks.entry(client).or_insert(0);
            *wm = (*wm).max(seq + 1);
        }
        Ok(Follower {
            storage,
            cfg,
            monitor,
            watermarks,
            server_stats,
            durable,
            stats: FollowerStats::default(),
        })
    }

    /// Highest LSN this follower holds durably (== has applied).
    pub fn durable_lsn(&self) -> u64 {
        self.durable
    }

    /// Follower counters.
    pub fn stats(&self) -> &FollowerStats {
        &self.stats
    }

    /// The warm monitor (tests compare its verdicts against the
    /// promoted server's).
    pub fn monitor(&self) -> &OnlineMonitor {
        &self.monitor
    }

    /// Handle one replication frame; returns the ack frame to send
    /// back to the primary. Heartbeats are liveness-only: they ack the
    /// current durable LSN without touching storage (the caller's
    /// [`LeaseClock`] is refreshed by the frame's arrival, not here).
    pub fn handle(&mut self, frame_bytes: &[u8]) -> Result<Vec<u8>, ReplError> {
        let frame = decode_frame(frame_bytes).map_err(ReplError::Frame)?;
        if frame.kind == KIND_HEARTBEAT {
            return Ok(ack_frame(self.durable, false));
        }
        if frame.kind != KIND_REPL {
            return Err(ReplError::NotRepl(frame.kind));
        }
        match frame.payload.split_first() {
            Some((&REPL_RECORD, record_bytes)) => self.handle_record(record_bytes),
            Some((&REPL_SNAPSHOT, snapshot_bytes)) => self.handle_snapshot(snapshot_bytes),
            _ => Err(ReplError::BadRecord),
        }
    }

    fn handle_record(&mut self, record_bytes: &[u8]) -> Result<Vec<u8>, ReplError> {
        let scan = match wal::scan(record_bytes) {
            Ok(s) => s,
            Err(WalError::CorruptRecord { .. } | WalError::BadPayload { .. }) => {
                return Err(ReplError::BadRecord)
            }
        };
        if scan.torn || scan.records.len() != 1 {
            return Err(ReplError::BadRecord);
        }
        let rec = &scan.records[0];
        if rec.lsn <= self.durable {
            // At-least-once delivery: already durable here.
            self.stats.duplicates += 1;
            return Ok(ack_frame(self.durable, false));
        }
        if rec.lsn != self.durable + 1 {
            // A gap: acking would claim a prefix we do not hold.
            self.stats.gaps += 1;
            return Ok(ack_frame(self.durable, true));
        }
        // Persist first, ack-on-durable like the primary...
        self.storage.wal_append(record_bytes)?;
        self.storage.wal_sync()?;
        // ...then warm the monitor through the shared apply path.
        apply_logged(
            &mut self.monitor,
            &rec.cmd,
            self.cfg.max_pending,
            &mut self.server_stats,
        );
        let (client, seq) = split_req(rec.req);
        let wm = self.watermarks.entry(client).or_insert(0);
        *wm = (*wm).max(seq + 1);
        self.durable = rec.lsn;
        self.stats.records += 1;
        Ok(ack_frame(self.durable, false))
    }

    fn handle_snapshot(&mut self, snapshot_bytes: &[u8]) -> Result<Vec<u8>, ReplError> {
        let (monitor, applied_through, watermarks, shed) =
            decode_snapshot(snapshot_bytes).map_err(ReplError::Snapshot)?;
        // Persist exactly like the primary: snapshot replaces, WAL
        // truncates (the LSN filter makes replay safe regardless).
        self.storage.snapshot_replace(snapshot_bytes)?;
        self.storage.wal_replace(&[])?;
        self.monitor = monitor;
        self.watermarks = watermarks;
        self.server_stats.shed = shed;
        self.durable = applied_through;
        self.stats.snapshots += 1;
        Ok(ack_frame(self.durable, false))
    }

    /// Promote: the follower becomes a server by *recovering from its
    /// own storage* — the one code path the chaos sweep already
    /// proves reaches the exact pre-crash state.
    pub fn promote(self) -> Result<Server<S>, RecoverError> {
        Server::recover(self.storage, self.cfg)
    }
}

/// Lockstep replication pump for single-threaded tests and the
/// failover harness: move frames primary→follower and acks back until
/// the primary has nothing to ship (or `max` frames moved; 0 = no
/// limit). Returns frames moved.
pub fn pump_replication<P: Storage, F: Storage>(
    primary: &mut Server<P>,
    follower: &mut Follower<F>,
    max: usize,
) -> Result<usize, ReplError> {
    let mut moved = 0;
    loop {
        if max != 0 && moved >= max {
            return Ok(moved);
        }
        let frame = primary
            .repl_next_frame()
            .map_err(|e| ReplError::Primary(e.to_string()))?;
        let Some(frame) = frame else {
            return Ok(moved);
        };
        let ack = follower.handle(&frame)?;
        primary.handle_bytes(&ack);
        moved += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{make_req, Command, Response};
    use crate::storage::SyncMemStorage;
    use synchrel_monitor::online::WireEvent;

    fn ingest(i: u64) -> Command {
        Command::Ingest {
            process: 0,
            seq: i,
            event: WireEvent::Internal,
            labels: vec![],
        }
    }

    fn drive_one<S: Storage>(server: &mut Server<S>, req: u64, cmd: &Command) -> Response {
        use crate::proto::{decode_frame, decode_response, request_frame};
        let out = server
            .handle_bytes(&request_frame(req, cmd))
            .expect("response");
        decode_response(&decode_frame(&out).unwrap().payload).unwrap()
    }

    /// Drop the wall-clock counter before comparing monitor stats.
    fn norm(mut s: synchrel_monitor::MonitorStats) -> synchrel_monitor::MonitorStats {
        s.flush_nanos = 0;
        s
    }

    /// Force the primary through its lazy ingest queue (an unlogged
    /// read does it) so its monitor is comparable to the follower's,
    /// which applies eagerly.
    fn drain<S: Storage>(server: &mut Server<S>, req: u64) {
        drive_one(server, req, &Command::Stats);
    }

    #[test]
    fn records_replicate_and_follower_promotes_to_equal_state() {
        let cfg = ServerConfig::new(1);
        let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        primary.enable_replication(64);
        let mut follower = Follower::open(SyncMemStorage::new(), cfg).unwrap();

        for i in 0..10u64 {
            assert_eq!(drive_one(&mut primary, i, &ingest(i)), Response::Ack);
        }
        pump_replication(&mut primary, &mut follower, 0).unwrap();
        assert_eq!(follower.durable_lsn(), primary.last_lsn());
        assert_eq!(primary.repl_lag(), 0);
        assert_eq!(follower.stats().records, 10);

        let warm_stats = follower.monitor().stats();
        let promoted = follower.promote().unwrap();
        assert_eq!(norm(promoted.monitor().stats()), norm(warm_stats));
        assert_eq!(promoted.last_lsn(), primary.last_lsn());
        assert_eq!(promoted.next_req(), 10);
    }

    #[test]
    fn acked_lsn_never_exceeds_primary_durable() {
        let cfg = ServerConfig::new(1);
        let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        primary.enable_replication(4);
        let mut follower = Follower::open(SyncMemStorage::new(), cfg).unwrap();
        for i in 0..50u64 {
            drive_one(&mut primary, i, &ingest(i));
            if i % 7 == 0 {
                pump_replication(&mut primary, &mut follower, 2).unwrap();
            }
            let acked = primary.replication().unwrap().acked();
            assert!(acked <= primary.last_lsn(), "ack {acked} ran ahead");
            assert!(follower.durable_lsn() <= primary.last_lsn());
        }
    }

    #[test]
    fn queue_overflow_degrades_to_resync_not_blocking() {
        let cfg = ServerConfig::new(1);
        let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        primary.enable_replication(4);
        let mut follower = Follower::open(SyncMemStorage::new(), cfg).unwrap();

        // Never pump: the bounded queue must overflow, and the primary
        // must keep acking clients regardless.
        for i in 0..40u64 {
            assert_eq!(drive_one(&mut primary, i, &ingest(i)), Response::Ack);
        }
        let repl = primary.replication().unwrap();
        assert!(repl.overflows() > 0, "queue never overflowed");
        assert!(repl.needs_resync());
        assert!(primary.repl_lag() > 0);

        // Catch up through the resync; state converges exactly.
        pump_replication(&mut primary, &mut follower, 0).unwrap();
        assert_eq!(follower.durable_lsn(), primary.last_lsn());
        assert_eq!(primary.repl_lag(), 0);
        drain(&mut primary, 40);
        assert_eq!(
            norm(follower.monitor().stats()),
            norm(primary.monitor().stats()),
            "converged state diverged"
        );
    }

    #[test]
    fn gap_triggers_resync_request_and_recovers() {
        let cfg = ServerConfig::new(1);
        let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        primary.enable_replication(64);
        let mut follower = Follower::open(SyncMemStorage::new(), cfg).unwrap();

        for i in 0..6u64 {
            drive_one(&mut primary, i, &ingest(i));
        }
        // Drop the first three frames on the floor: the follower sees
        // LSN 4 first — a gap it must refuse to ack.
        for _ in 0..3 {
            primary.repl_next_frame().unwrap().unwrap();
        }
        let frame = primary.repl_next_frame().unwrap().unwrap();
        let ack = follower.handle(&frame).unwrap();
        assert_eq!(follower.durable_lsn(), 0);
        assert_eq!(follower.stats().gaps, 1);
        primary.handle_bytes(&ack);
        assert!(primary.replication().unwrap().needs_resync());

        pump_replication(&mut primary, &mut follower, 0).unwrap();
        assert_eq!(follower.durable_lsn(), primary.last_lsn());
    }

    #[test]
    fn snapshot_frames_install_and_supersede() {
        let mut cfg = ServerConfig::new(1);
        cfg.snapshot_every = 4;
        let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        primary.enable_replication(64);
        let mut follower = Follower::open(SyncMemStorage::new(), cfg).unwrap();
        for i in 0..10u64 {
            drive_one(&mut primary, i, &ingest(i));
        }
        pump_replication(&mut primary, &mut follower, 0).unwrap();
        assert!(follower.stats().snapshots > 0, "no snapshot ever shipped");
        assert_eq!(follower.durable_lsn(), primary.last_lsn());
        drain(&mut primary, 10);
        let promoted = follower.promote().unwrap();
        assert_eq!(
            norm(promoted.monitor().stats()),
            norm(primary.monitor().stats())
        );
    }

    #[test]
    fn multi_client_watermarks_replicate() {
        let cfg = ServerConfig::new(1);
        let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        primary.enable_replication(64);
        let mut follower = Follower::open(SyncMemStorage::new(), cfg).unwrap();
        for i in 0..4u64 {
            drive_one(&mut primary, make_req(0, i), &ingest(i));
            drive_one(&mut primary, make_req(7, i), &ingest(100 + i));
        }
        pump_replication(&mut primary, &mut follower, 0).unwrap();
        let promoted = follower.promote().unwrap();
        assert_eq!(promoted.next_req_for(0), 4);
        assert_eq!(promoted.next_req_for(7), 4);
    }
}
