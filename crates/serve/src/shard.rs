//! The sharded serving tier: K crash-recoverable [`Server`]s behind
//! one facade, each with its **own WAL segment and snapshot**.
//!
//! ## Shape
//!
//! A [`ShardedServer`] owns K full-width [`Server`]s — one storage,
//! WAL, snapshot cadence, and replication stream per shard — plus the
//! routing [`ShardMap`], the facade [`WatchBook`], and the Theorem-19
//! [`Coordinator`] from `synchrel_monitor::shard`. Client frames hit
//! the facade; the facade turns them into *per-shard logged commands*:
//!
//! * `Ingest` forwards to the owning shard under the **client's own
//!   request id**, so the shard's watermark deduplicates retries.
//! * `Watch` / `Close` / `DeclareComplete` broadcast to every shard
//!   under the client's id — each shard dedups independently, which is
//!   what makes a crash mid-broadcast safe: the retry re-sends to all
//!   K, consumed shards answer from cache, the rest execute.
//! * Cross-shard coordination (send-clock transfers, loss concessions,
//!   verdict settlements, retirements) is issued as the logged
//!   commands `LearnSend` / `Concede` / `NoteVerdict` / `Retire` under
//!   the reserved client id [`COORD_CLIENT`], with per-shard sequence
//!   numbers restored from the shard watermarks at recovery.
//!
//! ## Why recovery is exact
//!
//! Every coordinator command is *re-derivable from shard state*: a
//! transfer is issued only while the destination still blocks on the
//! message, a concession only while slots are still pending, a
//! retirement only while the label is still resident somewhere. After
//! a crash the facade is rebuilt from the shard recoveries and simply
//! re-runs the derivation — durable steps are skipped (the state they
//! produced is already there), lost steps are re-issued. The joint
//! shard state therefore walks the same trajectory as an uninterrupted
//! run, and the sharded chaos harness demands byte-identical verdicts
//! **and** per-shard monitor counters against both a never-crashing
//! sharded reference and the unsharded server.
//!
//! ## Group commit per shard
//!
//! [`ShardedServer::handle_batch`] partitions a batch's ingest frames
//! by owning shard and runs each shard's sub-batch on its own scoped
//! thread via [`Server::handle_batch`] — one `wal_sync` per shard per
//! batch, K fsyncs in flight at once. Control frames are applied by
//! the facade afterwards, in arrival order; an ingest that follows a
//! control frame from the same client cuts the batch into a new
//! segment, so no client's frames are reordered.

use std::collections::BTreeSet;
use std::thread;

use synchrel_core::{Oracle, Relation};
use synchrel_monitor::differential::{
    self, compare_verdicts, labelled_intervals, oracle_verdict, perturbed_reports,
    replay_perturbed, CaseOutcome, DiffCase, Mismatch, WireReport,
};
use synchrel_monitor::online::{OnlineMonitor, Verdict};
use synchrel_monitor::shard::{
    next_concession, prune_candidates, shard_stats, transfer_round_masked, Coordinator, ShardMap,
};
use synchrel_monitor::watch::{WatchBook, WatchEvent, WatchSpec};
use synchrel_monitor::MonitorStats;
use synchrel_obs::MetricsRegistry;
use synchrel_sim::fault::mix;

use crate::chaos::{
    self, case_commands, compare_probes, fail, norm_stats, ChaosMismatch, ChaosOutcome, ChaosStats,
};
use crate::proto::{
    decode_command, decode_frame, decode_response, make_req, request_frame, response_frame,
    split_req, Command, Response, KIND_REQUEST,
};
use crate::server::{CrashPlan, RecoverError, Server, ServerConfig, ServerStats};
use crate::storage::{Storage, SyncMemStorage};
use crate::transport::DuplexFactory;

/// The client id reserved for facade-issued coordinator commands.
/// Real clients draw ids well below it; the per-shard sequence
/// counters continue from each shard's watermark after recovery.
pub const COORD_CLIENT: u16 = 0xFFFF;

const SALT_SHARD_CASE: u64 = 0x5CA5;
const SALT_SHARD_CRASH: u64 = 0x5C4A;
const SALT_SHARD_POINT: u64 = 0x5C90;
const SALT_SHARD_TGT: u64 = 0x5C76;

/// A command held back from a partitioned shard, replayed in issue
/// order on heal. Client broadcasts keep their original request id so
/// the shard's watermark dedups replays of a retried broadcast;
/// coordinator commands draw their sequence number at replay time.
#[derive(Clone, Debug)]
enum PendingCmd {
    Client(u64, Command),
    Coord(Command),
}

/// A client frame decoded once: its request id and command, or the
/// answer it gets without reaching a shard (`None` = silence, for a
/// frame that is not a request).
type Decoded = Result<(u64, Command), Option<Vec<u8>>>;

fn decode_request(bytes: &[u8]) -> Decoded {
    let Some(frame) = decode_frame(bytes).ok().filter(|f| f.kind == KIND_REQUEST) else {
        return Err(None);
    };
    decode_command(&frame.payload)
        .map(|cmd| (frame.req, cmd))
        .map_err(|e| {
            let resp = Response::Error(format!("malformed command: {e}"));
            Some(response_frame(frame.req, &resp))
        })
}

/// One group-commit segment of a batch: the fast-path ingests per
/// owning shard, then the facade-path frames in arrival order.
struct Segment {
    /// Frame indices of each shard's ingests.
    ingests: Vec<Vec<usize>>,
    /// Facade-path frames with their indices.
    control: Vec<(usize, Decoded)>,
    /// Clients with a facade-path frame in this segment: a later
    /// ingest from one of them must not overtake it.
    control_clients: BTreeSet<u64>,
}

/// K [`Server`]s — one WAL segment and snapshot each — behind the
/// single-server command surface.
#[derive(Debug)]
pub struct ShardedServer<S: Storage> {
    map: ShardMap,
    shards: Vec<Server<S>>,
    book: WatchBook,
    coord: Coordinator,
    /// Next coordinator sequence number per shard (client
    /// [`COORD_CLIENT`]), restored from the shard watermarks.
    coord_seqs: Vec<u64>,
    /// Facade-level pruning (shard-local pruning is always off:
    /// retirement is a global decision, broadcast as `Retire`).
    pruning: bool,
    /// Logical partition state per shard: `true` = unreachable from
    /// the facade. Ingests for it go silent (the client retries),
    /// broadcasts and coordinator commands buffer into `pending`, and
    /// verdicts degrade soundly (see [`ShardedServer::check`]).
    partitioned: Vec<bool>,
    /// Commands buffered for replay on [`ShardedServer::heal`], per
    /// shard, in issue order.
    pending: Vec<Vec<PendingCmd>>,
}

impl<S: Storage> ShardedServer<S> {
    /// The per-shard config: everything the facade config says, except
    /// that shard-local pruning and forced loss are disabled — both
    /// are facade decisions (retirement must be global, and per-shard
    /// `max_pending` would concede in shard-local rather than global
    /// process order).
    fn shard_config(cfg: &ServerConfig) -> ServerConfig {
        assert_eq!(
            cfg.max_pending, 0,
            "sharded serving requires max_pending = 0; concessions go through the coordinator"
        );
        let mut c = cfg.clone();
        c.pruning = false;
        c
    }

    /// Recover every shard sequentially from its own storage and
    /// rebuild the facade state from the recovered shards.
    pub fn recover(
        storages: Vec<S>,
        cfg: &ServerConfig,
        map: ShardMap,
    ) -> Result<ShardedServer<S>, RecoverError> {
        assert_eq!(storages.len(), map.shards(), "one storage per shard");
        assert_eq!(cfg.processes, map.num_processes());
        let sc = ShardedServer::<S>::shard_config(cfg);
        let mut shards = Vec::with_capacity(storages.len());
        for st in storages {
            shards.push(Server::recover(st, sc.clone())?);
        }
        Ok(ShardedServer::assemble(map, shards, cfg.pruning))
    }

    /// Rebuild facade state (coordinator cursors, watch book) from
    /// freshly recovered shards.
    fn assemble(map: ShardMap, shards: Vec<Server<S>>, pruning: bool) -> ShardedServer<S> {
        let coord_seqs = shards
            .iter()
            .map(|s| s.next_req_for(u64::from(COORD_CLIENT)))
            .collect();
        // Watches are broadcast in registration order, so every shard
        // holds a prefix of the same list; the longest survives a
        // crash mid-broadcast. Settlements are durable on any shard
        // that consumed the NoteVerdict — merge them all in.
        let specs = || shards.iter().map(|sh| sh.monitor().watch_specs());
        let longest = specs().fold(Vec::new(), |a, s| if s.len() > a.len() { s } else { a });
        let mut book = WatchBook::from_specs(longest);
        for w in specs().flatten().filter(|w| w.settled) {
            book.force(&w.name, w.last, true);
        }
        let k = shards.len();
        ShardedServer {
            map,
            shards,
            book,
            coord: Coordinator::new(),
            coord_seqs,
            pruning,
            partitioned: vec![false; k],
            pending: vec![Vec::new(); k],
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Shard `i`, read-only.
    pub fn shard(&self, i: usize) -> &Server<S> {
        &self.shards[i]
    }

    /// Shard `i`, mutable — for per-shard replication wiring
    /// ([`Server::enable_replication`], [`Server::repl_next_frame`])
    /// and tests.
    pub fn shard_mut(&mut self, i: usize) -> &mut Server<S> {
        &mut self.shards[i]
    }

    /// The cross-shard coordinator (cache statistics).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    /// Registered facade watches.
    pub fn watch_specs(&self) -> Vec<WatchSpec> {
        self.book.specs()
    }

    /// Arm a deterministic crash on one shard (the sharded chaos
    /// harness' per-shard crash points).
    pub fn arm_crash(&mut self, shard: usize, plan: CrashPlan) {
        self.shards[shard].arm_crash(plan);
    }

    /// Did any shard crash? A crashed shard makes the whole facade
    /// unresponsive until recovery — exactly like the single server.
    pub fn is_crashed(&self) -> bool {
        self.shards.iter().any(Server::is_crashed)
    }

    /// Enable replication on every shard; each shard ships its own WAL
    /// stream, so followers attach per shard.
    pub fn enable_replication(&mut self, cap: usize) {
        for sh in &mut self.shards {
            sh.enable_replication(cap);
        }
    }

    /// Worst replication lag across shards.
    pub fn repl_lag(&self) -> u64 {
        self.shards.iter().map(Server::repl_lag).max().unwrap_or(0)
    }

    fn monitor_refs(&self) -> Vec<&OnlineMonitor> {
        self.shards.iter().map(Server::monitor).collect()
    }

    fn is_degraded(&self) -> bool {
        self.shards.iter().any(|s| s.monitor().is_degraded())
    }

    /// Sever shard `s` from the facade: its ingests go silent (clients
    /// retry against the heal), broadcasts and coordinator commands
    /// buffer for replay, cross-shard transfers mask it out, and every
    /// unsettled watch degrades to `Unknown` unless a monotone `R4`
    /// `Holds` can still be proven from the reachable subset.
    pub fn partition(&mut self, s: usize) {
        self.partitioned[s] = true;
    }

    /// Reconnect shard `s` and replay everything buffered against it —
    /// in issue order, under the original request ids for client
    /// broadcasts — then run the transfer fixpoint so cross-shard
    /// knowledge frozen by the partition flows. `None` only if a shard
    /// crashed mid-replay (the buffered suffix stays queued for the
    /// next heal attempt after recovery).
    pub fn heal(&mut self, s: usize) -> Option<()> {
        if !self.partitioned[s] {
            return Some(());
        }
        self.partitioned[s] = false;
        let mut queued = std::mem::take(&mut self.pending[s]);
        for (replayed, p) in queued.iter().enumerate() {
            let sent = match p {
                PendingCmd::Client(req, cmd) => self.forward(s, *req, cmd).map(|_| ()),
                PendingCmd::Coord(cmd) => self.coord_send(s, cmd).map(|_| ()),
            };
            if sent.is_none() {
                queued.drain(..replayed);
                self.pending[s] = queued;
                self.partitioned[s] = true;
                return None;
            }
        }
        self.transfer()?;
        // Catch up on poll-work the partition deferred: settlement and
        // label retirement were skipped while any shard was cut, and the
        // stream may never poll again — without this, a healed facade
        // would keep labels resident that the fault-free reference has
        // already retired, and live queries would answer differently.
        self.settle_and_prune()?;
        Some(())
    }

    /// Is shard `s` currently severed from the facade?
    pub fn is_partitioned(&self, s: usize) -> bool {
        self.partitioned[s]
    }

    fn any_partitioned(&self) -> bool {
        self.partitioned.iter().any(|&p| p)
    }

    /// Commands currently buffered against a partitioned shard.
    pub fn partition_pending(&self, s: usize) -> usize {
        self.pending[s].len()
    }

    /// Forward one already-framed command to shard `s`. `None` means
    /// the shard crashed mid-request (no response leaves a dead
    /// process) — the caller must give up on the whole client frame.
    fn forward(&mut self, s: usize, req: u64, cmd: &Command) -> Option<Response> {
        let frame = request_frame(req, cmd);
        let resp = self.shards[s].handle_bytes(&frame)?;
        let frame = decode_frame(&resp).ok()?;
        decode_response(&frame.payload).ok()
    }

    /// Issue one coordinator command to shard `s` under the next
    /// [`COORD_CLIENT`] sequence number.
    fn coord_send(&mut self, s: usize, cmd: &Command) -> Option<Response> {
        let req = make_req(COORD_CLIENT, self.coord_seqs[s]);
        let resp = self.forward(s, req, cmd)?;
        self.coord_seqs[s] += 1;
        Some(resp)
    }

    /// Issue one coordinator command to shard `s`, buffering it when
    /// the shard is partitioned (replayed on heal; the answer is a
    /// provisional `Ack`).
    fn coord_send_buffered(&mut self, s: usize, cmd: &Command) -> Option<Response> {
        if self.partitioned[s] {
            self.pending[s].push(PendingCmd::Coord(cmd.clone()));
            return Some(Response::Ack);
        }
        self.coord_send(s, cmd)
    }

    /// Broadcast a client command to every shard under the client's
    /// own request id (each shard dedups retries independently). A
    /// partitioned shard gets its copy buffered — replays of a retried
    /// broadcast are deduped by the original request id on heal.
    fn broadcast(&mut self, req: u64, cmd: &Command) -> Option<()> {
        for s in 0..self.shards.len() {
            if self.partitioned[s] {
                self.pending[s].push(PendingCmd::Client(req, cmd.clone()));
            } else {
                self.forward(s, req, cmd)?;
            }
        }
        Some(())
    }

    /// Run cross-shard send-clock transfers to a fixpoint, as logged
    /// `LearnSend` commands on the blocked shards. Partitioned shards
    /// are masked out — deferred, not dropped: the heal re-runs the
    /// fixpoint over the full shard set.
    fn transfer(&mut self) -> Option<()> {
        loop {
            let reachable: Vec<bool> = self.partitioned.iter().map(|&p| !p).collect();
            let ops = transfer_round_masked(&self.monitor_refs(), &reachable);
            if ops.is_empty() {
                return Some(());
            }
            for op in ops {
                self.coord_send(
                    op.dst,
                    &Command::LearnSend {
                        msg: op.msg,
                        clock: op.clock,
                    },
                )?;
            }
        }
    }

    fn drain_shards(&mut self) {
        for sh in &mut self.shards {
            sh.drain(0);
        }
    }

    /// Apply up to `budget` queued ingests per shard (0 = all), then
    /// run the transfer fixpoint. The socket tier calls this every
    /// cycle, mirroring [`Server::drain`].
    pub fn drain(&mut self, budget: usize) -> usize {
        let mut n = 0;
        for sh in &mut self.shards {
            n += sh.drain(budget);
        }
        // A crashed shard just leaves its transfers for recovery.
        let _ = self.transfer();
        n
    }

    /// The facade's `DeclareLost`: interleave concessions in global
    /// lowest-process order with transfer fixpoints — the exact
    /// unsharded concession order, as logged `Concede` commands.
    fn declare_lost_all(&mut self) -> Option<u64> {
        let mut conceded = 0;
        loop {
            self.transfer()?;
            let next = next_concession(&self.monitor_refs(), &self.map);
            let Some((shard, p)) = next else { break };
            if let Response::Conceded(n) =
                self.coord_send(shard, &Command::Concede { process: p })?
            {
                conceded += n;
            }
        }
        Some(conceded)
    }

    /// Retire labels that are closed and unreferenced everywhere, as
    /// `Retire` broadcasts. Deferred entirely while a partition holds:
    /// the candidate set would be computed from a stale view of the
    /// severed shard, and retirement is cheap to postpone — the next
    /// `Close`/`Poll` after the heal retires everything eligible.
    fn prune_labels(&mut self) -> Option<()> {
        if !self.pruning || self.any_partitioned() {
            return Some(());
        }
        let candidates = prune_candidates(&self.monitor_refs(), &self.book);
        for label in candidates {
            let cmd = Command::Retire {
                label: label.clone(),
            };
            for s in 0..self.shards.len() {
                self.coord_send(s, &cmd)?;
            }
            self.coord.invalidate(&label);
        }
        Some(())
    }

    /// Evaluate `rel(x, y)` through the coordinator over the merged
    /// shard summaries — the facade's [`OnlineMonitor::check`].
    ///
    /// While any shard is partitioned the evaluation runs over a
    /// *subset* of the system's state (the severed shard contributes
    /// only what it had already applied), so the verdict decays as a
    /// partitioned view ([`synchrel_monitor::watch::verdict`]): only an
    /// `R4`/`R4p` `Holds` may leave a partitioned facade.
    pub fn check(&self, rel: Relation, x: &str, y: &str) -> Verdict {
        let (degraded, cut) = (self.is_degraded(), self.any_partitioned());
        self.coord
            .check(&self.monitor_refs(), degraded, cut, rel, x, y)
    }

    /// Current watch verdicts in registration order.
    pub fn verdicts(&self) -> Vec<(String, Verdict)> {
        self.book.verdicts(|rel, x, y| self.check(rel, x, y))
    }

    fn do_poll(&mut self) -> Option<Response> {
        self.drain_shards();
        self.transfer()?;
        let events = self.settle_and_prune()?;
        Some(Response::Events(events))
    }

    /// The deferred tail of a `Poll`: settle definite watch verdicts
    /// (as durable `NoteVerdict` broadcasts) and retire prunable
    /// labels. [`ShardedServer::heal`] runs this too — a partition
    /// defers settlement and retirement, and the stream may never poll
    /// again after the heal, so the heal itself must catch the facade
    /// up or live queries would answer from a residency state the
    /// fault-free reference no longer has.
    fn settle_and_prune(&mut self) -> Option<Vec<WatchEvent>> {
        let (events, settles) = {
            let refs: Vec<&OnlineMonitor> = self.shards.iter().map(Server::monitor).collect();
            let (degraded, cut) = (self.is_degraded(), self.any_partitioned());
            let coord = &self.coord;
            self.book.poll(true, |rel, x, y| {
                coord.check(&refs, degraded, cut, rel, x, y)
            })
        };
        // Settlements become durable on every shard; recovery treats a
        // watch as settled if *any* shard consumed the broadcast.
        for s in settles {
            let cmd = Command::NoteVerdict {
                name: s.name,
                verdict: s.verdict,
                settled: true,
            };
            for shard in 0..self.shards.len() {
                self.coord_send_buffered(shard, &cmd)?;
            }
        }
        self.prune_labels()?;
        Some(events)
    }

    /// Handle one raw client frame; `None` means no response (bad
    /// frame, or a shard crashed mid-request). The single entry point
    /// shared by [`Backend::pump`](crate::backend::Backend::pump) and
    /// the socket tier.
    pub fn handle_bytes(&mut self, bytes: &[u8]) -> Option<Vec<u8>> {
        self.answer(decode_request(bytes))
    }

    fn answer(&mut self, decoded: Decoded) -> Option<Vec<u8>> {
        let (req, cmd) = match decoded {
            Ok(request) => request,
            Err(answer) => return answer,
        };
        let resp = self.execute(req, &cmd)?;
        Some(response_frame(req, &resp))
    }

    fn execute(&mut self, req: u64, cmd: &Command) -> Option<Response> {
        match cmd {
            Command::Ingest { process, .. } => {
                // Routed, not broadcast: the owner shard's queue
                // admission (Busy/Shed) and watermark dedup answer for
                // the facade. An unknown process still routes (to
                // shard 0) so the apply-side error accounting matches
                // the single server.
                let owner = if *process < self.map.num_processes() {
                    self.map.shard_of_process(*process)
                } else {
                    0
                };
                if self.partitioned[owner] {
                    // An unreachable owner answers with silence, never
                    // a fabricated ack: the client's retry loop is the
                    // buffer, and the dedup watermark makes the
                    // eventual post-heal retry exactly-once.
                    return None;
                }
                self.forward(owner, req, cmd)
            }
            Command::Watch { name, rel, x, y } => {
                self.broadcast(req, cmd)?;
                self.book.watch(name, *rel, x, y);
                Some(Response::Ack)
            }
            Command::Close { label } => {
                // Members still travelling — queued ingests, and
                // receives blocked on a send another shard applied —
                // join the interval before it closes, as on the
                // unsharded server.
                self.drain_shards();
                self.transfer()?;
                self.broadcast(req, cmd)?;
                self.coord.invalidate(label);
                self.prune_labels()?;
                Some(Response::Ack)
            }
            Command::Poll => self.do_poll(),
            Command::DeclareLost => {
                if self.any_partitioned() {
                    // Concessions must fire in global process order,
                    // which a severed shard cannot join; stall (the
                    // client retries) rather than concede out of order.
                    return None;
                }
                self.drain_shards();
                let n = self.declare_lost_all()?;
                Some(Response::Conceded(n))
            }
            Command::DeclareComplete { totals } => {
                if self.any_partitioned() {
                    return None;
                }
                if totals.len() != self.map.num_processes() {
                    // Let shard 0 produce (and log) the canonical
                    // error, like the single server would.
                    return self.forward(0, req, cmd);
                }
                self.drain_shards();
                let mut n = self.declare_lost_all()?;
                for s in 0..self.shards.len() {
                    // Each shard audits only the processes it owns.
                    let totals = self.map.owned_totals(s, totals);
                    if let Response::Conceded(c) =
                        self.forward(s, req, &Command::DeclareComplete { totals })?
                    {
                        n += c;
                    }
                }
                self.transfer()?;
                Some(Response::Conceded(n))
            }
            Command::Query { rel, x, y } => {
                self.drain_shards();
                self.transfer()?;
                Some(Response::Verdict(self.check(*rel, x, y)))
            }
            Command::Verdicts => {
                self.drain_shards();
                self.transfer()?;
                Some(Response::Verdicts(self.verdicts()))
            }
            Command::Stats => {
                self.drain_shards();
                self.transfer()?;
                Some(Response::Stats(self.monitor_stats()))
            }
            Command::TakeSnapshot => {
                if self.any_partitioned() {
                    // An operator snapshot covers all K shards or none.
                    return None;
                }
                for sh in &mut self.shards {
                    if let Err(e) = sh.take_snapshot() {
                        return Some(Response::Error(format!("snapshot failed: {e}")));
                    }
                }
                Some(Response::Ack)
            }
            Command::LearnSend { .. }
            | Command::NoteVerdict { .. }
            | Command::Retire { .. }
            | Command::Concede { .. } => Some(Response::Error(
                "coordinator-internal command refused from clients".into(),
            )),
        }
    }

    /// Aggregated monitor counters: ingest-side sums across shards,
    /// residency over the union of labels, verdict tallies zero (the
    /// facade's shards never run `check`, and facade-side tallies
    /// would not survive recovery deterministically).
    pub fn monitor_stats(&self) -> MonitorStats {
        shard_stats(self.shards.iter().map(Server::monitor))
    }

    /// Aggregated server counters: sums, with the queue high-water as
    /// the per-shard max.
    pub fn server_stats(&self) -> ServerStats {
        let mut out = ServerStats::default();
        for sh in &self.shards {
            let s = sh.stats();
            out.wal_appends += s.wal_appends;
            out.replayed += s.replayed;
            out.torn_truncations += s.torn_truncations;
            out.snapshots += s.snapshots;
            out.shed += s.shed;
            out.busy += s.busy;
            out.bad_frames += s.bad_frames;
            out.forced_loss += s.forced_loss;
            out.apply_errors += s.apply_errors;
            out.recovered |= s.recovered;
            out.recovery_micros += s.recovery_micros;
            out.queue_high_water = out.queue_high_water.max(s.queue_high_water);
        }
        out
    }

    /// Export aggregate monitor counters plus per-shard serving gauges
    /// into a metrics registry.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.monitor_stats().register(reg);
        reg.gauge(
            "synchrel_serve_shard_count",
            "Number of serving shards",
            self.shards.len() as f64,
        );
        reg.counter(
            "synchrel_serve_coordinator_cache_hits_total",
            "Cross-shard summary fetches served from the coordinator cache",
            self.coord.cache_hits(),
        );
        reg.counter(
            "synchrel_serve_coordinator_cache_misses_total",
            "Cross-shard summary fetches that had to touch a shard",
            self.coord.cache_misses(),
        );
        for (i, sh) in self.shards.iter().enumerate() {
            let s = sh.stats();
            let idx = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", idx.as_str())];
            reg.counter_with(
                "synchrel_serve_shard_wal_appends_total",
                labels,
                "WAL records appended per shard",
                s.wal_appends,
            );
            reg.gauge_with(
                "synchrel_serve_shard_queue_depth",
                labels,
                "Admitted ingests awaiting application per shard",
                sh.queue_depth() as f64,
            );
            reg.gauge_with(
                "synchrel_serve_shard_last_lsn",
                labels,
                "Durable log position per shard",
                sh.last_lsn() as f64,
            );
            reg.gauge_with(
                "synchrel_serve_shard_repl_lag",
                labels,
                "Replication lag per shard (0 when replication is off)",
                sh.repl_lag() as f64,
            );
        }
    }
}

impl<S: Storage + Send> ShardedServer<S> {
    /// Recover every shard **in parallel** — one scoped thread per
    /// shard storage — then join and rebuild the facade. Identical
    /// result to [`ShardedServer::recover`]; the win is wall-clock
    /// when K WAL segments replay at once.
    pub fn recover_parallel(
        storages: Vec<S>,
        cfg: &ServerConfig,
        map: ShardMap,
    ) -> Result<ShardedServer<S>, RecoverError> {
        assert_eq!(storages.len(), map.shards(), "one storage per shard");
        assert_eq!(cfg.processes, map.num_processes());
        let sc = ShardedServer::<S>::shard_config(cfg);
        let results: Vec<Result<Server<S>, RecoverError>> = thread::scope(|scope| {
            let handles: Vec<_> = storages
                .into_iter()
                .map(|st| {
                    let sc = sc.clone();
                    scope.spawn(move || Server::recover(st, sc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard recovery thread panicked"))
                .collect()
        });
        let shards = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedServer::assemble(map, shards, cfg.pruning))
    }

    /// Group commit per shard: partition the batch's ingest frames by
    /// owning shard, run each shard's sub-batch through
    /// [`Server::handle_batch`] on its own scoped thread (one
    /// `wal_sync` per shard), then apply the remaining control frames
    /// through the facade in arrival order. An ingest that follows a
    /// control frame from the same client starts a new segment, so
    /// every client's frames take effect in the order it sent them.
    /// Responses come back positionally, like the single server's
    /// batch API.
    pub fn handle_batch(&mut self, frames: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; frames.len()];
        let mut seg = Segment {
            ingests: vec![Vec::new(); self.shards.len()],
            control: Vec::new(),
            control_clients: BTreeSet::new(),
        };
        for (i, bytes) in frames.iter().enumerate() {
            let decoded = decode_request(bytes);
            let client = decoded.as_ref().ok().map(|(req, _)| split_req(*req).0);
            match self.fast_owner(&decoded) {
                Some(owner) => {
                    if client.is_some_and(|c| seg.control_clients.contains(&c)) {
                        self.commit_segment(frames, &mut seg, &mut out);
                    }
                    seg.ingests[owner].push(i);
                }
                None => {
                    seg.control_clients.extend(client);
                    seg.control.push((i, decoded));
                }
            }
        }
        self.commit_segment(frames, &mut seg, &mut out);
        out
    }

    /// Run and empty one segment: each shard's ingests as one group
    /// commit, then the facade-path frames.
    fn commit_segment(
        &mut self,
        frames: &[Vec<u8>],
        seg: &mut Segment,
        out: &mut [Option<Vec<u8>>],
    ) {
        let shard_frames: Vec<Vec<Vec<u8>>> = seg
            .ingests
            .iter()
            .map(|slots| slots.iter().map(|&i| frames[i].clone()).collect())
            .collect();
        let live = shard_frames.iter().filter(|f| !f.is_empty()).count();
        if live == 1 {
            // One busy shard: skip the thread scaffolding.
            let s = shard_frames
                .iter()
                .position(|f| !f.is_empty())
                .expect("live == 1");
            let resp = self.shards[s].handle_batch(&shard_frames[s]);
            for (slot, r) in seg.ingests[s].iter().zip(resp) {
                out[*slot] = r;
            }
        } else if live > 1 {
            thread::scope(|scope| {
                let mut handles = Vec::new();
                for ((shard, frames_s), slots) in
                    self.shards.iter_mut().zip(&shard_frames).zip(&seg.ingests)
                {
                    if frames_s.is_empty() {
                        continue;
                    }
                    handles.push((slots, scope.spawn(move || shard.handle_batch(frames_s))));
                }
                for (slots, h) in handles {
                    let resp = h.join().expect("shard batch thread panicked");
                    for (slot, r) in slots.iter().zip(resp) {
                        out[*slot] = r;
                    }
                }
            });
        }
        for slots in &mut seg.ingests {
            slots.clear();
        }
        for (i, decoded) in std::mem::take(&mut seg.control) {
            out[i] = self.answer(decoded);
        }
        seg.control_clients.clear();
    }

    /// `Some(owner)` when the frame is a well-formed ingest for a
    /// known process whose owner is reachable; `None` routes it
    /// through the sequential facade path.
    fn fast_owner(&self, decoded: &Decoded) -> Option<usize> {
        match decoded {
            Ok((_, Command::Ingest { process, .. })) if *process < self.map.num_processes() => {
                let owner = self.map.shard_of_process(*process);
                // A partitioned owner takes the sequential facade path,
                // which answers with silence.
                (!self.partitioned[owner]).then_some(owner)
            }
            _ => None,
        }
    }
}

/// Run one sharded chaos case at `shards` shards. Three gates:
///
/// 1. **Sharding is invisible**: every verdict probe (each `Query`,
///    and `Verdicts`) of the never-crashing sharded run equals the
///    unsharded server's, and the aggregate counters sharding
///    preserves exactly (applied / duplicates / lost / pending /
///    degradation / residency / reclamation) match.
/// 2. **Recovery is exact**: the crash-riddled sharded run answers
///    every probe — `Stats` included — identically to the sharded
///    reference (wall-clock flush time excepted).
/// 3. **Per shard**: final monitor counters of every shard match
///    between the reference and the crashed run.
pub fn run_shard_chaos_case(seed: u64, shards: usize) -> Result<ChaosOutcome, ChaosMismatch> {
    assert!(shards > 0);
    let Some(cc) = case_commands(seed)? else {
        return Ok(ChaosOutcome {
            skipped: true,
            ..ChaosOutcome::default()
        });
    };
    let cfg = chaos::case_config(seed, cc.processes);

    // A sharded run starts on K fresh storages. One dead shard kills the
    // whole facade, and recovery rebuilds it from the K storages, so the
    // in-memory facade state (watch book, coordinator cursors) must be
    // reconstructible. Lifetime `k` strikes a seed-chosen shard. The
    // storage is `SyncMemStorage` because the facade's batch path runs
    // shards on scoped threads.
    let map = ShardMap::new(shards, cfg.processes);
    let run_sharded = |crashes: u64| {
        let storages: Vec<SyncMemStorage> = (0..shards).map(|_| SyncMemStorage::new()).collect();
        chaos::drive(
            seed,
            &cc,
            crashes,
            &mut DuplexFactory,
            || ShardedServer::recover(storages.clone(), &cfg, map.clone()),
            |server, k| {
                let target = (mix(seed, SALT_SHARD_TGT, k) % shards as u64) as usize;
                let plan = chaos::crash_plan(seed, (SALT_SHARD_CRASH, SALT_SHARD_POINT), k);
                server.arm_crash(target, plan);
            },
        )
    };

    let unsharded = chaos::drive_server(seed, &cfg, &cc, 0, &mut DuplexFactory)
        .map_err(|e| fail(seed, format!("unsharded reference failed: {e}")))?;
    let reference =
        run_sharded(0).map_err(|e| fail(seed, format!("sharded reference failed: {e}")))?;
    let crashes = 1 + mix(seed, SALT_SHARD_CRASH, 99) % 3;
    let crashed =
        run_sharded(crashes).map_err(|e| fail(seed, format!("sharded chaos run failed: {e}")))?;

    // Gate 1: verdict probes byte-identical to the unsharded server,
    // the trailing Stats on the counters sharding preserves.
    let context = format!("between unsharded and K={shards} sharded");
    compare_probes(
        &cc.probes,
        &unsharded.probes,
        &reference.probes,
        true,
        &context,
    )
    .map_err(|e| fail(seed, e))?;

    // Gate 2: crash-riddled run equals the sharded reference on every
    // probe, counters included.
    let context = format!("at K={shards} after {} crash(es)", crashed.crashes);
    compare_probes(
        &cc.probes,
        &reference.probes,
        &crashed.probes,
        false,
        &context,
    )
    .map_err(|e| fail(seed, e))?;

    // Gate 3: every shard's final monitor counters survived recovery.
    for s in 0..shards {
        let want = norm_stats(reference.server.shard(s).monitor().stats());
        let got = norm_stats(crashed.server.shard(s).monitor().stats());
        if want != got {
            return Err(fail(
                seed,
                format!(
                    "shard {s}/{shards} counters diverged after {} crash(es): \
                     reference {want:?}, recovered {got:?}",
                    crashed.crashes
                ),
            ));
        }
    }

    Ok(ChaosOutcome {
        commands: (cc.cmds.len() + cc.probes.len()) as u64,
        crashes: crashed.crashes,
        recoveries: crashed.crashes,
        retries: crashed.retries,
        skipped: false,
    })
}

/// Run `cases` seed-derived sharded chaos cases from `base_seed` at
/// `shards` shards.
pub fn run_shard_chaos_seeds(
    base_seed: u64,
    cases: u64,
    shards: usize,
) -> Result<ChaosStats, ChaosMismatch> {
    chaos::sweep(base_seed, cases, SALT_SHARD_CASE, |seed| {
        run_shard_chaos_case(seed, shards)
    })
}

/// Feed a perturbed stream to a fresh K-shard server the way
/// [`replay_perturbed`] feeds one monitor: every delivery (and its
/// transport duplicate) as its own `Ingest`, each followed by a drain
/// and transfer fixpoint, then `DeclareComplete` when reports were
/// dropped, then a `Close` per label.
fn replay_sharded(
    k: usize,
    deliveries: &[(WireReport, bool)],
    totals: &[u64],
    drops: bool,
    labels: &[String],
) -> Result<ShardedServer<SyncMemStorage>, String> {
    let processes = totals.len();
    let storages = (0..k).map(|_| SyncMemStorage::new()).collect();
    let cfg = ServerConfig::new(processes);
    let mut srv = ShardedServer::recover(storages, &cfg, ShardMap::new(k, processes))
        .map_err(|e| format!("recovery failed: {e}"))?;
    let mut next = 0;
    let mut call = |srv: &mut ShardedServer<SyncMemStorage>, cmd: Command| {
        let bytes = srv
            .handle_bytes(&request_frame(make_req(1, next), &cmd))
            .ok_or_else(|| format!("{cmd:?} went unanswered"))?;
        next += 1;
        srv.drain(0);
        let resp = decode_frame(&bytes)
            .and_then(|f| decode_response(&f.payload))
            .map_err(|e| format!("bad response to {cmd:?}: {e}"))?;
        match resp {
            Response::Ack | Response::Conceded(_) => Ok(()),
            other => Err(format!("{cmd:?} answered {other:?}")),
        }
    };
    for ((process, seq, event, labels), dup) in deliveries {
        let cmd = Command::Ingest {
            process: *process,
            seq: *seq,
            event: event.clone(),
            labels: labels.clone(),
        };
        for _ in 0..=usize::from(*dup) {
            call(&mut srv, cmd.clone())?;
        }
    }
    if drops {
        let totals = totals.to_vec();
        call(&mut srv, Command::DeclareComplete { totals })?;
    }
    for label in labels {
        let label = label.clone();
        call(&mut srv, Command::Close { label })?;
    }
    Ok(srv)
}

/// The differential harness' sharded stage: [`differential::run_case`],
/// then the case's perturbed wire streams ([`perturbed_reports`]),
/// clean and lossy, through [`ShardedServer`] at K ∈ {1, 2, 4}. Each
/// run must match the unsharded monitor fed the same stream on health
/// (degraded, lost, pending, duplicates) and on `check` for every
/// ordered pair and relation — the lossy comparison pins the degraded
/// decay, not just the exact table. Clean runs must also match the
/// oracle.
pub fn run_shard_differential_case(case: &DiffCase) -> Result<CaseOutcome, Mismatch> {
    let outcome = differential::run_case(case)?;
    if outcome.skipped {
        return Ok(outcome);
    }
    let seed = case.seed;
    let result = case.simulate()?;
    let named = labelled_intervals(&result);
    let labels: Vec<String> = named.iter().map(|(l, _)| l.clone()).collect();
    let oracle = Oracle::new(&result.exec);
    let fail = |detail: String| Mismatch { seed, detail };
    let health = |s: MonitorStats| (s.degraded, s.lost, s.pending, s.duplicates);
    for drops in [false, true] {
        let stage = if drops { "sharded-lossy" } else { "sharded" };
        let reference = replay_perturbed(&result, &labels, seed, drops)
            .map_err(|e| fail(format!("{stage} reference replay failed: {e}")))?;
        let (deliveries, totals) = perturbed_reports(&result, seed, drops);
        for k in [1, 2, 4] {
            let stage = format!("{stage}(k={k})");
            let sharded = replay_sharded(k, &deliveries, &totals, drops, &labels)
                .map_err(|e| fail(format!("{stage} replay failed: {e}")))?;
            let (want, got) = (health(reference.stats()), health(sharded.monitor_stats()));
            if got != want {
                return Err(fail(format!(
                    "{stage}: health (degraded, lost, pending, duplicates) diverged — \
                     {got:?}, unsharded says {want:?}"
                )));
            }
            let check = |rel, x: usize, y: usize| sharded.check(rel, &named[x].0, &named[y].0);
            compare_verdicts(
                seed,
                &named,
                &stage,
                "unsharded",
                |rel, x, y| reference.check(rel, &named[x].0, &named[y].0),
                check,
            )?;
            if !drops {
                compare_verdicts(
                    seed,
                    &named,
                    &stage,
                    "oracle",
                    |rel, x, y| oracle_verdict(&oracle, &named, rel, x, y),
                    check,
                )?;
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::replica::{pump_replication, Follower};
    use synchrel_monitor::online::WireEvent;

    fn call<S: Storage>(srv: &mut ShardedServer<S>, seq: &mut u64, cmd: &Command) -> Response {
        let req = make_req(7, *seq);
        *seq += 1;
        let bytes = srv
            .handle_bytes(&request_frame(req, cmd))
            .expect("facade must answer");
        decode_response(&decode_frame(&bytes).unwrap().payload).unwrap()
    }

    fn ingest(p: usize, seq: u64, event: WireEvent, labels: &[&str]) -> Command {
        Command::Ingest {
            process: p,
            seq,
            event,
            labels: labels.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// A small cross-shard script over 4 processes: one message sent
    /// from whatever process shard 0 owns, received on a process some
    /// other shard owns.
    fn cross_shard_script(map: &ShardMap) -> Vec<Command> {
        let p0 = (0..map.num_processes())
            .find(|&p| map.shard_of_process(p) == 0)
            .expect("shard 0 owns a process");
        let p1 = (0..map.num_processes())
            .find(|&p| map.shard_of_process(p) != 0)
            .unwrap_or(p0);
        vec![
            Command::Watch {
                name: "w".into(),
                rel: Relation::R1,
                x: "A".into(),
                y: "B".into(),
            },
            ingest(p0, 0, WireEvent::Internal, &["A"]),
            ingest(p0, 1, WireEvent::Send { msg: 1 }, &["A"]),
            ingest(p1, 0, WireEvent::Recv { msg: 1 }, &["B"]),
            ingest(p1, 1, WireEvent::Internal, &["B"]),
            Command::Poll,
            Command::Close { label: "A".into() },
            Command::Close { label: "B".into() },
            Command::Poll,
        ]
    }

    /// The final `Verdicts` of the unsharded server and of a K-shard
    /// facade over 8 processes, each fed `batches` from one client the
    /// way the socket tier feeds them: one `handle_batch` per batch,
    /// then a drain.
    fn batched_verdicts(k: usize, batches: &[Vec<Command>]) -> [Response; 2] {
        fn run<B: Backend>(srv: &mut B, batches: &[Vec<Command>]) -> Response {
            let mut seq = 0;
            let mut frames = |cmds: &[Command]| -> Vec<Vec<u8>> {
                cmds.iter()
                    .map(|c| {
                        seq += 1;
                        request_frame(make_req(7, seq - 1), c)
                    })
                    .collect()
            };
            for batch in batches {
                srv.handle_batch(&frames(batch));
                srv.drain(0);
            }
            let out = srv.handle_batch(&frames(&[Command::Verdicts]));
            decode_response(&decode_frame(out[0].as_ref().unwrap()).unwrap().payload).unwrap()
        }
        let cfg = ServerConfig::new(8);
        let storages = (0..k).map(|_| SyncMemStorage::new()).collect();
        let mut single = Server::recover(SyncMemStorage::new(), cfg.clone()).unwrap();
        let mut sharded = ShardedServer::recover(storages, &cfg, ShardMap::new(k, 8)).unwrap();
        [run(&mut single, batches), run(&mut sharded, batches)]
    }

    /// Two of 8 processes the K-shard map places on the same shard
    /// (`same`) or on different ones.
    fn process_pair(k: usize, same: bool) -> (usize, usize) {
        let map = ShardMap::new(k, 8);
        let on = |p| map.shard_of_process(p);
        (0..64)
            .map(|i| (i / 8, i % 8))
            .find(|&(a, b)| a != b && (on(a) == on(b)) == same)
            .expect("such a process pair exists")
    }

    fn send_recv_watch_close(p0: usize, p1: usize) -> [Command; 5] {
        [
            Command::Watch {
                name: "w".into(),
                rel: Relation::R1,
                x: "X".into(),
                y: "Y".into(),
            },
            ingest(p0, 0, WireEvent::Send { msg: 1 }, &["X"]),
            ingest(p1, 0, WireEvent::Recv { msg: 1 }, &["Y"]),
            Command::Close { label: "X".into() },
            Command::Close { label: "Y".into() },
        ]
    }

    #[test]
    fn pipelined_close_is_applied_before_later_ingests_of_its_client() {
        // Closes pipelined ahead of later ingests from the same client
        // in one batch must be applied, not acked as duplicates once
        // the ingests moved the client's watermark on.
        for k in [1, 2] {
            let (p0, p1) = process_pair(k, true);
            let [watch, send, recv, close_x, close_y] = send_recv_watch_close(p0, p1);
            let later = (0..8)
                .filter(|&p| p != p1)
                .map(|p| ingest(p, u64::from(p == p0), WireEvent::Internal, &["Z"]));
            let batches = [
                vec![watch],
                vec![send, recv],
                [close_x, close_y].into_iter().chain(later).collect(),
                vec![Command::Poll],
            ];
            let [want, got] = batched_verdicts(k, &batches);
            assert_eq!(want, Response::Verdicts(vec![("w".into(), Verdict::Holds)]));
            assert_eq!(got, want, "K={k}");
        }
    }

    #[test]
    fn close_waits_for_a_cross_shard_receive_in_the_same_batch() {
        let (p0, p1) = process_pair(2, false);
        let [watch, rest @ ..] = send_recv_watch_close(p0, p1);
        let [want, got] = batched_verdicts(2, &[vec![watch], rest.to_vec(), vec![Command::Poll]]);
        assert_eq!(want, Response::Verdicts(vec![("w".into(), Verdict::Holds)]));
        assert_eq!(got, want);
    }

    #[test]
    fn sharded_chaos_sweep_k2_is_green() {
        let stats = run_shard_chaos_seeds(0xB0A7, 8, 2).expect("sharded chaos sweep must agree");
        assert_eq!(stats.cases, 8);
        assert!(stats.crashes > 0, "no shard crash ever fired: {stats:?}");
        assert!(stats.recoveries >= stats.crashes);
        assert!(stats.retries > 0, "crashes fired but nothing retried");
        // Pinned aggregates: the sweep drives exactly these cases.
        assert_eq!(
            (
                stats.commands,
                stats.crashes,
                stats.recoveries,
                stats.retries
            ),
            (717, 16, 16, 16)
        );
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn sharded_chaos_smoke_k4() {
        let stats = run_shard_chaos_seeds(0x51AD, 4, 4).expect("K=4 sharded chaos must agree");
        assert_eq!(stats.cases, 4);
        assert_eq!(
            (
                stats.commands,
                stats.crashes,
                stats.recoveries,
                stats.retries
            ),
            (353, 6, 6, 6)
        );
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn single_shard_facade_is_a_plain_server() {
        // K=1 exercises the facade plumbing with no cross-shard ops.
        let stats = run_shard_chaos_seeds(0xF00D, 4, 1).expect("K=1 must agree");
        assert_eq!(stats.cases, 4);
    }

    #[test]
    fn sharded_matches_unsharded_clean() {
        // Quiet simulations: the sharded stage on top of every
        // unsharded evaluator.
        for i in 0..12u64 {
            let case = DiffCase::configure(mix(0x5AAD, i, 0xC0DE), Some(false));
            run_shard_differential_case(&case).unwrap_or_else(|m| panic!("{m}"));
        }
    }

    #[test]
    fn sharded_matches_unsharded_lossy() {
        // Fault-injected simulations (dropped, delayed and duplicated
        // messages), replayed clean and with lost reports.
        for i in 0..12u64 {
            let case = DiffCase::configure(mix(0x10_55, i, 0xC0DE), Some(true));
            run_shard_differential_case(&case).unwrap_or_else(|m| panic!("{m}"));
        }
    }

    #[test]
    fn facade_pruning_retires_on_every_shard() {
        let mut cfg = ServerConfig::new(4);
        cfg.pruning = true;
        let storages = vec![SyncMemStorage::new(), SyncMemStorage::new()];
        let mut srv = ShardedServer::recover(storages, &cfg, ShardMap::new(2, 4)).unwrap();
        let mut seq = 0;
        let watch = Command::Watch {
            name: "w".into(),
            rel: Relation::R4,
            x: "a".into(),
            y: "b".into(),
        };
        call(&mut srv, &mut seq, &watch);
        for p in 0..4 {
            call(
                &mut srv,
                &mut seq,
                &ingest(p, 0, WireEvent::Internal, &["a"]),
            );
            call(
                &mut srv,
                &mut seq,
                &ingest(p, 1, WireEvent::Internal, &["b"]),
            );
        }
        for label in ["a", "b"] {
            let close = Command::Close {
                label: label.into(),
            };
            call(&mut srv, &mut seq, &close);
        }
        let Response::Events(events) = call(&mut srv, &mut seq, &Command::Poll) else {
            panic!("poll must answer with events");
        };
        assert!(!events.is_empty(), "watch never settled");
        let monitors: Vec<&OnlineMonitor> = (0..2).map(|i| srv.shard(i).monitor()).collect();
        for m in &monitors {
            assert!(m.is_retired("a") && m.is_retired("b"));
            // Tombstones keep closed semantics.
            assert!(m.is_closed("a"));
        }
        let len: usize = monitors.iter().map(|m| m.interval_len("a")).sum();
        assert_eq!(len, 4, "tombstones keep the interval's length");
        assert_eq!(srv.check(Relation::R4, "a", "b"), Verdict::Unknown);
    }

    #[test]
    fn cross_shard_transfer_settles_watches() {
        let map = ShardMap::new(2, 4);
        let cfg = ServerConfig::new(4);
        let storages = vec![SyncMemStorage::new(), SyncMemStorage::new()];
        let mut srv = ShardedServer::recover(storages, &cfg, map.clone()).unwrap();
        let mut seq = 0;
        for cmd in cross_shard_script(&map) {
            let resp = call(&mut srv, &mut seq, &cmd);
            assert!(
                !matches!(resp, Response::Error(_)),
                "{cmd:?} refused: {resp:?}"
            );
        }
        // Both intervals closed and every report applied: the verdict
        // must have settled, and it must equal what a single-shard
        // facade (no cross-shard transfers at all) concludes.
        let mut single =
            ShardedServer::recover(vec![SyncMemStorage::new()], &cfg, ShardMap::new(1, 4)).unwrap();
        let mut sseq = 0;
        for cmd in cross_shard_script(&map) {
            call(&mut single, &mut sseq, &cmd);
        }
        let verdicts = srv.verdicts();
        assert_eq!(verdicts, single.verdicts());
        assert_eq!(verdicts.len(), 1);
        assert!(
            matches!(verdicts[0].1, Verdict::Holds | Verdict::Violated),
            "closed intervals must settle the watch: {verdicts:?}"
        );
        // The settlement really went through the coordinator as logged
        // commands on the shards.
        let coord_reqs: u64 = (0..2)
            .map(|s| srv.shard(s).next_req_for(u64::from(COORD_CLIENT)))
            .sum();
        assert!(coord_reqs > 0, "no coordinator command was ever logged");
    }

    #[test]
    fn partitioned_shard_degrades_to_unknown_and_heals_clean() {
        let map = ShardMap::new(2, 4);
        let cfg = ServerConfig::new(4);
        let mk = || vec![SyncMemStorage::new(), SyncMemStorage::new()];
        let p0 = (0..4).find(|&p| map.shard_of_process(p) == 0).unwrap();
        let p1 = (0..4).find(|&p| map.shard_of_process(p) != 0).unwrap();
        let cut = map.shard_of_process(p1);

        // A two-client workload, tagged (client, cmd). Client 7 stalls
        // mid-partition on its severed ingests (a lockstep client
        // never skips ahead of an unanswered id); client 8's traffic —
        // including a broadcast that must buffer — keeps flowing.
        let watch = |name: &str, rel, x: &str, y: &str| Command::Watch {
            name: name.into(),
            rel,
            x: x.into(),
            y: y.into(),
        };
        let pre: Vec<(u16, Command)> = vec![
            (7, watch("w", Relation::R1, "A", "B")),
            (7, ingest(p0, 0, WireEvent::Internal, &["A"])),
            (7, ingest(p0, 1, WireEvent::Send { msg: 1 }, &["A"])),
        ];
        let stalled: Vec<(u16, Command)> = vec![
            (7, ingest(p1, 0, WireEvent::Recv { msg: 1 }, &["B"])),
            (7, ingest(p1, 1, WireEvent::Internal, &["B"])),
        ];
        let mid: Vec<(u16, Command)> = vec![
            (8, watch("w4", Relation::R4, "A", "B")),
            (8, ingest(p0, 2, WireEvent::Internal, &["A"])),
            (8, Command::Poll),
        ];
        let post: Vec<(u16, Command)> = vec![
            (7, Command::Close { label: "A".into() }),
            (7, Command::Close { label: "B".into() }),
            (7, Command::Poll),
        ];

        // Reference: everything in nominal order, never partitioned.
        let mut reference = ShardedServer::recover(mk(), &cfg, map.clone()).unwrap();
        let mut rseqs = std::collections::BTreeMap::<u16, u64>::new();
        let mut rcall = |srv: &mut ShardedServer<SyncMemStorage>, c: u16, cmd: &Command| {
            let s = rseqs.entry(c).or_insert(0);
            let req = make_req(c, *s);
            *s += 1;
            let bytes = srv
                .handle_bytes(&request_frame(req, cmd))
                .expect("reference must answer");
            srv.drain(0); // the socket tier drains (and transfers) every cycle
            decode_response(&decode_frame(&bytes).unwrap().payload).unwrap()
        };
        for (c, cmd) in pre.iter().chain(&stalled).chain(&mid).chain(&post) {
            rcall(&mut reference, *c, cmd);
        }
        let want = reference.verdicts();

        // Partitioned run.
        let mut srv = ShardedServer::recover(mk(), &cfg, map.clone()).unwrap();
        let mut seqs = std::collections::BTreeMap::<u16, u64>::new();
        let mut issue =
            |srv: &mut ShardedServer<SyncMemStorage>, c: u16, cmd: &Command| -> Option<Response> {
                let s = seqs.entry(c).or_insert(0);
                let req = make_req(c, *s);
                let out = srv
                    .handle_bytes(&request_frame(req, cmd))
                    .map(|bytes| decode_response(&decode_frame(&bytes).unwrap().payload).unwrap());
                srv.drain(0); // the socket tier drains (and transfers) every cycle
                if out.is_some() {
                    *s += 1;
                }
                out
            };
        let soundness = |srv: &ShardedServer<SyncMemStorage>, want: &[(String, Verdict)]| {
            // Gate (a): while the partition holds, no watch may report
            // a True/False the fault-free reference does not — Unknown
            // is the only permitted divergence.
            for (name, v) in srv.verdicts() {
                if matches!(v, Verdict::Holds | Verdict::Violated) {
                    let rv = want.iter().find(|(n, _)| n == &name).map(|(_, v)| *v);
                    assert_eq!(rv, Some(v), "unsound mid-partition verdict for {name}");
                }
            }
        };
        for (c, cmd) in &pre {
            assert!(issue(&mut srv, *c, cmd).is_some());
        }
        srv.partition(cut);
        // Client 7 goes silent on its next command and stays blocked
        // (a lockstep client retries the same id, never skipping ahead)
        // — model two retry attempts of the head-of-line ingest.
        let blocked_req = make_req(7, 3);
        for _ in 0..2 {
            assert!(
                srv.handle_bytes(&request_frame(blocked_req, &stalled[0].1))
                    .is_none(),
                "severed ingest must not be answered"
            );
            soundness(&srv, &want);
        }
        for (c, cmd) in &mid {
            assert!(issue(&mut srv, *c, cmd).is_some(), "{cmd:?} went silent");
            soundness(&srv, &want);
        }
        assert!(
            srv.partition_pending(cut) > 0,
            "no command was buffered against the severed shard"
        );

        // Heal, then client 7 resumes its stalled sequence and the
        // common post-fault suffix runs in both worlds.
        srv.heal(cut).expect("heal replay must land");
        for (c, cmd) in stalled.iter().chain(&post) {
            assert!(issue(&mut srv, *c, cmd).is_some(), "{cmd:?} still silent");
        }

        // Gate (b): post-heal verdicts and counters byte-identical to
        // the fault-free reference.
        assert_eq!(srv.verdicts(), want);
        let diff = chaos::preserved_counters_diff(&reference.monitor_stats(), &srv.monitor_stats());
        assert_eq!(diff, None);
    }

    #[test]
    fn parallel_recovery_matches_sequential() {
        let map = ShardMap::new(3, 4);
        let cfg = ServerConfig::new(4);
        let storages: Vec<SyncMemStorage> = (0..3).map(|_| SyncMemStorage::new()).collect();
        let mut srv = ShardedServer::recover(storages.clone(), &cfg, map.clone()).unwrap();
        let mut seq = 0;
        for cmd in cross_shard_script(&map) {
            call(&mut srv, &mut seq, &cmd);
        }
        drop(srv);

        let seq_rec = ShardedServer::recover(storages.clone(), &cfg, map.clone()).unwrap();
        let par_rec = ShardedServer::recover_parallel(storages, &cfg, map).unwrap();
        assert_eq!(seq_rec.verdicts(), par_rec.verdicts());
        assert_eq!(seq_rec.watch_specs(), par_rec.watch_specs());
        for s in 0..3 {
            assert_eq!(
                norm_stats(seq_rec.shard(s).monitor().stats()),
                norm_stats(par_rec.shard(s).monitor().stats()),
                "shard {s} diverged between sequential and parallel recovery"
            );
            assert_eq!(seq_rec.coord_seqs[s], par_rec.coord_seqs[s]);
        }
    }

    #[test]
    fn batch_group_commits_once_per_shard() {
        let map = ShardMap::new(2, 4);
        let cfg = ServerConfig::new(4);
        let storages = vec![SyncMemStorage::new(), SyncMemStorage::new()];
        let mut srv = ShardedServer::recover(storages.clone(), &cfg, map.clone()).unwrap();

        // Ingest frames for both shards from distinct clients, plus a
        // trailing control frame.
        let p0 = (0..4).find(|&p| map.shard_of_process(p) == 0).unwrap();
        let p1 = (0..4).find(|&p| map.shard_of_process(p) != 0).unwrap();
        let mut frames = Vec::new();
        for i in 0..10u64 {
            frames.push(request_frame(
                make_req(1, i),
                &ingest(p0, i, WireEvent::Internal, &[]),
            ));
            frames.push(request_frame(
                make_req(2, i),
                &ingest(p1, i, WireEvent::Internal, &[]),
            ));
        }
        frames.push(request_frame(make_req(3, 0), &Command::Stats));

        let syncs_before: Vec<u64> = storages.iter().map(|s| s.syncs()).collect();
        let responses = srv.handle_batch(&frames);
        assert!(responses.iter().all(Option::is_some));
        for (i, st) in storages.iter().enumerate() {
            assert_eq!(
                st.syncs() - syncs_before[i],
                1,
                "shard {i} must group-commit its sub-batch with one fsync"
            );
        }
        assert_eq!(srv.shard(0).stats().wal_appends, 10);
        assert_eq!(srv.shard(1).stats().wal_appends, 10);
        let Response::Stats(stats) = decode_response(
            &decode_frame(responses.last().unwrap().as_ref().unwrap())
                .unwrap()
                .payload,
        )
        .unwrap() else {
            panic!("expected stats response");
        };
        assert_eq!(stats.applied, 20);
    }

    #[test]
    fn per_shard_replication_streams_converge() {
        let map = ShardMap::new(2, 4);
        let cfg = ServerConfig::new(4);
        let storages = vec![SyncMemStorage::new(), SyncMemStorage::new()];
        let mut srv = ShardedServer::recover(storages, &cfg, map.clone()).unwrap();
        srv.enable_replication(1024);

        let mut seq = 0;
        for cmd in cross_shard_script(&map) {
            call(&mut srv, &mut seq, &cmd);
        }
        call(&mut srv, &mut seq, &Command::Stats); // drain everything

        // One follower per shard, each consuming its shard's tagged
        // stream only.
        let follower_cfg = {
            let mut c = cfg.clone();
            c.pruning = false;
            c
        };
        for s in 0..2 {
            let mut follower = Follower::open(SyncMemStorage::new(), follower_cfg.clone()).unwrap();
            pump_replication(srv.shard_mut(s), &mut follower, 0).unwrap();
            assert_eq!(follower.durable_lsn(), srv.shard(s).last_lsn());
            assert_eq!(
                norm_stats(follower.monitor().stats()),
                norm_stats(srv.shard(s).monitor().stats()),
                "shard {s} follower diverged from its primary shard"
            );
        }
        assert_eq!(srv.repl_lag(), 0);
    }

    #[test]
    fn export_metrics_has_per_shard_series() {
        let map = ShardMap::new(2, 2);
        let cfg = ServerConfig::new(2);
        let srv = ShardedServer::recover(
            vec![SyncMemStorage::new(), SyncMemStorage::new()],
            &cfg,
            map,
        )
        .unwrap();
        let mut reg = MetricsRegistry::new();
        srv.export_metrics(&mut reg);
        let text = reg.render_prometheus();
        assert!(text.contains("synchrel_serve_shard_count 2"));
        assert!(text.contains("synchrel_serve_shard_wal_appends_total{shard=\"0\"}"));
        assert!(text.contains("synchrel_serve_shard_last_lsn{shard=\"1\"}"));
    }
}
