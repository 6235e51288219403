//! E-Shard — sharded-serving scaling: one seeded churn workload driven
//! through [`ShardedServer`] (over in-memory storage) at
//! K ∈ {1, 2, 4, 8} shards and through a plain [`OnlineMonitor`] as
//! the unsharded reference.
//!
//! The workload models the deployment the shard map was built for:
//! processes arrive in **groups** that message each other heavily and
//! rarely talk across group boundaries. Groups are co-located on
//! shards via [`ShardMap::with_process_groups`], so almost every event
//! is shard-local. Each batch goes to the facade the way the socket
//! tier sends it: its ingests and then its closes in one
//! [`ShardedServer::handle_batch`] (which logs each shard's ingests on
//! that shard's own thread), then a [`ShardedServer::drain`]. The few
//! cross-group messages force the Theorem-19 coordinator to ship send
//! clocks between shards. Intervals churn (each group's label closes
//! and a fresh one opens every `per_interval` events) and consecutive
//! intervals carry watches, so the final verdict set exercises the
//! cross-shard merged-summary evaluation, not just ingestion.
//!
//! Two facts gate `shard_ok` (grep'd by CI):
//!
//! * **Sharding changed nothing**: at every K, the watch verdicts are
//!   identical to the unsharded monitor's, and every event applied.
//! * **Sharding bought throughput**: K = 8 ingests at least
//!   [`min_speedup`]× faster than K = 1 — the same core-aware gate as
//!   the pairs bench (`min(2.5, 0.85 × min(8, cores))`), overridable
//!   with `SYNCHREL_SHARD_MIN_SPEEDUP` for constrained runners.
//!
//! [`run`] writes `BENCH_shard.json` at the repository root.

use std::collections::VecDeque;
use std::time::Instant;

use synchrel_core::Relation;
use synchrel_monitor::differential::WireReport;
use synchrel_monitor::online::{OnlineMonitor, Verdict, WireEvent};
use synchrel_monitor::shard::ShardMap;
use synchrel_obs::json::{array_of, u64_array, ObjectWriter};
use synchrel_serve::proto::{decode_frame, decode_response, make_req, request_frame};
use synchrel_serve::{Command, Response, ServerConfig, ShardedServer, SyncMemStorage};
use synchrel_sim::fault::mix;

use super::pairs::{available_cores, SCALING_EFFICIENCY_FLOOR, SCALING_SPEEDUP_CAP};
use crate::table::Table;

/// Shard counts swept, the single-shard baseline first.
pub const SHARD_POINTS: [usize; 4] = [1, 2, 4, 8];

/// Environment knob overriding the speedup gate on constrained
/// runners: `SYNCHREL_SHARD_MIN_SPEEDUP=1.0 repro -- shard`.
pub const MIN_SPEEDUP_ENV: &str = "SYNCHREL_SHARD_MIN_SPEEDUP";

/// Environment knob resizing the stream (target total events).
pub const EVENTS_ENV: &str = "SYNCHREL_SHARD_EVENTS";

/// Salts of the seeded workload generator.
const SALT_PROC: u64 = 0x5A01;
const SALT_KIND: u64 = 0x5A02;
const SALT_CROSS: u64 = 0x5A03;

/// The speedup gate: [`MIN_SPEEDUP_ENV`] when set (parseable as f64),
/// otherwise the pairs bench's core-aware rule — full 2.5× on an
/// 8-core runner, `0.85 × cores` below that, so a 1-core container
/// only has to prove sharding does not collapse throughput.
pub fn min_speedup() -> f64 {
    if let Ok(v) = std::env::var(MIN_SPEEDUP_ENV) {
        if let Ok(x) = v.trim().parse::<f64>() {
            return x;
        }
    }
    let cores = available_cores().min(SHARD_POINTS[SHARD_POINTS.len() - 1]);
    (SCALING_EFFICIENCY_FLOOR * cores as f64).min(SCALING_SPEEDUP_CAP)
}

/// Shape of the churn stream.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Processes in the monitored system.
    pub processes: usize,
    /// Co-location groups (`processes` must divide evenly).
    pub groups: usize,
    /// Target total events (rounded down to a whole number of
    /// intervals per group).
    pub target_events: usize,
    /// Intervals each group lives through.
    pub intervals_per_group: usize,
    /// Events per [`ShardedServer::handle_batch`] call.
    pub batch: usize,
    /// Percent of sends addressed to another group (cross-shard
    /// transfer pressure).
    pub cross_pct: u64,
}

impl WorkloadConfig {
    /// The artifact-sized stream: 128 processes in 32 groups, ~384k
    /// events, 24 intervals per group (`SYNCHREL_SHARD_EVENTS`
    /// resizes).
    pub fn full() -> WorkloadConfig {
        WorkloadConfig {
            processes: 128,
            groups: 32,
            target_events: env_u64(EVENTS_ENV, 384_000) as usize,
            intervals_per_group: 24,
            batch: 4_096,
            cross_pct: 1,
        }
    }

    /// A test-sized stream keeping the same shape.
    pub fn small() -> WorkloadConfig {
        WorkloadConfig {
            processes: 8,
            groups: 4,
            target_events: 4_000,
            intervals_per_group: 5,
            batch: 128,
            cross_pct: 5,
        }
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// One ingest batch plus the interval closes due once it has applied.
struct Batch {
    reports: Vec<WireReport>,
    closes: Vec<String>,
}

/// A fully generated stream: batches, the group map, and the watches.
pub struct Workload {
    batches: Vec<Batch>,
    /// `group_of[p]` — the co-location group of process `p`.
    pub group_of: Vec<usize>,
    /// Watch registrations `(name, rel, x, y)`.
    pub watches: Vec<(String, Relation, String, String)>,
    /// Events in the stream.
    pub events: u64,
    /// Sends addressed across group boundaries.
    pub cross_msgs: u64,
    processes: usize,
}

fn label(g: usize, i: usize) -> String {
    format!("g{g}-i{i}")
}

/// Grow the seeded churn stream. Per step the owning group rotates;
/// the group picks a member process and rolls internal / send /
/// receive; every event is tagged with the group's open interval
/// label. Receives always consume an earlier send, so in-order
/// delivery applies every report without buffering — except receives
/// of cross-group sends, which are exactly the reports a shard must
/// buffer until the coordinator ships the clock.
pub fn generate(seed: u64, cfg: &WorkloadConfig) -> Workload {
    assert!(cfg.processes >= cfg.groups && cfg.processes.is_multiple_of(cfg.groups));
    let per_group = cfg.processes / cfg.groups;
    let per_interval = (cfg.target_events / cfg.groups / cfg.intervals_per_group).max(1);
    let total = cfg.groups * cfg.intervals_per_group * per_interval;

    let group_of: Vec<usize> = (0..cfg.processes).map(|p| p / per_group).collect();
    let mut next_seq = vec![0u64; cfg.processes];
    let mut inflight: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.groups];
    let mut cur = vec![0usize; cfg.groups];
    let mut fill = vec![0usize; cfg.groups];
    let mut next_msg = 0u64;
    let mut cross_msgs = 0u64;

    let mut batches = Vec::new();
    let mut reports = Vec::with_capacity(cfg.batch);
    let mut closes = Vec::new();
    for step in 0..total {
        let g = step % cfg.groups;
        let p = g * per_group + (mix(seed, SALT_PROC, step as u64) % per_group as u64) as usize;
        let roll = mix(seed, SALT_KIND, step as u64) % 100;
        let event = if roll < 25 {
            let msg = next_msg;
            next_msg += 1;
            let dst = if mix(seed, SALT_CROSS, step as u64) % 100 < cfg.cross_pct {
                cross_msgs += 1;
                (g + 1 + (mix(seed, SALT_CROSS, !(step as u64)) % (cfg.groups as u64 - 1)) as usize)
                    % cfg.groups
            } else {
                g
            };
            inflight[dst].push_back(msg);
            WireEvent::Send { msg }
        } else if roll < 50 {
            match inflight[g].pop_front() {
                Some(msg) => WireEvent::Recv { msg },
                None => WireEvent::Internal,
            }
        } else {
            WireEvent::Internal
        };
        let seq = next_seq[p];
        next_seq[p] += 1;
        reports.push((p, seq, event, vec![label(g, cur[g])]));

        fill[g] += 1;
        if fill[g] >= per_interval && cur[g] + 1 < cfg.intervals_per_group {
            closes.push(label(g, cur[g]));
            cur[g] += 1;
            fill[g] = 0;
        }
        if reports.len() >= cfg.batch {
            batches.push(Batch {
                reports: std::mem::take(&mut reports),
                closes: std::mem::take(&mut closes),
            });
        }
    }
    for (g, &c) in cur.iter().enumerate() {
        closes.push(label(g, c));
    }
    batches.push(Batch { reports, closes });

    let rels = [Relation::R1, Relation::R2, Relation::R3];
    let mut watches = Vec::new();
    for g in 0..cfg.groups {
        for i in 0..cfg.intervals_per_group - 1 {
            watches.push((
                format!("w-g{g}-{i}"),
                rels[i % rels.len()],
                label(g, i),
                label(g, i + 1),
            ));
        }
    }

    Workload {
        batches,
        group_of,
        watches,
        events: total as u64,
        cross_msgs,
        processes: cfg.processes,
    }
}

/// Drive the stream through a plain [`OnlineMonitor`] — the unsharded
/// reference. Returns `(verdicts, applied, events/sec)`.
fn run_unsharded(w: &Workload) -> (Vec<(String, Verdict)>, u64, f64) {
    let mut m = OnlineMonitor::new(w.processes);
    for (name, rel, x, y) in &w.watches {
        m.watch(name, *rel, x, y);
    }
    let t0 = Instant::now();
    for b in &w.batches {
        for (p, seq, ev, labels) in &b.reports {
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            m.ingest(*p, *seq, ev.clone(), &refs)
                .expect("reference ingest");
        }
        for l in &b.closes {
            m.close(l);
        }
    }
    let eps = w.events as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    (m.verdicts(), m.stats().applied, eps)
}

/// Drive the stream through a K-shard [`ShardedServer`] over
/// in-memory storage. Every frame is encoded before the clock starts;
/// each batch's ingests and closes then go out in one `handle_batch`,
/// followed by a drain. The ingest queues hold a whole batch, so every
/// response must be an `Ack`. Returns `(verdicts, applied,
/// events/sec)`.
fn run_sharded(w: &Workload, k: usize) -> (Vec<(String, Verdict)>, u64, f64) {
    let mut cfg = ServerConfig::new(w.processes);
    cfg.queue_capacity = w.batches.iter().map(|b| b.reports.len()).max().unwrap_or(0);
    let storages = (0..k).map(|_| SyncMemStorage::new()).collect();
    let map = ShardMap::with_process_groups(k, &w.group_of);
    let mut srv = ShardedServer::recover(storages, &cfg, map).expect("fresh shards recover");
    let mut next = 0;
    let mut frame = |cmd: Command| {
        next += 1;
        request_frame(make_req(1, next - 1), &cmd)
    };
    let mut responses = Vec::new();
    for (name, rel, x, y) in &w.watches {
        responses.push(srv.handle_bytes(&frame(Command::Watch {
            name: name.clone(),
            rel: *rel,
            x: x.clone(),
            y: y.clone(),
        })));
    }
    let batches: Vec<Vec<Vec<u8>>> = w
        .batches
        .iter()
        .map(|b| {
            let ingests = b
                .reports
                .iter()
                .map(|(p, seq, ev, labels)| Command::Ingest {
                    process: *p,
                    seq: *seq,
                    event: ev.clone(),
                    labels: labels.clone(),
                });
            let closes = b.closes.iter().map(|l| Command::Close { label: l.clone() });
            ingests.chain(closes).map(&mut frame).collect()
        })
        .collect();

    let t0 = Instant::now();
    for b in &batches {
        responses.extend(srv.handle_batch(b));
        srv.drain(0);
    }
    let eps = w.events as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    for r in &responses {
        let bytes = r.as_ref().expect("the facade answers every frame");
        let frame = decode_frame(bytes).expect("response frame decodes");
        let resp = decode_response(&frame.payload).expect("response decodes");
        assert_eq!(resp, Response::Ack, "request {} refused", frame.req);
    }
    (srv.verdicts(), srv.monitor_stats().applied, eps)
}

/// Throughput and equivalence of one shard-count point.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Shards.
    pub shards: usize,
    /// Measured ingest throughput, events/sec.
    pub events_per_sec: f64,
    /// `events_per_sec` over the K = 1 row's.
    pub speedup: f64,
    /// Verdicts and applied-count identical to the unsharded monitor.
    pub verdicts_match: bool,
}

impl ShardRow {
    fn to_json(&self) -> String {
        ObjectWriter::new()
            .u64_field("shards", self.shards as u64)
            .f64_field("events_per_sec", self.events_per_sec)
            .f64_field("speedup", self.speedup)
            .bool_field("verdicts_match", self.verdicts_match)
            .finish()
    }
}

/// What one sweep of the shard points measures.
#[derive(Clone, Debug)]
pub struct ShardMeasurement {
    /// Workload seed.
    pub seed: u64,
    /// Stream shape.
    pub cfg: WorkloadConfig,
    /// Events streamed (per run).
    pub events: u64,
    /// Watches registered.
    pub watches: u64,
    /// Cross-group sends in the stream.
    pub cross_msgs: u64,
    /// Unsharded reference throughput, events/sec.
    pub unsharded_eps: f64,
    /// One row per [`SHARD_POINTS`] entry.
    pub rows: Vec<ShardRow>,
}

impl ShardMeasurement {
    /// Did every shard count reproduce the unsharded verdicts?
    pub fn all_match(&self) -> bool {
        self.rows.iter().all(|r| r.verdicts_match)
    }

    /// Speedup of the largest shard count over K = 1.
    pub fn speedup(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.speedup)
    }

    /// The CI gate at a given speedup floor: equivalent *and* faster.
    pub fn ok(&self, min_speedup: f64) -> bool {
        self.all_match() && self.speedup() >= min_speedup
    }
}

/// Generate the stream and sweep [`SHARD_POINTS`], comparing every
/// point's verdicts against the unsharded reference.
pub fn measure(seed: u64, cfg: WorkloadConfig) -> ShardMeasurement {
    let w = generate(seed, &cfg);
    let (ref_verdicts, ref_applied, unsharded_eps) = run_unsharded(&w);
    assert_eq!(ref_applied, w.events, "reference monitor dropped events");

    let mut rows = Vec::new();
    let mut base = 0.0f64;
    for &k in &SHARD_POINTS {
        let (verdicts, applied, eps) = run_sharded(&w, k);
        if k == SHARD_POINTS[0] {
            base = eps;
        }
        rows.push(ShardRow {
            shards: k,
            events_per_sec: eps,
            speedup: eps / base.max(1e-9),
            verdicts_match: verdicts == ref_verdicts && applied == ref_applied,
        });
    }
    ShardMeasurement {
        seed,
        cfg,
        events: w.events,
        watches: w.watches.len() as u64,
        cross_msgs: w.cross_msgs,
        unsharded_eps,
        rows,
    }
}

/// Render the `BENCH_shard.json` document at a given speedup gate.
pub fn report_json(m: &ShardMeasurement, gate: f64) -> String {
    let points: Vec<u64> = SHARD_POINTS.iter().map(|&k| k as u64).collect();
    ObjectWriter::new()
        .str_field("schema", "synchrel/BENCH_shard/v2")
        .str_field("git_rev", &super::git_rev())
        .bool_field("dirty", super::git_dirty())
        .u64_field("workload_seed", m.seed)
        .u64_field("processes", m.cfg.processes as u64)
        .u64_field("groups", m.cfg.groups as u64)
        .u64_field("intervals_per_group", m.cfg.intervals_per_group as u64)
        .u64_field("batch", m.cfg.batch as u64)
        .u64_field("events", m.events)
        .u64_field("watches", m.watches)
        .u64_field("cross_msgs", m.cross_msgs)
        .u64_field("cores", available_cores() as u64)
        .f64_field("unsharded_events_per_sec", m.unsharded_eps)
        .raw_field("shard_points", &u64_array(&points))
        .raw_field("rows", &array_of(m.rows.iter().map(ShardRow::to_json)))
        .f64_field("speedup", m.speedup())
        .f64_field("min_speedup", gate)
        .bool_field("verdicts_match", m.all_match())
        .bool_field("shard_ok", m.ok(gate))
        .finish()
}

/// Measure, render the report table, and (when `json_path` is given)
/// write the JSON document.
pub fn run_to(seed: u64, json_path: Option<&str>, cfg: WorkloadConfig) -> String {
    let m = measure(seed, cfg);
    let gate = min_speedup();

    let mut t = Table::new(["shards", "events/s", "speedup", "verdicts"]);
    t.row([
        "unsharded".to_string(),
        format!("{:.0}", m.unsharded_eps),
        "-".to_string(),
        "reference".to_string(),
    ]);
    for r in &m.rows {
        t.row([
            r.shards.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.2}x", r.speedup),
            if r.verdicts_match {
                "match".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\n{} events, {} watches, {} cross-group msgs; K={} speedup {:.2}x \
         (gate >= {:.2}x on {} cores): {}\n",
        m.events,
        m.watches,
        m.cross_msgs,
        SHARD_POINTS[SHARD_POINTS.len() - 1],
        m.speedup(),
        gate,
        available_cores(),
        if m.ok(gate) { "PASS" } else { "FAIL" }
    ));
    if let Some(path) = json_path {
        match std::fs::write(path, report_json(&m, gate)) {
            Ok(()) => out.push_str(&format!("wrote {path}\n")),
            Err(e) => out.push_str(&format!("could not write {path}: {e}\n")),
        }
    }
    out
}

/// Default entry point: the full stream, written to `BENCH_shard.json`
/// at the repository root.
pub fn run(seed: u64) -> String {
    run_to(
        seed,
        Some(super::bench_artifact("BENCH_shard.json").to_str().unwrap()),
        WorkloadConfig::full(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrel_obs::json::is_valid;

    #[test]
    fn every_shard_count_matches_the_unsharded_verdicts() {
        let m = measure(11, WorkloadConfig::small());
        assert_eq!(m.rows.len(), SHARD_POINTS.len());
        assert_eq!(m.events, 4_000);
        assert!(m.watches > 0);
        assert!(m.cross_msgs > 0, "no cross-group traffic generated");
        for r in &m.rows {
            assert!(r.verdicts_match, "K={} diverged from unsharded", r.shards);
            assert!(r.events_per_sec > 0.0);
        }
        // Throughput on a stream this small is noise; the equivalence
        // gate alone must hold regardless of core count.
        assert!(m.ok(0.0));
    }

    #[test]
    fn workload_settles_watches() {
        let w = generate(3, &WorkloadConfig::small());
        let (verdicts, ..) = run_unsharded(&w);
        assert_eq!(verdicts.len(), w.watches.len());
        let settled = verdicts
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Holds | Verdict::Violated))
            .count();
        assert!(settled > 0, "no watch ever settled: {verdicts:?}");
    }

    #[test]
    fn report_is_valid_json() {
        let m = measure(7, WorkloadConfig::small());
        let json = report_json(&m, 0.0);
        assert!(json.starts_with("{\"schema\":\"synchrel/BENCH_shard/v2\""));
        assert!(json.contains("\"git_rev\":"), "{json}");
        assert!(json.contains("\"workload_seed\":7"), "{json}");
        assert!(json.contains("\"shard_ok\":true"), "{json}");
        assert!(is_valid(&json), "{json}");
        // An impossible gate must flip the verdict CI greps for.
        let strict = report_json(&m, 1.0e9);
        assert!(strict.contains("\"shard_ok\":false"), "{strict}");
    }
}
