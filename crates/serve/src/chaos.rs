//! Seeded crash/recovery chaos sweep.
//!
//! One `u64` seed fully determines a case: the simulated execution
//! (the differential harness's script and fault generators, reused
//! verbatim), the wire-order perturbation of the report stream, the
//! server configuration, and where the crashes strike. The same
//! command stream is then driven twice:
//!
//! * a **reference** run against a server that never crashes;
//! * a **chaos** run against a server armed with seed-derived
//!   [`CrashPlan`]s — each crash kills the server mid-request (losing
//!   whatever was on the wire), the client retries under the *same*
//!   request ids with seeded backoff, and the server comes back through
//!   [`Server::recover`] over the same storage.
//!
//! The gate: after both runs drain, every watch verdict, every one-off
//! relation query, and the monitor's operational counters (wall-clock
//! flush time excepted) must be identical. Crashes may cost retries;
//! they may not change an answer.
//!
//! The run loop (`drive`) is generic over the [`Backend`] seam and
//! takes the engine's recovery and crash arming as closures, so the
//! sharded sweep ([`crate::shard`]) and the failover and nemesis
//! sweeps run their cases through it too.

use synchrel_core::Relation;
use synchrel_monitor::differential::{shuffle, wire_reports, DiffCase};
use synchrel_monitor::MonitorStats;
use synchrel_sim::fault::mix;

use crate::backend::Backend;
use crate::client::{Client, ClientError, Pump};
use crate::proto::{Command, Response};
use crate::server::{CrashPlan, CrashPoint, RecoverError, Server, ServerConfig};
use crate::storage::SyncMemStorage;
use crate::transport::{DuplexFactory, WireFactory};

const SALT_CASE: u64 = 0xC405;
const SALT_CRASH: u64 = 0xC7A5;
const SALT_POINT: u64 = 0x9017;
const SALT_CFG: u64 = 0xCF60;
pub(crate) const SALT_CLIENT: u64 = 0xC11E;

/// A reproducible disagreement between the reference and chaos runs
/// (or a run that failed outright).
#[derive(Debug)]
pub struct ChaosMismatch {
    /// The reproducing seed.
    pub seed: u64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for ChaosMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos seed {:#x}: {}", self.seed, self.detail)
    }
}

impl std::error::Error for ChaosMismatch {}

/// Coverage of one chaos case.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosOutcome {
    /// Commands driven through each run.
    pub commands: u64,
    /// Crashes that actually fired in the chaos run.
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Client retransmissions in the chaos run.
    pub retries: u64,
    /// True when the case had too few labelled intervals to exercise.
    pub skipped: bool,
}

/// Aggregate coverage of a sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosStats {
    /// Cases run.
    pub cases: u64,
    /// Commands driven (per run).
    pub commands: u64,
    /// Crashes fired.
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Client retransmissions.
    pub retries: u64,
    /// Cases skipped as degenerate.
    pub skipped: u64,
}

pub(crate) fn fail(seed: u64, detail: impl Into<String>) -> ChaosMismatch {
    ChaosMismatch {
        seed,
        detail: detail.into(),
    }
}

/// Derive the crash plan for the `k`-th lifetime of a chaos run. Each
/// harness draws from its own pair of salts: `(record, point)`.
pub(crate) fn crash_plan(seed: u64, salts: (u64, u64), k: u64) -> CrashPlan {
    // Strike within the next handful of logged records so several
    // crashes fit inside one case; the exact point cycles through all
    // four lifecycle positions.
    let nth_logged = 1 + mix(seed, salts.0, k) % 7;
    let point = match mix(seed, salts.1, k) % 4 {
        0 => CrashPoint::BeforeAppend,
        1 => CrashPoint::TornAppend,
        2 => CrashPoint::AfterAppend,
        _ => CrashPoint::AfterApply,
    };
    CrashPlan { nth_logged, point }
}

/// Seed-derived server configuration (shared by both runs of a case).
pub(crate) fn case_config(seed: u64, processes: usize) -> ServerConfig {
    let mut cfg = ServerConfig::new(processes);
    cfg.snapshot_every = [0, 3, 8][(mix(seed, SALT_CFG, 0) % 3) as usize];
    cfg.pruning = mix(seed, SALT_CFG, 1) % 2 == 1;
    cfg
}

/// Everything a finished run exposes for comparison.
pub(crate) struct RunResult<B> {
    /// Responses to the trailing read-only probes, in probe order.
    pub(crate) probes: Vec<Response>,
    /// The engine as its final lifetime left it.
    pub(crate) server: B,
    /// Crashes that fired; each one was followed by a recovery.
    pub(crate) crashes: u64,
    /// Client retransmissions plus one re-drive per crash.
    pub(crate) retries: u64,
}

/// Drive `cc`'s commands then its probes through one engine, connected
/// by whatever wire `factory` produces (in-process duplex or a real
/// loopback socket — the sweep must not be able to tell). `recover`
/// brings the engine up over the run's storage, at the start and again
/// after every crash; `arm(engine, k)` arms the crash of lifetime `k`
/// for the first `crashes` lifetimes (`0` = the reference run).
pub(crate) fn drive<B: Backend>(
    seed: u64,
    cc: &CaseCommands,
    crashes: u64,
    factory: &mut dyn WireFactory,
    mut recover: impl FnMut() -> Result<B, RecoverError>,
    mut arm: impl FnMut(&mut B, u64),
) -> Result<RunResult<B>, String> {
    let (client_end, mut server_end) = factory
        .pair()
        .map_err(|e| format!("wire bring-up failed: {e}"))?;
    let mut server = recover().map_err(|e| format!("initial bring-up failed: {e}"))?;
    if crashes > 0 {
        arm(&mut server, 0);
    }

    let mut client = Client::new(client_end, mix(seed, SALT_CLIENT, 0));
    client.set_max_attempts(factory.max_attempts());
    let mut fired = 0u64;

    let mut probe_responses = Vec::with_capacity(cc.probes.len());
    for (i, cmd) in cc.cmds.iter().chain(&cc.probes).enumerate() {
        let resp = loop {
            let attempt = client.call_ctl(cmd, || {
                if server.is_crashed() {
                    return Pump::Abort;
                }
                server.pump(&mut server_end, 0);
                if server.is_crashed() {
                    Pump::Abort
                } else {
                    Pump::Continue
                }
            });
            match attempt {
                Ok(resp) => break resp,
                Err(ClientError::Aborted { .. }) => {
                    // The process died; its connection dies with it
                    // (every in-flight frame is lost). Recover over the
                    // same storage, reconnect, re-drive the same id. A
                    // sharded engine dies whole when one shard does, and
                    // recovery rebuilds the facade from the K storages.
                    fired += 1;
                    let (c, s) = factory
                        .pair()
                        .map_err(|e| format!("reconnect failed: {e}"))?;
                    client.set_wire(c);
                    server_end = s;
                    server = recover().map_err(|e| format!("recovery failed: {e}"))?;
                    if fired < crashes {
                        arm(&mut server, fired);
                    }
                }
                Err(e) => return Err(e.to_string()),
            }
        };
        if i < cc.cmds.len() {
            match resp {
                Response::Error(e) => return Err(format!("server refused {cmd:?}: {e}")),
                Response::Busy | Response::Shed => {
                    return Err(format!("unexpected overload response to {cmd:?}"))
                }
                _ => {}
            }
        } else {
            probe_responses.push(resp);
        }
    }

    Ok(RunResult {
        probes: probe_responses,
        server,
        crashes: fired,
        retries: client.retries() + fired,
    })
}

/// [`drive`] one [`Server`] over fresh [`SyncMemStorage`], crashing at the
/// chaos sweep's seed-derived points.
pub(crate) fn drive_server(
    seed: u64,
    cfg: &ServerConfig,
    cc: &CaseCommands,
    crashes: u64,
    factory: &mut dyn WireFactory,
) -> Result<RunResult<Server<SyncMemStorage>>, String> {
    let storage = SyncMemStorage::new();
    drive(
        seed,
        cc,
        crashes,
        factory,
        || Server::recover(storage.clone(), cfg.clone()),
        |server, k| server.arm_crash(crash_plan(seed, (SALT_CRASH, SALT_POINT), k)),
    )
}

/// Compare the probe answers of two runs of one case, wall-clock noise
/// stripped. With `preserved_only`, a `Stats` answer is compared only
/// on the counters that sharding and partitions preserve exactly (see
/// [`preserved_counters_diff`]). `Err` describes the first
/// disagreement; `context` names what separates the two runs.
pub(crate) fn compare_probes(
    probes: &[Command],
    want: &[Response],
    got: &[Response],
    preserved_only: bool,
    context: &str,
) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "probe counts diverged {context}: reference {}, other {}",
            want.len(),
            got.len()
        ));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        let (w, g) = (normalize(w.clone()), normalize(g.clone()));
        let diff = match (&w, &g) {
            (Response::Stats(a), Response::Stats(b)) if preserved_only => {
                preserved_counters_diff(a, b)
            }
            _ => (w != g).then(|| format!("reference {w:?}, other {g:?}")),
        };
        if let Some(diff) = diff {
            let probe = probes.get(i).map(|c| format!("{c:?}")).unwrap_or_default();
            return Err(format!("probe {i} ({probe}) disagrees {context}: {diff}"));
        }
    }
    Ok(())
}

/// The first monitor counter that sharding and partitions must
/// preserve exactly (applied / duplicates / lost / pending /
/// degradation / residency / reclamation) on which `want` and `got`
/// differ. Verdict tallies live at different tiers, and flush/buffer
/// bookkeeping is per shard by construction, so those are not compared.
pub(crate) fn preserved_counters_diff(want: &MonitorStats, got: &MonitorStats) -> Option<String> {
    [
        ("applied", want.applied, got.applied),
        ("duplicates", want.duplicates, got.duplicates),
        ("lost", want.lost, got.lost),
        ("pending", want.pending, got.pending),
        (
            "resident_intervals",
            want.resident_intervals,
            got.resident_intervals,
        ),
        (
            "intervals_reclaimed",
            want.intervals_reclaimed,
            got.intervals_reclaimed,
        ),
        (
            "degraded",
            u64::from(want.degraded),
            u64::from(got.degraded),
        ),
    ]
    .into_iter()
    .find(|(_, w, g)| w != g)
    .map(|(name, w, g)| format!("counter {name} diverged: reference {w}, other {g}"))
}

/// The full command stream of one seeded case, ready to drive through
/// a server (the CLI's `serve` demo uses the same streams the chaos
/// sweep does).
#[derive(Debug)]
pub struct CaseCommands {
    /// The watch/ingest/control stream, in issue order.
    pub cmds: Vec<Command>,
    /// Trailing read-only probes: one `Query` per watched pair and
    /// relation, then `Verdicts`, then `Stats`.
    pub probes: Vec<Command>,
    /// Monitored process count.
    pub processes: usize,
}

/// Build the command stream of case `seed`; `None` when the simulated
/// execution is degenerate (fewer than two labelled intervals).
pub fn case_commands(seed: u64) -> Result<Option<CaseCommands>, ChaosMismatch> {
    // Quiet simulations keep every run deterministic; the interesting
    // faults here are the server crashes, not the simulated network.
    let case = DiffCase::configure(seed, Some(false));
    let result = case.simulate().map_err(|m| fail(seed, m.to_string()))?;
    let labels = result.label_names();
    if labels.len() < 2 {
        return Ok(None);
    }

    let mut reports = wire_reports(&result);
    let mut totals = vec![0u64; case.processes];
    for &(p, ..) in &reports {
        totals[p] += 1;
    }
    shuffle(&mut reports, seed);

    // The logged command stream: watches up front, the perturbed report
    // stream with periodic polls, then completion and closes.
    let mut cmds = Vec::new();
    let mut probes = Vec::new();
    for x in &labels {
        for y in &labels {
            if x == y {
                continue;
            }
            for rel in Relation::ALL {
                probes.push(Command::Query {
                    rel,
                    x: x.clone(),
                    y: y.clone(),
                });
                cmds.push(Command::Watch {
                    name: format!("{rel}({x},{y})"),
                    rel,
                    x: x.clone(),
                    y: y.clone(),
                });
            }
        }
    }
    for (i, (p, seq, ev, lab)) in reports.into_iter().enumerate() {
        cmds.push(Command::Ingest {
            process: p,
            seq,
            event: ev,
            labels: lab,
        });
        if i % 5 == 4 {
            cmds.push(Command::Poll);
        }
    }
    cmds.push(Command::DeclareComplete { totals });
    for l in &labels {
        cmds.push(Command::Close { label: l.clone() });
    }
    cmds.push(Command::Poll);

    // Read-only probes, issued after the stream has fully drained —
    // these are the answers the two runs must agree on.
    probes.push(Command::Verdicts);
    probes.push(Command::Stats);

    Ok(Some(CaseCommands {
        cmds,
        probes,
        processes: case.processes,
    }))
}

/// Run one chaos case over the in-process duplex wire.
pub fn run_chaos_case(seed: u64) -> Result<ChaosOutcome, ChaosMismatch> {
    run_chaos_case_with(seed, &mut DuplexFactory)
}

/// Run one chaos case over whatever wire `factory` produces — the
/// verdict-equality gate is transport-agnostic, so the same seed must
/// pass on the duplex and on a real loopback socket alike.
pub fn run_chaos_case_with(
    seed: u64,
    factory: &mut dyn WireFactory,
) -> Result<ChaosOutcome, ChaosMismatch> {
    let Some(cc) = case_commands(seed)? else {
        return Ok(ChaosOutcome {
            skipped: true,
            ..ChaosOutcome::default()
        });
    };

    let cfg = case_config(seed, cc.processes);
    let crashes = 1 + mix(seed, SALT_CRASH, 99) % 3;

    let reference = drive_server(seed, &cfg, &cc, 0, factory)
        .map_err(|e| fail(seed, format!("reference run failed: {e}")))?;
    let chaos = drive_server(seed, &cfg, &cc, crashes, factory)
        .map_err(|e| fail(seed, format!("chaos run failed: {e}")))?;

    let context = format!("after {} crash(es)", chaos.crashes);
    compare_probes(
        &cc.probes,
        &reference.probes,
        &chaos.probes,
        false,
        &context,
    )
    .map_err(|e| fail(seed, e))?;
    // The durable shed total must carry across recoveries (none here).
    let (want, got) = (reference.server.stats().shed, chaos.server.stats().shed);
    if want != got {
        return Err(fail(
            seed,
            format!("shed total diverged: reference {want}, recovered {got}"),
        ));
    }

    Ok(ChaosOutcome {
        commands: (cc.cmds.len() + cc.probes.len()) as u64,
        crashes: chaos.crashes,
        recoveries: chaos.crashes,
        retries: chaos.retries,
        skipped: false,
    })
}

/// Strip wall-clock noise before comparing responses.
pub(crate) fn normalize(resp: Response) -> Response {
    match resp {
        Response::Stats(s) => Response::Stats(norm_stats(s)),
        other => other,
    }
}

/// Monitor counters with wall-clock flush time zeroed.
pub(crate) fn norm_stats(mut s: MonitorStats) -> MonitorStats {
    s.flush_nanos = 0;
    s
}

/// Run `cases` cases seeded `mix(base_seed, i, salt)` through `case`
/// and total their coverage. The first mismatch stops the sweep.
pub(crate) fn sweep(
    base_seed: u64,
    cases: u64,
    salt: u64,
    mut case: impl FnMut(u64) -> Result<ChaosOutcome, ChaosMismatch>,
) -> Result<ChaosStats, ChaosMismatch> {
    let mut stats = ChaosStats::default();
    for i in 0..cases {
        let o = case(mix(base_seed, i, salt))?;
        stats.cases += 1;
        stats.commands += o.commands;
        stats.crashes += o.crashes;
        stats.recoveries += o.recoveries;
        stats.retries += o.retries;
        stats.skipped += u64::from(o.skipped);
    }
    Ok(stats)
}

/// Run `cases` seed-derived chaos cases from `base_seed` over the
/// in-process duplex wire.
pub fn run_chaos_seeds(base_seed: u64, cases: u64) -> Result<ChaosStats, ChaosMismatch> {
    run_chaos_seeds_with(base_seed, cases, &mut DuplexFactory)
}

/// Run `cases` seed-derived chaos cases from `base_seed` over the wire
/// `factory` produces.
pub fn run_chaos_seeds_with(
    base_seed: u64,
    cases: u64,
    factory: &mut dyn WireFactory,
) -> Result<ChaosStats, ChaosMismatch> {
    sweep(base_seed, cases, SALT_CASE, |seed| {
        run_chaos_case_with(seed, factory)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_small_is_green() {
        let stats = run_chaos_seeds(0xBEEF, 12).expect("chaos sweep must agree");
        assert_eq!(stats.cases, 12);
        // The sweep is vacuous unless crashes actually fire and force
        // real recoveries + retries.
        assert!(stats.crashes > 0, "no crash ever fired: {stats:?}");
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
            (1107, 20, 20, 20)
        );
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn every_crash_point_recovers_on_fixed_seed() {
        // One fixed, non-degenerate case; the crash point is forced to
        // each of the four lifecycle positions in turn by searching
        // seeds until each has been seen.
        let mut seen = [false; 4];
        let mut i = 0u64;
        while seen != [true; 4] {
            let seed = mix(0xD1E, i, SALT_CASE);
            i += 1;
            assert!(i < 512, "could not cover all crash points; seen {seen:?}");
            let point = mix(seed, SALT_POINT, 0) % 4;
            let o = match run_chaos_case(seed) {
                Ok(o) => o,
                Err(m) => panic!("{m}"),
            };
            if !o.skipped && o.crashes > 0 {
                seen[point as usize] = true;
            }
        }
    }
}
