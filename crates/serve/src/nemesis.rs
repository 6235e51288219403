//! The seeded **network nemesis sweep**: every fault the service tier
//! must survive on the wire, driven from a single `u64` per case.
//!
//! One case seed picks a scenario and fully determines it:
//!
//! * **Transport** — the chaos workload runs over a
//!   [`NemesisFactory`]-wrapped duplex: frame drops, delays
//!   (reorders), duplicates, byte-granular partial writes, abrupt
//!   resets, and directed/symmetric partition windows, optionally
//!   composed with seeded server crashes. Gate: every probe response
//!   byte-identical to the fault-free reference — the lockstep client
//!   (idempotent request ids, stale-response discarding) makes the
//!   apply order invariant under any wire mangling the plan emits.
//! * **Partition** — the same workload through a [`ShardedServer`]
//!   with one shard cut at a seeded command index. Gate (a): while the
//!   cut holds, no watch may report a `Holds`/`Violated` the reference
//!   does not — [`Verdict::Unknown`] is the only permitted divergence.
//!   Gate (b): after the heal replays the buffered coordinator
//!   commands, every probe is byte-identical to the reference (the
//!   trailing `Stats` on the counters partitioning preserves exactly).
//! * **KillPrimary** — [`run_nemesis_failover_case`]: the primary dies
//!   under an active nemesis and a seeded-jitter [`LeaseClock`] — not
//!   the harness — detects it; the follower self-promotes and the
//!   resumed client must reconverge within the lease budget.
//!
//! [`LeaseClock`]: crate::replica::LeaseClock

use synchrel_sim::fault::mix;

use crate::chaos::{case_commands, case_config, compare_probes, drive_server, fail};
use crate::failover::run_nemesis_failover_case;
use crate::proto::{decode_frame, decode_response, make_req, request_frame, Command, Response};
use crate::shard::ShardedServer;
use crate::storage::SyncMemStorage;
use crate::transport::{DuplexFactory, NemesisCounts, NemesisFactory};
use synchrel_monitor::online::Verdict;
use synchrel_monitor::shard::ShardMap;

pub use crate::chaos::ChaosMismatch as NemesisMismatch;

const SALT_SCEN: u64 = 0x5CE4;
const SALT_NCRASH: u64 = 0x4EC4;
const SALT_NPLAN: u64 = 0x4E91;
const SALT_NCASE: u64 = 0x4ECA;
const SALT_NSHARD: u64 = 0x4E5D;

/// Which face of the nemesis a case exercised.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NemesisScenario {
    /// Wire faults under the full chaos workload (± server crashes).
    #[default]
    Transport,
    /// A sharded run with one shard logically cut and healed.
    Partition,
    /// Primary killed under nemesis; lease-driven self-promotion.
    KillPrimary,
}

/// Coverage of one nemesis case.
#[derive(Clone, Copy, Debug, Default)]
pub struct NemesisOutcome {
    /// The scenario the seed drew.
    pub scenario: NemesisScenario,
    /// Commands driven through each run.
    pub commands: u64,
    /// True when the simulated execution was degenerate.
    pub skipped: bool,
    /// Wire faults injected (Transport / KillPrimary scenarios).
    pub faults: NemesisCounts,
    /// Server crashes composed with the network faults.
    pub crashes: u64,
    /// Watch checks observed as [`Verdict::Unknown`] while the
    /// partition held (sound degradation actually witnessed).
    pub decayed_checks: u64,
    /// High-water mark of commands buffered against the cut shard.
    pub buffered_peak: u64,
    /// Head-of-line retries the cut forced on the lockstep client.
    pub stalled_retries: u64,
    /// Lease budget drawn by the failure detector (KillPrimary).
    pub lease_budget: u64,
    /// Silent ticks spent before detection (KillPrimary).
    pub detect_ticks: u64,
    /// Wall-clock microseconds the promotion took (KillPrimary).
    pub promote_micros: u64,
    /// Wall-clock microseconds to the first post-promotion response.
    pub resume_micros: u64,
}

/// Aggregate coverage of a nemesis sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct NemesisStats {
    /// Cases run.
    pub cases: u64,
    /// Cases skipped as degenerate.
    pub skipped: u64,
    /// Commands driven (per run).
    pub commands: u64,
    /// Cases per scenario: transport / partition / kill-primary.
    pub transport_cases: u64,
    pub partition_cases: u64,
    pub kill_cases: u64,
    /// Total wire faults injected.
    pub faults: NemesisCounts,
    /// Server crashes composed with the network faults.
    pub crashes: u64,
    /// Unknown-while-cut observations across partition cases.
    pub decayed_checks: u64,
    /// Peak commands buffered against any cut shard.
    pub buffered_peak: u64,
    /// Head-of-line retries partitions forced.
    pub stalled_retries: u64,
    /// Lease-driven self-promotions performed.
    pub promotions: u64,
    /// Detection ticks spent across promotions.
    pub detect_ticks: u64,
    /// Largest lease budget any detector drew.
    pub lease_budget_max: u64,
}

/// A finished sweep: per-case outcomes (the bench derives latency
/// percentiles from them) plus the aggregates.
#[derive(Clone, Debug, Default)]
pub struct NemesisSweep {
    pub stats: NemesisStats,
    pub outcomes: Vec<NemesisOutcome>,
}

fn skipped_outcome(scenario: NemesisScenario) -> NemesisOutcome {
    NemesisOutcome {
        scenario,
        skipped: true,
        ..NemesisOutcome::default()
    }
}

/// Scenario **Transport**: the chaos workload over a nemesis-wrapped
/// duplex, composed with `0..=2` seeded server crashes; every probe
/// must answer byte-identically to the fault-free reference.
fn run_transport_case(seed: u64, plan_seed: u64) -> Result<NemesisOutcome, NemesisMismatch> {
    let Some(cc) = case_commands(seed)? else {
        return Ok(skipped_outcome(NemesisScenario::Transport));
    };
    let cfg = case_config(seed, cc.processes);

    let reference = drive_server(seed, &cfg, &cc, 0, &mut DuplexFactory)
        .map_err(|e| fail(seed, format!("reference run failed: {e}")))?;
    let crashes = mix(seed, SALT_NCRASH, 0) % 3;
    let mut factory = NemesisFactory::duplex(plan_seed);
    let faulted = drive_server(seed, &cfg, &cc, crashes, &mut factory)
        .map_err(|e| fail(seed, format!("nemesis run failed: {e}")))?;

    let context = format!(
        "under nemesis (plan {plan_seed:#x}, {} crash(es))",
        faulted.crashes
    );
    compare_probes(
        &cc.probes,
        &reference.probes,
        &faulted.probes,
        false,
        &context,
    )
    .map_err(|e| fail(seed, e))?;
    let (want, got) = (reference.server.stats().shed, faulted.server.stats().shed);
    if want != got {
        return Err(fail(
            seed,
            format!("shed total diverged under nemesis: reference {want}, nemesis {got}"),
        ));
    }

    Ok(NemesisOutcome {
        scenario: NemesisScenario::Transport,
        commands: (cc.cmds.len() + cc.probes.len()) as u64,
        crashes: faulted.crashes,
        faults: factory.totals(),
        ..NemesisOutcome::default()
    })
}

/// Scenario **Partition**: the chaos workload through a `K`-shard
/// facade with one shard cut at a seeded command index, degrading
/// soundly and healing back to byte-equality.
fn run_partition_case(seed: u64, plan_seed: u64) -> Result<NemesisOutcome, NemesisMismatch> {
    let Some(cc) = case_commands(seed)? else {
        return Ok(skipped_outcome(NemesisScenario::Partition));
    };
    let cfg = case_config(seed, cc.processes);
    let k = 2 + (mix(plan_seed, SALT_NSHARD, 0) % 3) as usize;
    let map = ShardMap::new(k, cc.processes);
    let mk = || (0..k).map(|_| SyncMemStorage::new()).collect::<Vec<_>>();

    // Both runs speak raw frames as one lockstep client: the sequence
    // number only advances once a command is answered, which is exactly
    // the invariant that makes heal-replay safe (a real client never
    // skips ahead of an unanswered id).
    let call = |srv: &mut ShardedServer<SyncMemStorage>,
                seq: &mut u64,
                cmd: &Command|
     -> Result<Option<Response>, String> {
        let req = make_req(7, *seq);
        let Some(bytes) = srv.handle_bytes(&request_frame(req, cmd)) else {
            srv.drain(0);
            return Ok(None);
        };
        srv.drain(0); // the socket tier drains (and transfers) every cycle
        *seq += 1;
        let frame = decode_frame(&bytes).map_err(|e| format!("bad frame: {e}"))?;
        decode_response(&frame.payload)
            .map(Some)
            .map_err(|e| format!("bad response: {e}"))
    };

    // Fault-free sharded reference.
    let mut reference = ShardedServer::recover(mk(), &cfg, map.clone())
        .map_err(|e| fail(seed, format!("reference bring-up failed: {e}")))?;
    let mut rseq = 0u64;
    let mut ref_probes = Vec::with_capacity(cc.probes.len());
    for (i, cmd) in cc.cmds.iter().chain(cc.probes.iter()).enumerate() {
        let resp = call(&mut reference, &mut rseq, cmd)
            .map_err(|e| fail(seed, e))?
            .ok_or_else(|| fail(seed, format!("reference went silent on {cmd:?}")))?;
        if i >= cc.cmds.len() {
            ref_probes.push(resp);
        } else if let Response::Error(e) = resp {
            return Err(fail(seed, format!("reference refused {cmd:?}: {e}")));
        }
    }
    let want = reference.verdicts();

    // Partitioned run: cut one shard at a seeded command index; the
    // cut holds until the lockstep client has been stalled a seeded
    // number of retries on a severed command — or, if nothing ever
    // stalls, until the probes, which gate byte-equality on a healed
    // world.
    let cut = (mix(plan_seed, SALT_NSHARD, 1) % k as u64) as usize;
    let part_at = (mix(plan_seed, SALT_NSHARD, 2) % cc.cmds.len() as u64) as usize;
    let stall_budget = 2 + mix(plan_seed, SALT_NSHARD, 3) % 6;

    let mut srv = ShardedServer::recover(mk(), &cfg, map)
        .map_err(|e| fail(seed, format!("partition bring-up failed: {e}")))?;
    let mut outcome = NemesisOutcome {
        scenario: NemesisScenario::Partition,
        commands: (cc.cmds.len() + cc.probes.len()) as u64,
        ..NemesisOutcome::default()
    };
    let mut seq = 0u64;
    let mut probe_responses = Vec::with_capacity(cc.probes.len());
    let mut i = 0usize;
    let total = cc.cmds.len() + cc.probes.len();
    let mut cut_fired = false;
    let mut silent = 0u64;
    while i < total {
        if !cut_fired && i == part_at {
            srv.partition(cut);
            cut_fired = true;
        }
        // The probes must see a healed world: gate (b) is byte-equality.
        if srv.is_partitioned(cut) && i >= cc.cmds.len() {
            srv.heal(cut)
                .ok_or_else(|| fail(seed, "heal replay was refused"))?;
        }
        let cmd = if i < cc.cmds.len() {
            &cc.cmds[i]
        } else {
            &cc.probes[i - cc.cmds.len()]
        };
        match call(&mut srv, &mut seq, cmd).map_err(|e| fail(seed, e))? {
            Some(resp) => {
                if srv.is_partitioned(cut) {
                    outcome.buffered_peak =
                        outcome.buffered_peak.max(srv.partition_pending(cut) as u64);
                    // Gate (a): while the cut holds, a definite verdict
                    // must agree with the reference; Unknown is the
                    // only divergence sound degradation permits.
                    for (name, v) in srv.verdicts() {
                        match v {
                            Verdict::Holds | Verdict::Violated => {
                                let rv = want.iter().find(|(n, _)| n == &name).map(|(_, rv)| *rv);
                                if rv != Some(v) {
                                    return Err(fail(
                                        seed,
                                        format!(
                                            "unsound mid-partition verdict for {name}: \
                                             cut run says {v:?}, reference settles {rv:?}"
                                        ),
                                    ));
                                }
                            }
                            Verdict::Unknown => outcome.decayed_checks += 1,
                            Verdict::Pending => {}
                        }
                    }
                }
                if i >= cc.cmds.len() {
                    probe_responses.push(resp);
                } else if let Response::Error(e) = resp {
                    return Err(fail(seed, format!("server refused {cmd:?}: {e}")));
                }
                i += 1;
            }
            None => {
                if !srv.is_partitioned(cut) {
                    return Err(fail(
                        seed,
                        format!("{cmd:?} went silent with no partition to blame"),
                    ));
                }
                // Head-of-line stall: the lockstep client retries the
                // same id without advancing.
                silent += 1;
                outcome.stalled_retries += 1;
                outcome.buffered_peak =
                    outcome.buffered_peak.max(srv.partition_pending(cut) as u64);
                if silent >= stall_budget {
                    srv.heal(cut)
                        .ok_or_else(|| fail(seed, "heal replay was refused"))?;
                }
            }
        }
    }

    // Gate (b): post-heal, everything byte-identical to the reference —
    // the trailing Stats on the counters partitioning preserves exactly
    // (deferred transfers legitimately move flush/buffer high-water
    // marks).
    compare_probes(
        &cc.probes,
        &ref_probes,
        &probe_responses,
        true,
        "after heal",
    )
    .map_err(|e| fail(seed, e))?;
    if srv.verdicts() != want {
        return Err(fail(seed, "final verdicts diverged after heal"));
    }

    Ok(outcome)
}

/// Run one seeded nemesis case: the seed draws the scenario, the
/// workload, and (via `plan_seed`) the fault plan.
pub fn run_nemesis_case(seed: u64) -> Result<NemesisOutcome, NemesisMismatch> {
    let plan_seed = mix(seed, SALT_NPLAN, 0);
    match mix(seed, SALT_SCEN, 0) % 3 {
        0 => run_transport_case(seed, plan_seed),
        1 => run_partition_case(seed, plan_seed),
        _ => {
            let o = run_nemesis_failover_case(seed, plan_seed)?;
            Ok(NemesisOutcome {
                scenario: NemesisScenario::KillPrimary,
                commands: o.base.commands,
                skipped: o.base.skipped,
                faults: o.faults,
                lease_budget: o.lease_budget,
                detect_ticks: o.detect_ticks,
                promote_micros: o.promote_micros,
                resume_micros: o.resume_micros,
                ..NemesisOutcome::default()
            })
        }
    }
}

/// Run `cases` seed-derived nemesis cases from `base_seed`. Every
/// mismatch carries the single reproducing case seed.
pub fn run_nemesis_seeds(base_seed: u64, cases: u64) -> Result<NemesisSweep, NemesisMismatch> {
    let mut sweep = NemesisSweep::default();
    for i in 0..cases {
        let seed = mix(base_seed, i, SALT_NCASE);
        let o = run_nemesis_case(seed)?;
        let s = &mut sweep.stats;
        s.cases += 1;
        s.commands += o.commands;
        s.skipped += u64::from(o.skipped);
        if !o.skipped {
            match o.scenario {
                NemesisScenario::Transport => s.transport_cases += 1,
                NemesisScenario::Partition => s.partition_cases += 1,
                NemesisScenario::KillPrimary => {
                    s.kill_cases += 1;
                    s.promotions += 1;
                    s.detect_ticks += o.detect_ticks;
                    s.lease_budget_max = s.lease_budget_max.max(o.lease_budget);
                }
            }
        }
        s.faults.absorb(o.faults);
        s.crashes += o.crashes;
        s.decayed_checks += o.decayed_checks;
        s.buffered_peak = s.buffered_peak.max(o.buffered_peak);
        s.stalled_retries += o.stalled_retries;
        sweep.outcomes.push(o);
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nemesis_sweep_small_is_green() {
        let sweep = run_nemesis_seeds(0x4E0DBA5E, 18).expect("nemesis sweep must agree");
        let s = sweep.stats;
        assert_eq!(s.cases, 18);
        assert_eq!(sweep.outcomes.len(), 18);
        // All three scenarios must actually run...
        assert!(s.transport_cases > 0, "no transport case: {s:?}");
        assert!(s.partition_cases > 0, "no partition case: {s:?}");
        assert!(s.kill_cases > 0, "no kill-primary case: {s:?}");
        // ...and each must have exercised its faults for real.
        assert!(s.faults.dropped > 0, "no frame was ever dropped: {s:?}");
        assert!(s.faults.delayed > 0, "no frame was ever delayed: {s:?}");
        assert!(
            s.faults.duplicated > 0,
            "no frame was ever duplicated: {s:?}"
        );
        assert!(s.faults.split > 0, "no frame was ever split: {s:?}");
        assert!(s.stalled_retries > 0, "no partition ever stalled: {s:?}");
        assert!(s.buffered_peak > 0, "no command was ever buffered: {s:?}");
        assert!(s.promotions > 0, "no lease-driven promotion: {s:?}");
        for o in &sweep.outcomes {
            if o.scenario == NemesisScenario::KillPrimary && !o.skipped {
                assert!(
                    o.detect_ticks <= o.lease_budget,
                    "detection overspent the lease: {o:?}"
                );
            }
        }
    }

    #[test]
    fn partition_case_witnesses_sound_decay() {
        // Search a handful of seeds for a partition case that really
        // decayed a watch to Unknown mid-cut; the gate inside
        // run_partition_case has then proven soundness on it.
        let mut seen = false;
        for i in 0..48 {
            let seed = mix(0xDECA1ED, i, SALT_NCASE);
            if mix(seed, SALT_SCEN, 0) % 3 != 1 {
                continue;
            }
            let o = run_nemesis_case(seed).expect("partition case must agree");
            if !o.skipped && o.decayed_checks > 0 {
                seen = true;
                break;
            }
        }
        assert!(seen, "no partition case ever decayed a watch to Unknown");
    }
}
