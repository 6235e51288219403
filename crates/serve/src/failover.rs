//! Seeded kill-the-primary failover sweep.
//!
//! One `u64` seed fully determines a case: the simulated execution and
//! command stream (shared verbatim with the [`chaos`](crate::chaos)
//! sweep), the replication queue bound, how often and how greedily the
//! WAL stream is pumped to the follower (and therefore how far the
//! follower lags), and the durable LSN at which the primary is killed.
//! The case then runs twice:
//!
//! * a **reference** run against one uninterrupted server;
//! * a **failover** run: primary + follower replicating, the primary
//!   killed the moment its durable log reaches LSN `k`, the follower
//!   promoted ([`Follower::promote`] = [`Server::recover`] over its
//!   own storage), and the client resumed against the promoted server
//!   from its dedup watermark ([`Client::resuming`]) — re-issuing
//!   exactly the suffix the follower never saw.
//!
//! The gate is the chaos sweep's, transplanted to promotion: every
//! probe response — watch verdicts, one-off relation queries, and the
//! monitor's operational counters (wall-clock flush time excepted) —
//! must be **identical** between the two runs. Lag at the kill point is
//! allowed to be anything the seed produces; a changed answer is not.
//! Any mismatch reports the one `u64` seed that reproduces it.
//!
//! [`run_nemesis_failover_case`] runs the same kill→promote→resume loop
//! with the seeded nemesis on every client link and a [`LeaseClock`],
//! not the harness, as the detection step.

use std::time::Instant;

use synchrel_sim::fault::mix;

use crate::backend::Backend;
use crate::chaos::{case_commands, case_config, compare_probes, drive_server, fail, SALT_CLIENT};
use crate::client::{Client, ClientError, Pump};
use crate::proto::Response;
use crate::replica::{pump_replication, Follower, LeaseClock};
use crate::server::Server;
use crate::storage::SyncMemStorage;
use crate::transport::{DuplexFactory, NemesisCounts, NemesisFactory, WireFactory};

pub use crate::chaos::ChaosMismatch as FailoverMismatch;

const SALT_KILL: u64 = 0xF417;
const SALT_PUMP: u64 = 0xF0F0;
const SALT_RCAP: u64 = 0xF0CA;
const SALT_FCASE: u64 = 0xFA11;

/// Coverage of one failover case.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailoverOutcome {
    /// Commands driven through each run.
    pub commands: u64,
    /// Durable LSN at which the primary was killed.
    pub kill_lsn: u64,
    /// Replication lag (records unacked by the follower) at the kill.
    pub lag_at_kill: u64,
    /// Watermark the client resumed from on the promoted server.
    pub resumed_from: u64,
    /// Commands re-issued after promotion (the unreplicated suffix).
    pub replayed_suffix: u64,
    /// True when the case had too few labelled intervals to exercise.
    pub skipped: bool,
}

/// Aggregate coverage of a failover sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailoverStats {
    /// Cases run.
    pub cases: u64,
    /// Commands driven (per run).
    pub commands: u64,
    /// Promotions performed (== non-skipped cases).
    pub promotions: u64,
    /// Total replication lag observed at kill points.
    pub lag_total: u64,
    /// Largest lag observed at any kill point.
    pub lag_max: u64,
    /// Total commands re-issued after promotions.
    pub replayed_suffix: u64,
    /// Cases where the follower was promoted mid-stream with real lag.
    pub lagged_promotions: u64,
    /// Cases skipped as degenerate.
    pub skipped: u64,
}

impl FailoverStats {
    /// Fold one case's coverage into the sweep totals.
    fn absorb(&mut self, o: &FailoverOutcome) {
        self.cases += 1;
        self.commands += o.commands;
        self.skipped += u64::from(o.skipped);
        if !o.skipped {
            self.promotions += 1;
            self.lag_total += o.lag_at_kill;
            self.lag_max = self.lag_max.max(o.lag_at_kill);
            self.replayed_suffix += o.replayed_suffix;
            self.lagged_promotions += u64::from(o.lag_at_kill > 0);
        }
    }
}

/// Run one seeded failover case.
pub fn run_failover_case(seed: u64) -> Result<FailoverOutcome, FailoverMismatch> {
    let attempts = DuplexFactory.max_attempts();
    kill_promote_resume(seed, &mut DuplexFactory, attempts, None).map(|o| o.base)
}

/// Run `cases` seed-derived failover cases from `base_seed`. Every
/// mismatch carries the single reproducing seed.
pub fn run_failover_seeds(base_seed: u64, cases: u64) -> Result<FailoverStats, FailoverMismatch> {
    let mut stats = FailoverStats::default();
    for i in 0..cases {
        stats.absorb(&run_failover_case(mix(base_seed, i, SALT_FCASE))?);
    }
    Ok(stats)
}

const SALT_NLEASE: u64 = 0xF1EA;

/// Coverage of one kill-the-primary case run under network nemesis.
#[derive(Clone, Copy, Debug, Default)]
pub struct NemesisFailoverOutcome {
    /// The plain failover coverage (kill point, lag, replayed suffix).
    pub base: FailoverOutcome,
    /// Lease budget (ticks) drawn for the failure detector.
    pub lease_budget: u64,
    /// Silent poll ticks spent before the lease declared the primary
    /// dead — by construction the detector's honest latency.
    pub detect_ticks: u64,
    /// Wall-clock microseconds [`Follower::promote`] took.
    pub promote_micros: u64,
    /// Wall-clock microseconds from promotion to the first response the
    /// resumed client got out of the new primary.
    pub resume_micros: u64,
    /// Network faults injected across the client links.
    pub faults: NemesisCounts,
}

/// [`run_failover_case`], with the client↔primary link (and the
/// post-promotion takeover link) running under the seeded nemesis and
/// the kill detected by a seeded-jitter [`LeaseClock`] instead of the
/// harness: the case only passes if, despite drops, delays, duplicates,
/// partial writes, and resets on the wire, the lease-driven
/// detect→promote→resume path reconverges on byte-identical probe
/// responses — and detection never overspends the lease budget.
pub fn run_nemesis_failover_case(
    seed: u64,
    nemesis_seed: u64,
) -> Result<NemesisFailoverOutcome, FailoverMismatch> {
    let lease = LeaseClock::new(
        mix(seed, nemesis_seed, SALT_NLEASE),
        4 + mix(seed, SALT_NLEASE, 1) % 8,
        mix(seed, SALT_NLEASE, 2) % 8,
    );
    // Client→primary is direction 0, primary→client direction 1; the
    // takeover link after promotion gets directions 2/3 of the same
    // plan, so the resumed suffix is not a fault-free free ride.
    let mut factory = NemesisFactory::duplex(nemesis_seed);
    // Drops and partition windows can eat whole backoff ladders.
    let attempts = 4096;
    let mut outcome = kill_promote_resume(seed, &mut factory, attempts, Some(lease))?;
    // The run's transports are dropped by now, so the sink has seen
    // every edge.
    outcome.faults = factory.totals();
    Ok(outcome)
}

/// One kill→promote→resume run of case `seed`, against a fault-free
/// reference run of the same case. The primary replicates to a follower
/// on a seeded cadence and dies the moment its durable log reaches a
/// seeded LSN; the follower is promoted ([`Follower::promote`] =
/// [`Server::recover`] over its own storage) and the client resumes
/// against it from its dedup watermark ([`Client::resuming_with`]).
///
/// `factory` carries the client link before and after the promotion,
/// and `attempts` caps each command's retries. `lease` is the detection
/// step: `None` lets the harness declare the kill; `Some` makes the
/// follower's own lease clock run dry first, and the ticks it spends
/// must stay within its budget.
fn kill_promote_resume(
    seed: u64,
    factory: &mut dyn WireFactory,
    attempts: u32,
    mut lease: Option<LeaseClock>,
) -> Result<NemesisFailoverOutcome, FailoverMismatch> {
    let Some(cc) = case_commands(seed)? else {
        return Ok(NemesisFailoverOutcome {
            base: FailoverOutcome {
                skipped: true,
                ..FailoverOutcome::default()
            },
            ..NemesisFailoverOutcome::default()
        });
    };
    let (cmds, probes) = (&cc.cmds, &cc.probes);

    let cfg = case_config(seed, cc.processes);
    let reference = drive_server(seed, &cfg, &cc, 0, &mut DuplexFactory)
        .map_err(|e| fail(seed, format!("reference run failed: {e}")))?;

    // Kill at a seed-chosen durable LSN within the reference log. All
    // appends happen during the command phase, so the kill always fires
    // before the probes.
    let wal_appends = reference.server.stats().wal_appends.max(1);
    let kill_lsn = 1 + mix(seed, SALT_KILL, 0) % wal_appends;
    let repl_cap = 1 + (mix(seed, SALT_RCAP, 0) % 64) as usize;
    // Pump cadence decides the follower's lag at the kill: every
    // `pump_every`-th pump-hook tick ships at most `pump_max` frames.
    let pump_every = 1 + mix(seed, SALT_PUMP, 0) % 5;
    let pump_max = 1 + (mix(seed, SALT_PUMP, 1) % 8) as usize;

    let (client_end, mut server_end) = factory
        .pair()
        .map_err(|e| fail(seed, format!("wire bring-up failed: {e}")))?;
    let mut primary = Server::recover(SyncMemStorage::new(), cfg.clone())
        .map_err(|e| fail(seed, format!("primary bring-up failed: {e}")))?;
    primary.enable_replication(repl_cap);
    let mut follower = Some(
        Follower::open(SyncMemStorage::new(), cfg.clone())
            .map_err(|e| fail(seed, format!("follower bring-up failed: {e}")))?,
    );
    let mut client = Client::new(client_end, mix(seed, SALT_CLIENT, 1));
    client.set_max_attempts(attempts);

    let mut outcome = NemesisFailoverOutcome {
        base: FailoverOutcome {
            commands: (cmds.len() + probes.len()) as u64,
            kill_lsn,
            ..FailoverOutcome::default()
        },
        ..NemesisFailoverOutcome::default()
    };
    let mut promoted = false;
    let mut ticks = 0u64;
    let mut probe_responses = Vec::with_capacity(probes.len());
    let mut i = 0usize;
    let total = cmds.len() + probes.len();
    let mut resume_clock: Option<Instant> = None;
    while i < total {
        let cmd = if i < cmds.len() {
            &cmds[i]
        } else {
            &probes[i - cmds.len()]
        };
        let attempt = client.call_ctl(cmd, || {
            if !promoted && primary.last_lsn() >= kill_lsn {
                return Pump::Abort; // the kill strikes here
            }
            primary.pump(&mut server_end, 0);
            if !promoted {
                ticks += 1;
                if ticks.is_multiple_of(pump_every) {
                    if let Some(f) = follower.as_mut() {
                        let _ = pump_replication(&mut primary, f, pump_max);
                    }
                }
                if primary.last_lsn() >= kill_lsn {
                    return Pump::Abort;
                }
            }
            Pump::Continue
        });
        match attempt {
            Ok(resp) => {
                if let Some(t0) = resume_clock.take() {
                    outcome.resume_micros = t0.elapsed().as_micros() as u64;
                }
                if i < cmds.len() {
                    match resp {
                        Response::Error(e) => {
                            return Err(fail(seed, format!("server refused {cmd:?}: {e}")))
                        }
                        Response::Busy | Response::Shed => {
                            return Err(fail(seed, format!("unexpected overload on {cmd:?}")))
                        }
                        _ => {}
                    }
                } else {
                    probe_responses.push(resp);
                }
                i += 1;
            }
            Err(ClientError::Aborted { .. }) if !promoted => {
                // The primary is dead; everything in flight is lost. With
                // a lease, nobody tells the follower: its clock has to run
                // dry first, and the ticks it spends are the detection
                // latency we gate on.
                if let Some(lease) = lease.as_mut() {
                    outcome.lease_budget = lease.budget();
                    loop {
                        outcome.detect_ticks += 1;
                        if lease.tick() {
                            break;
                        }
                    }
                }
                let f = follower.take().expect("follower present before the kill");
                outcome.base.lag_at_kill = primary.last_lsn().saturating_sub(f.durable_lsn());
                let promote_clock = Instant::now();
                let new_primary = f
                    .promote()
                    .map_err(|e| fail(seed, format!("promotion failed: {e}")))?;
                outcome.promote_micros = promote_clock.elapsed().as_micros() as u64;
                let watermark = new_primary.next_req();
                outcome.base.resumed_from = watermark;
                outcome.base.replayed_suffix = (i as u64).saturating_sub(watermark);
                primary = new_primary;
                let (c, s) = factory
                    .pair()
                    .map_err(|e| fail(seed, format!("takeover link failed: {e}")))?;
                // Carry the retry accounting across the promotion: the
                // failover must not zero what the dead primary cost us.
                let carried = client.counters();
                client = Client::resuming_with(c, mix(seed, SALT_CLIENT, 2), watermark, carried);
                client.set_max_attempts(attempts);
                server_end = s;
                // Resume from the promoted watermark: commands below it
                // are durable on the follower; the suffix (including
                // consumed-but-unlogged reads, which are harmless to
                // re-run) is re-issued under its original ids.
                i = watermark as usize;
                promoted = true;
                resume_clock = Some(Instant::now());
            }
            Err(e) => return Err(fail(seed, e.to_string())),
        }
    }
    if !promoted {
        return Err(fail(
            seed,
            format!("kill at LSN {kill_lsn} never fired (last_lsn ended early)"),
        ));
    }

    let context = format!(
        "after promotion at LSN {kill_lsn} (lag {})",
        outcome.base.lag_at_kill
    );
    compare_probes(probes, &reference.probes, &probe_responses, false, &context)
        .map_err(|e| fail(seed, e))?;
    if outcome.detect_ticks > outcome.lease_budget {
        return Err(fail(
            seed,
            format!(
                "detection overspent the lease: {} ticks against a budget of {}",
                outcome.detect_ticks, outcome.lease_budget
            ),
        ));
    }
    Ok(outcome)
}

/// Aggregate coverage of a nemesis failover sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct NemesisFailoverStats {
    /// The plain failover aggregates.
    pub base: FailoverStats,
    /// Total network faults injected across all cases.
    pub faults: NemesisCounts,
    /// Largest lease budget drawn by any case.
    pub lease_budget_max: u64,
    /// Total detection ticks spent across promotions.
    pub detect_ticks: u64,
}

/// Run `cases` nemesis failover cases: case `i` pairs the execution
/// seed `mix(base_seed, i, SALT_FCASE)` with the nemesis plan seed
/// `mix(nemesis_seed, i, SALT_FCASE)`.
pub fn run_nemesis_failover_seeds(
    base_seed: u64,
    nemesis_seed: u64,
    cases: u64,
) -> Result<NemesisFailoverStats, FailoverMismatch> {
    let mut stats = NemesisFailoverStats::default();
    for i in 0..cases {
        let seed = mix(base_seed, i, SALT_FCASE);
        let o = run_nemesis_failover_case(seed, mix(nemesis_seed, i, SALT_FCASE))?;
        stats.base.absorb(&o.base);
        if !o.base.skipped {
            stats.lease_budget_max = stats.lease_budget_max.max(o.lease_budget);
            stats.detect_ticks += o.detect_ticks;
        }
        stats.faults.absorb(o.faults);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_sweep_small_is_green() {
        let stats = run_failover_seeds(0xFA11BACC, 12).expect("failover sweep must agree");
        assert_eq!(stats.cases, 12);
        assert!(stats.promotions > 0, "no promotion ever happened");
        // The sweep is vacuous unless some kills catch the follower
        // genuinely behind (forcing a suffix replay after promotion).
        assert!(
            stats.lagged_promotions > 0,
            "every kill caught the follower fully caught up: {stats:?}"
        );
        assert!(stats.replayed_suffix > 0, "no command was ever re-issued");
        // Pinned aggregates: the sweep drives exactly these cases.
        assert_eq!(stats.commands, 1298);
        assert_eq!(stats.promotions, 12);
        assert_eq!((stats.lag_total, stats.lag_max), (20, 10));
        assert_eq!(stats.replayed_suffix, 13);
        assert_eq!(stats.lagged_promotions, 7);
    }

    #[test]
    fn nemesis_failover_sweep_small_is_green() {
        let stats = run_nemesis_failover_seeds(0xFA11BACC, 0x4E0D0001, 8)
            .expect("nemesis failover sweep must agree");
        assert_eq!(stats.base.cases, 8);
        assert!(stats.base.promotions > 0, "no promotion ever happened");
        assert!(
            stats.faults.any(),
            "the nemesis never injected a fault: {stats:?}"
        );
        assert!(stats.detect_ticks > 0, "lease detection never ticked");
        assert!(stats.lease_budget_max >= 4);
    }

    #[test]
    fn fixed_seed_case_reports_coverage() {
        // A single pinned case exercising the full path end to end.
        let mut i = 0u64;
        loop {
            let seed = mix(0xFEED, i, SALT_FCASE);
            i += 1;
            assert!(i < 64, "no non-degenerate case found");
            let o = run_failover_case(seed).unwrap();
            if o.skipped {
                continue;
            }
            assert!(o.kill_lsn >= 1);
            assert!(o.commands > 0);
            assert!(o.resumed_from <= o.kill_lsn + o.commands);
            break;
        }
    }
}
