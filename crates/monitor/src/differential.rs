//! Differential conformance testing across every evaluator.
//!
//! One `u64` seed fully determines a test case: the randomized scripts,
//! the injected faults, the wire-level perturbation of the monitor
//! replay — everything. A failing case therefore reproduces
//! byte-identically from its seed alone, and shrinks by re-running the
//! same entropy at smaller size codes.
//!
//! Each case cross-checks, on every ordered pair of labelled intervals
//! of a fault-injected simulation:
//!
//! 1. the brute-force [`Oracle`] (quantifiers over an explicit closure
//!    matrix; itself spot-checked against the timestamp-free graph
//!    search) — the ground truth;
//! 2. the unfused Theorem-20 evaluation ([`Evaluator::eval_all_proxy`]);
//! 3. the fused 32-relation kernel
//!    ([`Evaluator::eval_all_proxy_fused`]);
//! 4. the [`Detector`] in all four [`EvalMode`]s (counted, fused,
//!    batched, incremental);
//! 5. the stateful [`IncrementalDetector`], fed the execution event by
//!    event and compared against the fused kernel on the
//!    prefix-restricted intervals after **every** event (a divergence
//!    reports the first bad prefix length);
//! 6. the [`OnlineMonitor`] fed the execution in order (exact verdicts
//!    must match the oracle once every interval closes);
//! 7. the [`OnlineMonitor`] fed a seed-derived *perturbed* wire stream
//!    (reordered + duplicated reports — must still match exactly after
//!    draining; with reports dropped and losses conceded, verdicts may
//!    only decay to [`Verdict::Unknown`], never lie);
//! 8. the [`OnlineMonitor`] crashed mid-replay, restored from its
//!    binary snapshot, and fed the rest of the stream (plus an
//!    at-least-once overlap it must dedup) — recovery must land in the
//!    same exact-equivalence class.
//!
//! The sharded facade lives in `synchrel-serve`, so its stage does
//! too: `run_shard_differential_case` runs [`run_case`] and then feeds
//! the same perturbed streams ([`perturbed_reports`]) to
//! `ShardedServer` at K ∈ {1, 2, 4} shards. [`run_seeds`] and
//! [`shrink`] take the per-case check as a parameter, so every sweep
//! can run that stage.
//!
//! The seed layout reserves the low 8 bits as a **size code**
//! (process/step/label counts and the fault bit) and the rest as
//! entropy, so [`shrink`] can search all 256 sizes of the same random
//! case for the smallest one that still fails.

use std::collections::BTreeMap;
use std::fmt;

use synchrel_core::{
    Detector, EvalMode, Evaluator, EventId, EventKind, IncrementalDetector, NonatomicEvent, Oracle,
    ProxySummary, Relation, RelationSet,
};
use synchrel_sim::fault::{mix, random_scripts, FaultPlan};
use synchrel_sim::intervals::by_label;
use synchrel_sim::{SimResult, Simulation};

use crate::online::{Ingest, OnlineMonitor, OnlineMsg, Verdict, WireEvent};

const SALT_SCRIPTS: u64 = 0x5C21;
const SALT_FAULTS: u64 = 0xFA01;
const SALT_SHUFFLE: u64 = 0x5FFE;
const SALT_DUP: u64 = 0xD0B0;
const SALT_DROP: u64 = 0xD60F;
const SALT_CASE: u64 = 0xCA5E;
const SALT_SNAP: u64 = 0x5A9B;

/// A fully seed-determined differential test case.
#[derive(Clone, Debug)]
pub struct DiffCase {
    /// The reproducing seed (low 8 bits = size code).
    pub seed: u64,
    /// Number of simulated processes.
    pub processes: usize,
    /// Script steps per process.
    pub steps: usize,
    /// Number of interval labels the scripts draw from.
    pub labels: usize,
    /// Fault plan injected into the simulation; `None` runs quietly
    /// (timeout-resolution only).
    pub faults: Option<FaultPlan>,
}

impl DiffCase {
    /// Decode a case from its seed, with the fault bit decided by the
    /// seed itself.
    pub fn from_seed(seed: u64) -> DiffCase {
        DiffCase::configure(seed, None)
    }

    /// Decode a case from its seed; `force_faults` overrides the
    /// seed's fault bit (`Some(true)` always injects, `Some(false)`
    /// never does).
    pub fn configure(seed: u64, force_faults: Option<bool>) -> DiffCase {
        let code = (seed & 0xFF) as u32;
        let processes = 2 + (code & 0b11) as usize;
        let steps = 3 + ((code >> 2) & 0b111) as usize;
        let labels = 2 + ((code >> 5) & 0b1) as usize;
        let faulty = force_faults.unwrap_or(code & 0x40 != 0);
        let faults = faulty.then(|| FaultPlan::from_seed(mix(seed >> 8, SALT_FAULTS, 0)));
        DiffCase {
            seed,
            processes,
            steps,
            labels,
            faults,
        }
    }

    /// Build and run the simulation of this case.
    pub fn simulate(&self) -> Result<SimResult, Mismatch> {
        let sim: Simulation = random_scripts(
            mix(self.seed >> 8, SALT_SCRIPTS, 0),
            self.processes,
            self.steps,
            self.labels,
        );
        let plan = self
            .faults
            .clone()
            .unwrap_or_else(|| FaultPlan::quiet(self.seed));
        sim.with_faults(plan).run().map_err(|e| Mismatch {
            seed: self.seed,
            detail: format!("simulation failed to complete: {e}"),
        })
    }
}

/// A disagreement between evaluators, carrying the reproducing seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Seed that reproduces the failing case byte-identically.
    pub seed: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {:#x}: {}", self.seed, self.detail)
    }
}

/// Outcome of one case that found no disagreement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Ordered interval pairs cross-checked.
    pub pairs: usize,
    /// The case produced fewer than two labelled intervals and was
    /// skipped.
    pub skipped: bool,
}

/// Aggregate outcome of a seed sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cases executed.
    pub cases: u64,
    /// Cases skipped for lack of intervals.
    pub skipped: u64,
    /// Total ordered pairs cross-checked.
    pub pairs: u64,
}

fn mismatch(seed: u64, detail: String) -> Mismatch {
    Mismatch { seed, detail }
}

/// Token-API in-order replay of `result` into a fresh monitor; returns
/// the monitor with all `labels` closed.
fn replay_in_order(
    result: &SimResult,
    processes: usize,
    labels: &[String],
) -> Result<OnlineMonitor, String> {
    let mut mon = OnlineMonitor::new(processes);
    let mut tokens: Vec<Option<OnlineMsg>> = Vec::new();
    for &e in result.exec.app_order() {
        let lab: Vec<&str> = result
            .labels
            .get(&e)
            .map(|l| l.as_str())
            .into_iter()
            .collect();
        let p = e.process.idx();
        match result.exec.kind(e) {
            EventKind::Internal => mon.internal(p, &lab).map_err(|e| e.to_string())?,
            EventKind::Send { msg } => {
                let t = mon.send(p, &lab).map_err(|e| e.to_string())?;
                let mi = msg as usize;
                if tokens.len() <= mi {
                    tokens.resize(mi + 1, None);
                }
                tokens[mi] = Some(t);
            }
            EventKind::Recv { msg } => {
                let t = tokens[msg as usize].take().ok_or("recv without send")?;
                mon.recv(p, t, &lab).map_err(|e| e.to_string())?;
            }
            EventKind::Initial | EventKind::Final => unreachable!("app_order has no dummies"),
        }
    }
    for l in labels {
        mon.close(l);
    }
    Ok(mon)
}

/// One sequence-numbered wire report: `(process, seq, event, labels)`.
pub type WireReport = (usize, u64, WireEvent, Vec<String>);

/// The per-process sequence-numbered wire reports of `result`.
///
/// Public so out-of-crate harnesses (the serve chaos sweep) can feed
/// the same simulated executions through their own transport.
pub fn wire_reports(result: &SimResult) -> Vec<WireReport> {
    let exec = &result.exec;
    let mut out = Vec::new();
    for p in 0..exec.num_processes() {
        for (seq, e) in exec
            .app_events_of(synchrel_core::ProcessId(p as u32))
            .enumerate()
        {
            let ev = match exec.kind(e) {
                EventKind::Internal => WireEvent::Internal,
                EventKind::Send { msg } => WireEvent::Send { msg: msg as u64 },
                EventKind::Recv { msg } => WireEvent::Recv { msg: msg as u64 },
                EventKind::Initial | EventKind::Final => unreachable!(),
            };
            let labels: Vec<String> = result.labels.get(&e).cloned().into_iter().collect();
            out.push((p, seq as u64, ev, labels));
        }
    }
    out
}

/// Deterministic in-place shuffle keyed by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, SALT_SHUFFLE, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The seed-derived wire perturbation every replay of a case shares:
/// `result`'s reports shuffled, one in ten lost when `drops` is set,
/// and each survivor paired with whether the transport delivers it a
/// second time. Also returns how many reports each process sent — the
/// end-of-stream [`OnlineMonitor::declare_complete`] totals.
pub fn perturbed_reports(
    result: &SimResult,
    seed: u64,
    drops: bool,
) -> (Vec<(WireReport, bool)>, Vec<u64>) {
    let mut reports = wire_reports(result);
    let mut totals = vec![0u64; result.exec.num_processes()];
    for &(p, ..) in &reports {
        totals[p] += 1;
    }
    shuffle(&mut reports, seed);
    let deliveries = reports
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| !(drops && mix(seed, SALT_DROP, i as u64).is_multiple_of(10)))
        .map(|(i, rep)| (rep, mix(seed, SALT_DUP, i as u64).is_multiple_of(5)))
        .collect();
    (deliveries, totals)
}

/// Wire-API replay of [`perturbed_reports`] into a fresh monitor,
/// checking that every transport duplicate is discarded. With `drops`
/// the stream ends with [`OnlineMonitor::declare_complete`]; then all
/// `labels` close.
pub fn replay_perturbed(
    result: &SimResult,
    labels: &[String],
    seed: u64,
    drops: bool,
) -> Result<OnlineMonitor, String> {
    let (deliveries, totals) = perturbed_reports(result, seed, drops);
    let mut mon = OnlineMonitor::new(totals.len());
    for ((p, seq, ev, lab), dup) in deliveries {
        let refs: Vec<&str> = lab.iter().map(String::as_str).collect();
        mon.ingest(p, seq, ev.clone(), &refs)
            .map_err(|e| e.to_string())?;
        if dup {
            match mon.ingest(p, seq, ev, &refs).map_err(|e| e.to_string())? {
                Ingest::Duplicate => {}
                other => return Err(format!("duplicate report ingested as {other:?}")),
            }
        }
    }
    if drops {
        // End-of-stream declaration: tail losses leave no gap evidence,
        // so the monitor must be told how many reports were sent.
        mon.declare_complete(&totals).map_err(|e| e.to_string())?;
    }
    for l in labels {
        mon.close(l);
    }
    Ok(mon)
}

/// Wire-API replay interrupted by a crash: a seed-derived prefix of the
/// (shuffled) reports is ingested, the monitor is serialized with
/// [`OnlineMonitor::snapshot_bytes`], restored from those bytes, and
/// the remaining reports are delivered to the *restored* monitor — with
/// a seed-derived overlap of already-delivered reports re-sent first,
/// which the restored state must recognize as duplicates.
fn replay_with_restore(
    result: &SimResult,
    processes: usize,
    labels: &[String],
    seed: u64,
) -> Result<OnlineMonitor, String> {
    let mut reports = wire_reports(result);
    shuffle(&mut reports, seed);
    if reports.is_empty() {
        return Err("no reports to replay".into());
    }
    let split = (mix(seed, SALT_SNAP, 0) % (reports.len() as u64 + 1)) as usize;
    let overlap = (mix(seed, SALT_SNAP, 1) % (split as u64 + 1)) as usize;

    let mut mon = OnlineMonitor::new(processes);
    let ingest =
        |mon: &mut OnlineMonitor, (p, seq, ev, lab): &WireReport| -> Result<Ingest, String> {
            let refs: Vec<&str> = lab.iter().map(String::as_str).collect();
            mon.ingest(*p, *seq, ev.clone(), &refs)
                .map_err(|e| e.to_string())
        };
    for rep in &reports[..split] {
        ingest(&mut mon, rep)?;
    }

    // Crash: all live state is lost; only the snapshot bytes survive.
    let bytes = mon.snapshot_bytes();
    drop(mon);
    let mut mon = OnlineMonitor::restore_bytes(&bytes)?;

    // At-least-once delivery re-sends the tail of the prefix; the
    // restored monitor must still hold the dedup evidence.
    for rep in &reports[split - overlap..split] {
        match ingest(&mut mon, rep)? {
            Ingest::Duplicate => {}
            other => {
                return Err(format!(
                    "replayed report ingested as {other:?} after restore"
                ))
            }
        }
    }
    for rep in &reports[split..] {
        ingest(&mut mon, rep)?;
    }
    for l in labels {
        mon.close(l);
    }
    Ok(mon)
}

/// Prefix-differential check of the stateful incremental engine:
/// events are streamed in execution order into an
/// [`IncrementalDetector`], and after **every** applied event each
/// pair of already-populated intervals must carry exactly the verdicts
/// the fused kernel computes on the prefix-restricted intervals.
/// Returns the first divergent prefix length and a description, so the
/// shrinker's report names the shortest stream that exposes the bug.
fn check_incremental_prefixes(
    result: &SimResult,
    named: &[(String, NonatomicEvent)],
) -> Result<(), (usize, String)> {
    let exec = &result.exec;
    let ev = Evaluator::new(exec);
    let mut det = IncrementalDetector::new(exec);
    let mut membership: BTreeMap<EventId, Vec<usize>> = BTreeMap::new();
    for (k, (_, iv)) in named.iter().enumerate() {
        det.add_interval_declared(iv.node_set());
        for e in iv.events() {
            membership.entry(e).or_default().push(k);
        }
    }
    let mut seen: Vec<Vec<EventId>> = vec![Vec::new(); named.len()];
    let order = exec.app_order();
    for (step, &e) in order.iter().enumerate() {
        if let Some(ks) = membership.get(&e) {
            for &k in ks {
                det.arrive(k, e);
                seen[k].push(e);
            }
        }
        // Close intervals whose last member just arrived: exercises the
        // settle rules mid-stream, not only at end of stream.
        for (k, (_, iv)) in named.iter().enumerate() {
            if seen[k].len() == iv.events().count() && !seen[k].is_empty() {
                det.close(k);
            }
        }
        let prefix = step + 1;
        for x in 0..named.len() {
            for y in 0..named.len() {
                if x == y || seen[x].is_empty() || seen[y].is_empty() {
                    continue;
                }
                let px = NonatomicEvent::new(exec, seen[x].iter().copied()).expect("seen events");
                let py = NonatomicEvent::new(exec, seen[y].iter().copied()).expect("seen events");
                let (want, _) =
                    ev.eval_all_proxy_fused(&ev.summarize_proxies(&px), &ev.summarize_proxies(&py));
                let got = det.relations(x, y).expect("pair exists");
                if got != want {
                    return Err((
                        prefix,
                        format!(
                            "incremental ({}, {}) = {got:?}, fused on the prefix says {want:?}",
                            named[x].0, named[y].0
                        ),
                    ));
                }
            }
        }
    }
    // End of stream: everything closes and every pair must be settled.
    for k in 0..named.len() {
        det.close(k);
    }
    for x in 0..named.len() {
        for y in 0..named.len() {
            if x != y && !det.pair_settled(x, y) {
                return Err((
                    order.len(),
                    format!(
                        "pair ({}, {}) still unsettled after all intervals closed",
                        named[x].0, named[y].0
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The labelled intervals of `result` that have at least one member.
pub fn labelled_intervals(result: &SimResult) -> Vec<(String, NonatomicEvent)> {
    result
        .label_names()
        .into_iter()
        .filter_map(|l| by_label(result, &l).ok().map(|iv| (l, iv)))
        .collect()
}

/// Compare a monitor's verdicts (`got`) with the `reference` verdicts
/// (`want`) on every ordered pair of `named` intervals and every
/// relation. Both take the relation and the two interval indices; the
/// first disagreement comes back as a [`Mismatch`] naming `stage`.
pub fn compare_verdicts(
    seed: u64,
    named: &[(String, NonatomicEvent)],
    stage: &str,
    reference: &str,
    want: impl Fn(Relation, usize, usize) -> Verdict,
    got: impl Fn(Relation, usize, usize) -> Verdict,
) -> Result<(), Mismatch> {
    for xi in 0..named.len() {
        for yi in 0..named.len() {
            if xi == yi {
                continue;
            }
            for rel in Relation::ALL {
                let (want, got) = (want(rel, xi, yi), got(rel, xi, yi));
                if got != want {
                    let (xl, yl) = (&named[xi].0, &named[yi].0);
                    return Err(mismatch(
                        seed,
                        format!("{stage}: {rel}({xl}, {yl}) = {got:?}, {reference} says {want:?}"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The oracle's exact verdict on `rel` between intervals `xi` and `yi`
/// of `named` — what a monitor with a faithful view of closed
/// intervals must answer.
pub fn oracle_verdict(
    oracle: &Oracle,
    named: &[(String, NonatomicEvent)],
    rel: Relation,
    xi: usize,
    yi: usize,
) -> Verdict {
    if oracle.relation(rel, &named[xi].1, &named[yi].1) {
        Verdict::Holds
    } else {
        Verdict::Violated
    }
}

/// Run one case; `Ok` carries coverage statistics, `Err` a reproducible
/// disagreement.
pub fn run_case(case: &DiffCase) -> Result<CaseOutcome, Mismatch> {
    let seed = case.seed;
    let result = case.simulate()?;
    let exec = &result.exec;

    let named = labelled_intervals(&result);
    if named.len() < 2 {
        return Ok(CaseOutcome {
            pairs: 0,
            skipped: true,
        });
    }

    let oracle = Oracle::new(exec);
    // Periodically close the loop down to raw poset edges.
    if seed.is_multiple_of(64) {
        if let Err((e, f)) = oracle.verify_against_slow(exec) {
            return Err(mismatch(
                seed,
                format!("timestamp causality disagrees with graph search on ({e:?}, {f:?})"),
            ));
        }
    }

    let ev = Evaluator::new(exec);
    let summaries: Vec<ProxySummary> = named
        .iter()
        .map(|(_, iv)| ev.summarize_proxies(iv))
        .collect();
    let events: Vec<NonatomicEvent> = named.iter().map(|(_, iv)| iv.clone()).collect();
    let det_counted = Detector::new(exec, events.clone()).with_mode(EvalMode::Counted);
    let det_fused = Detector::new(exec, events.clone()).with_mode(EvalMode::Fused);
    let det_batched = Detector::new(exec, events.clone()).with_mode(EvalMode::Batched);
    let det_incr = Detector::new(exec, events).with_mode(EvalMode::Incremental);

    let mut pairs = 0usize;
    let mut truths: BTreeMap<(usize, usize), RelationSet> = BTreeMap::new();
    for xi in 0..named.len() {
        for yi in 0..named.len() {
            if xi == yi {
                continue;
            }
            let (xl, x) = &named[xi];
            let (yl, y) = &named[yi];
            let truth = oracle.eval_all(exec, x, y);
            truths.insert((xi, yi), truth);
            let (unfused, _) = ev.eval_all_proxy(&summaries[xi], &summaries[yi]);
            let (fused, _) = ev.eval_all_proxy_fused(&summaries[xi], &summaries[yi]);
            let counted = det_counted.pair(xi, yi).expect("valid indices").relations;
            let det_f = det_fused.pair(xi, yi).expect("valid indices").relations;
            let det_b = det_batched.pair(xi, yi).expect("valid indices").relations;
            let det_i = det_incr.pair(xi, yi).expect("valid indices").relations;
            for (name, got) in [
                ("unfused", unfused),
                ("fused", fused),
                ("detector-counted", counted),
                ("detector-fused", det_f),
                ("detector-batched", det_b),
                ("detector-incremental", det_i),
            ] {
                if got != truth {
                    return Err(mismatch(
                        seed,
                        format!(
                            "{name} disagrees with oracle on ({xl}, {yl}): {got:?} vs {truth:?}"
                        ),
                    ));
                }
            }
            pairs += 1;
        }
    }

    // Stateful incremental engine, checked after every event prefix —
    // not just at the end of the stream.
    if let Err((prefix, detail)) = check_incremental_prefixes(&result, &named) {
        return Err(mismatch(
            seed,
            format!("incremental diverged after {prefix}-event prefix: {detail}"),
        ));
    }

    // Online monitor, exact in-order replay: settled verdicts must
    // equal the oracle on the eight base relations.
    let label_names: Vec<String> = named.iter().map(|(l, _)| l.clone()).collect();
    let mon = replay_in_order(&result, case.processes, &label_names)
        .map_err(|e| mismatch(seed, format!("in-order replay failed: {e}")))?;
    let check_exact_monitor = |mon: &OnlineMonitor, stage: &str| {
        compare_verdicts(
            seed,
            &named,
            &format!("{stage}: online"),
            "oracle",
            |rel, x, y| oracle_verdict(&oracle, &named, rel, x, y),
            |rel, x, y| mon.check(rel, &named[x].0, &named[y].0),
        )
    };
    check_exact_monitor(&mon, "in-order")?;

    // Reordered + duplicated wire replay: after draining everything the
    // monitor is healthy again and must be exact.
    let mon = replay_perturbed(&result, &label_names, seed, false)
        .map_err(|e| mismatch(seed, format!("perturbed replay failed: {e}")))?;
    if mon.is_degraded() {
        return Err(mismatch(
            seed,
            format!(
                "perturbed replay did not converge: {} pending, {} lost",
                mon.pending(),
                mon.lost()
            ),
        ));
    }
    check_exact_monitor(&mon, "perturbed")?;

    // Crash mid-stream, restore from snapshot bytes, finish the replay
    // (with duplicate re-delivery): the recovered monitor joins the
    // exact-equivalence class.
    let mon = replay_with_restore(&result, case.processes, &label_names, seed)
        .map_err(|e| mismatch(seed, format!("crash/restore replay failed: {e}")))?;
    if mon.is_degraded() {
        return Err(mismatch(
            seed,
            format!(
                "crash/restore replay did not converge: {} pending, {} lost",
                mon.pending(),
                mon.lost()
            ),
        ));
    }
    check_exact_monitor(&mon, "recovered")?;

    // Lossy wire replay: verdicts may decay to Unknown but never lie.
    let mon = replay_perturbed(&result, &label_names, seed, true)
        .map_err(|e| mismatch(seed, format!("lossy replay failed: {e}")))?;
    for xi in 0..named.len() {
        for yi in 0..named.len() {
            if xi == yi {
                continue;
            }
            let (xl, x) = &named[xi];
            let (yl, y) = &named[yi];
            for rel in Relation::ALL {
                let truth = oracle.relation(rel, x, y);
                let got = mon.check(rel, xl, yl);
                let lie = match got {
                    Verdict::Unknown => false,
                    Verdict::Pending => true, // closed intervals never stay pending
                    Verdict::Holds => {
                        if mon.is_degraded() {
                            // Only the ∃∃ witness may survive, and it
                            // must be really true.
                            !matches!(rel, Relation::R4 | Relation::R4p) || !truth
                        } else {
                            !truth
                        }
                    }
                    Verdict::Violated => mon.is_degraded() || truth,
                };
                if lie {
                    return Err(mismatch(
                        seed,
                        format!(
                            "lossy: online {rel}({xl}, {yl}) = {got:?} but oracle says {truth} \
                             (degraded: {})",
                            mon.is_degraded()
                        ),
                    ));
                }
            }
        }
    }

    Ok(CaseOutcome {
        pairs,
        skipped: false,
    })
}

/// Run `cases` seed-derived cases from `base_seed` through `check`
/// ([`run_case`], or a harness that extends it); on failure, shrink to
/// the smallest failing size first.
pub fn run_seeds(
    base_seed: u64,
    cases: u64,
    force_faults: Option<bool>,
    check: impl Fn(&DiffCase) -> Result<CaseOutcome, Mismatch>,
) -> Result<RunStats, Mismatch> {
    let mut stats = RunStats::default();
    for i in 0..cases {
        let seed = mix(base_seed, i, SALT_CASE);
        let case = DiffCase::configure(seed, force_faults);
        match check(&case) {
            Ok(o) => {
                stats.cases += 1;
                stats.pairs += o.pairs as u64;
                if o.skipped {
                    stats.skipped += 1;
                }
            }
            Err(m) => return Err(shrink(m, force_faults, check)),
        }
    }
    Ok(stats)
}

/// Shrink a case `check` failed on: keep its entropy, try all 256 size
/// codes in ascending size order, and return the first (smallest) that
/// still fails — or the original if none smaller does.
pub fn shrink(
    found: Mismatch,
    force_faults: Option<bool>,
    check: impl Fn(&DiffCase) -> Result<CaseOutcome, Mismatch>,
) -> Mismatch {
    let entropy = found.seed >> 8;
    let mut codes: Vec<u64> = (0..256).collect();
    codes.sort_by_key(|&code| {
        let c = DiffCase::configure(code, force_faults);
        (c.processes * c.steps, c.labels, code as usize)
    });
    for code in codes {
        let candidate = (entropy << 8) | code;
        if candidate == found.seed {
            break; // everything after is at least as large as the original
        }
        let case = DiffCase::configure(candidate, force_faults);
        if let Err(m) = check(&case) {
            return m;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_decode_deterministically() {
        let a = DiffCase::from_seed(0xBEEF_1234);
        let b = DiffCase::from_seed(0xBEEF_1234);
        assert_eq!(a.processes, b.processes);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.faults, b.faults);
        assert!(a.processes >= 2 && a.processes <= 5);
        assert!(a.steps >= 3 && a.steps <= 10);
    }

    #[test]
    fn force_faults_overrides_seed_bit() {
        // Seed with the fault bit set, forced off.
        let off = DiffCase::configure(0x40, Some(false));
        assert!(off.faults.is_none());
        let on = DiffCase::configure(0x00, Some(true));
        assert!(on.faults.is_some());
    }

    #[test]
    fn smoke_sweep_agrees() {
        let stats = run_seeds(0xC0FFEE, 40, None, run_case).expect("no mismatches");
        assert_eq!(stats.cases, 40);
        assert!(stats.pairs > 0, "sweep exercised no pairs: {stats:?}");
    }

    #[test]
    fn shrink_prefers_smaller_codes() {
        // A fabricated mismatch at a big size code: shrink re-runs the
        // smaller codes first; since none of them actually fails, the
        // original comes back unchanged.
        let big = Mismatch {
            seed: (0xABC << 8) | 0xFF,
            detail: "fabricated".into(),
        };
        assert_eq!(shrink(big.clone(), None, run_case), big);
    }
}
