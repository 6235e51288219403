//! Offline spec checking against a recorded trace.
//!
//! A [`Checker`] binds the names mentioned by a [`Spec`] to concrete
//! [`NonatomicEvent`]s of one execution, evaluates every requirement
//! using the linear-time evaluator (with summaries cached per event —
//! Key Idea 1), and produces a [`CheckReport`]. Violated relation
//! conditions come with a concrete witness pair where one exists, which
//! is what an engineer debugging a real-time trace actually needs.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

use synchrel_core::{
    naive_relation, pair_slot, EvalMode, Evaluator, Execution, IncrementalDetector, NonatomicEvent,
    ProxyRelation, ProxySummary, Relation, RelationSet, RowSlabs, SummaryArena, TilePartition,
};

use crate::spec::{Condition, Spec};

/// Verdict and explanation for one requirement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConditionReport {
    /// Requirement name.
    pub name: String,
    /// Whether the condition holds.
    pub holds: bool,
    /// Human-readable explanation (witnesses for violations).
    pub detail: String,
}

/// Outcome of checking a whole spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// Name of the checked spec.
    pub spec: String,
    /// Per-requirement reports, in spec order.
    pub conditions: Vec<ConditionReport>,
}

impl CheckReport {
    /// Do all requirements hold?
    pub fn all_hold(&self) -> bool {
        self.conditions.iter().all(|c| c.holds)
    }

    /// The names of violated requirements.
    pub fn violations(&self) -> Vec<&str> {
        self.conditions
            .iter()
            .filter(|c| !c.holds)
            .map(|c| c.name.as_str())
            .collect()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "spec '{}': {}",
            self.spec,
            if self.all_hold() { "OK" } else { "VIOLATED" }
        )?;
        for c in &self.conditions {
            writeln!(
                f,
                "  [{}] {} — {}",
                if c.holds { "ok" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

/// Binds named events of one execution and checks specs against them.
pub struct Checker<'a> {
    exec: &'a Execution,
    bindings: BTreeMap<String, NonatomicEvent>,
    summaries: RwLock<BTreeMap<String, Arc<ProxySummary>>>,
    mode: EvalMode,
    arena: RwLock<Option<Arc<SummaryArena>>>,
    incr: RwLock<Option<Arc<IncrMatrix>>>,
}

/// Cached verdicts from one canonical incremental replay over the
/// bound events (binding order), mirroring the detector's sweep cache:
/// every `(x, y)` lookup then answers from the same settled state, so
/// results cannot depend on question order.
struct IncrMatrix {
    n: usize,
    sets: Vec<RelationSet>,
}

impl IncrMatrix {
    fn build(exec: &Execution, events: &[NonatomicEvent]) -> IncrMatrix {
        let n = events.len();
        let mut sets = Vec::with_capacity(n * n.saturating_sub(1));
        if n >= 2 {
            let det = IncrementalDetector::replay(exec, events);
            for x in 0..n {
                for y in 0..n {
                    if x != y {
                        sets.push(det.relations(x, y).expect("replayed pair"));
                    }
                }
            }
        }
        IncrMatrix { n, sets }
    }

    fn get(&self, x: usize, y: usize) -> RelationSet {
        self.sets[pair_slot(self.n, x, y)]
    }
}

impl<'a> Checker<'a> {
    /// Create a checker over `exec` with the given name bindings.
    pub fn new(
        exec: &'a Execution,
        bindings: impl IntoIterator<Item = (String, NonatomicEvent)>,
    ) -> Self {
        Checker {
            exec,
            bindings: bindings.into_iter().collect(),
            summaries: RwLock::new(BTreeMap::new()),
            mode: EvalMode::Counted,
            arena: RwLock::new(None),
            incr: RwLock::new(None),
        }
    }

    /// Select the kernel used for relation conditions.
    /// [`EvalMode::Counted`] (the default) evaluates each proxy relation
    /// on its own Theorem-20 comparison path. [`EvalMode::Fused`] and
    /// [`EvalMode::Batched`] compute the full 32-relation set for the
    /// pair in one pass and answer by membership — identical verdicts,
    /// cheaper when a spec asks several questions about the same pair.
    /// [`EvalMode::Incremental`] replays the bound events through the
    /// stateful [`IncrementalDetector`] once (binding order) and answers
    /// every condition from the settled verdict matrix; self-pairs fall
    /// back to the fused kernel, matching the detector's convention.
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// The bound event names.
    pub fn names(&self) -> Vec<&str> {
        self.bindings.keys().map(String::as_str).collect()
    }

    /// Look up a bound event.
    pub fn event(&self, name: &str) -> Option<&NonatomicEvent> {
        self.bindings.get(name)
    }

    fn summary(&self, name: &str) -> Option<Arc<ProxySummary>> {
        if let Some(s) = self
            .summaries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Some(Arc::clone(s));
        }
        let ev = self.bindings.get(name)?;
        let s = Arc::new(Evaluator::new(self.exec).summarize_proxies(ev));
        self.summaries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&s));
        Some(s)
    }

    /// The shared SoA arena over all bound events, built lazily on
    /// first batched evaluation (binding order = arena index order).
    fn arena(&self) -> Arc<SummaryArena> {
        if let Some(a) = self
            .arena
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            return Arc::clone(a);
        }
        let summaries: Vec<Arc<ProxySummary>> = self
            .bindings
            .keys()
            .map(|n| self.summary(n).expect("iterating bound names"))
            .collect();
        let built = Arc::new(SummaryArena::build(
            self.exec.num_processes(),
            summaries.iter().map(|s| s.as_ref()),
        ));
        let mut slot = self.arena.write().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(built);
        }
        Arc::clone(slot.as_ref().expect("just filled"))
    }

    fn binding_index(&self, name: &str) -> Option<usize> {
        self.bindings.keys().position(|k| k == name)
    }

    /// The cached incremental verdict matrix over all bound events,
    /// built lazily on first incremental evaluation.
    fn incr_matrix(&self) -> Arc<IncrMatrix> {
        if let Some(m) = self
            .incr
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            return Arc::clone(m);
        }
        let events: Vec<NonatomicEvent> = self.bindings.values().cloned().collect();
        let built = Arc::new(IncrMatrix::build(self.exec, &events));
        let mut slot = self.incr.write().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(built);
        }
        Arc::clone(slot.as_ref().expect("just filled"))
    }

    /// Full 32-relation set for a bound pair via the active set kernel.
    fn relation_set(&self, x: &str, y: &str) -> Option<RelationSet> {
        match self.mode {
            EvalMode::Batched => {
                let (xi, yi) = (self.binding_index(x)?, self.binding_index(y)?);
                Some(self.arena().eval_pair(xi, yi))
            }
            EvalMode::Incremental => {
                let (xi, yi) = (self.binding_index(x)?, self.binding_index(y)?);
                if xi == yi {
                    let (sx, sy) = (self.summary(x)?, self.summary(y)?);
                    return Some(Evaluator::new(self.exec).eval_all_proxy_fused(&sx, &sy).0);
                }
                Some(self.incr_matrix().get(xi, yi))
            }
            _ => {
                let (sx, sy) = (self.summary(x)?, self.summary(y)?);
                Some(Evaluator::new(self.exec).eval_all_proxy_fused(&sx, &sy).0)
            }
        }
    }

    /// Evaluate one proxy relation between bound names under the
    /// active mode. `None` if either name is unbound.
    fn eval_proxy_named(&self, pr: ProxyRelation, x: &str, y: &str) -> Option<bool> {
        if self.mode == EvalMode::Counted {
            let (sx, sy) = (self.summary(x)?, self.summary(y)?);
            Some(Evaluator::new(self.exec).eval_proxy(pr, &sx, &sy).holds)
        } else {
            Some(self.relation_set(x, y)?.contains(pr))
        }
    }

    /// Compute all bound events' proxy summaries now, on `threads`
    /// workers (the checker's analogue of
    /// [`synchrel_core::Detector::warm_up`]). Scheduling is the same
    /// [`TilePartition`] the detector's sweeps use — static contiguous
    /// name bands per worker plus a stealable tail, so skewed per-event
    /// summary costs (node counts vary) still balance without a shared
    /// counter on the hot path.
    pub fn warm_up(&self, threads: usize) {
        let names: Vec<&str> = self.bindings.keys().map(String::as_str).collect();
        let part = TilePartition::new(names.len(), threads, 1);
        if part.threads() == 1 {
            for name in names {
                let _ = self.summary(name);
            }
            return;
        }
        let names = &names;
        part.run(vec![(); part.threads()], |_, range| {
            for i in range {
                let _ = self.summary(names[i]);
            }
        });
    }

    /// Check a whole spec with summaries warmed up on `threads` workers
    /// and the independent requirements evaluated concurrently, on the
    /// same [`TilePartition`] scheduler as the detector's parallel
    /// sweeps. Each requirement's report is written into its own
    /// [`RowSlabs`] slot, so reports come back in spec order with no
    /// reassembly pass.
    pub fn check_parallel(&self, spec: &Spec, threads: usize) -> CheckReport {
        self.warm_up(threads);
        let part = TilePartition::new(spec.requirements.len(), threads, 1);
        if part.threads() == 1 {
            return self.check(spec);
        }
        let mut conditions: Vec<Option<ConditionReport>> = vec![None; spec.requirements.len()];
        {
            let slabs = RowSlabs::new(&mut conditions, 1);
            let slabs = &slabs;
            part.run(vec![(); part.threads()], |_, range| {
                for i in range {
                    let r = &spec.requirements[i];
                    let (holds, detail) = self.eval(&r.condition);
                    // SAFETY: the partition dispatches each requirement
                    // index to exactly one worker.
                    let slot = unsafe { slabs.item_mut(i) };
                    slot[0] = Some(ConditionReport {
                        name: r.name.clone(),
                        holds,
                        detail,
                    });
                }
            });
        }
        CheckReport {
            spec: spec.name.clone(),
            conditions: conditions.into_iter().map(|c| c.expect("filled")).collect(),
        }
    }

    /// Check a whole spec.
    pub fn check(&self, spec: &Spec) -> CheckReport {
        CheckReport {
            spec: spec.name.clone(),
            conditions: spec
                .requirements
                .iter()
                .map(|r| {
                    let (holds, detail) = self.eval(&r.condition);
                    ConditionReport {
                        name: r.name.clone(),
                        holds,
                        detail,
                    }
                })
                .collect(),
        }
    }

    /// Check a single condition, returning the verdict and explanation.
    pub fn eval(&self, cond: &Condition) -> (bool, String) {
        match cond {
            Condition::Rel { rel, x, y } => self.eval_rel(*rel, x, y),
            Condition::ProxyRel {
                rel,
                x_proxy,
                y_proxy,
                x,
                y,
            } => {
                let pr = ProxyRelation::new(*rel, *x_proxy, *y_proxy);
                let Some(holds) = self.eval_proxy_named(pr, x, y) else {
                    return (false, self.unbound_detail(x, y));
                };
                (holds, format!("{pr} on ({x}, {y}) = {holds}"))
            }
            Condition::Not { inner } => {
                let (h, d) = self.eval(inner);
                (!h, format!("not({d})"))
            }
            Condition::All { conditions } => {
                let mut fails = Vec::new();
                for c in conditions {
                    let (h, d) = self.eval(c);
                    if !h {
                        fails.push(d);
                    }
                }
                if fails.is_empty() {
                    (true, format!("all {} conditions hold", conditions.len()))
                } else {
                    (false, format!("failed: {}", fails.join("; ")))
                }
            }
            Condition::Any { conditions } => {
                for c in conditions {
                    let (h, d) = self.eval(c);
                    if h {
                        return (true, d);
                    }
                }
                (false, "no disjunct holds".to_string())
            }
            Condition::Mutex { events } => {
                for i in 0..events.len() {
                    for j in i + 1..events.len() {
                        let a = &events[i];
                        let b = &events[j];
                        let (ab, _) = self.eval_rel(Relation::R1, a, b);
                        let (ba, _) = self.eval_rel(Relation::R1, b, a);
                        if !ab && !ba {
                            let w = self.overlap_witness(a, b);
                            return (false, format!("'{a}' and '{b}' are not exclusive{w}"));
                        }
                    }
                }
                (true, format!("{} events pairwise exclusive", events.len()))
            }
            Condition::Ordered { events } => {
                for win in events.windows(2) {
                    let (h, _) = self.eval_rel(Relation::R1, &win[0], &win[1]);
                    if !h {
                        let w = self.r1_witness(&win[0], &win[1]);
                        return (
                            false,
                            format!("'{}' does not wholly precede '{}'{w}", win[0], win[1]),
                        );
                    }
                }
                (true, format!("{} events totally ordered", events.len()))
            }
        }
    }

    fn eval_rel(&self, rel: Relation, x: &str, y: &str) -> (bool, String) {
        // The base relation equals the relation over the matching proxies
        // (see crate::relations::proxy_baseline): use the event's own
        // summaries via the proxy pair that preserves it.
        let (xp, yp) = match rel {
            Relation::R1 | Relation::R1p => (synchrel_core::Proxy::U, synchrel_core::Proxy::L),
            Relation::R2 | Relation::R2p => (synchrel_core::Proxy::U, synchrel_core::Proxy::U),
            Relation::R3 | Relation::R3p => (synchrel_core::Proxy::L, synchrel_core::Proxy::L),
            Relation::R4 | Relation::R4p => (synchrel_core::Proxy::L, synchrel_core::Proxy::U),
        };
        let pr = ProxyRelation::new(rel, xp, yp);
        let Some(holds) = self.eval_proxy_named(pr, x, y) else {
            return (false, self.unbound_detail(x, y));
        };
        let mut detail = format!("{rel}({x}, {y}) = {holds}");
        if !holds && matches!(rel, Relation::R1 | Relation::R1p) {
            detail.push_str(&self.r1_witness(x, y));
        }
        (holds, detail)
    }

    fn unbound_detail(&self, x: &str, y: &str) -> String {
        let mut missing = Vec::new();
        if !self.bindings.contains_key(x) {
            missing.push(x);
        }
        if !self.bindings.contains_key(y) {
            missing.push(y);
        }
        format!("unbound event(s): {missing:?}")
    }

    /// For a violated `R1(x, y)`, find a concrete pair `(a, b)` with
    /// `¬(a ≺ b)`.
    fn r1_witness(&self, x: &str, y: &str) -> String {
        let (Some(ex), Some(ey)) = (self.bindings.get(x), self.bindings.get(y)) else {
            return String::new();
        };
        for a in ex.events() {
            for b in ey.events() {
                if !self.exec.precedes(a, b) {
                    return format!(" (witness: {a} ⊀ {b})");
                }
            }
        }
        String::new()
    }

    /// For a violated mutual exclusion, exhibit a concurrent pair.
    fn overlap_witness(&self, x: &str, y: &str) -> String {
        let (Some(ex), Some(ey)) = (self.bindings.get(x), self.bindings.get(y)) else {
            return String::new();
        };
        for a in ex.events() {
            for b in ey.events() {
                if self.exec.concurrent(a, b) {
                    return format!(" (concurrent pair: {a} ∥ {b})");
                }
            }
        }
        String::new()
    }

    /// Convenience: evaluate one base relation by bound names, using the
    /// naive ground truth (for cross-checks and tests).
    pub fn naive_rel(&self, rel: Relation, x: &str, y: &str) -> Option<bool> {
        let ex = self.bindings.get(x)?;
        let ey = self.bindings.get(y)?;
        Some(naive_relation(self.exec, rel, ex, ey))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrel_core::{EventId, ExecutionBuilder};

    /// Three actions: a (p0) wholly precedes b (p1); c (p2) concurrent
    /// with both.
    fn setup() -> (Execution, Vec<(String, Vec<EventId>)>) {
        let mut bld = ExecutionBuilder::new(3);
        let a1 = bld.internal(0);
        let (a2, m) = bld.send(0);
        let b1 = bld.recv(1, m).unwrap();
        let b2 = bld.internal(1);
        let c1 = bld.internal(2);
        let c2 = bld.internal(2);
        let e = bld.build().unwrap();
        (
            e,
            vec![
                ("a".into(), vec![a1, a2]),
                ("b".into(), vec![b1, b2]),
                ("c".into(), vec![c1, c2]),
            ],
        )
    }

    fn checker<'a>(e: &'a Execution, defs: &[(String, Vec<EventId>)]) -> Checker<'a> {
        Checker::new(
            e,
            defs.iter().map(|(n, evs)| {
                (
                    n.clone(),
                    NonatomicEvent::new(e, evs.iter().copied()).unwrap(),
                )
            }),
        )
    }

    #[test]
    fn simple_relations() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        assert!(ch.eval(&Condition::rel(Relation::R1, "a", "b")).0);
        assert!(!ch.eval(&Condition::rel(Relation::R1, "b", "a")).0);
        assert!(!ch.eval(&Condition::rel(Relation::R4, "a", "c")).0);
    }

    #[test]
    fn linear_matches_naive_in_checker() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        for rel in Relation::ALL {
            for x in ["a", "b", "c"] {
                for y in ["a", "b", "c"] {
                    if x == y {
                        continue;
                    }
                    assert_eq!(
                        ch.eval(&Condition::rel(rel, x, y)).0,
                        ch.naive_rel(rel, x, y).unwrap(),
                        "{rel}({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_combinators() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        let c = Condition::all([
            Condition::rel(Relation::R1, "a", "b"),
            Condition::not(Condition::rel(Relation::R4, "c", "a")),
        ]);
        assert!(ch.eval(&c).0);
        let c2 = Condition::any([
            Condition::rel(Relation::R1, "b", "a"),
            Condition::rel(Relation::R1, "a", "b"),
        ]);
        assert!(ch.eval(&c2).0);
        assert!(!ch.eval(&Condition::any([])).0);
        assert!(ch.eval(&Condition::all([])).0);
    }

    #[test]
    fn mutex_detects_overlap_with_witness() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        let (h, _) = ch.eval(&Condition::mutex(["a", "b"]));
        assert!(h, "a and b are ordered");
        let (h2, d2) = ch.eval(&Condition::mutex(["a", "c"]));
        assert!(!h2);
        assert!(d2.contains("concurrent pair"), "{d2}");
    }

    #[test]
    fn ordered_chain() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        assert!(ch.eval(&Condition::ordered(["a", "b"])).0);
        let (h, d) = ch.eval(&Condition::ordered(["a", "b", "c"]));
        assert!(!h);
        assert!(d.contains("witness"), "{d}");
    }

    #[test]
    fn unbound_names_fail_cleanly() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        let (h, d) = ch.eval(&Condition::rel(Relation::R1, "a", "ghost"));
        assert!(!h);
        assert!(d.contains("unbound"), "{d}");
    }

    #[test]
    fn parallel_check_matches_sequential() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        let spec = Spec::new("par")
            .require("ordering", Condition::rel(Relation::R1, "a", "b"))
            .require("reverse", Condition::rel(Relation::R1, "b", "a"))
            .require("exclusion", Condition::mutex(["a", "c"]))
            .require("chain", Condition::ordered(["a", "b"]));
        let seq = ch.check(&spec);
        for threads in [1, 2, 8] {
            assert_eq!(
                seq,
                ch.check_parallel(&spec, threads),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn modes_agree_on_every_condition() {
        let (e, defs) = setup();
        let counted = checker(&e, &defs);
        let fused = checker(&e, &defs).with_mode(EvalMode::Fused);
        let batched = checker(&e, &defs).with_mode(EvalMode::Batched);
        let incr = checker(&e, &defs).with_mode(EvalMode::Incremental);
        assert_eq!(batched.mode(), EvalMode::Batched);
        let spec = Spec::new("modes")
            .require("ordering", Condition::rel(Relation::R1, "a", "b"))
            .require("reverse", Condition::rel(Relation::R1, "b", "a"))
            .require(
                "proxy",
                Condition::proxy_rel(
                    Relation::R3,
                    synchrel_core::Proxy::L,
                    synchrel_core::Proxy::U,
                    "a",
                    "b",
                ),
            )
            .require("exclusion", Condition::mutex(["a", "b", "c"]))
            .require("chain", Condition::ordered(["a", "b", "c"]))
            .require("ghost", Condition::rel(Relation::R4, "a", "ghost"));
        let base = counted.check(&spec);
        assert_eq!(base, fused.check(&spec), "fused diverged");
        assert_eq!(base, batched.check(&spec), "batched diverged");
        assert_eq!(base, incr.check(&spec), "incremental diverged");
        // Per-relation sweep across all bound pairs, including x == y.
        for rel in Relation::ALL {
            for x in ["a", "b", "c"] {
                for y in ["a", "b", "c"] {
                    let c = Condition::rel(rel, x, y);
                    let expect = counted.eval(&c).0;
                    assert_eq!(fused.eval(&c).0, expect, "fused {rel}({x},{y})");
                    assert_eq!(batched.eval(&c).0, expect, "batched {rel}({x},{y})");
                    assert_eq!(incr.eval(&c).0, expect, "incremental {rel}({x},{y})");
                }
            }
        }
        // Parallel checking under non-default modes stays deterministic.
        for threads in [2, 8] {
            assert_eq!(base, batched.check_parallel(&spec, threads));
            assert_eq!(base, incr.check_parallel(&spec, threads));
        }
    }

    #[test]
    fn full_spec_report() {
        let (e, defs) = setup();
        let ch = checker(&e, &defs);
        let spec = Spec::new("demo")
            .require("ordering", Condition::rel(Relation::R1, "a", "b"))
            .require("exclusion", Condition::mutex(["a", "c"]));
        let rep = ch.check(&spec);
        assert!(!rep.all_hold());
        assert_eq!(rep.violations(), vec!["exclusion"]);
        let text = rep.to_string();
        assert!(text.contains("VIOLATED"), "{text}");
        assert!(text.contains("[ok] ordering"), "{text}");
    }
}
