//! Offline spec checking against a recorded trace.
//!
//! A [`Checker`] binds the names mentioned by a [`Spec`] to concrete
//! [`NonatomicEvent`]s of one execution and answers every requirement
//! through one [`Detector`] over those events: each event's summaries
//! are computed once (Key Idea 1), and every relation condition is a
//! [`Detector::holds`] query under the detector's [`EvalMode`]. It
//! produces a [`CheckReport`]. Violated relation conditions come with a
//! concrete witness pair where one exists, which is what an engineer
//! debugging a real-time trace actually needs.

use std::collections::BTreeMap;
use std::fmt;

use synchrel_core::{
    naive_relation, Detector, EvalMode, Execution, NonatomicEvent, ProxyRelation, Relation,
    RowSlabs, TilePartition,
};

use crate::mutex;
use crate::spec::{Condition, Requirement, Spec};

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
///
/// The bound events are registered with one [`Detector`] in name order;
/// `index` maps each name to its detector index.
pub struct Checker<'a> {
    exec: &'a Execution,
    index: BTreeMap<String, usize>,
    detector: Detector<'a>,
}

impl<'a> Checker<'a> {
    /// Create a checker over `exec` with the given name bindings.
    pub fn new(
        exec: &'a Execution,
        bindings: impl IntoIterator<Item = (String, NonatomicEvent)>,
    ) -> Self {
        let bound: BTreeMap<String, NonatomicEvent> = bindings.into_iter().collect();
        let (names, events): (Vec<String>, Vec<NonatomicEvent>) = bound.into_iter().unzip();
        Checker {
            exec,
            index: names.into_iter().enumerate().map(|(i, n)| (n, i)).collect(),
            detector: Detector::new(exec, events),
        }
    }

    /// Select the detector's [`EvalMode`]. Relation conditions follow
    /// [`Detector::holds`]: identical verdicts in every mode, with
    /// [`EvalMode::Counted`] (the default) evaluating only the relation
    /// asked and every other mode the pair's full 32-relation set.
    pub fn with_mode(self, mode: EvalMode) -> Self {
        Checker {
            detector: self.detector.with_mode(mode),
            ..self
        }
    }

    /// The active evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.detector.mode()
    }

    /// The bound event names.
    pub fn names(&self) -> Vec<&str> {
        self.index.keys().map(String::as_str).collect()
    }

    /// Look up a bound event.
    pub fn event(&self, name: &str) -> Option<&NonatomicEvent> {
        self.detector.event(*self.index.get(name)?)
    }

    /// Does `pr` hold between two bound names? `None` if either name
    /// is unbound.
    fn holds(&self, pr: ProxyRelation, x: &str, y: &str) -> Option<bool> {
        let (xi, yi) = (*self.index.get(x)?, *self.index.get(y)?);
        Some(self.detector.holds(pr, xi, yi).expect("bound indices"))
    }

    /// Check a whole spec with the detector warmed up first
    /// ([`Detector::warm_up`]) and the independent requirements evaluated
    /// concurrently on `threads` workers, on the same [`TilePartition`]
    /// scheduler as the detector's parallel sweeps. Each requirement's
    /// report is written into its own [`RowSlabs`] slot, so reports come
    /// back in spec order with no reassembly pass.
    pub fn check_parallel(&self, spec: &Spec, threads: usize) -> CheckReport {
        self.detector.warm_up();
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
                    // SAFETY: the partition dispatches each requirement
                    // index to exactly one worker.
                    let slot = unsafe { slabs.item_mut(i) };
                    slot[0] = Some(self.report(&spec.requirements[i]));
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
            conditions: spec.requirements.iter().map(|r| self.report(r)).collect(),
        }
    }

    fn report(&self, r: &Requirement) -> ConditionReport {
        let (holds, detail) = self.eval(&r.condition);
        ConditionReport {
            name: r.name.clone(),
            holds,
            detail,
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
                let Some(holds) = self.holds(pr, x, y) else {
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
                        let (a, b) = (&events[i], &events[j]);
                        let pair = match (self.index.get(a), self.index.get(b)) {
                            (Some(&ai), Some(&bi)) => {
                                mutex::exclusive(self.exec, &self.detector, ai, bi)
                            }
                            _ => Err(None),
                        };
                        if let Err(witness) = pair {
                            let w = witness
                                .map(|(x, y)| format!(" (concurrent pair: {x} ∥ {y})"))
                                .unwrap_or_default();
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
        let Some(holds) = self.holds(ProxyRelation::canonical(rel), x, y) else {
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
        if !self.index.contains_key(x) {
            missing.push(x);
        }
        if !self.index.contains_key(y) {
            missing.push(y);
        }
        format!("unbound event(s): {missing:?}")
    }

    /// For a violated `R1(x, y)`, find a concrete pair `(a, b)` with
    /// `¬(a ≺ b)`.
    fn r1_witness(&self, x: &str, y: &str) -> String {
        let (Some(ex), Some(ey)) = (self.event(x), self.event(y)) else {
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

    /// Convenience: evaluate one base relation by bound names, using the
    /// naive ground truth (for cross-checks and tests).
    pub fn naive_rel(&self, rel: Relation, x: &str, y: &str) -> Option<bool> {
        let ex = self.event(x)?;
        let ey = self.event(y)?;
        Some(naive_relation(self.exec, rel, ex, ey))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrel_core::{ExecutionBuilder, Proxy};
    use synchrel_sim::workload::{random_with_events, RandomConfig};

    /// Three actions: a (p0) wholly precedes b (p1); c (p2) concurrent
    /// with both.
    fn setup() -> (Execution, Vec<(String, NonatomicEvent)>) {
        let mut bld = ExecutionBuilder::new(3);
        let a1 = bld.internal(0);
        let (a2, m) = bld.send(0);
        let b1 = bld.recv(1, m).unwrap();
        let b2 = bld.internal(1);
        let c1 = bld.internal(2);
        let c2 = bld.internal(2);
        let e = bld.build().unwrap();
        let defs = [("a", [a1, a2]), ("b", [b1, b2]), ("c", [c1, c2])]
            .map(|(n, evs)| (n.into(), NonatomicEvent::new(&e, evs).unwrap()));
        (e, defs.into())
    }

    fn checker<'a>(e: &'a Execution, defs: &[(String, NonatomicEvent)]) -> Checker<'a> {
        Checker::new(e, defs.iter().cloned())
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
        assert!(ch.eval(&Condition::mutex(["b", "a"])).0, "in either order");
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

    /// Every mode, sequential and parallel at 2 and 8 threads, gives the
    /// report of the default mode; every relation condition over every
    /// bound pair (x == y included) agrees across modes, and equals the
    /// naive ground truth on pairs with disjoint member sets.
    fn assert_modes_agree(e: &Execution, defs: &[(String, NonatomicEvent)], spec: &Spec) {
        let counted = checker(e, defs);
        let modes = [EvalMode::Fused, EvalMode::Batched, EvalMode::Incremental];
        let others = modes.map(|mode| checker(e, defs).with_mode(mode));
        assert_eq!(others.each_ref().map(Checker::mode), modes);
        let base = counted.check(spec);
        for ch in std::iter::once(&counted).chain(&others) {
            let mode = ch.mode();
            assert_eq!(base, ch.check(spec), "{mode:?} diverged");
            for t in [2, 8] {
                assert_eq!(base, ch.check_parallel(spec, t), "{mode:?} × {t}");
            }
        }
        let names = counted.names();
        for rel in Relation::ALL {
            for &x in &names {
                for &y in &names {
                    let c = Condition::rel(rel, x, y);
                    let expect = counted.eval(&c).0;
                    for ch in &others {
                        assert_eq!(ch.eval(&c).0, expect, "{:?} {rel}({x},{y})", ch.mode());
                    }
                    let (ex, ey) = (counted.event(x).unwrap(), counted.event(y).unwrap());
                    if !ex.overlaps(ey) {
                        assert_eq!(counted.naive_rel(rel, x, y), Some(expect), "{rel}({x},{y})");
                    }
                }
            }
        }
    }

    #[test]
    fn modes_agree_on_every_condition() {
        let (e, defs) = setup();
        let spec = Spec::new("modes")
            .require("ordering", Condition::rel(Relation::R1, "a", "b"))
            .require("reverse", Condition::rel(Relation::R1, "b", "a"))
            .require(
                "proxy",
                Condition::proxy_rel(Relation::R3, Proxy::L, Proxy::U, "a", "b"),
            )
            .require("exclusion", Condition::mutex(["a", "b", "c"]))
            .require("chain", Condition::ordered(["a", "b", "c"]))
            .require("ghost", Condition::rel(Relation::R4, "a", "ghost"));
        assert_modes_agree(&e, &defs, &spec);

        // Seeded random executions with 12 two-node intervals, which
        // may share member events.
        for seed in 1..=4 {
            let cfg = RandomConfig {
                processes: 6,
                events_per_process: 10,
                seed,
                ..Default::default()
            };
            let w = random_with_events(&cfg, 12, 2, 2);
            let defs: Vec<_> = w.labels.into_iter().zip(w.events).collect();
            let (a, p) = (|k: usize| format!("A{}", k % 12), Proxy::ALL);
            let mut spec = Spec::new("random").require("ghost", Condition::mutex(["A0", "ghost"]));
            for k in 0..12 {
                let (rel, x, y) = (Relation::ALL[k % 8], a(k), a(5 * k + 3));
                let group: Vec<String> = (0..4).map(|i| a(k + 5 * i)).collect();
                spec = spec
                    .require(format!("rel{k}"), Condition::rel(rel, &x, &y))
                    .require(
                        format!("proxy{k}"),
                        Condition::proxy_rel(rel, p[k % 2], p[k / 2 % 2], x, y),
                    )
                    .require(format!("mutex{k}"), Condition::mutex(group.clone()))
                    .require(format!("ordered{k}"), Condition::ordered(group));
            }
            assert_modes_agree(&w.exec, &defs, &spec);
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
