//! End-to-end monitor tests: scenarios → specs → offline checker, and
//! online-vs-offline agreement on randomized executions.

use synchrel_sim::prop::*;

use synchrel_core::{naive_relation, EventKind, NonatomicEvent, Relation};
use synchrel_monitor::{mutex, Checker, Condition, OnlineMonitor, Spec, Verdict};
use synchrel_sim::intervals::per_process_phases;
use synchrel_sim::scenario;
use synchrel_sim::workload::{random, random_with_events, RandomConfig};

#[test]
fn air_defence_spec_passes() {
    let s = scenario::air_defence().unwrap();
    let ch = Checker::new(
        &s.result.exec,
        s.actions.iter().map(|(n, e)| (n.clone(), e.clone())),
    );
    let spec = Spec::new("engagement-rules")
        .require(
            "detect-feeds-assessment",
            Condition::rel(Relation::R2, "detect", "assess"),
        )
        .require(
            "assessment-precedes-engagement",
            Condition::rel(Relation::R1, "assess", "engage_a"),
        )
        .require(
            "exclusive-engagements",
            Condition::mutex(["engage_a", "engage_b"]),
        )
        .require(
            "doctrine-order",
            Condition::ordered(["assess", "engage_a", "engage_b"]),
        );
    let report = ch.check(&spec);
    assert!(report.all_hold(), "{report}");
}

#[test]
fn air_defence_mutex_via_checker_and_module_agree() {
    let s = scenario::air_defence().unwrap();
    let sections: Vec<(String, NonatomicEvent)> = s
        .actions
        .iter()
        .filter(|(n, _)| n.starts_with("engage"))
        .map(|(n, e)| (n.clone(), e.clone()))
        .collect();
    let rep = mutex::check_mutual_exclusion(&s.result.exec, &sections);
    assert!(rep.holds(), "{rep}");

    let ch = Checker::new(
        &s.result.exec,
        sections.iter().map(|(n, e)| (n.clone(), e.clone())),
    );
    let (holds, _) = ch.eval(&Condition::mutex(["engage_a", "engage_b"]));
    assert_eq!(holds, rep.holds());

    // Seeded random section sets, most of which overlap: both paths give
    // the same verdict, and the checker names the report's first
    // violation with its witness.
    let mut violated = 0;
    for seed in 0..16u64 {
        let cfg = RandomConfig {
            seed,
            ..Default::default()
        };
        let w = random_with_events(&cfg, 6, 1 + seed as usize % 3, 2);
        let sections: Vec<_> = w.labels.into_iter().zip(w.events).collect();
        let rep = mutex::check_mutual_exclusion(&w.exec, &sections);
        let ch = Checker::new(&w.exec, sections.iter().cloned());
        let (holds, detail) = ch.eval(&Condition::mutex(sections.iter().map(|(n, _)| n)));
        assert_eq!(holds, rep.holds(), "seed {seed}: {detail} / {rep}");
        if let Some(v) = rep.violations.first() {
            violated += 1;
            let pair = format!("'{}' and '{}' are not exclusive", v.a, v.b);
            let w = v
                .witness
                .map(|(x, y)| format!("{pair} (concurrent pair: {x} ∥ {y})"));
            assert_eq!(detail, w.unwrap_or(pair));
        }
    }
    assert!(violated > 0, "no seed produced an overlap");
}

#[test]
fn multimedia_presentation_chain() {
    let s = scenario::multimedia(4).unwrap();
    let ch = Checker::new(
        &s.result.exec,
        s.actions.iter().map(|(n, e)| (n.clone(), e.clone())),
    );
    let spec = Spec::new("playback").require(
        "ordered-presentations",
        Condition::ordered(["present0", "present1", "present2", "present3"]),
    );
    assert!(ch.check(&spec).all_hold());
}

#[test]
fn process_control_violation_detected() {
    // Deliberately wrong spec: actuation cannot precede its own samples.
    let s = scenario::process_control(2).unwrap();
    let ch = Checker::new(
        &s.result.exec,
        s.actions.iter().map(|(n, e)| (n.clone(), e.clone())),
    );
    let spec = Spec::new("backwards").require(
        "actuate-before-sample",
        Condition::rel(Relation::R1, "actuate0", "sample0"),
    );
    let rep = ch.check(&spec);
    assert!(!rep.all_hold());
    assert_eq!(rep.violations(), vec!["actuate-before-sample"]);
    assert!(rep.conditions[0].detail.contains("witness"), "{rep}");
}

/// Replay a random execution through the online monitor (labelling each
/// per-process phase) and compare every final verdict with the offline
/// naive evaluation.
fn online_matches_offline(seed: u64, processes: usize) -> Result<(), TestCaseError> {
    let w = random(&RandomConfig {
        processes,
        events_per_process: 8,
        message_prob: 0.35,
        seed,
    });
    let phases = per_process_phases(&w.exec, 3);
    prop_assume!(phases.len() >= 2);
    // Map each event to its phase label.
    let label_of =
        |e: synchrel_core::EventId| -> Option<usize> { phases.iter().position(|p| p.contains(e)) };
    let mut mon = OnlineMonitor::new(processes);
    let mut tokens: Vec<Option<synchrel_monitor::online::OnlineMsg>> = Vec::new();
    for &e in w.exec.app_order() {
        let labels: Vec<String> = label_of(e).map(|k| format!("ph{k}")).into_iter().collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let p = e.process.idx();
        match w.exec.kind(e) {
            EventKind::Internal => mon.internal(p, &refs).unwrap(),
            EventKind::Send { msg } => {
                let t = mon.send(p, &refs).unwrap();
                let mi = msg as usize;
                if tokens.len() <= mi {
                    tokens.resize(mi + 1, None);
                }
                tokens[mi] = Some(t);
            }
            EventKind::Recv { msg } => {
                let t = tokens[msg as usize].take().unwrap();
                mon.recv(p, t, &refs).unwrap();
            }
            EventKind::Initial | EventKind::Final => unreachable!(),
        }
    }
    for k in 0..phases.len() {
        mon.close(&format!("ph{k}"));
    }
    for (i, x) in phases.iter().enumerate() {
        for (j, y) in phases.iter().enumerate() {
            if i == j {
                continue;
            }
            for rel in Relation::ALL {
                let want = naive_relation(&w.exec, rel, x, y);
                let got = mon.check(rel, &format!("ph{i}"), &format!("ph{j}"));
                let expect = if want {
                    Verdict::Holds
                } else {
                    Verdict::Violated
                };
                prop_assert_eq!(got, expect, "{} (ph{}, ph{}) seed {}", rel, i, j, seed);
            }
        }
    }
    Ok(())
}

props! {
    cases = 48;

    #[test]
    fn online_verdicts_match_offline(seed in any::<u64>(), processes in 2..7usize) {
        online_matches_offline(seed, processes)?;
    }
}
