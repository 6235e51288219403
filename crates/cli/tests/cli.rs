//! End-to-end tests of the `synchrel` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_synchrel"))
}

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("synchrel_cli_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// Run `gen` with `args`; it must succeed.
fn gen(args: &[&str]) -> Output {
    let o = run(args);
    assert!(o.status.success(), "{:?}", o);
    o
}

#[test]
fn no_args_prints_usage() {
    let o = run(&[]);
    assert!(!o.status.success());
    assert!(stdout(&o).contains("usage: synchrel"));
}

#[test]
fn relations_lists_all_eight() {
    let o = run(&["relations"]);
    assert!(o.status.success());
    let s = stdout(&o);
    for name in ["R1", "R1'", "R2", "R2'", "R3", "R3'", "R4", "R4'"] {
        assert!(s.contains(name), "{s}");
    }
}

#[test]
fn gen_stats_render_roundtrip() {
    let dir = tmpdir();
    let trace = dir.join("ring.json");
    gen(&[
        "gen",
        "ring",
        "--processes",
        "4",
        "--rounds",
        "3",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(trace.exists());

    let o = run(&["stats", trace.to_str().unwrap()]);
    assert!(o.status.success());
    let s = stdout(&o);
    assert!(s.contains("4 processes"), "{s}");
    assert!(s.contains("round0"), "{s}");

    let o = run(&["render", trace.to_str().unwrap()]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("P0"), "{}", stdout(&o));
}

#[test]
fn query_exit_codes() {
    let dir = tmpdir();
    let trace = dir.join("phases.json");
    gen(&[
        "gen",
        "phases",
        "--processes",
        "3",
        "--phases",
        "3",
        "-o",
        trace.to_str().unwrap(),
    ]);

    // phase0 wholly precedes phase1.
    let o = run(&["query", trace.to_str().unwrap(), "phase0", "phase1", "R1"]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(stdout(&o).contains("true"));

    // the reverse fails with exit code 1.
    let o = run(&["query", trace.to_str().unwrap(), "phase1", "phase0", "R1"]);
    assert_eq!(o.status.code(), Some(1));

    // no relation argument: table of all eight.
    let o = run(&["query", trace.to_str().unwrap(), "phase0", "phase2"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("strongest: R1"), "{}", stdout(&o));
}

#[test]
fn analyze_shows_matrix() {
    // 100 clients × 2 requests: 200 intervals, 39 800 ordered pairs.
    let dir = tmpdir();
    let trace = dir.join("cs.json");
    gen(&[
        "gen",
        "client-server",
        "--clients",
        "100",
        "--requests",
        "2",
        "-o",
        trace.to_str().unwrap(),
    ]);
    let analyze = |mode: Option<&str>| {
        let mut args = vec!["analyze", trace.to_str().unwrap()];
        args.extend(mode.map(|m| ["--mode", m]).into_iter().flatten());
        let o = run(&args);
        assert!(o.status.success(), "{mode:?}: {}", stdout(&o));
        stdout(&o)
    };
    let s = analyze(None);
    assert!(s.contains("txn_c100_r1"), "{s}");
    assert!(s.contains("39800 pairs × 32 relations"), "{s}");

    // The default is the batched kernel, and the fused kernel prints
    // byte-identical output, comparison total included.
    assert_eq!(s, analyze(Some("batched")), "default is not batched");
    assert_eq!(s, analyze(Some("fused")), "fused and batched diverged");

    // Every mode prints the same relation matrix (comparison counts
    // legitimately differ between kernels).
    let matrix = |t: &str| {
        t.lines()
            .take_while(|l| !l.contains("comparisons"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for mode in ["exact", "incremental"] {
        assert_eq!(
            matrix(&s),
            matrix(&analyze(Some(mode))),
            "{mode} matrix diverged"
        );
    }
}

#[test]
fn check_spec_pass_and_fail() {
    let dir = tmpdir();
    let trace = dir.join("ph.json");
    gen(&[
        "gen",
        "phases",
        "--processes",
        "3",
        "--phases",
        "2",
        "-o",
        trace.to_str().unwrap(),
    ]);

    let good = dir.join("good.json");
    std::fs::write(
        &good,
        r#"{"name":"ok","requirements":[
            {"name":"order","condition":
              {"kind":"rel","rel":"R1","x":"phase0","y":"phase1"}}]}"#,
    )
    .unwrap();
    let o = run(&["check", trace.to_str().unwrap(), good.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stdout(&o));

    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        r#"{"name":"bad","requirements":[
            {"name":"backwards","condition":
              {"kind":"rel","rel":"R4","x":"phase1","y":"phase0"}}]}"#,
    )
    .unwrap();
    let o = run(&["check", trace.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stdout(&o).contains("FAIL"), "{}", stdout(&o));

    // A random trace and a spec mixing every kind of condition, with an
    // unbound name: every mode, sequential and parallel, prints
    // byte-identical reports.
    use synchrel_core::{Proxy, Relation};
    use synchrel_monitor::{Condition, Spec};
    let (rand, mixed) = (dir.join("rand.json"), dir.join("mixed.json"));
    let args = "gen random --processes 4 --events 30 --intervals 16 --nodes 2 --prob 0.5 -o";
    gen(&[args.split(' ').collect(), vec![rand.to_str().unwrap()]].concat());
    let a = |k: usize| format!("A{}", k % 16);
    let mut spec = Spec::new("mixed").require("ghost", Condition::rel(Relation::R1, "A0", "ghost"));
    for k in 0..16 {
        let (rel, x, y, p) = (Relation::ALL[k % 8], a(k), a(5 * k + 3), Proxy::ALL);
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
    std::fs::write(&mixed, spec.to_json()).unwrap();
    let check = |mode: &str, threads: &str| {
        let (t, m) = (rand.to_str().unwrap(), mixed.to_str().unwrap());
        let o = run(&["check", t, m, "--mode", mode, "--threads", threads]);
        assert_eq!(o.status.code(), Some(1), "{mode} × {threads}");
        stdout(&o)
    };
    let s = check("exact", "1");
    assert!(s.contains(r#"unbound event(s): ["ghost"]"#), "{s}");
    assert!(s.contains("are not exclusive"), "{s}");
    for mode in ["exact", "fused", "batched", "incremental"] {
        for threads in ["1", "2"] {
            assert_eq!(s, check(mode, threads), "{mode} × {threads} diverged");
        }
    }
}

#[test]
fn overlap_detects_possibility() {
    use synchrel_core::{ExecutionBuilder, NonatomicEvent};
    use synchrel_sim::format::TraceFile;

    let dir = tmpdir();
    // Hand-built trace: A on P0 and B on P1 are unsynchronized, so they
    // can be in progress simultaneously.
    let trace = dir.join("conc.json");
    let mut b = ExecutionBuilder::new(2);
    let a1 = b.internal(0);
    let a2 = b.internal(0);
    let b1 = b.internal(1);
    let b2 = b.internal(1);
    let exec = b.build().unwrap();
    TraceFile::capture(
        &exec,
        [
            (
                "A".to_string(),
                NonatomicEvent::new(&exec, [a1, a2]).unwrap(),
            ),
            (
                "B".to_string(),
                NonatomicEvent::new(&exec, [b1, b2]).unwrap(),
            ),
        ],
    )
    .save(&trace)
    .unwrap();
    let o = run(&["overlap", trace.to_str().unwrap(), "A", "B"]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(stdout(&o).contains("simultaneously"), "{}", stdout(&o));

    // Barrier-separated phases can never overlap.
    let trace2 = dir.join("ph2.json");
    gen(&[
        "gen",
        "phases",
        "--processes",
        "3",
        "--phases",
        "2",
        "-o",
        trace2.to_str().unwrap(),
    ]);
    let o = run(&["overlap", trace2.to_str().unwrap(), "phase0", "phase1"]);
    assert_eq!(o.status.code(), Some(1), "{}", stdout(&o));
    assert!(stdout(&o).contains("never"), "{}", stdout(&o));

    // Pipelined items share stage nodes, so they also can never be
    // simultaneously active everywhere.
    let trace3 = dir.join("pipe.json");
    gen(&[
        "gen",
        "pipeline",
        "--stages",
        "3",
        "--items",
        "2",
        "-o",
        trace3.to_str().unwrap(),
    ]);
    let o = run(&["overlap", trace3.to_str().unwrap(), "item0", "item1"]);
    assert_eq!(o.status.code(), Some(1), "{}", stdout(&o));
}

#[test]
fn fuzz_small_sweep_passes() {
    let o = run(&["fuzz", "--seed", "0xC11F", "--cases", "25"]);
    assert!(o.status.success(), "{}", stdout(&o));
    let s = stdout(&o);
    assert!(s.contains("fuzz OK: 25 cases"), "{s}");
    assert!(s.contains("zero mismatches"), "{s}");
}

#[test]
fn fuzz_single_case_replays() {
    // The same case seed, hex or decimal, replays identically.
    let hex = run(&["fuzz", "--case", "0x7F", "--faults", "on"]);
    let dec = run(&["fuzz", "--case", "127", "--faults", "on"]);
    assert!(hex.status.success(), "{}", stdout(&hex));
    assert_eq!(stdout(&hex), stdout(&dec));
    assert!(stdout(&hex).contains("case 0x7f: OK"), "{}", stdout(&hex));
}

#[test]
fn fuzz_rejects_bad_flags() {
    let o = run(&["fuzz", "--faults", "maybe"]);
    assert_eq!(o.status.code(), Some(2));
    let o = run(&["fuzz", "--seed", "banana"]);
    assert_eq!(o.status.code(), Some(2));
}

/// The emitted documents must parse as JSON.
use synchrel_core::obs::json::is_valid as json_is_valid;

#[test]
fn meter_table_matches_golden() {
    let o = run(&["meter", "--seed", "42"]);
    assert!(o.status.success(), "{}", stdout(&o));
    let golden = include_str!("golden/meter_seed42.txt");
    assert_eq!(
        stdout(&o),
        golden,
        "meter table drifted from the golden pin"
    );
}

#[test]
fn meter_is_deterministic_across_thread_counts() {
    let one = run(&["meter", "--seed", "7", "--threads", "1"]);
    let eight = run(&["meter", "--seed", "7", "--threads", "8"]);
    assert!(one.status.success());
    assert_eq!(
        stdout(&one),
        stdout(&eight),
        "meter table depends on thread count"
    );
}

#[test]
fn meter_emits_schema_valid_json() {
    let o = run(&["meter", "--seed", "42", "--format", "json"]);
    assert!(o.status.success(), "{}", stdout(&o));
    let s = stdout(&o);
    assert!(s.starts_with("{\"schema\":\"synchrel/meter/v1\""), "{s}");
    for name in [
        "\"name\":\"R1\"",
        "\"name\":\"R2'\"",
        "\"pairs\":",
        "\"per_pair\":",
    ] {
        assert!(s.contains(name), "{s}");
    }
    assert!(
        json_is_valid(s.trim_end()),
        "meter JSON does not parse: {s}"
    );
    assert_eq!(s.matches("\"sound_violations\":0").count(), 8, "{s}");
    // Round-trip: the same invocation reproduces the document exactly.
    let again = run(&["meter", "--seed", "42", "--format", "json"]);
    assert_eq!(s, stdout(&again));
}

#[test]
fn analyze_metrics_prometheus_and_json() {
    let dir = tmpdir();
    let trace = dir.join("meter_cs.json");
    gen(&[
        "gen",
        "client-server",
        "--clients",
        "2",
        "--requests",
        "2",
        "-o",
        trace.to_str().unwrap(),
    ]);

    let prom = dir.join("metrics.prom");
    let o = run(&[
        "analyze",
        trace.to_str().unwrap(),
        "--mode",
        "exact",
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        text.contains("# TYPE synchrel_relation_comparisons_total counter"),
        "{text}"
    );
    assert!(
        text.contains("synchrel_relation_evals_total{relation=\"R1\"}"),
        "{text}"
    );
    assert!(
        text.contains("synchrel_comparisons_per_pair_bucket{le=\"+Inf\"}"),
        "{text}"
    );
    assert!(text.contains("synchrel_pairs_total"), "{text}");

    let json = dir.join("metrics.json");
    let o = run(&[
        "analyze",
        trace.to_str().unwrap(),
        "--mode",
        "exact",
        "--metrics",
        json.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(
        body.starts_with("{\"schema\":\"synchrel/metrics/v1\""),
        "{body}"
    );
    assert!(json_is_valid(&body), "metrics JSON does not parse: {body}");
    assert!(body.contains("\"metrics\":[{"), "{body}");
}

#[test]
fn check_trace_writes_span_jsonl() {
    let dir = tmpdir();
    let trace = dir.join("span_ph.json");
    gen(&[
        "gen",
        "phases",
        "--processes",
        "3",
        "--phases",
        "2",
        "-o",
        trace.to_str().unwrap(),
    ]);
    let spec = dir.join("span_spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"ok","requirements":[
            {"name":"order","condition":
              {"kind":"rel","rel":"R1","x":"phase0","y":"phase1"}}]}"#,
    )
    .unwrap();
    let spans = dir.join("spans.jsonl");
    let o = run(&[
        "check",
        trace.to_str().unwrap(),
        spec.to_str().unwrap(),
        "--trace",
        spans.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    let body = std::fs::read_to_string(&spans).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "{body}");
    for line in &lines {
        assert!(
            line.starts_with("{\"schema\":\"synchrel/span/v1\",\"stage\":\""),
            "{line}"
        );
        assert!(json_is_valid(line), "span line does not parse: {line}");
        assert!(line.contains("\"fields\":{"), "{line}");
    }
    assert!(lines[0].contains("\"stage\":\"cli.load\""), "{body}");
    assert!(lines[1].contains("\"stage\":\"checker.check\""), "{body}");
    assert!(lines[1].contains("\"all_hold\":true"), "{body}");
}

#[test]
fn meter_rejects_bad_format() {
    let o = run(&["meter", "--format", "yaml"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn unknown_command_errors() {
    let o = run(&["frobnicate"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn gen_to_stdout() {
    let o = run(&["gen", "broadcast", "--processes", "3", "--rounds", "1"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("\"steps\""), "{}", stdout(&o));
}

#[test]
fn serve_crash_resume_reaches_same_verdicts() {
    let dir = tmpdir().join("serve_state");
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.to_str().unwrap();

    // Crash-free reference run in a sibling dir.
    let refdir = tmpdir().join("serve_ref");
    let _ = std::fs::remove_dir_all(&refdir);
    let o = run(&["serve", refdir.to_str().unwrap(), "--seed", "0x51"]);
    assert!(o.status.success(), "{}", stdout(&o));
    let reference = stdout(&o);

    // Same workload, killed mid-stream.
    let o = run(&[
        "serve",
        state,
        "--seed",
        "0x51",
        "--snapshot-every",
        "4",
        "--crash-after",
        "20",
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(
        stdout(&o).contains("server crashed (planned)"),
        "{}",
        stdout(&o)
    );
    assert!(dir.join("wal.log").exists());
    assert!(dir.join("snapshot.bin").exists());

    // Recovery alone leaves the view degraded (the suffix never arrived).
    let o = run(&["replay", state]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(
        stdout(&o).contains("recovery: recovered=true"),
        "{}",
        stdout(&o)
    );

    // Resuming the same workload dedupes the prefix and converges.
    let o = run(&["serve", state, "--seed", "0x51", "--snapshot-every", "4"]);
    assert!(o.status.success(), "{}", stdout(&o));
    let resumed = stdout(&o);
    let verdicts = |s: &str| -> Vec<String> {
        s.lines()
            .skip_while(|l| !l.starts_with("watch verdicts:"))
            .take_while(|l| !l.starts_with("monitor:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(verdicts(&reference), verdicts(&resumed));
    assert!(!verdicts(&resumed).is_empty());
    assert!(resumed.contains("degraded=false"), "{resumed}");
}

#[test]
fn chaos_sweep_and_case_replay_pass() {
    let o = run(&["chaos", "--cases", "5"]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(stdout(&o).contains("zero divergences"), "{}", stdout(&o));

    let o = run(&["chaos", "--case", "0x51"]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(stdout(&o).contains("OK"), "{}", stdout(&o));
}
