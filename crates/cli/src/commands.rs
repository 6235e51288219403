//! Subcommand implementations.

use std::error::Error;
use std::process::ExitCode;

use synchrel_core::{
    pair_slot, strongest, CompareCounter, Detector, Diagram, EvalMode, Evaluator, Execution,
    MeterSnapshot, NonatomicEvent, Proxy, ProxyRelation, Relation,
};
use synchrel_monitor::differential::{run_case, run_seeds, shrink, DiffCase, Mismatch};
use synchrel_monitor::predicate::{possibly_overlap, LocalInterval};
use synchrel_monitor::{Checker, Spec};
use synchrel_obs::{MetricsRegistry, SpanLog};
use synchrel_serve::{
    case_commands, duplex, run_chaos_case, run_chaos_case_with, run_chaos_seeds,
    run_chaos_seeds_with, run_failover_case, run_failover_seeds, run_follower, run_nemesis_case,
    run_nemesis_failover_case, run_nemesis_failover_seeds, run_nemesis_seeds, run_shard_chaos_case,
    run_shard_chaos_seeds, Backend, ChaosMismatch, Client, Command as ServeCommand, CrashPlan,
    CrashPoint, DirStorage, Follower, ListenAddr, NemesisFactory, OverloadPolicy,
    Response as ServeResponse, Server, ServerConfig, Service, ServiceConfig, Storage,
};
use synchrel_sim::format::TraceFile;
use synchrel_sim::workload;
use synchrel_sim::TraceStats;

use crate::args::{ArgError, Args};

type AnyError = Box<dyn Error>;

const USAGE: &str = "\
usage: synchrel <command> [args]

commands:
  gen <random|ring|client-server|broadcast|pipeline|phases> [--processes N]
      [--events N] [--rounds N] [--clients N] [--requests N] [--stages N]
      [--items N] [--phases N] [--prob P] [--seed S] [--intervals K]
      [--nodes N] -o trace.json
                         generate a workload trace with named events
  stats <trace.json>     print trace statistics
  render <trace.json>    ASCII space-time diagram
  query <trace.json> <X> <Y> [REL]
                         evaluate one or all Table-1 relations
  analyze <trace.json> [--threads N] [--mode batched|fused|exact|incremental]
      [--tile W] [--metrics metrics.prom|metrics.json]
                         strongest relation for every event pair
                         (batched by default: block sweeps over the
                         shared SoA summary arena; fused evaluates pair
                         by pair; exact mode reports the per-relation
                         Theorem-20 comparison counts;
                         incremental replays the event stream through
                         the stateful O(delta) detector; --tile sets
                         the cache-block width of tiled sweeps,
                         default 64 — results are identical for every
                         width; --metrics writes Prometheus text or
                         JSON by file extension)
  check <trace.json> <spec.json> [--threads N]
      [--mode exact|fused|batched|incremental]
      [--trace spans.jsonl]
                         check a synchronization spec (exit 1 on
                         violation); --trace writes stage spans as JSONL
  meter [--seed S] [--processes N] [--events N] [--intervals K]
      [--nodes N] [--threads N] [--format table|json] [-o path]
                         generate a seeded workload and print the exact
                         per-relation comparison counts next to their
                         Theorem-20 budgets (paper Table 2); exit 1 if
                         any evaluation exceeded its sound bound
  overlap <trace.json> <A> <B> [C...]
                         could the named events all be in progress
                         simultaneously? (exit 1 if impossible)
  fuzz [--seed S] [--cases N] [--faults auto|on|off] [--case C]
                         differential fuzzing: random fault-injected
                         executions checked across every evaluator;
                         on mismatch, shrinks and prints the minimal
                         failing scenario with its repro seed (exit 1).
                         --case replays one exact case seed
  serve <dir> [--seed S] [--queue N] [--policy backpressure|shed]
      [--snapshot-every N] [--max-pending N] [--crash-after N]
      [--metrics metrics.prom|metrics.json]
                         run a seeded monitored workload through the
                         crash-recoverable service, persisting WAL +
                         snapshots under <dir>; --crash-after kills the
                         server after the Nth durable record, leaving
                         state on disk for `replay`
  serve <dir> --listen <tcp:HOST:PORT|uds:/path> [--processes N]
      [--repl-queue N] [--duration SECS]
                         serve real clients over TCP or a Unix socket
                         (group-committed WAL under <dir>, replication
                         enabled: a follower that dials in receives the
                         WAL stream); stops after --duration seconds,
                         or on stdin EOF when 0 (the default).
                         Promotion is just recovery: after a primary
                         dies, `serve <follower-dir> --listen ...`
                         brings the follower up as the new primary
  follow <dir> --primary <tcp:HOST:PORT|uds:/path> [--processes N]
                         replicate a live primary into <dir>: persist
                         every WAL record before applying it, ack by
                         LSN; returns when the primary dies, leaving
                         <dir> ready to promote
  replay <dir> [--metrics metrics.prom|metrics.json]
                         recover a server from <dir> (snapshot + WAL
                         replay, torn tails truncated) and print the
                         recovery report with all watch verdicts
  chaos [--seed S] [--cases N] [--case C] [--shards K] [--nemesis-seed NS]
                         seeded kill/restart sweep: each case drives
                         the same command stream through a crash-free
                         and a crash-riddled server; any verdict or
                         counter divergence fails with a repro seed
                         (exit 1). --case replays one exact case seed.
                         --shards K runs the sweep against a K-shard
                         ShardedServer instead: a seed-chosen shard
                         crashes each time, all shards recover from
                         their own WAL segments, and verdicts must
                         match the unsharded server byte for byte.
                         --nemesis-seed additionally runs the whole
                         sweep over a NemesisTransport-wrapped wire
                         (drops, delays, duplicates, partial writes,
                         resets, partitions)
  failover [--seed S] [--cases N] [--case C] [--nemesis-seed NS]
                         seeded kill-the-primary sweep: replicate each
                         case to a follower, kill the primary at a
                         seed-chosen LSN, promote, resume the client,
                         and demand verdicts identical to an
                         uninterrupted run (exit 1 on divergence).
                         --case replays one exact case seed.
                         --nemesis-seed runs the kill under an active
                         network nemesis, with a seeded-jitter lease
                         clock — not the harness — detecting the death
  nemesis [--seed S] [--cases N] [--case C]
                         seeded network-nemesis sweep: each case seed
                         draws a scenario — wire faults under the chaos
                         workload, a sharded run with one shard cut and
                         healed (verdicts may only degrade to Unknown,
                         never flip), or a kill-the-primary with
                         lease-driven self-promotion — and must
                         reconverge byte-identically to its fault-free
                         reference (exit 1 on divergence). --case
                         replays one exact case seed
  relations              list the eight relations and their conditions
";

/// Dispatch a full argument vector.
pub fn dispatch(argv: &[String]) -> Result<ExitCode, AnyError> {
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let rest = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "gen" => gen(&rest),
        "stats" => stats(&rest),
        "render" => render(&rest),
        "query" => query(&rest),
        "analyze" => analyze(&rest),
        "check" => check(&rest),
        "meter" => meter(&rest),
        "overlap" => overlap(&rest),
        "fuzz" => fuzz(&rest),
        "serve" => serve(&rest),
        "follow" => follow(&rest),
        "replay" => replay(&rest),
        "chaos" => chaos(&rest),
        "failover" => failover(&rest),
        "nemesis" => nemesis(&rest),
        "relations" => {
            relations_table();
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(Box::new(ArgError::Unknown(format!("command '{other}'")))),
    }
}

fn load(path: &str) -> Result<(Execution, Vec<(String, NonatomicEvent)>), AnyError> {
    Ok(TraceFile::load(path)?.restore()?)
}

fn gen(a: &Args) -> Result<ExitCode, AnyError> {
    let kind = a.pos(0, "workload kind")?;
    let processes: usize = a.num("processes", 6)?;
    let seed: u64 = a.num("seed", 42)?;
    let w = match kind {
        "random" => workload::random_with_events(
            &workload::RandomConfig {
                processes,
                events_per_process: a.num("events", 30)?,
                message_prob: a.num("prob", 0.3)?,
                seed,
            },
            a.num("intervals", 8)?,
            a.num("nodes", (processes / 2).max(1))?,
            3,
        ),
        "ring" => workload::ring(processes, a.num("rounds", 4)?),
        "client-server" => workload::client_server(a.num("clients", 4)?, a.num("requests", 4)?),
        "broadcast" => workload::broadcast(processes, a.num("rounds", 4)?),
        "pipeline" => workload::pipeline(a.num("stages", 4)?, a.num("items", 6)?),
        "phases" => workload::phases(processes, a.num("phases", 4)?, a.num("events", 3)?),
        other => return Err(Box::new(ArgError::Unknown(format!("workload '{other}'")))),
    };
    let tf = TraceFile::capture(
        &w.exec,
        w.labels.iter().cloned().zip(w.events.iter().cloned()),
    );
    match a.opt("out") {
        Some(path) => {
            tf.save(path)?;
            eprintln!(
                "wrote {} ({} events, {} named intervals) to {path}",
                w.name,
                w.exec.total_app_len(),
                w.events.len()
            );
        }
        None => println!("{}", tf.to_json()?),
    }
    Ok(ExitCode::SUCCESS)
}

fn stats(a: &Args) -> Result<ExitCode, AnyError> {
    let (exec, intervals) = load(a.pos(0, "trace file")?)?;
    let st = if exec.total_app_len() <= 2000 {
        TraceStats::compute_with_concurrency(&exec)
    } else {
        TraceStats::compute(&exec)
    };
    println!("{st}");
    println!("named events: {}", intervals.len());
    for (name, ev) in &intervals {
        println!(
            "  {:<16} |N| = {:<3} events = {:<4} nodes = {:?}",
            name,
            ev.node_count(),
            ev.len(),
            ev.node_set()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn render(a: &Args) -> Result<ExitCode, AnyError> {
    let (exec, intervals) = load(a.pos(0, "trace file")?)?;
    let mut d = Diagram::new(&exec);
    for (name, ev) in &intervals {
        let short: String = name.chars().take(3).collect();
        d.label_event(ev, &short);
    }
    print!("{}", d.render());
    Ok(ExitCode::SUCCESS)
}

fn find<'a>(
    intervals: &'a [(String, NonatomicEvent)],
    name: &str,
) -> Result<&'a NonatomicEvent, AnyError> {
    intervals
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, e)| e)
        .ok_or_else(|| Box::new(ArgError::Unknown(format!("event '{name}'"))) as AnyError)
}

fn parse_relation(s: &str) -> Result<Relation, AnyError> {
    Relation::ALL
        .into_iter()
        .find(|r| r.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| Box::new(ArgError::Unknown(format!("relation '{s}'"))) as AnyError)
}

fn query(a: &Args) -> Result<ExitCode, AnyError> {
    let (exec, intervals) = load(a.pos(0, "trace file")?)?;
    let x = find(&intervals, a.pos(1, "event X")?)?;
    let y = find(&intervals, a.pos(2, "event Y")?)?;
    if x.overlaps(y) {
        eprintln!("warning: X and Y share atomic events; relations assume disjoint operands");
    }
    let ev = Evaluator::new(&exec);
    let sx = ev.summarize(x);
    let sy = ev.summarize(y);
    match a.pos_opt(3) {
        Some(rel_name) => {
            let rel = parse_relation(rel_name)?;
            let c = ev.eval_counted(rel, &sx, &sy);
            println!(
                "{} ({}): {} [{} comparisons]",
                rel.name(),
                rel.quantifier_expr(),
                c.holds,
                c.comparisons
            );
            Ok(if c.holds {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        None => {
            println!("relation  holds  comparisons");
            let mut held = Vec::new();
            for rel in Relation::ALL {
                let c = ev.eval_counted(rel, &sx, &sy);
                println!("{:<9} {:<6} {}", rel.name(), c.holds, c.comparisons);
                if c.holds {
                    held.push(rel);
                }
            }
            let s = strongest(&held);
            println!(
                "strongest: {}",
                if s.is_empty() {
                    "(none hold)".to_string()
                } else {
                    s.iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
                }
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn analyze(a: &Args) -> Result<ExitCode, AnyError> {
    let (exec, intervals) = load(a.pos(0, "trace file")?)?;
    let names: Vec<String> = intervals.iter().map(|(n, _)| n.clone()).collect();
    let events: Vec<NonatomicEvent> = intervals.into_iter().map(|(_, e)| e).collect();
    let threads: usize = a.num("threads", 4)?;
    let mode = parse_mode(a.opt("mode").unwrap_or("batched"))?;
    let tile: usize = a.num("tile", synchrel_core::DEFAULT_TILE)?;
    let d = Detector::new(&exec, events).with_mode(mode).with_tile(tile);
    let counter = CompareCounter::new();
    let reports = if a.opt("metrics").is_some() {
        d.all_pairs_parallel_with(threads, &counter)
    } else {
        d.all_pairs_parallel(threads)
    };
    let width = names.iter().map(|n| n.len()).max().unwrap_or(4).max(6) + 2;
    print!("{:>width$}", "");
    for n in &names {
        print!("{n:>width$}");
    }
    println!();
    for (i, n) in names.iter().enumerate() {
        print!("{n:>width$}");
        for j in 0..names.len() {
            if i == j {
                print!("{:>width$}", "—");
                continue;
            }
            let rep = &reports[pair_slot(names.len(), i, j)];
            let held: Vec<Relation> = Relation::ALL
                .into_iter()
                .filter(|&rel| {
                    let (xp, yp) = canonical_proxies(rel);
                    rep.relations.contains(ProxyRelation::new(rel, xp, yp))
                })
                .collect();
            let s = strongest(&held);
            let cell = if s.is_empty() {
                "·".to_string()
            } else {
                s.iter().map(|r| r.name()).collect::<Vec<_>>().join(",")
            };
            print!("{cell:>width$}");
        }
        println!();
    }
    let cmp: u64 = reports.iter().map(|r| r.comparisons).sum();
    println!(
        "\n{} pairs × 32 relations, {} comparisons",
        reports.len(),
        cmp
    );
    if let Some(path) = a.opt("metrics") {
        let mut reg = MetricsRegistry::new();
        counter.snapshot(Relation::NAMES).register(&mut reg);
        write_metrics(path, &reg)?;
        eprintln!("wrote {} metric samples to {path}", reg.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// Parse an `--mode` value shared by `analyze` and `check`.
fn parse_mode(s: &str) -> Result<EvalMode, AnyError> {
    match s {
        "fused" => Ok(EvalMode::Fused),
        "exact" => Ok(EvalMode::Counted),
        "batched" => Ok(EvalMode::Batched),
        "incremental" => Ok(EvalMode::Incremental),
        other => Err(Box::new(ArgError::Unknown(format!("mode '{other}'")))),
    }
}

/// Write a registry as JSON (`.json` extension) or Prometheus text
/// (anything else).
fn write_metrics(path: &str, reg: &MetricsRegistry) -> Result<(), AnyError> {
    let body = if path.ends_with(".json") {
        reg.to_json()
    } else {
        reg.render_prometheus()
    };
    std::fs::write(path, body)?;
    Ok(())
}

/// The Definition-2 proxy pair under which the proxy relation equals
/// the base relation on `(X, Y)`.
fn canonical_proxies(rel: Relation) -> (Proxy, Proxy) {
    match rel {
        Relation::R1 | Relation::R1p => (Proxy::U, Proxy::L),
        Relation::R2 | Relation::R2p => (Proxy::U, Proxy::U),
        Relation::R3 | Relation::R3p => (Proxy::L, Proxy::L),
        Relation::R4 | Relation::R4p => (Proxy::L, Proxy::U),
    }
}

fn check(a: &Args) -> Result<ExitCode, AnyError> {
    let spans = SpanLog::new();
    let (exec, intervals) = {
        let mut s = spans.span("cli.load");
        let (exec, intervals) = load(a.pos(0, "trace file")?)?;
        s.field("events", exec.total_app_len());
        s.field("intervals", intervals.len());
        (exec, intervals)
    };
    let spec_text = std::fs::read_to_string(a.pos(1, "spec file")?)?;
    let spec = Spec::from_json(&spec_text)?;
    let threads: usize = a.num("threads", 1)?;
    let mode = parse_mode(a.opt("mode").unwrap_or("exact"))?;
    let checker = Checker::new(&exec, intervals).with_mode(mode);
    let report = {
        let mut s = spans.span("checker.check");
        s.field("requirements", spec.requirements.len());
        s.field("threads", threads);
        let report = if threads > 1 {
            checker.check_parallel(&spec, threads)
        } else {
            checker.check(&spec)
        };
        s.field("all_hold", report.all_hold());
        report
    };
    print!("{report}");
    if let Some(path) = a.opt("trace") {
        std::fs::write(path, spans.to_jsonl())?;
        eprintln!("wrote {} spans to {path}", spans.len());
    }
    Ok(if report.all_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Render a [`MeterSnapshot`] as the per-relation comparison-count
/// table of the paper's Table 2: measured comparisons next to the
/// sound and paper-claimed Theorem-20 budgets.
fn meter_table(s: &MeterSnapshot) -> String {
    let mut out = String::new();
    out.push_str("relation  evals  comparisons  sound-budget  claimed-budget  max/eval  status\n");
    for t in &s.relations {
        let status = if t.sound_violations > 0 {
            "VIOLATED"
        } else if t.claimed_excess > 0 {
            "over-claimed" // paper's R2'/R3 bound is below the sound scan
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{:<9} {:>6} {:>12} {:>13} {:>15} {:>9}  {status}\n",
            t.name, t.evals, t.comparisons, t.sound_budget, t.claimed_budget, t.max_comparisons
        ));
    }
    out.push_str(&format!(
        "\n{} pairs, {} comparisons total ({:.1} per pair)\n",
        s.pairs,
        s.pair_comparisons,
        if s.pairs == 0 {
            0.0
        } else {
            s.pair_comparisons as f64 / s.pairs as f64
        }
    ));
    out
}

fn meter(a: &Args) -> Result<ExitCode, AnyError> {
    let seed: u64 = match a.opt("seed") {
        Some(v) => parse_seed("seed", v)?,
        None => 42,
    };
    let processes: usize = a.num("processes", 6)?;
    // The hash-driven generator keeps the trace — and therefore the
    // comparison table — byte-identical across toolchains, so the
    // output can be pinned by a golden file.
    let w = workload::seeded(
        seed,
        processes,
        a.num("events", 30)?,
        a.num("intervals", 8)?,
        a.num("nodes", (processes / 2).max(1))?,
        3,
    );
    let threads: usize = a.num("threads", 4)?;
    // Per-relation attribution needs the unfused (Counted) evaluator:
    // the fused kernel shares scans across relations.
    let d = Detector::new(&w.exec, w.events.clone()).with_mode(EvalMode::Counted);
    let counter = CompareCounter::new();
    let reports = d.all_pairs_parallel_with(threads, &counter);
    let snap = counter.snapshot(Relation::NAMES);
    let body = match a.opt("format").unwrap_or("table") {
        "table" => {
            let mut b = format!(
                "workload {} (seed {seed:#x}): {} events, {} intervals, {} pairs\n\n",
                w.name,
                w.exec.total_app_len(),
                w.events.len(),
                reports.len()
            );
            b.push_str(&meter_table(&snap));
            b
        }
        "json" => {
            let mut j = snap.to_json();
            j.push('\n');
            j
        }
        other => return Err(Box::new(ArgError::Unknown(format!("format '{other}'")))),
    };
    match a.opt("out") {
        Some(path) => {
            std::fs::write(path, &body)?;
            eprintln!("wrote meter report to {path}");
        }
        None => print!("{body}"),
    }
    let violations: u64 = snap.relations.iter().map(|t| t.sound_violations).sum();
    if violations > 0 {
        eprintln!("{violations} evaluation(s) exceeded their sound Theorem-20 bound");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn overlap(a: &Args) -> Result<ExitCode, AnyError> {
    let (exec, intervals) = load(a.pos(0, "trace file")?)?;
    let mut names = Vec::new();
    let mut locals: Vec<LocalInterval> = Vec::new();
    let mut k = 1;
    while let Some(name) = a.pos_opt(k) {
        let ev = find(&intervals, name)?;
        for &i in ev.node_set() {
            let first = ev.earliest_at(i).expect("node in N");
            let last = ev.latest_at(i).expect("node in N");
            locals.push(LocalInterval::new(first, last).expect("same process, ordered"));
        }
        names.push(name.to_string());
        k += 1;
    }
    if names.len() < 2 {
        return Err(Box::new(ArgError::MissingPositional(
            "two or more event names",
        )));
    }
    let rep = possibly_overlap(&exec, &locals);
    if rep.possible {
        println!(
            "events {names:?} could all be in progress simultaneously; \
             witness global state: {}",
            rep.witness.expect("possible implies witness")
        );
        Ok(ExitCode::SUCCESS)
    } else {
        let (j, i) = rep.blocking.expect("impossible implies blocking pair");
        println!(
            "events {names:?} can never all be in progress at once \
             (interval {j} starts causally after interval {i} ends)"
        );
        Ok(ExitCode::from(1))
    }
}

/// Parse a seed in decimal or `0x`-prefixed hex.
fn parse_seed(key: &str, v: &str) -> Result<u64, AnyError> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| Box::new(ArgError::BadValue(key.to_string(), v.to_string())) as AnyError)
}

/// Print a shrunk mismatch as a fully reproducible scenario.
fn report_mismatch(m: &Mismatch, force_faults: Option<bool>) {
    let case = DiffCase::configure(m.seed, force_faults);
    println!("differential MISMATCH (after shrinking):");
    println!("  seed:      {:#x}", m.seed);
    println!(
        "  scenario:  {} processes x {} steps, {} interval labels",
        case.processes, case.steps, case.labels
    );
    match &case.faults {
        Some(plan) => println!("  faults:    {plan:?}"),
        None => println!("  faults:    none (quiet run, timeout resolution only)"),
    }
    println!("  detail:    {}", m.detail);
    let faults_flag = match force_faults {
        Some(true) => " --faults on",
        Some(false) => " --faults off",
        None => "",
    };
    println!("reproduce: synchrel fuzz --case {:#x}{faults_flag}", m.seed);
}

fn fuzz(a: &Args) -> Result<ExitCode, AnyError> {
    let force_faults = match a.opt("faults").unwrap_or("auto") {
        "auto" => None,
        "on" => Some(true),
        "off" => Some(false),
        other => {
            return Err(Box::new(ArgError::Unknown(format!(
                "faults mode '{other}'"
            ))))
        }
    };
    if let Some(v) = a.opt("case") {
        // Replay (and re-shrink) one exact case seed.
        let seed = parse_seed("case", v)?;
        return Ok(match run_case(&DiffCase::configure(seed, force_faults)) {
            Ok(o) => {
                println!(
                    "case {seed:#x}: OK ({} pairs checked{})",
                    o.pairs,
                    if o.skipped {
                        ", skipped: <2 intervals"
                    } else {
                        ""
                    }
                );
                ExitCode::SUCCESS
            }
            Err(m) => {
                report_mismatch(&shrink(m, force_faults), force_faults);
                ExitCode::from(1)
            }
        });
    }
    let seed = match a.opt("seed") {
        Some(v) => parse_seed("seed", v)?,
        None => 0xD1FF_0001,
    };
    let cases: u64 = a.num("cases", 1000)?;
    match run_seeds(seed, cases, force_faults) {
        Ok(stats) => {
            println!(
                "fuzz OK: {} cases ({} skipped), {} interval pairs cross-checked \
                 against the oracle, zero mismatches [base seed {seed:#x}]",
                stats.cases, stats.skipped, stats.pairs
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(m) => {
            // run_seeds already shrank the failure.
            report_mismatch(&m, force_faults);
            Ok(ExitCode::from(1))
        }
    }
}

fn parse_policy(s: &str) -> Result<OverloadPolicy, AnyError> {
    match s {
        "backpressure" => Ok(OverloadPolicy::Backpressure),
        "shed" => Ok(OverloadPolicy::Shed),
        other => Err(Box::new(ArgError::Unknown(format!("policy '{other}'")))),
    }
}

fn serve_config(a: &Args, processes: usize) -> Result<ServerConfig, AnyError> {
    Ok(ServerConfig {
        processes,
        queue_capacity: a.num("queue", 1024)?,
        overload: parse_policy(a.opt("policy").unwrap_or("backpressure"))?,
        snapshot_every: a.num("snapshot-every", 16)?,
        max_pending: a.num("max-pending", 0)?,
        pruning: false,
    })
}

/// Print one probe answer from the service.
fn print_probe(resp: &ServeResponse) {
    match resp {
        ServeResponse::Verdicts(list) => {
            println!("watch verdicts:");
            for (name, v) in list {
                println!("  {name:<24} {v:?}");
            }
        }
        ServeResponse::Stats(s) => {
            println!(
                "monitor: {} applied, {} buffered, {} duplicates, {} lost, degraded={}",
                s.applied, s.buffered, s.duplicates, s.lost, s.degraded
            );
        }
        ServeResponse::Verdict(v) => println!("query verdict: {v:?}"),
        other => println!("{other:?}"),
    }
}

fn write_serve_metrics(path: &str, server: &Server<DirStorage>) -> Result<(), AnyError> {
    let mut reg = MetricsRegistry::new();
    server.export_metrics(&mut reg);
    write_metrics(path, &reg)?;
    eprintln!("wrote {} metric samples to {path}", reg.len());
    Ok(())
}

fn serve(a: &Args) -> Result<ExitCode, AnyError> {
    let dir = a.pos(0, "state directory")?;
    if a.opt("listen").is_some() {
        return serve_listen(a, dir);
    }
    let seed = match a.opt("seed") {
        Some(v) => parse_seed("seed", v)?,
        None => 0x5E17_E001,
    };
    let cc = case_commands(seed)
        .map_err(|m| format!("workload generation failed: {m}"))?
        .ok_or_else(|| {
            format!("seed {seed:#x} generates a degenerate workload (fewer than two intervals); pick another seed")
        })?;
    let cfg = serve_config(a, cc.processes)?;
    let storage = DirStorage::open(dir)?;
    let (wire, server_end) = duplex();
    let mut server = Server::recover(storage, cfg)?;
    if server.stats().recovered {
        eprintln!(
            "recovered prior state from {dir}: {} WAL records replayed, {} torn tails truncated",
            server.stats().replayed,
            server.stats().torn_truncations
        );
    }
    if let Some(v) = a.opt("crash-after") {
        let nth: u64 = v
            .parse()
            .map_err(|_| ArgError::BadValue("crash-after".into(), v.to_string()))?;
        server.arm_crash(CrashPlan {
            nth_logged: nth,
            point: CrashPoint::AfterAppend,
        });
    }

    let mut client = Client::resuming(wire, seed, server.next_req());
    for cmd in cc.cmds.iter().chain(&cc.probes) {
        let call = client.call(cmd, || {
            if !server.is_crashed() {
                server.pump(&mut server_end.clone(), 0);
            }
        });
        match call {
            Ok(ServeResponse::Error(e)) => {
                return Err(format!("server refused a command: {e}").into())
            }
            Ok(resp) if cc.probes.contains(cmd) => print_probe(&resp),
            Ok(_) => {}
            Err(_) if server.is_crashed() => {
                println!(
                    "server crashed (planned) after {} durable records; state kept in {dir}",
                    server.stats().wal_appends
                );
                println!("bring it back with: synchrel replay {dir}");
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => return Err(Box::new(e)),
        }
    }
    let st = server.stats();
    println!(
        "service: {} WAL appends, {} snapshots, {} busy, {} shed, queue high-water {}",
        st.wal_appends, st.snapshots, st.busy, st.shed, st.queue_high_water
    );
    if let Some(path) = a.opt("metrics") {
        write_serve_metrics(path, &server)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `serve <dir> --listen <addr>`: the real socket service.
fn serve_listen(a: &Args, dir: &str) -> Result<ExitCode, AnyError> {
    let spec = a.opt("listen").expect("checked by caller");
    let addr = ListenAddr::parse(spec).map_err(|e| format!("--listen: {e}"))?;
    let cfg = serve_config(a, a.num("processes", 2)?)?;
    let storage = DirStorage::open(dir)?;
    let mut server = Server::recover(storage, cfg)?;
    if server.stats().recovered {
        eprintln!(
            "recovered prior state from {dir}: {} WAL records replayed, {} torn tails truncated",
            server.stats().replayed,
            server.stats().torn_truncations
        );
    }
    server.enable_replication(a.num("repl-queue", 1024)?);
    let svc = Service::start(&addr, server, ServiceConfig::default())?;
    println!("listening on {}", svc.local_addr());

    let duration: u64 = a.num("duration", 0)?;
    if duration > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration));
    } else {
        eprintln!("serving until stdin closes (press Ctrl-D to stop)");
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    }

    let (connections, frames) = (svc.connections(), svc.frames());
    let server = svc.stop();
    let st = server.stats();
    println!(
        "service: {connections} connections, {frames} frames, {} WAL appends, \
         {} fsyncs, {} snapshots, {} busy, {} shed, replication lag {}",
        st.wal_appends,
        server.storage().syncs(),
        st.snapshots,
        st.busy,
        st.shed,
        server.repl_lag()
    );
    if let Some(path) = a.opt("metrics") {
        write_serve_metrics(path, &server)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `follow <dir> --primary <addr>`: replicate until the primary dies.
fn follow(a: &Args) -> Result<ExitCode, AnyError> {
    let dir = a.pos(0, "state directory")?;
    let spec = a
        .opt("primary")
        .ok_or(ArgError::MissingPositional("--primary address"))?;
    let addr = ListenAddr::parse(spec).map_err(|e| format!("--primary: {e}"))?;
    let cfg = serve_config(a, a.num("processes", 2)?)?;
    let follower = Follower::open(DirStorage::open(dir)?, cfg)?;
    println!(
        "following {addr}, durable through LSN {}",
        follower.durable_lsn()
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    let follower = run_follower(follower, &addr, &stop)?;
    let st = *follower.stats();
    println!(
        "primary gone: durable through LSN {} ({} records, {} snapshots, \
         {} duplicates, {} gaps)",
        follower.durable_lsn(),
        st.records,
        st.snapshots,
        st.duplicates,
        st.gaps
    );
    println!("promote with: synchrel serve {dir} --listen <addr>");
    Ok(ExitCode::SUCCESS)
}

fn replay(a: &Args) -> Result<ExitCode, AnyError> {
    let dir = a.pos(0, "state directory")?;
    let storage = DirStorage::open(dir)?;
    let (wire, server_end) = duplex();
    let cfg = serve_config(a, a.num("processes", 2)?)?;
    let mut server = Server::recover(storage, cfg)?;
    let st = server.stats().clone();
    println!(
        "recovery: recovered={} replayed={} torn_truncations={} ({} µs)",
        st.recovered, st.replayed, st.torn_truncations, st.recovery_micros
    );

    let mut client = Client::resuming(wire, 0, server.next_req());
    for cmd in [
        ServeCommand::Poll,
        ServeCommand::Verdicts,
        ServeCommand::Stats,
    ] {
        let resp = client.call(&cmd, || {
            server.pump(&mut server_end.clone(), 0);
        })?;
        if !matches!(cmd, ServeCommand::Poll) {
            print_probe(&resp);
        }
    }
    if let Some(path) = a.opt("metrics") {
        write_serve_metrics(path, &server)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn chaos(a: &Args) -> Result<ExitCode, AnyError> {
    let shards: usize = a.num("shards", 0)?;
    let nemesis_seed = match a.opt("nemesis-seed") {
        Some(v) => Some(parse_seed("nemesis-seed", v)?),
        None => None,
    };
    if shards > 0 && nemesis_seed.is_some() {
        return Err(Box::new(ArgError::Unknown(
            "--nemesis-seed composes with the unsharded sweep; \
             shard partitions live in `synchrel nemesis`"
                .into(),
        )));
    }
    let tier = if shards > 0 {
        format!("{shards}-shard ")
    } else if let Some(ns) = nemesis_seed {
        format!("nemesis({ns:#x}) ")
    } else {
        String::new()
    };
    if let Some(v) = a.opt("case") {
        let seed = parse_seed("case", v)?;
        let run = if shards > 0 {
            run_shard_chaos_case(seed, shards)
        } else if let Some(ns) = nemesis_seed {
            run_chaos_case_with(seed, &mut NemesisFactory::duplex(ns))
        } else {
            run_chaos_case(seed)
        };
        return Ok(match run {
            Ok(o) => {
                println!(
                    "{tier}chaos case {seed:#x}: OK ({} commands, {} crashes, {} recoveries, \
                     {} retries{})",
                    o.commands,
                    o.crashes,
                    o.recoveries,
                    o.retries,
                    if o.skipped {
                        "; degenerate, skipped"
                    } else {
                        ""
                    }
                );
                ExitCode::SUCCESS
            }
            Err(m) => {
                report_chaos_mismatch(&m, shards);
                ExitCode::from(1)
            }
        });
    }
    let seed = match a.opt("seed") {
        Some(v) => parse_seed("seed", v)?,
        None => 0xC4A0_5EED,
    };
    let cases: u64 = a.num("cases", 200)?;
    let run = if shards > 0 {
        run_shard_chaos_seeds(seed, cases, shards)
    } else if let Some(ns) = nemesis_seed {
        run_chaos_seeds_with(seed, cases, &mut NemesisFactory::duplex(ns))
    } else {
        run_chaos_seeds(seed, cases)
    };
    match run {
        Ok(st) => {
            println!(
                "{tier}chaos OK: {} cases ({} skipped), {} crashes fired, {} recoveries, \
                 {} client retries, {} commands driven, zero divergences [base seed {seed:#x}]",
                st.cases, st.skipped, st.crashes, st.recoveries, st.retries, st.commands
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(m) => {
            report_chaos_mismatch(&m, shards);
            Ok(ExitCode::from(1))
        }
    }
}

/// Print a chaos divergence with its repro command.
fn report_chaos_mismatch(m: &ChaosMismatch, shards: usize) {
    println!("chaos DIVERGENCE:");
    println!("  seed:    {:#x}", m.seed);
    println!("  detail:  {}", m.detail);
    let flag = if shards > 0 {
        format!(" --shards {shards}")
    } else {
        String::new()
    };
    println!("reproduce: synchrel chaos --case {:#x}{flag}", m.seed);
}

fn failover(a: &Args) -> Result<ExitCode, AnyError> {
    let nemesis_seed = match a.opt("nemesis-seed") {
        Some(v) => Some(parse_seed("nemesis-seed", v)?),
        None => None,
    };
    if let Some(v) = a.opt("case") {
        let seed = parse_seed("case", v)?;
        if let Some(ns) = nemesis_seed {
            return Ok(match run_nemesis_failover_case(seed, ns) {
                Ok(o) => {
                    println!(
                        "nemesis failover case {seed:#x}: OK ({} commands, kill at LSN {}, \
                         lag {}, lease budget {} detected in {} ticks, promoted in {}us, \
                         resumed in {}us, {} wire faults{})",
                        o.base.commands,
                        o.base.kill_lsn,
                        o.base.lag_at_kill,
                        o.lease_budget,
                        o.detect_ticks,
                        o.promote_micros,
                        o.resume_micros,
                        o.faults.total(),
                        if o.base.skipped {
                            "; degenerate, skipped"
                        } else {
                            ""
                        }
                    );
                    ExitCode::SUCCESS
                }
                Err(m) => {
                    report_failover_mismatch(&m);
                    ExitCode::from(1)
                }
            });
        }
        return Ok(match run_failover_case(seed) {
            Ok(o) => {
                println!(
                    "failover case {seed:#x}: OK ({} commands, kill at LSN {}, lag {}, \
                     resumed from req {}, {} re-issued{})",
                    o.commands,
                    o.kill_lsn,
                    o.lag_at_kill,
                    o.resumed_from,
                    o.replayed_suffix,
                    if o.skipped {
                        "; degenerate, skipped"
                    } else {
                        ""
                    }
                );
                ExitCode::SUCCESS
            }
            Err(m) => {
                report_failover_mismatch(&m);
                ExitCode::from(1)
            }
        });
    }
    let seed = match a.opt("seed") {
        Some(v) => parse_seed("seed", v)?,
        None => 0xFA11_BACC,
    };
    let cases: u64 = a.num("cases", 200)?;
    if let Some(ns) = nemesis_seed {
        return Ok(match run_nemesis_failover_seeds(seed, ns, cases) {
            Ok(st) => {
                println!(
                    "nemesis failover OK: {} cases ({} skipped), {} lease-driven promotions \
                     ({} with real lag, max lag {}), {} detection ticks (max lease budget {}), \
                     {} wire faults injected, {} commands driven, zero divergences \
                     [base seed {seed:#x}, nemesis seed {ns:#x}]",
                    st.base.cases,
                    st.base.skipped,
                    st.base.promotions,
                    st.base.lagged_promotions,
                    st.base.lag_max,
                    st.detect_ticks,
                    st.lease_budget_max,
                    st.faults.total(),
                    st.base.commands,
                );
                ExitCode::SUCCESS
            }
            Err(m) => {
                report_failover_mismatch(&m);
                ExitCode::from(1)
            }
        });
    }
    match run_failover_seeds(seed, cases) {
        Ok(st) => {
            println!(
                "failover OK: {} cases ({} skipped), {} promotions ({} with real lag, \
                 max lag {}), {} commands re-issued, {} commands driven, zero divergences \
                 [base seed {seed:#x}]",
                st.cases,
                st.skipped,
                st.promotions,
                st.lagged_promotions,
                st.lag_max,
                st.replayed_suffix,
                st.commands
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(m) => {
            report_failover_mismatch(&m);
            Ok(ExitCode::from(1))
        }
    }
}

/// Print a failover divergence with its repro command.
fn report_failover_mismatch(m: &synchrel_serve::failover::FailoverMismatch) {
    println!("failover DIVERGENCE:");
    println!("  seed:    {:#x}", m.seed);
    println!("  detail:  {}", m.detail);
    println!("reproduce: synchrel failover --case {:#x}", m.seed);
}

fn nemesis(a: &Args) -> Result<ExitCode, AnyError> {
    if let Some(v) = a.opt("case") {
        let seed = parse_seed("case", v)?;
        return Ok(match run_nemesis_case(seed) {
            Ok(o) => {
                println!(
                    "nemesis case {seed:#x}: OK ({:?}, {} commands, {} wire faults, \
                     {} crashes, {} decayed checks, {} buffered peak, {} stalls, \
                     {} detect ticks / {} lease budget{})",
                    o.scenario,
                    o.commands,
                    o.faults.total(),
                    o.crashes,
                    o.decayed_checks,
                    o.buffered_peak,
                    o.stalled_retries,
                    o.detect_ticks,
                    o.lease_budget,
                    if o.skipped {
                        "; degenerate, skipped"
                    } else {
                        ""
                    }
                );
                ExitCode::SUCCESS
            }
            Err(m) => {
                report_nemesis_mismatch(&m);
                ExitCode::from(1)
            }
        });
    }
    let seed = match a.opt("seed") {
        Some(v) => parse_seed("seed", v)?,
        None => 0x4E0D_5EED,
    };
    let cases: u64 = a.num("cases", 120)?;
    match run_nemesis_seeds(seed, cases) {
        Ok(sweep) => {
            let s = sweep.stats;
            let f = s.faults;
            println!(
                "nemesis OK: {} cases ({} skipped) — {} transport / {} partition / {} \
                 kill-primary — faults: {} dropped, {} duplicated, {} delayed, {} split, \
                 {} resets, {} severed; {} crashes composed; {} checks decayed to Unknown, \
                 {} buffered peak, {} stalls; {} lease-driven promotions in {} ticks \
                 (max budget {}); zero divergences [base seed {seed:#x}]",
                s.cases,
                s.skipped,
                s.transport_cases,
                s.partition_cases,
                s.kill_cases,
                f.dropped,
                f.duplicated,
                f.delayed,
                f.split,
                f.resets,
                f.severed,
                s.crashes,
                s.decayed_checks,
                s.buffered_peak,
                s.stalled_retries,
                s.promotions,
                s.detect_ticks,
                s.lease_budget_max,
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(m) => {
            report_nemesis_mismatch(&m);
            Ok(ExitCode::from(1))
        }
    }
}

/// Print a nemesis divergence with its repro command.
fn report_nemesis_mismatch(m: &synchrel_serve::NemesisMismatch) {
    println!("nemesis DIVERGENCE:");
    println!("  seed:    {:#x}", m.seed);
    println!("  detail:  {}", m.detail);
    println!("reproduce: synchrel nemesis --case {:#x}", m.seed);
}

fn relations_table() {
    println!("relation  expression                 evaluation condition     complexity");
    for rel in Relation::ALL {
        let bound = match rel {
            Relation::R2 | Relation::R3 => "|N_X|",
            Relation::R2p | Relation::R3p => "|N_Y|",
            _ => "min(|N_X|,|N_Y|)",
        };
        println!(
            "{:<9} {:<26} {:<24} {}",
            rel.name(),
            rel.quantifier_expr(),
            rel.evaluation_condition(),
            bound
        );
    }
}
