//! Offline trace analysis — the paper's Problem 4 workflow end to end:
//! record a trace with named high-level actions, persist it to JSON,
//! reload it, and compute the full relation matrix over all pairs.
//!
//! ```text
//! cargo run -p synchrel-bench --example trace_analysis
//! ```

use synchrel_core::{hierarchy, Detector, ProxyRelation, Relation};
use synchrel_sim::format::TraceFile;
use synchrel_sim::workload;
use synchrel_sim::TraceStats;

fn main() {
    // 1. "Record" an execution: a client/server system with transactions.
    let w = workload::client_server(3, 3);
    println!(
        "recorded {} trace: {}",
        w.name,
        TraceStats::compute(&w.exec)
    );

    // 2. Persist it, then reload — the analysis below works purely from
    // the file, as the paper's offline setting assumes.
    let file = TraceFile::capture(
        &w.exec,
        w.labels.iter().cloned().zip(w.events.iter().cloned()),
    );
    let json = file.to_json().expect("serializes");
    println!("trace file: {} bytes of JSON", json.len());
    let (exec, intervals) = TraceFile::from_json(&json)
        .expect("parses")
        .restore()
        .expect("consistent");

    // 3. Problem 4(ii): all relations between all pairs.
    let names: Vec<String> = intervals.iter().map(|(n, _)| n.clone()).collect();
    let events: Vec<_> = intervals.into_iter().map(|(_, e)| e).collect();
    let detector = Detector::new(&exec, events);
    let reports = detector.all_pairs_parallel(4);

    // 4. Print a compact matrix: the strongest base relation (on U/L
    // proxies) per ordered pair.
    println!("\nstrongest relation per ordered pair (rows = X, cols = Y):");
    print!("{:>14}", "");
    for n in &names {
        print!("{n:>14}");
    }
    println!();
    for (i, n) in names.iter().enumerate() {
        print!("{n:>14}");
        for j in 0..names.len() {
            if i == j {
                print!("{:>14}", "—");
                continue;
            }
            let rep = reports
                .iter()
                .find(|r| r.x == i && r.y == j)
                .expect("full matrix");
            let held: Vec<Relation> = Relation::ALL
                .into_iter()
                .filter(|&rel| rep.relations.contains(ProxyRelation::canonical(rel)))
                .collect();
            let strongest = hierarchy::strongest(&held);
            let cell = if strongest.is_empty() {
                "·".to_string()
            } else {
                strongest
                    .iter()
                    .map(|r| r.name())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            print!("{cell:>14}");
        }
        println!();
    }

    let total_cmp: u64 = reports.iter().map(|r| r.comparisons).sum();
    println!(
        "\n{} pairs × 32 relations evaluated with {} integer comparisons",
        reports.len(),
        total_cmp
    );
}
