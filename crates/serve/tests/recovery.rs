//! Recovery, overload, and idempotency tests at the service level.
//!
//! Everything here goes through the public wire protocol — frames in,
//! frames out — against [`SyncMemStorage`] with its fault hooks, so each
//! test is a tiny deterministic crash drill.

use synchrel_core::Relation;
use synchrel_monitor::online::{Verdict, WireEvent};
use synchrel_serve::proto::{decode_frame, decode_response, request_frame, KIND_RESPONSE};
use synchrel_serve::{
    duplex, Backend, Client, ClientError, Command, CrashPlan, CrashPoint, Endpoint, OverloadPolicy,
    Pump, RecoverError, Response, Server, ServerConfig, SyncMemStorage,
};

/// Both ends of one in-process connection: the server no longer owns
/// an endpoint, so tests hold the pair and pump explicitly.
struct Wire {
    client: Endpoint,
    server: Endpoint,
}

impl Wire {
    fn send(&self, bytes: Vec<u8>) {
        self.client.send(bytes);
    }
}

fn duplex_wire() -> Wire {
    let (client, server) = duplex();
    Wire { client, server }
}

/// Send one request frame and pump the server; panic if no response.
fn call(server: &mut Server<SyncMemStorage>, wire: &Wire, req: u64, cmd: &Command) -> Response {
    wire.send(request_frame(req, cmd));
    server.pump(&mut wire.server.clone(), 0);
    take_response(wire, req).expect("server did not respond")
}

fn take_response(wire: &Wire, req: u64) -> Option<Response> {
    while let Some(bytes) = wire.client.recv() {
        let frame = decode_frame(&bytes).ok()?;
        if frame.kind == KIND_RESPONSE && frame.req == req {
            return decode_response(&frame.payload).ok();
        }
    }
    None
}

/// The canonical tiny scenario: a message from p0 to p1, the send
/// labelled `x`, the receive labelled `y` — so `x ≺ y` and `R1(x, y)`
/// settles `Holds` once both intervals close.
fn scenario() -> Vec<Command> {
    vec![
        Command::Watch {
            name: "w".into(),
            rel: Relation::R1,
            x: "x".into(),
            y: "y".into(),
        },
        Command::Ingest {
            process: 0,
            seq: 0,
            event: WireEvent::Send { msg: 0 },
            labels: vec!["x".into()],
        },
        Command::Ingest {
            process: 1,
            seq: 0,
            event: WireEvent::Recv { msg: 0 },
            labels: vec!["y".into()],
        },
        Command::Close { label: "x".into() },
        Command::Close { label: "y".into() },
    ]
}

fn fresh(cfg: ServerConfig) -> (Server<SyncMemStorage>, Wire, SyncMemStorage) {
    let wire = duplex_wire();
    let storage = SyncMemStorage::new();
    let server = Server::recover(storage.clone(), cfg).expect("fresh bring-up");
    (server, wire, storage)
}

#[test]
fn basic_round_trip_settles_the_verdict() {
    let (mut server, wire, _storage) = fresh(ServerConfig::new(2));
    for (req, cmd) in scenario().iter().enumerate() {
        assert_eq!(call(&mut server, &wire, req as u64, cmd), Response::Ack);
    }
    let q = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 5, &q),
        Response::Verdict(Verdict::Holds)
    );
    // Watch + 2 ingests + 2 closes are durable; the query is not.
    assert_eq!(server.stats().wal_appends, 5);
}

#[test]
fn restart_without_snapshot_replays_the_wal() {
    let cfg = ServerConfig::new(2);
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    drop(server);

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    assert!(server.stats().recovered);
    assert_eq!(server.stats().replayed, 5);
    let q = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 5, &q),
        Response::Verdict(Verdict::Holds)
    );
}

#[test]
fn kill_and_recover_at_every_crash_point() {
    // Crash at each lifecycle point of each durable record; the client
    // retries the same ids and the final verdict must always settle.
    for point in [
        CrashPoint::BeforeAppend,
        CrashPoint::TornAppend,
        CrashPoint::AfterAppend,
        CrashPoint::AfterApply,
    ] {
        for nth in 1..=5 {
            let cfg = ServerConfig::new(2);
            let mut wire = duplex_wire();
            let storage = SyncMemStorage::new();
            let mut server = Server::recover(storage.clone(), cfg.clone()).unwrap();
            server.arm_crash(CrashPlan {
                nth_logged: nth,
                point,
            });

            let mut client = Client::new(wire.client.clone(), 0x5EED);
            let mut crashed = 0u32;
            let mut cmds = scenario();
            cmds.push(Command::Query {
                rel: Relation::R1,
                x: "x".into(),
                y: "y".into(),
            });
            let mut last = Response::Ack;
            for cmd in &cmds {
                last = loop {
                    let attempt = client.call_ctl(cmd, || {
                        if server.is_crashed() {
                            return Pump::Abort;
                        }
                        server.pump(&mut wire.server.clone(), 0);
                        if server.is_crashed() {
                            Pump::Abort
                        } else {
                            Pump::Continue
                        }
                    });
                    match attempt {
                        Ok(r) => break r,
                        Err(ClientError::Aborted { .. }) => {
                            // The wire dies with the process.
                            crashed += 1;
                            wire = duplex_wire();
                            client.set_wire(wire.client.clone());
                            server = Server::recover(storage.clone(), cfg.clone())
                                .expect("recovery after planned crash");
                        }
                        Err(e) => panic!("{point:?} nth={nth}: {e}"),
                    }
                };
            }
            assert_eq!(crashed, 1, "{point:?} nth={nth}: crash did not fire");
            assert_eq!(
                last,
                Response::Verdict(Verdict::Holds),
                "{point:?} nth={nth}"
            );
            assert!(
                point != CrashPoint::TornAppend || server.stats().torn_truncations == 1,
                "{point:?} nth={nth}: torn tail was not truncated"
            );
        }
    }
}

#[test]
fn torn_tail_from_storage_hook_is_truncated() {
    let cfg = ServerConfig::new(2);
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    drop(server);
    storage.truncate_wal_tail(3); // final record (Close y) loses its tail

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    assert_eq!(server.stats().torn_truncations, 1);
    assert_eq!(server.stats().replayed, 4);

    // The truncated close is simply not durable; re-issuing it (the
    // client would retry request id 4) completes the run.
    assert_eq!(
        call(&mut server, &wire, 4, &Command::Close { label: "y".into() }),
        Response::Ack
    );
    let q = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 5, &q),
        Response::Verdict(Verdict::Holds)
    );
}

#[test]
fn corrupt_wal_middle_refuses_recovery() {
    let cfg = ServerConfig::new(2);
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    drop(server);
    storage.corrupt_wal_byte(10); // payload byte of the first record

    match Server::recover(storage, cfg) {
        Err(RecoverError::Wal(_)) => {}
        other => panic!("mid-log corruption must refuse recovery, got {other:?}"),
    }
}

#[test]
fn snapshot_only_recovery_replays_nothing() {
    let cfg = ServerConfig::new(2);
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    assert_eq!(
        call(&mut server, &wire, 5, &Command::TakeSnapshot),
        Response::Ack
    );
    assert_eq!(storage.wal_len(), 0, "snapshot must truncate the WAL");
    drop(server);

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    assert!(server.stats().recovered);
    assert_eq!(server.stats().replayed, 0);
    let q = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 6, &q),
        Response::Verdict(Verdict::Holds)
    );
}

#[test]
fn periodic_snapshot_plus_wal_suffix_recovers() {
    let mut cfg = ServerConfig::new(2);
    cfg.snapshot_every = 2;
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    assert!(server.stats().snapshots >= 2);
    drop(server);

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    // Only the records after the last periodic snapshot replay.
    assert_eq!(server.stats().replayed, 1);
    let q = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 5, &q),
        Response::Verdict(Verdict::Holds)
    );
}

#[test]
fn consumed_request_ids_are_idempotent() {
    let (mut server, wire, _storage) = fresh(ServerConfig::new(2));
    let watch = &scenario()[0];
    assert_eq!(call(&mut server, &wire, 0, watch), Response::Ack);
    // Retrying the consumed id replays the response without re-logging.
    assert_eq!(call(&mut server, &wire, 0, watch), Response::Ack);
    assert_eq!(server.stats().wal_appends, 1);
    // Ids may skip ahead (a crashed lifetime answered reads that left
    // no durable trace); the higher id is fresh work.
    assert_eq!(call(&mut server, &wire, 7, watch), Response::Ack);
    assert_eq!(server.stats().wal_appends, 2);
    // ...and everything at or below it is now consumed.
    assert_eq!(call(&mut server, &wire, 3, watch), Response::Ack);
    assert_eq!(server.stats().wal_appends, 2);
}

#[test]
fn backpressure_returns_busy_without_consuming() {
    let mut cfg = ServerConfig::new(1);
    cfg.queue_capacity = 2;
    let (mut server, wire, _storage) = fresh(cfg);
    let ingest = |seq: u64| Command::Ingest {
        process: 0,
        seq,
        event: WireEvent::Internal,
        labels: vec!["x".into()],
    };
    // Three admissions race ahead of the drain: the third sees a full
    // queue and is pushed back, id unconsumed.
    for req in 0..3 {
        wire.send(request_frame(req, &ingest(req)));
    }
    server.pump(&mut wire.server.clone(), 0);
    assert_eq!(take_response(&wire, 0), Some(Response::Ack));
    assert_eq!(take_response(&wire, 1), Some(Response::Ack));
    assert_eq!(take_response(&wire, 2), Some(Response::Busy));
    assert_eq!(server.stats().busy, 1);
    assert_eq!(server.stats().queue_high_water, 2);

    // The drain already ran; the same id retried now succeeds.
    assert_eq!(call(&mut server, &wire, 2, &ingest(2)), Response::Ack);
    assert_eq!(server.stats().wal_appends, 3);
}

#[test]
fn load_shedding_degrades_to_unknown_and_shed_total_is_durable() {
    let mut cfg = ServerConfig::new(1);
    cfg.queue_capacity = 1;
    cfg.overload = OverloadPolicy::Shed;
    let (mut server, wire, storage) = fresh(cfg.clone());

    assert_eq!(call(&mut server, &wire, 0, &scenario()[0]), Response::Ack);
    // Four events on one process: two in `x`, two in `y`. Without loss
    // R1(x, y) would settle (program order). Flood them in one burst so
    // the 1-slot queue sheds three.
    let labels = ["x", "x", "y", "y"];
    for (seq, lab) in labels.iter().enumerate() {
        wire.send(request_frame(
            1 + seq as u64,
            &Command::Ingest {
                process: 0,
                seq: seq as u64,
                event: WireEvent::Internal,
                labels: vec![(*lab).into()],
            },
        ));
    }
    server.pump(&mut wire.server.clone(), 0);
    assert_eq!(take_response(&wire, 1), Some(Response::Ack));
    for req in 2..=4 {
        assert_eq!(take_response(&wire, req), Some(Response::Shed), "req {req}");
    }
    assert_eq!(server.stats().shed, 3);

    // Concede the shed slots; verdicts must degrade soundly.
    match call(
        &mut server,
        &wire,
        5,
        &Command::DeclareComplete { totals: vec![4] },
    ) {
        Response::Conceded(3) => {}
        other => panic!("expected 3 conceded losses, got {other:?}"),
    }
    call(&mut server, &wire, 6, &Command::Close { label: "x".into() });
    call(&mut server, &wire, 7, &Command::Close { label: "y".into() });
    let q = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 8, &q),
        Response::Verdict(Verdict::Unknown),
        "a shed event may cost certainty, never correctness"
    );

    // The shed total rides the snapshot across restarts.
    assert_eq!(
        call(&mut server, &wire, 9, &Command::TakeSnapshot),
        Response::Ack
    );
    drop(server);
    let server = Server::recover(storage, cfg).expect("recovery");
    assert_eq!(server.stats().shed, 3);
}

#[test]
fn declare_complete_on_a_recovered_monitor_concedes_the_tail() {
    // PR 2's tail-loss scenario, now across a crash: the last report of
    // p1 never arrives, the server restarts, and only then is the
    // stream declared complete. The conceded loss must degrade R1 to
    // Unknown while the observed R4 witness survives.
    let cfg = ServerConfig::new(2);
    let (mut server, wire, storage) = fresh(cfg.clone());
    let cmds = [
        Command::Watch {
            name: "w1".into(),
            rel: Relation::R1,
            x: "x".into(),
            y: "y".into(),
        },
        Command::Watch {
            name: "w4".into(),
            rel: Relation::R4,
            x: "x".into(),
            y: "y".into(),
        },
        Command::Ingest {
            process: 0,
            seq: 0,
            event: WireEvent::Send { msg: 0 },
            labels: vec!["x".into()],
        },
        Command::Ingest {
            process: 1,
            seq: 0,
            event: WireEvent::Recv { msg: 0 },
            labels: vec!["y".into()],
        },
        // p1's second event (also in y) is never reported.
    ];
    for (req, cmd) in cmds.iter().enumerate() {
        assert_eq!(call(&mut server, &wire, req as u64, cmd), Response::Ack);
    }
    drop(server);

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    match call(
        &mut server,
        &wire,
        4,
        &Command::DeclareComplete { totals: vec![1, 2] },
    ) {
        Response::Conceded(1) => {}
        other => panic!("expected 1 conceded loss, got {other:?}"),
    }
    call(&mut server, &wire, 5, &Command::Close { label: "x".into() });
    call(&mut server, &wire, 6, &Command::Close { label: "y".into() });

    let q1 = Command::Query {
        rel: Relation::R1,
        x: "x".into(),
        y: "y".into(),
    };
    let q4 = Command::Query {
        rel: Relation::R4,
        x: "x".into(),
        y: "y".into(),
    };
    assert_eq!(
        call(&mut server, &wire, 7, &q1),
        Response::Verdict(Verdict::Unknown),
        "∀∀ must not settle over a lost member"
    );
    assert_eq!(
        call(&mut server, &wire, 8, &q4),
        Response::Verdict(Verdict::Holds),
        "the observed ∃∃ witness survives degradation"
    );
}

#[test]
fn pruned_snapshot_round_trips_verdicts_and_counters() {
    let mut cfg = ServerConfig::new(2);
    cfg.pruning = true;
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    // Settle and let pruning retire what it will, then snapshot the
    // pruned state (tombstones included).
    call(&mut server, &wire, 5, &Command::Poll);
    let before = match call(&mut server, &wire, 6, &Command::Stats) {
        Response::Stats(s) => s,
        other => panic!("{other:?}"),
    };
    let verdicts_before = call(&mut server, &wire, 7, &Command::Verdicts);
    assert_eq!(
        call(&mut server, &wire, 8, &Command::TakeSnapshot),
        Response::Ack
    );
    drop(server);

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    let mut after = match call(&mut server, &wire, 9, &Command::Stats) {
        Response::Stats(s) => s,
        other => panic!("{other:?}"),
    };
    let verdicts_after = call(&mut server, &wire, 10, &Command::Verdicts);
    let mut before = before;
    before.flush_nanos = 0;
    after.flush_nanos = 0;
    assert_eq!(before, after, "monitor counters must survive the snapshot");
    assert_eq!(verdicts_before, verdicts_after);
}

#[test]
fn recovered_server_acks_already_consumed_ids_generically() {
    // A client whose ack was lost in the crash retries; the recovered
    // server no longer has the cached payload but must still not
    // re-execute.
    let cfg = ServerConfig::new(2);
    let (mut server, wire, storage) = fresh(cfg.clone());
    for (req, cmd) in scenario().iter().enumerate() {
        call(&mut server, &wire, req as u64, cmd);
    }
    drop(server);

    let wire = duplex_wire();
    let mut server = Server::recover(storage, cfg).expect("recovery");
    let appends_after_recovery = server.stats().wal_appends;
    assert_eq!(
        call(&mut server, &wire, 4, &Command::Close { label: "y".into() }),
        Response::Ack
    );
    assert_eq!(
        server.stats().wal_appends,
        appends_after_recovery,
        "a replayed id must not re-log"
    );
}
