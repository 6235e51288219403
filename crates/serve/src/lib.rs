//! Crash-recoverable monitoring service for synchrel.
//!
//! This crate wraps an [`OnlineMonitor`](synchrel_monitor::online::OnlineMonitor)
//! behind a versioned, length-prefixed wire protocol and makes its
//! state durable:
//!
//! * [`proto`] — the framing (`magic | version | kind | request id |
//!   length | payload | CRC-32`), the [`Command`] / [`Response`]
//!   vocabulary, and an in-process duplex [`Endpoint`] carrying the
//!   same bytes a socket would.
//! * [`wal`] — CRC-framed write-ahead-log records; a torn tail (the
//!   debris of a crash mid-append) truncates cleanly, corruption in the
//!   middle refuses recovery.
//! * [`storage`] — the byte-level persistence trait, with an in-memory
//!   implementation for tests/chaos (plus fault hooks) and a
//!   directory-backed one for real deployments.
//! * [`server`] — the service itself: ack-on-durable ingestion, bounded
//!   queues with backpressure or sound load shedding, periodic
//!   snapshots, and [`Server::recover`](server::Server::recover), which
//!   rebuilds the exact pre-crash monitor from snapshot + WAL replay.
//! * [`client`] — a retrying client with idempotent sequential request
//!   ids and seeded exponential backoff ([`synchrel_sim::Backoff`]);
//!   at-least-once delivery plus server dedup yields exactly-once
//!   application.
//! * [`transport`] — the [`Transport`] abstraction that carries those
//!   frames over the in-process duplex, TCP, or a Unix-domain socket,
//!   plus the incremental [`FrameBuffer`] stream decoder.
//! * [`replica`] — primary→follower WAL streaming: the follower
//!   persists each record *before* applying it, acks by LSN, and is
//!   promotable into a full [`Server`] when the primary dies.
//! * [`backend`] — the [`Backend`] seam [`Server`] and
//!   [`ShardedServer`] share, so one socket loop, one lockstep pump and
//!   one chaos harness serve both.
//! * [`net`] — the threaded service tier: a TCP/UDS listener with
//!   thread-per-connection readers feeding one serving thread, in front
//!   of either engine.
//! * [`shard`] — the sharded serving tier: K servers (one WAL segment
//!   and snapshot each) behind a [`ShardedServer`] facade that routes
//!   ingests by consistent hash, broadcasts control commands under
//!   client request ids, logs cross-shard coordination as replayable
//!   per-shard commands, group-commits batches per shard in parallel,
//!   and recovers all shards (optionally in parallel)
//!   into byte-identical verdicts — proven by its own per-shard-crash
//!   chaos sweep and by the differential harness' sharded stage
//!   ([`run_shard_differential_case`]). It is the workspace's only
//!   sharded facade.
//! * [`chaos`] — the seeded kill/restart sweep proving all of the
//!   above: a reference run and a crash-riddled run must produce
//!   identical verdicts and counters (over the duplex *and* over real
//!   loopback sockets).
//! * [`failover`] — the seeded kill-the-primary sweep: crash at a
//!   chosen LSN, promote the follower, resume the client, and demand
//!   byte-identical verdicts against an uninterrupted reference.
//! * [`nemesis`] — the seeded network-nemesis sweep: wire faults
//!   (drops, delays, duplicates, partial writes, resets, partitions)
//!   injected via [`NemesisTransport`],
//!   sound `Unknown` degradation of a cut shard with byte-identical
//!   post-heal reconvergence, and lease-driven (no harness trigger)
//!   primary failure detection with self-promotion.

pub mod backend;
pub mod chaos;
pub mod client;
pub mod failover;
pub mod nemesis;
pub mod net;
pub mod proto;
pub mod replica;
pub mod server;
pub mod shard;
pub mod storage;
pub mod transport;
pub mod wal;

pub use backend::Backend;
pub use chaos::{
    case_commands, run_chaos_case, run_chaos_case_with, run_chaos_seeds, run_chaos_seeds_with,
    CaseCommands, ChaosMismatch, ChaosOutcome, ChaosStats,
};
pub use client::{Client, ClientError, ClientStats, FailoverClient, Pump};
pub use failover::{
    run_failover_case, run_failover_seeds, run_nemesis_failover_case, run_nemesis_failover_seeds,
    FailoverOutcome, FailoverStats, NemesisFailoverOutcome, NemesisFailoverStats,
};
pub use nemesis::{
    run_nemesis_case, run_nemesis_seeds, NemesisMismatch, NemesisOutcome, NemesisScenario,
    NemesisStats, NemesisSweep,
};
pub use net::{
    run_follower, run_follower_with_lease, run_standby, FollowerExit, Service, ServiceConfig,
    ServiceStats, ShardedService, SocketService, StandbyOutcome,
};
pub use proto::{duplex, Command, Endpoint, Response};
pub use replica::{pump_replication, Follower, FollowerStats, LeaseClock, ReplError, Replicator};
pub use server::{
    CrashPlan, CrashPoint, OverloadPolicy, RecoverError, Server, ServerConfig, ServerStats,
};
pub use shard::{
    run_shard_chaos_case, run_shard_chaos_seeds, run_shard_differential_case, ShardedServer,
    COORD_CLIENT,
};
pub use storage::{DirStorage, Storage, SyncMemStorage};
pub use transport::{
    connect, DuplexFactory, FrameBuffer, ListenAddr, Listener, NemesisCounts, NemesisFactory,
    NemesisSink, NemesisTransport, StreamTransport, TcpLoopbackFactory, Transport, WireFactory,
};
pub use wal::{WalError, WalRecord};
