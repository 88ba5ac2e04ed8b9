//! `hyperbench-router` — the sharding front tier.
//!
//! A thin proxy speaking the same `/v1` wire contract as the
//! repository server, hash-partitioning ids across `N` shard
//! processes (each an ordinary `hyperbench serve` instance), with
//! optional read replicas per shard. One router process fans a
//! client's requests out:
//!
//! - **By-id traffic** routes to the owning shard
//!   (`gid % N`); reads fail over across replicas and hedge when slow,
//!   writes go to the primary only.
//! - **Creates** route by a content hash of the body, so idempotent
//!   replays land on the same shard.
//! - **List and query pages** scatter-gather over every active shard
//!   and merge into one globally-ordered page; the continuation
//!   cursor encodes every shard's own position.
//!
//! Per-upstream circuit breakers (fed by active `GET /v1/healthz`
//! probes and passive exchange outcomes) fail fast around dead
//! upstreams; `POST /admin/drain/{shard}` removes a shard from the
//! map without dropping an acked request; `GET /admin/topology`
//! reports the fleet as the router sees it. Everything is observable
//! under the `hyperbench_router_*` metric family on `GET /metrics`.
//!
//! The crate splits pure math from plumbing: [`breaker`] and
//! [`scatter`] have no sockets or clocks in their logic (property
//! tests pin their invariants), [`health`] and [`proxy`] wire them to
//! the network, and [`serve`] mounts the whole thing on the server
//! crate's epoll reactor.

#![forbid(unsafe_code)]

pub mod breaker;
pub mod health;
pub mod map;
pub mod metrics;
pub mod proxy;
pub mod scatter;

pub use breaker::{Breaker, State, Transition};
pub use map::{Shard, ShardMap};
pub use proxy::{RouterDispatch, RouterOptions, RouterState, ALLOW_PARTIAL_HEADER};
pub use scatter::{merge_pages, Merged, ShardPage};

#[cfg(target_os = "linux")]
use std::net::TcpListener;
#[cfg(target_os = "linux")]
use std::sync::atomic::AtomicBool;
#[cfg(target_os = "linux")]
use std::sync::Arc;

/// Runs the front tier on `listener` until `shutdown` flips: builds
/// the live routing state for `map`, starts one background health
/// prober per upstream, and serves the proxy on the reactor. Every
/// request dispatches on the offload pool (upstream exchanges block,
/// and a worker runs all of a read's attempts itself), so
/// `offload_threads` bounds routed concurrency.
#[cfg(target_os = "linux")]
pub fn serve(
    listener: TcpListener,
    map: &ShardMap,
    opts: RouterOptions,
    reactor: hyperbench_server::reactor::ReactorOptions,
    offload_threads: usize,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let state = RouterState::new(map, opts);
    let probes = state.start_probes(Arc::clone(&shutdown));
    let result = hyperbench_server::run_dispatcher(
        listener,
        Arc::new(RouterDispatch(Arc::clone(&state))),
        Arc::clone(&shutdown),
        reactor,
        offload_threads,
    );
    shutdown.store(true, std::sync::atomic::Ordering::Release);
    for probe in probes {
        let _ = probe.join();
    }
    result
}
