//! Layer replays for the traced run: each times one crate's public
//! functions on the workload's own inputs with the calibrated loop of
//! [`crate::timing`].

use crate::cluster::{mem_config, CACHELETS_PER_WORKER, WORKERS_PER_SERVER};
use crate::timing::{measure, Timing};
use mbal_balancer::phase2::plan_local;
use mbal_balancer::phase3::{plan_coordinated, ClusterView};
use mbal_balancer::BalancerConfig;
use mbal_core::engine::{Engine, SlabLru};
use mbal_core::mem::{GlobalPool, LocalPool, MemPolicy};
use mbal_core::store::SlabStore;
use mbal_core::types::ServerId;
use mbal_proto::codec::opcode_of;
use mbal_proto::{decode_request, decode_response, encode_request, encode_response};
use mbal_proto::{Request, Response};
use mbal_ring::MappingTable;
use mbal_telemetry::{Histogram, WorkerSnapshot};
use std::sync::Arc;

/// `MappingTable::route` over `keys`.
pub fn ring_route(mapping: &MappingTable, keys: &[Vec<u8>]) -> Timing {
    measure(|i| mapping.route(&keys[i as usize % keys.len()]))
}

/// Codec cost per op on captured request/response pairs: encode and
/// decode times (request plus response) and wire bytes per op.
pub fn proto(pairs: &[(Request, Response)]) -> (Timing, Timing, f64) {
    let encode_pair = |(req, resp): &(Request, Response), opaque: u32| {
        let q = encode_request(req, opaque).expect("encodable request");
        let r = encode_response(resp, opcode_of(req), opaque).expect("encodable response");
        (q, r)
    };
    let frames: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .enumerate()
        .map(|(i, p)| encode_pair(p, i as u32))
        .collect();
    let bytes = frames.iter().map(|(q, r)| q.len() + r.len()).sum::<usize>() as f64
        / frames.len().max(1) as f64;
    let n = pairs.len();
    let encode = measure(|i| encode_pair(&pairs[i as usize % n], i as u32));
    let decode = measure(|i| {
        let (q, r) = &frames[i as usize % n];
        (
            decode_request(q).expect("decodable request"),
            decode_response(r).expect("decodable response"),
        )
    });
    (encode, decode, bytes)
}

/// The engine a server builds for one cachelet: slab+LRU over a slab
/// store drawing from a global pool, sized to one unit's share of the
/// server's memory.
fn server_engine(mem_per_server: usize) -> SlabLru<SlabStore> {
    let units = WORKERS_PER_SERVER as usize * CACHELETS_PER_WORKER;
    let mem = mem_config(mem_per_server / units);
    let cap = mem.capacity;
    let global = Arc::new(GlobalPool::new(cap, mem.chunk_size, mem.numa_domains));
    let pool = LocalPool::new(global, &mem, 0, MemPolicy::ThreadLocal);
    SlabLru::new(SlabStore::new(pool))
}

/// Engine GET and SET: `load` pre-populates the engine, then GETs replay
/// `gets` and SETs replay `sets`.
pub fn core(
    mem_per_server: usize,
    load: &[(Vec<u8>, Vec<u8>)],
    gets: &[Vec<u8>],
    sets: &[(Vec<u8>, Vec<u8>)],
) -> (Timing, Timing) {
    let mut engine = server_engine(mem_per_server);
    for (k, v) in load {
        // A full unit evicts; a refused store only leaves the key out.
        let _ = engine.set(k, v, 0, 0);
    }
    let get = measure(|i| engine.get(&gets[i as usize % gets.len()], 0));
    let set = measure(|i| {
        let (k, v) = &sets[i as usize % sets.len()];
        engine.set(k, v, 0, 0).is_ok()
    });
    (get, set)
}

/// `Histogram::record` of latency-like values.
pub fn telemetry_record() -> Timing {
    let mut h = Histogram::new();
    let values: Vec<u64> = (0..1024u64).map(|i| 20 + (i * 7919) % 900).collect();
    measure(|i| h.record(values[i as usize % values.len()]))
}

/// One balance epoch's planning on each scraped epoch: `plan_local` for
/// every server plus `plan_coordinated` for the busiest worker.
pub fn balancer_plan(epochs: &[Vec<WorkerSnapshot>], cfg: &BalancerConfig) -> Timing {
    let views: Vec<(ClusterView, mbal_core::types::WorkerAddr)> = epochs
        .iter()
        .filter(|e| !e.is_empty())
        .map(|e| {
            let mut servers: Vec<(ServerId, Vec<WorkerSnapshot>)> = Vec::new();
            for w in e {
                match servers.iter_mut().find(|(s, _)| *s == w.addr.server) {
                    Some((_, ws)) => ws.push(w.clone()),
                    None => servers.push((w.addr.server, vec![w.clone()])),
                }
            }
            let busiest = e
                .iter()
                .max_by(|a, b| a.total_load().total_cmp(&b.total_load()))
                .expect("non-empty epoch")
                .addr;
            (ClusterView { servers }, busiest)
        })
        .collect();
    if views.is_empty() {
        return measure(|_| 0);
    }
    measure(|i| {
        let (view, busiest) = &views[i as usize % views.len()];
        let local: Vec<_> = view
            .servers
            .iter()
            .map(|(_, ws)| plan_local(ws, cfg))
            .collect();
        (local, plan_coordinated(view, *busiest, cfg))
    })
}
