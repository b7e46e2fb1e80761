//! The worker event loop.
//!
//! Each worker owns its cachelets outright: every GET/SET/DELETE on the
//! fast path touches only thread-local state — no locks, no atomics, no
//! sharing (§2.2). A worker additionally keeps:
//!
//! - the shadow-side [`ReplicaTable`] for keys replicated *to* it;
//! - the home-side map of its keys replicated *elsewhere*, so GET
//!   responses can piggyback replica locations to clients (§3.2);
//! - forwarding addresses for cachelets it gave away, answering with
//!   `Moved` ("on-the-way routing");
//! - the proportional-sampling hot-key tracker;
//! - Write-Invalidate migration state per §3.4.
//!
//! Every RPC is counted and timed into the worker's [`MetricsShard`]
//! (relaxed atomics into a dedicated cache-line-aligned block, so the
//! fast path stays contention-free), and `Request::Stats` serves the
//! accumulated [`StatsReport`] back over the wire.
//!
//! The server's balance and migration machinery changes a worker only
//! through [`Worker`]'s public methods (`adopt`, `release`, `end_epoch`,
//! the migration steps, …), run as steps on the worker's own thread in
//! mailbox order: [`WorkerCell::ask`] waits for a step's result,
//! [`WorkerCell::tell`] does not.

use crate::mailbox::Mailbox;
use crate::messages::{Completion, EpochReport, MigrationBatch, WorkerMsg};
use crate::transport::Transport;
use crate::unit::CacheUnit;
use crossbeam_channel::{bounded, Receiver};
use mbal_balancer::WorkerLoad;
use mbal_core::clock::Clock;
use mbal_core::hash::shard_hash;
use mbal_core::hotkey::{HotKey, HotKeyConfig, HotKeyTracker};
use mbal_core::replica::{ReplicaLookup, ReplicaTable};
use mbal_core::types::{CacheError, CacheletId, TenantId, Value, WorkerAddr, WorkerId};
use mbal_proto::{Request, Response, Status};
use mbal_telemetry::{Counter, Gauge, MetricsShard, StatsReport};
use mbal_tenant::{
    namespaced_key, split_namespaced, ArbiterConfig, MrcEstimator, TenantDirectory, TenantLoad,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Everything a worker thread needs at spawn time.
pub struct WorkerContext {
    /// This worker's cluster address.
    pub addr: WorkerAddr,
    /// Peer transport (replica propagation).
    pub transport: Arc<dyn Transport>,
    /// Time source.
    pub clock: Arc<dyn Clock>,
    /// Hot-key tracker configuration.
    pub hotkey: HotKeyConfig,
    /// Permissible load `T_j` (ops/s).
    pub load_capacity: f64,
    /// Memory capacity `M_j` (bytes).
    pub mem_capacity: u64,
    /// Synchronous (vs asynchronous) replica update propagation.
    pub sync_replication: bool,
    /// This worker's metrics shard (one per worker in the server's
    /// registry; the worker is the only writer).
    pub metrics: Arc<MetricsShard>,
    /// Factory for units adopted on the destination side of coordinated
    /// migration (needs the server's global pool).
    pub unit_factory: Box<dyn FnMut(CacheletId) -> CacheUnit + Send>,
    /// Admitted tenants and their quotas. With only the default tenant
    /// present the tenant layer is inert: keys are not namespaced and
    /// any `ForTenant`-wrapped request is refused as `UnknownTenant`.
    pub tenants: TenantDirectory,
}

/// Per-tenant request counters kept by the worker (feeds telemetry and
/// the arbiter's `TenantLoad` rows).
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounters {
    gets: u64,
    hits: u64,
    sets: u64,
}

/// What a data op contributes to its tenant's miss-ratio curve.
enum TenantOp {
    /// A GET: hash of the (namespaced) key.
    Read(u64),
    /// A value write: hash and entry footprint in bytes.
    Write(u64, usize),
}

/// The worker state machine. It lives in a [`WorkerCell`], served by
/// its own thread ([`spawn_worker`]) and, when idle, by in-proc callers.
pub struct Worker {
    ctx: WorkerContext,
    units: HashMap<CacheletId, Box<CacheUnit>>,
    forwards: HashMap<CacheletId, WorkerAddr>,
    replica_table: ReplicaTable,
    replicated: HashMap<Vec<u8>, Vec<WorkerAddr>>,
    tracker: HotKeyTracker,
    /// Drain mode: client value-writes are refused (`Status::Draining`).
    draining: bool,
    /// Serialized membership view cached for `ClusterStatus` RPCs.
    membership_view: Option<Vec<u8>>,
    /// Per-tenant request counters (tenant mode only).
    tenant_stats: HashMap<u16, TenantCounters>,
    /// Per-tenant miss-ratio-curve estimators feeding the arbiter's
    /// marginal-utility signal (tenant mode only).
    mrcs: HashMap<u16, MrcEstimator>,
}

impl Worker {
    /// Creates the worker.
    pub fn new(ctx: WorkerContext) -> Self {
        let tracker = HotKeyTracker::new(ctx.hotkey.clone());
        Self {
            ctx,
            units: HashMap::new(),
            forwards: HashMap::new(),
            replica_table: ReplicaTable::new(),
            replicated: HashMap::new(),
            tracker,
            draining: false,
            membership_view: None,
            tenant_stats: HashMap::new(),
            mrcs: HashMap::new(),
        }
    }

    /// `true` when tenants beyond the default are admitted, i.e. keys
    /// are tenant-namespaced and quotas/arbitration are live.
    fn tenant_mode(&self) -> bool {
        self.ctx.tenants.len() > 1
    }

    /// Serves one mailbox message; `false` on `Shutdown`.
    fn handle_msg(&mut self, msg: WorkerMsg) -> bool {
        match msg {
            WorkerMsg::Rpc { reqs, done } => done(self.handle_batch(reqs)),
            WorkerMsg::Run(step) => step(self),
            WorkerMsg::Shutdown => return false,
        }
        true
    }

    /// Whether `req` may run on a caller's thread. The bulk of the
    /// worker's memory — slab chunks, the replica table, migrated
    /// batches — is allocated by the worker's own thread: glibc keeps
    /// memory in the arena of the thread that allocated it, and cache
    /// memory spread over short-lived client threads' arenas is not
    /// reused when they exit, so peak RSS grows. A store that would take
    /// a fresh chunk therefore goes through the mailbox, and so do the
    /// replica and migration installs (control-plane traffic).
    fn serves_inline(&self, req: &Request) -> bool {
        match req {
            Request::Set {
                cachelet, value, ..
            }
            | Request::Add {
                cachelet, value, ..
            }
            | Request::Replace {
                cachelet, value, ..
            } => !self
                .units
                .get(cachelet)
                .is_some_and(|u| u.needs_fresh_memory(value.len())),
            Request::ForTenant { req, .. } => self.serves_inline(req),
            Request::ReplicaInstall { .. } | Request::MigrateEntries { .. } => false,
            _ => true,
        }
    }

    /// Serves RPCs in order. More than one request counts as one batch
    /// RPC, whichever path the batch took to get here.
    fn handle_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        if reqs.len() > 1 {
            self.ctx.metrics.incr(Counter::BatchRpcs);
        }
        reqs.into_iter().map(|r| self.handle_rpc(r)).collect()
    }

    fn now_ms(&self) -> u64 {
        self.ctx.clock.now_millis()
    }

    /// Serves one RPC: answers `Stats` directly, otherwise dispatches
    /// the request with latency timing and outcome counting around it.
    fn handle_rpc(&mut self, req: Request) -> Response {
        if let Request::Stats { reset } = req {
            return self.do_stats(reset);
        }
        let is_read = req.is_read();
        let start = self.ctx.clock.now_micros();
        let resp = self.dispatch(req);
        let elapsed = self.ctx.clock.now_micros().saturating_sub(start);
        let m = &self.ctx.metrics;
        if is_read {
            m.record_read_us(elapsed);
        } else {
            m.record_write_us(elapsed);
        }
        match &resp {
            Response::Moved { .. } => m.incr(Counter::MovedRedirects),
            Response::Fail { status, .. } => m.incr(match status {
                Status::NotOwner => Counter::NotOwnerErrors,
                Status::OutOfMemory => Counter::OomErrors,
                _ => Counter::OtherErrors,
            }),
            _ => {}
        }
        resp
    }

    /// Peels the tenant wrapper, enforces admission, rewrites data-op
    /// keys into the tenant's namespace (tenant mode only), and records
    /// per-tenant counters/MRC samples around the inner dispatch.
    fn dispatch(&mut self, req: Request) -> Response {
        let (tenant, mut req) = req.into_tenant_parts();
        if !self.ctx.tenants.is_known(tenant) {
            // Typed rejection, not a dropped connection: the client keeps
            // its session and can retry against an admitted tenant.
            return Response::Fail {
                status: Status::UnknownTenant,
                message: format!("tenant {} is not admitted on this server", tenant.0),
            };
        }
        let tenant_mode = self.tenant_mode();
        if tenant_mode {
            namespace_request(tenant, &mut req);
        }
        if self.draining && is_refused_while_draining(&req) {
            return Response::Fail {
                status: Status::Draining,
                message: "server is draining; writes refused".into(),
            };
        }
        let op = if tenant_mode { tenant_op(&req) } else { None };
        let resp = self.dispatch_inner(req);
        if let Some(op) = op {
            self.record_tenant_op(tenant, op, &resp);
        }
        resp
    }

    fn dispatch_inner(&mut self, req: Request) -> Response {
        match req {
            Request::Get { cachelet, key } => self.do_get(cachelet, &key),
            Request::MultiGet { keys } => {
                self.ctx.metrics.incr(Counter::MultiGets);
                let values = keys
                    .into_iter()
                    .map(|(c, k)| match self.do_get(c, &k) {
                        Response::Value { value, .. } => Some(value),
                        _ => None,
                    })
                    .collect();
                Response::Values { values }
            }
            Request::Set {
                cachelet,
                key,
                value,
                expiry_ms,
            } => self.do_set(cachelet, key, value, expiry_ms),
            Request::Delete { cachelet, key } => self.do_delete(cachelet, &key),
            Request::Add {
                cachelet,
                key,
                value,
                expiry_ms,
            } => self.do_conditional_store(cachelet, key, value, expiry_ms, true),
            Request::Replace {
                cachelet,
                key,
                value,
                expiry_ms,
            } => self.do_conditional_store(cachelet, key, value, expiry_ms, false),
            Request::Concat {
                cachelet,
                key,
                value,
                front,
            } => self.do_concat(cachelet, key, value, front),
            Request::Incr {
                cachelet,
                key,
                delta,
            } => self.do_incr(cachelet, key, delta),
            Request::Touch {
                cachelet,
                key,
                expiry_ms,
            } => self.do_touch(cachelet, key, expiry_ms),
            Request::ReplicaRead { key } => {
                self.ctx.metrics.incr(Counter::ReplicaReads);
                let now = self.now_ms();
                match self.replica_table.lookup(&key, now) {
                    ReplicaLookup::Hit(value) => {
                        self.ctx.metrics.incr(Counter::ReplicaReadHits);
                        Response::Value {
                            value,
                            replicas: vec![],
                        }
                    }
                    ReplicaLookup::Stale => {
                        // A lease-expired replica may be arbitrarily
                        // behind the home copy; refusing it is the §3.2
                        // consistency guarantee, and we count how often
                        // the guarantee actually fires.
                        self.ctx.metrics.incr(Counter::StaleReadsRejected);
                        Response::NotFound
                    }
                    ReplicaLookup::Miss => Response::NotFound,
                }
            }
            Request::ReplicaInstall {
                key,
                value,
                lease_expiry_ms,
            } => {
                self.ctx.metrics.incr(Counter::ReplicaInstalls);
                self.replica_table.install(&key, value, lease_expiry_ms);
                Response::Stored
            }
            Request::ReplicaUpdate { key, value } => {
                self.ctx.metrics.incr(Counter::ReplicaUpdates);
                if self.replica_table.update(&key, value) {
                    Response::Stored
                } else {
                    Response::NotFound
                }
            }
            Request::ReplicaInvalidate { key } => {
                self.ctx.metrics.incr(Counter::ReplicaInvalidates);
                self.replica_table.invalidate(&key);
                Response::Deleted
            }
            Request::MigrateEntries { cachelet, entries } => {
                self.ctx
                    .metrics
                    .add(Counter::MigrateEntriesIn, entries.len() as u64);
                let now = self.now_ms();
                let unit = self.units.entry(cachelet).or_insert_with(|| {
                    let mut u = Box::new((self.ctx.unit_factory)(cachelet));
                    u.meta_mut().adopt();
                    u
                });
                unit.receive_entries(entries, now);
                Response::MigrateAck
            }
            Request::MigrateCommit { cachelet } => {
                self.ctx.metrics.incr(Counter::MigrateCommits);
                // An empty cachelet migrates with zero MigrateEntries
                // batches, so the commit must materialize it here.
                let unit = self.units.entry(cachelet).or_insert_with(|| {
                    let mut u = Box::new((self.ctx.unit_factory)(cachelet));
                    u.meta_mut().adopt();
                    u
                });
                unit.finish_migration();
                self.forwards.remove(&cachelet);
                Response::MigrateAck
            }
            Request::MigrateAbort { cachelet, home } => {
                // The source is rolling back a failed transfer: discard
                // any partially installed state and send stale-routed
                // clients back to `home`. Aborts are issued synchronously
                // by the migration driver before any re-migration can
                // start, so the unconditional remove cannot race a newer
                // incarnation of this cachelet.
                self.units.remove(&cachelet);
                if home != self.ctx.addr {
                    self.forwards.insert(cachelet, home);
                } else {
                    self.forwards.remove(&cachelet);
                }
                Response::MigrateAck
            }
            // A tenant-wrapped Stats bypasses the handle_rpc fast path;
            // serve it here rather than panic.
            Request::Stats { reset } => self.do_stats(reset),
            Request::ForTenant { .. } => Response::Fail {
                status: Status::Error,
                message: "nested tenant wrapper refused".into(),
            },
            Request::Heartbeat { .. } => Response::Fail {
                status: Status::Error,
                message: "heartbeats are served by the coordinator".into(),
            },
            Request::Join { .. } | Request::Drain { .. } => Response::Fail {
                status: Status::Error,
                message: "membership operations are served by the coordinator".into(),
            },
            Request::ClusterStatus => match &self.membership_view {
                Some(payload) => Response::StatsBlob {
                    payload: payload.clone(),
                },
                None => Response::Fail {
                    status: Status::Error,
                    message: "no membership view published yet".into(),
                },
            },
        }
    }

    fn do_get(&mut self, cachelet: CacheletId, key: &[u8]) -> Response {
        let now = self.now_ms();
        let Some(unit) = self.units.get_mut(&cachelet) else {
            return self.not_owner(cachelet);
        };
        // Source side: a key that left with its drained bucket is read at
        // the destination. One that was absent when its bucket drained
        // stays absent here (writes to drained buckets are redirected),
        // so it is answered below as a miss rather than sent on.
        if unit.key_migrated(key) && unit.was_transferred(key) {
            let dest = unit.migration().expect("migrated implies migrating").dest;
            return Response::Moved {
                cachelet,
                new_owner: dest,
            };
        }
        if let Some(&source) = self.forwards.get(&cachelet) {
            // A unit that still has a forward is migrating in: its
            // source announced the transfer and has not committed it.
            // A key neither received nor stored here may sit in a bucket
            // the source has not drained, or drained and not yet sent,
            // so the miss goes back to the source; the source answers
            // it or, for a key in flight, sends it back until it lands.
            if !unit.was_transferred(key) && !unit.meta_mut().engine_mut().contains(key, now) {
                return Response::Moved {
                    cachelet,
                    new_owner: source,
                };
            }
        }
        // Counted only when actually served here: a redirected op is
        // retried (and counted) at its new owner and shows up in
        // `MovedRedirects` instead, so client and server ledgers agree
        // exactly even across live migrations.
        self.ctx.metrics.incr(Counter::Ops);
        self.ctx.metrics.incr(Counter::Gets);
        self.track_key(key, true);
        let unit = self.units.get_mut(&cachelet).expect("checked above");
        match unit.get(key, now) {
            Some(value) => {
                self.ctx.metrics.incr(Counter::GetHits);
                self.ctx.metrics.add(Counter::BytesOut, value.len() as u64);
                let replicas = self
                    .home_replica_key(key)
                    .and_then(|k| self.replicated.get(k))
                    .cloned()
                    .unwrap_or_default();
                Response::Value { value, replicas }
            }
            None => {
                self.ctx.metrics.incr(Counter::GetMisses);
                Response::NotFound
            }
        }
    }

    fn do_set(
        &mut self,
        cachelet: CacheletId,
        key: Vec<u8>,
        value: Value,
        expiry_ms: u64,
    ) -> Response {
        let now = self.now_ms();
        let Some(unit) = self.units.get_mut(&cachelet) else {
            return self.not_owner(cachelet);
        };
        if unit.key_migrated(&key) {
            // Write-Invalidate: the key already lives at the destination.
            // Invalidate any stale copy on both sides and redirect the
            // writer (MBal is a write-through cache, so no data is lost).
            let dest = unit.migration().expect("migrating").dest;
            unit.delete(&key, now);
            let fwd = self.peer_delete_req(cachelet, &key);
            self.ctx.transport.cast(dest, fwd);
            return Response::Moved {
                cachelet,
                new_owner: dest,
            };
        }
        // Counted only when served (see `do_get`).
        self.ctx.metrics.incr(Counter::Ops);
        self.ctx.metrics.incr(Counter::Sets);
        self.ctx.metrics.add(Counter::BytesIn, value.len() as u64);
        self.track_key(&key, false);
        match self.store_with_reclaim(cachelet, |u| u.set(&key, &value, now, expiry_ms)) {
            Ok(_) => {
                self.propagate_update(&key, &value);
                Response::Stored
            }
            Err(CacheError::OutOfMemory) => Response::Fail {
                status: Status::OutOfMemory,
                message: "cache full".into(),
            },
            Err(e) => Response::Fail {
                status: Status::Error,
                message: e.to_string(),
            },
        }
    }

    /// Runs a value write against an owned unit. When the unit's own
    /// LRU cannot make room and the server's global pool is empty, the
    /// worker takes a chunk from one of its other units and retries, so
    /// a fresh unit (say, one just created by an inbound migration) on a
    /// full server still accepts writes.
    fn store_with_reclaim<T>(
        &mut self,
        cachelet: CacheletId,
        mut write: impl FnMut(&mut CacheUnit) -> Result<T, CacheError>,
    ) -> Result<T, CacheError> {
        loop {
            let unit = self.units.get_mut(&cachelet).expect("owned unit");
            match write(unit) {
                Err(CacheError::OutOfMemory) if self.reclaim_chunk(cachelet) => {}
                outcome => return outcome,
            }
        }
    }

    /// Returns one chunk to the global pool from a unit other than
    /// `cachelet`: an idle chunk if any unit holds one, otherwise by
    /// evicting from the unit with the most bytes. Units mid-migration
    /// are left alone. `false` when no unit could give.
    fn reclaim_chunk(&mut self, cachelet: CacheletId) -> bool {
        let mut donors: Vec<&mut Box<CacheUnit>> = self
            .units
            .iter_mut()
            .filter(|(id, u)| **id != cachelet && u.migration().is_none())
            .map(|(_, u)| u)
            .collect();
        if donors.iter_mut().any(|u| u.release_chunk(false)) {
            return true;
        }
        donors.sort_by_key(|u| std::cmp::Reverse(u.value_bytes()));
        donors.into_iter().any(|u| u.release_chunk(true))
    }

    /// Common preamble for single-key write ops: ownership check and the
    /// Write-Invalidate redirect for keys whose bucket already migrated.
    /// Returns `Err(response)` when the op cannot proceed locally.
    fn write_preamble(&mut self, cachelet: CacheletId, key: &[u8]) -> Result<(), Response> {
        let now = self.ctx.clock.now_millis();
        let Some(unit) = self.units.get_mut(&cachelet) else {
            return Err(self.not_owner(cachelet));
        };
        if unit.key_migrated(key) {
            let dest = unit.migration().expect("migrating").dest;
            unit.delete(key, now);
            let fwd = self.peer_delete_req(cachelet, key);
            self.ctx.transport.cast(dest, fwd);
            return Err(Response::Moved {
                cachelet,
                new_owner: dest,
            });
        }
        // Counted only when served (see `do_get`).
        self.ctx.metrics.incr(Counter::Ops);
        self.track_key(key, false);
        Ok(())
    }

    fn do_conditional_store(
        &mut self,
        cachelet: CacheletId,
        key: Vec<u8>,
        value: Value,
        expiry_ms: u64,
        add: bool,
    ) -> Response {
        if let Err(resp) = self.write_preamble(cachelet, &key) {
            return resp;
        }
        self.ctx.metrics.incr(Counter::CondStores);
        let now = self.now_ms();
        let outcome = self.store_with_reclaim(cachelet, |u| {
            if add {
                u.add(&key, &value, now, expiry_ms)
            } else {
                u.replace(&key, &value, now, expiry_ms)
            }
        });
        match outcome {
            Ok(true) => {
                self.propagate_update(&key, &value);
                Response::Stored
            }
            Ok(false) => {
                if add {
                    Response::Fail {
                        status: Status::Exists,
                        message: "key exists".into(),
                    }
                } else {
                    Response::NotFound
                }
            }
            Err(CacheError::OutOfMemory) => Response::Fail {
                status: Status::OutOfMemory,
                message: "cache full".into(),
            },
            Err(e) => Response::Fail {
                status: Status::Error,
                message: e.to_string(),
            },
        }
    }

    fn do_concat(
        &mut self,
        cachelet: CacheletId,
        key: Vec<u8>,
        value: Value,
        front: bool,
    ) -> Response {
        self.ctx.metrics.incr(Counter::Concats);
        if let Err(resp) = self.write_preamble(cachelet, &key) {
            return resp;
        }
        let now = self.now_ms();
        match self.store_with_reclaim(cachelet, |u| u.concat(&key, &value, front, now)) {
            Ok(Some(_len)) => {
                if let Some(new_value) =
                    self.units.get_mut(&cachelet).and_then(|u| u.get(&key, now))
                {
                    self.propagate_update(&key, &new_value);
                }
                Response::Stored
            }
            Ok(None) => Response::NotFound,
            Err(CacheError::OutOfMemory) => Response::Fail {
                status: Status::OutOfMemory,
                message: "cache full".into(),
            },
            Err(e) => Response::Fail {
                status: Status::Error,
                message: e.to_string(),
            },
        }
    }

    fn do_incr(&mut self, cachelet: CacheletId, key: Vec<u8>, delta: i64) -> Response {
        if let Err(resp) = self.write_preamble(cachelet, &key) {
            return resp;
        }
        self.ctx.metrics.incr(Counter::Incrs);
        let now = self.now_ms();
        let unit = self.units.get_mut(&cachelet).expect("checked by preamble");
        match unit.incr(&key, delta, now) {
            Ok(Some(value)) => {
                self.propagate_update(&key, &Value::from(value.to_string().into_bytes()));
                Response::Counter { value }
            }
            Ok(None) => Response::NotFound,
            Err(CacheError::Internal(_)) => Response::Fail {
                status: Status::NotNumeric,
                message: "value is not a decimal counter".into(),
            },
            Err(e) => Response::Fail {
                status: Status::Error,
                message: e.to_string(),
            },
        }
    }

    fn do_touch(&mut self, cachelet: CacheletId, key: Vec<u8>, expiry_ms: u64) -> Response {
        if let Err(resp) = self.write_preamble(cachelet, &key) {
            return resp;
        }
        self.ctx.metrics.incr(Counter::Touches);
        let now = self.now_ms();
        let unit = self.units.get_mut(&cachelet).expect("checked by preamble");
        if unit.touch(&key, now, expiry_ms) {
            Response::Touched
        } else {
            Response::NotFound
        }
    }

    fn do_delete(&mut self, cachelet: CacheletId, key: &[u8]) -> Response {
        let now = self.now_ms();
        let Some(unit) = self.units.get_mut(&cachelet) else {
            return self.not_owner(cachelet);
        };
        if unit.key_migrated(key) {
            let dest = unit.migration().expect("migrating").dest;
            let fwd = self.peer_delete_req(cachelet, key);
            self.ctx.transport.cast(dest, fwd);
            return Response::Moved {
                cachelet,
                new_owner: dest,
            };
        }
        // Counted only when served (see `do_get`).
        self.ctx.metrics.incr(Counter::Ops);
        self.ctx.metrics.incr(Counter::Deletes);
        self.track_key(key, false);
        let unit = self.units.get_mut(&cachelet).expect("checked above");
        unit.delete(key, now);
        // Deleting a replicated key invalidates its replicas.
        if let Some(k) = self.home_replica_key(key) {
            if let Some(shadows) = self.replicated.remove(k) {
                self.invalidate_replicas(k, &shadows);
            }
        }
        Response::Deleted
    }

    /// Invalidates `key`'s replicas at `shadows`. Under synchronous
    /// replication the invalidation is called (with one retry per
    /// shadow) rather than cast: a lost invalidate would let a shadow
    /// keep serving a value the home worker already deleted.
    fn invalidate_replicas(&mut self, key: &[u8], shadows: &[WorkerAddr]) {
        for &s in shadows {
            let req = Request::ReplicaInvalidate { key: key.to_vec() };
            if self.ctx.sync_replication {
                if self.ctx.transport.call(s, req.clone()).is_err() {
                    self.ctx.metrics.incr(Counter::TransportRetries);
                    let _ = self.ctx.transport.call(s, req);
                }
            } else {
                self.ctx.transport.cast(s, req);
            }
        }
    }

    /// Propagates a write to every replica of `key` (§3.2: synchronous
    /// updates pay latency in the critical path; asynchronous updates are
    /// eventually consistent).
    ///
    /// Synchronous mode is where reads-after-write consistency is
    /// promised, so a shadow that cannot be reached (after one retry) is
    /// evicted from the replica set and best-effort invalidated — a
    /// stale replica must never outlive a failed update.
    fn propagate_update(&mut self, key: &[u8], value: &Value) {
        // In tenant mode only default-tenant keys are replicated, and
        // the replica plane speaks raw (namespace-stripped) keys.
        let Some(key) = self.home_replica_key(key) else {
            return;
        };
        let Some(shadows) = self.replicated.get(key) else {
            return;
        };
        if !self.ctx.sync_replication {
            for &s in shadows {
                self.ctx.transport.cast(
                    s,
                    Request::ReplicaUpdate {
                        key: key.to_vec(),
                        value: value.clone(),
                    },
                );
            }
            return;
        }
        let shadows = shadows.clone();
        let mut failed = Vec::new();
        for &s in &shadows {
            let req = Request::ReplicaUpdate {
                key: key.to_vec(),
                value: value.clone(),
            };
            if self.ctx.transport.call(s, req.clone()).is_err() {
                self.ctx.metrics.incr(Counter::TransportRetries);
                if self.ctx.transport.call(s, req).is_err() {
                    failed.push(s);
                }
            }
        }
        if !failed.is_empty() {
            for &s in &failed {
                self.ctx
                    .transport
                    .cast(s, Request::ReplicaInvalidate { key: key.to_vec() });
            }
            if let Some(list) = self.replicated.get_mut(key) {
                list.retain(|a| !failed.contains(a));
                if list.is_empty() {
                    self.replicated.remove(key);
                }
            }
        }
    }

    /// Records a key access with the hot-key tracker. In tenant mode
    /// only default-tenant keys participate in Phase-1 replication, and
    /// they are recorded with the namespace stripped: the balancer,
    /// coordinator, and clients all speak raw keys, and the server-side
    /// replica ops carry raw keys end-to-end.
    fn track_key(&mut self, key: &[u8], read: bool) {
        if !self.tenant_mode() {
            self.tracker.record(key, read);
            return;
        }
        let (t, rest) = split_namespaced(key);
        if t.is_default() {
            self.tracker.record(rest, read);
        }
    }

    /// Maps an engine key to its replica-map key: identity outside
    /// tenant mode; in tenant mode only default-tenant keys replicate,
    /// with the namespace stripped.
    fn home_replica_key<'a>(&self, key: &'a [u8]) -> Option<&'a [u8]> {
        if !self.tenant_mode() {
            return Some(key);
        }
        let (t, rest) = split_namespaced(key);
        t.is_default().then_some(rest)
    }

    /// Builds the Write-Invalidate delete cast to a migration peer. In
    /// tenant mode the local key carries this server's namespace prefix;
    /// the peer must receive the raw key wrapped in `ForTenant` so its
    /// own dispatch re-namespaces it exactly once.
    fn peer_delete_req(&self, cachelet: CacheletId, key: &[u8]) -> Request {
        if !self.tenant_mode() {
            return Request::Delete {
                cachelet,
                key: key.to_vec(),
            };
        }
        let (t, rest) = split_namespaced(key);
        Request::Delete {
            cachelet,
            key: rest.to_vec(),
        }
        .for_tenant(t)
    }

    /// Folds a data op's outcome into its tenant's counters and MRC.
    fn record_tenant_op(&mut self, tenant: TenantId, op: TenantOp, resp: &Response) {
        match op {
            TenantOp::Read(hash) => {
                let hit = match resp {
                    Response::Value { value, .. } => Some(value.len()),
                    _ => None,
                };
                let bytes = hit.unwrap_or(0);
                let c = self.tenant_stats.entry(tenant.0).or_default();
                c.gets += 1;
                if hit.is_some() {
                    c.hits += 1;
                }
                self.mrcs
                    .entry(tenant.0)
                    .or_default()
                    .record_access(hash, bytes);
            }
            TenantOp::Write(hash, bytes) => {
                self.tenant_stats.entry(tenant.0).or_default().sets += 1;
                if matches!(resp, Response::Stored) {
                    self.mrcs
                        .entry(tenant.0)
                        .or_default()
                        .record_access(hash, bytes);
                }
            }
        }
    }

    fn not_owner(&self, cachelet: CacheletId) -> Response {
        match self.forwards.get(&cachelet) {
            Some(&new_owner) => Response::Moved {
                cachelet,
                new_owner,
            },
            None => Response::Fail {
                status: Status::NotOwner,
                message: format!("cachelet {cachelet} not owned by {}", self.ctx.addr),
            },
        }
    }

    /// Takes ownership of a cachelet: initial placement, a Phase 2
    /// adopt, or a lease return. `lease` is `(home worker, lease expiry
    /// ms)` for a Phase 2 lease.
    pub fn adopt(&mut self, mut unit: Box<CacheUnit>, lease: Option<(WorkerId, u64)>) {
        if let Some((home, expiry)) = lease {
            unit.meta_mut().lease_out(home, expiry)
        }
        self.forwards.remove(&unit.id());
        self.units.insert(unit.id(), unit);
    }

    /// Gives up cachelet `id` (Phase 2 move-out or lease return) and
    /// redirects its keys to `new_owner`. `None` if it is not owned here.
    pub fn release(&mut self, id: CacheletId, new_owner: WorkerAddr) -> Option<Box<CacheUnit>> {
        let unit = self.units.remove(&id);
        if unit.is_some() {
            self.forwards.insert(id, new_owner);
        }
        unit
    }

    /// Closes the epoch: rolls every unit's load EWMA, runs engine
    /// maintenance (proactive TTL expiry), decays the hot-key tracker and
    /// the tenant MRCs, retires expired replicas, and reports the loads
    /// and hot keys. `epoch_secs` is the epoch length, for rates.
    pub fn end_epoch(&mut self, epoch_secs: f64) -> EpochReport {
        let now = self.now_ms();
        for u in self.units.values_mut() {
            u.end_epoch(epoch_secs);
            // Per-epoch engine maintenance: proactive TTL expiry.
            u.maintain(now);
        }
        self.tracker.end_epoch();
        self.replica_table.retire_expired(now);
        // Age the per-tenant miss-ratio curves so the marginal
        // signal tracks the current workload, not history.
        for mrc in self.mrcs.values_mut() {
            mrc.decay();
        }
        let hot_keys = merge_hot_keys(self.tracker.hot_keys(), self.tracker.write_hot_keys());
        EpochReport {
            load: self.load_snapshot(),
            hot_keys,
            replica_bytes: self.replica_table.bytes(),
        }
    }

    /// Records that `key` now has replicas at `shadows` (home side), so
    /// GETs piggyback their locations.
    pub fn set_replicated(&mut self, key: Vec<u8>, shadows: Vec<WorkerAddr>) {
        self.replicated.insert(key, shadows);
    }

    /// Forgets replication state for `key` (retired or migrated away).
    pub fn unset_replicated(&mut self, key: &[u8]) {
        self.replicated.remove(key);
    }

    /// Applies a hot-key sampling backoff factor (Phase 1 pressure).
    pub fn set_sampling_backoff(&mut self, backoff: u64) {
        self.tracker.set_backoff(backoff);
    }

    /// Applies arbitrated per-unit tenant memory budgets, `(tenant, bytes
    /// per cache unit)`, to every unit this worker owns. A tenant now
    /// over its shrunk budget evicts its own coldest entries; no other
    /// tenant is touched.
    pub fn set_tenant_budgets(&mut self, budgets: &[(TenantId, u64)]) {
        for u in self.units.values_mut() {
            for &(t, b) in budgets {
                u.set_tenant_budget(t, usize::try_from(b).unwrap_or(usize::MAX));
            }
        }
    }

    /// Begins outbound coordinated migration of `id` towards `dest`;
    /// `false` if the cachelet is not owned here.
    pub fn begin_migration(&mut self, id: CacheletId, dest: WorkerAddr) -> bool {
        match self.units.get_mut(&id) {
            Some(u) => {
                u.begin_migration(dest);
                true
            }
            None => false,
        }
    }

    /// Drains the next bucket of migrating cachelet `id`: the entries to
    /// forward, or `None` once it is fully drained (or not owned).
    pub fn drain_bucket(&mut self, id: CacheletId) -> Option<MigrationBatch> {
        self.units.get_mut(&id).and_then(|u| {
            u.drain_next_bucket().map(|entries| {
                entries
                    .into_iter()
                    .map(|(k, v, e)| (k.into_vec(), v.into(), e))
                    .collect()
            })
        })
    }

    /// Rolls back a failed outbound migration (source side): clears the
    /// migration state and re-installs `entries`, the ones drained (and
    /// possibly shipped) before the failure, so no acknowledged write is
    /// lost.
    pub fn abort_migration(&mut self, id: CacheletId, entries: MigrationBatch) {
        let now = self.now_ms();
        if let Some(u) = self.units.get_mut(&id) {
            u.abort_migration(entries, now);
        }
        // The cachelet is authoritative here again.
        self.forwards.remove(&id);
    }

    /// Drops the fully drained cachelet `id` and starts forwarding to its
    /// destination (source side, once the destination has committed).
    pub fn finish_migration(&mut self, id: CacheletId) {
        if let Some(u) = self.units.remove(&id) {
            if let Some(p) = u.migration() {
                self.forwards.insert(id, p.dest);
            }
        }
    }

    /// Enters or leaves drain mode. While draining, client value-writes
    /// are refused with `Status::Draining`; reads, deletes (the
    /// Write-Invalidate vehicle), replica ops and migration traffic stay
    /// open so the evacuation itself can complete.
    pub fn set_drain(&mut self, on: bool) {
        self.draining = on;
    }

    /// Caches the serialized cluster-membership view, so the worker can
    /// answer `ClusterStatus` RPCs without a coordinator round-trip.
    pub fn set_membership_view(&mut self, view: Vec<u8>) {
        self.membership_view = Some(view);
    }

    /// Materializes `cachelet`, reassigned here after a node failure, and
    /// promotes any live shadow replicas of its keys into it (the Phase 1
    /// copies are the only survivors). `num_vns` and `num_cachelets` let
    /// the worker recompute `key → cachelet` without a mapping table.
    /// Returns the number of promoted entries.
    pub fn promote_replicas(
        &mut self,
        cachelet: CacheletId,
        num_vns: u64,
        num_cachelets: u64,
    ) -> usize {
        let now = self.now_ms();
        // Failure reassignment: this cachelet's home died, so any
        // live shadow copies held here are the only surviving
        // values for its keys. `vn → cachelet` is `vn mod
        // num_cachelets` by construction and never mutated, so
        // the mapping reduces to two constants.
        let promoted = self.replica_table.take_live_matching(now, |key| {
            ((shard_hash(key) % num_vns) % num_cachelets) as u32 == cachelet.0
        });
        let count = promoted.len();
        self.ctx
            .metrics
            .add(Counter::ReplicasPromoted, count as u64);
        self.forwards.remove(&cachelet);
        let unit = self.units.entry(cachelet).or_insert_with(|| {
            let mut u = Box::new((self.ctx.unit_factory)(cachelet));
            u.meta_mut().adopt();
            u
        });
        // Replica leases are not value TTLs; promote without one.
        let entries: MigrationBatch = promoted.into_iter().map(|(k, v)| (k, v, 0)).collect();
        unit.install_entries(entries, now);
        count
    }

    /// Answers a `Stats` RPC: snapshot first, then (optionally) zero
    /// the counters and histograms, so the reply reflects everything up
    /// to and including this request.
    fn do_stats(&mut self, reset: bool) -> Response {
        self.ctx.metrics.incr(Counter::StatsRequests);
        let report = StatsReport::from_snapshot(self.load_snapshot());
        if reset {
            self.ctx.metrics.reset();
        }
        let payload = serde_json::to_vec(&report).unwrap_or_default();
        Response::StatsBlob { payload }
    }

    /// Refreshes the state gauges and captures the worker's full load
    /// descriptor (cachelet loads + metrics snapshot). Shared by the
    /// epoch report and the `Stats` RPC, so the balancer driver and the
    /// wire surface consume the same snapshot type.
    fn load_snapshot(&mut self) -> WorkerLoad {
        let m = &self.ctx.metrics;
        let rstats = self.replica_table.stats();
        m.set_gauge(Gauge::CacheletsOwned, self.units.len() as u64);
        m.set_gauge(Gauge::ForwardedCachelets, self.forwards.len() as u64);
        m.set_gauge(Gauge::ReplicaTableLen, rstats.len as u64);
        m.set_gauge(Gauge::ReplicaBytes, self.replica_table.bytes() as u64);
        m.set_gauge(Gauge::ReplicatedKeys, self.replicated.len() as u64);
        // Pump engine-side eviction/expiry counters into the shard so
        // they surface in `StatsReport` and Prometheus alongside the
        // RPC counters.
        for u in self.units.values_mut() {
            let d = u.take_stats_delta();
            m.add(Counter::Evictions, d.evictions);
            m.add(Counter::Expirations, d.expirations);
            m.add(Counter::EvictedBytes, d.evicted_bytes);
            m.add(Counter::ExpiredBytes, d.expired_bytes);
        }
        let cachelets: Vec<_> = self.units.values().map(|u| u.load_record()).collect();
        m.set_gauge(Gauge::MemBytes, cachelets.iter().map(|c| c.mem_bytes).sum());
        WorkerLoad {
            addr: self.ctx.addr,
            cachelets,
            load_capacity: self.ctx.load_capacity,
            mem_capacity: self.ctx.mem_capacity,
            metrics: m.snapshot(),
            tenants: self.tenant_rows(),
        }
    }

    /// Builds the per-tenant accounting rows the balancer's arbiter and
    /// the telemetry surface consume: engine-side usage summed across
    /// every unit this worker owns, plus request counters and the MRC
    /// marginal-utility signal. Empty outside tenant mode. Quota floors
    /// and ceilings are per *unit*, so they scale by the unit count.
    fn tenant_rows(&self) -> Vec<TenantLoad> {
        if !self.tenant_mode() {
            return Vec::new();
        }
        let mut usage: BTreeMap<u16, (u64, u64, u64)> = BTreeMap::new();
        for u in self.units.values() {
            for t in u.tenant_usage() {
                let e = usage.entry(t.tenant.0).or_insert((0, 0, 0));
                e.0 = e.0.saturating_add(t.used_bytes as u64);
                e.1 = e.1.saturating_add(t.budget_bytes as u64);
                e.2 = e.2.saturating_add(t.evictions);
            }
        }
        let units = self.units.len().max(1) as u64;
        let step = ArbiterConfig::default().step_bytes;
        self.ctx
            .tenants
            .iter()
            .map(|(tenant, quota)| {
                let (resident, budget, evictions) = usage.get(&tenant.0).copied().unwrap_or((
                    0,
                    quota.initial_budget().saturating_mul(units),
                    0,
                ));
                let c = self
                    .tenant_stats
                    .get(&tenant.0)
                    .copied()
                    .unwrap_or_default();
                let marginal = self
                    .mrcs
                    .get(&tenant.0)
                    .map(|mrc| mrc.marginal_hits_per_mb(budget, step))
                    .unwrap_or(0.0);
                TenantLoad {
                    tenant,
                    resident_bytes: resident,
                    budget_bytes: budget,
                    reserved_bytes: quota.reserved_bytes.saturating_mul(units),
                    ceiling_bytes: quota.ceiling_bytes.saturating_mul(units),
                    gets: c.gets,
                    hits: c.hits,
                    sets: c.sets,
                    evictions,
                    marginal_hits_per_mb: marginal,
                }
            })
            .collect()
    }
}

/// Client value-writes refused in drain mode. Reads keep the cache
/// useful until removal; deletes must pass because Write-Invalidate
/// ships them between workers and a dropped invalidation could migrate
/// a stale value; replica and migration traffic must pass so the
/// evacuation itself (and Phase 1 upkeep) can complete.
fn is_refused_while_draining(req: &Request) -> bool {
    matches!(
        req,
        Request::Set { .. }
            | Request::Add { .. }
            | Request::Replace { .. }
            | Request::Concat { .. }
            | Request::Incr { .. }
            | Request::Touch { .. }
    )
}

/// Prefixes every client-facing data-op key with the tenant namespace.
/// Replica and migration traffic already carries full engine keys and is
/// never rewritten; coordinator-plane requests have no keys.
fn namespace_request(tenant: TenantId, req: &mut Request) {
    match req {
        Request::Get { key, .. }
        | Request::Set { key, .. }
        | Request::Delete { key, .. }
        | Request::Add { key, .. }
        | Request::Replace { key, .. }
        | Request::Concat { key, .. }
        | Request::Incr { key, .. }
        | Request::Touch { key, .. } => {
            let nk = namespaced_key(tenant, key);
            *key = nk;
        }
        Request::MultiGet { keys } => {
            for (_, k) in keys.iter_mut() {
                let nk = namespaced_key(tenant, k);
                *k = nk;
            }
        }
        _ => {}
    }
}

/// Extracts the MRC-relevant shape of a data op before dispatch
/// consumes it. Only value reads and full-value writes feed the
/// estimator; deletes and metadata ops carry no reuse signal.
fn tenant_op(req: &Request) -> Option<TenantOp> {
    match req {
        Request::Get { key, .. } => Some(TenantOp::Read(shard_hash(key))),
        Request::Set { key, value, .. }
        | Request::Add { key, value, .. }
        | Request::Replace { key, value, .. } => {
            Some(TenantOp::Write(shard_hash(key), key.len() + value.len()))
        }
        _ => None,
    }
}

/// A worker as the rest of the process sees it: its mailbox, and the
/// cell that holds the worker's state.
///
/// The worker's thread, in-proc callers and the worker's TCP event loop
/// take turns on the cell. An in-proc call or a decoded TCP batch that
/// finds the cell unlocked and the mailbox empty is served on the
/// calling thread ([`WorkerCell::try_serve`],
/// [`WorkerCell::try_serve_batch`]), which saves the mailbox hop;
/// otherwise it queues like every other message.
/// Requests that build long-lived worker memory (a store needing a
/// fresh slab chunk, replica and migration installs) always queue, and
/// so do steps ([`WorkerCell::ask`], [`WorkerCell::tell`]).
/// The thread waits for mail outside the lock, then drains the mailbox
/// under it, so an inline call never overtakes a message queued before
/// it started (DESIGN §2.1).
pub struct WorkerCell {
    mailbox: Mailbox<WorkerMsg>,
    worker: Mutex<Option<Worker>>,
}

impl WorkerCell {
    /// A cell with no worker in it: every message waits in `mailbox`
    /// for whoever consumes it (test doubles, custom serving loops).
    pub fn detached(mailbox: Mailbox<WorkerMsg>) -> Arc<Self> {
        Arc::new(Self {
            mailbox,
            worker: Mutex::new(None),
        })
    }

    /// The worker's mailbox.
    pub fn mailbox(&self) -> &Mailbox<WorkerMsg> {
        &self.mailbox
    }

    /// Locks the worker for the calling thread if it is idle (nobody
    /// holds the cell, nothing is queued, it has not shut down) and
    /// every request in `reqs` may run inline.
    fn lock_idle(&self, reqs: &[Request]) -> Option<MutexGuard<'_, Option<Worker>>> {
        let guard = self.worker.try_lock()?;
        let idle = self.mailbox.is_empty()
            && guard
                .as_ref()
                .is_some_and(|w| reqs.iter().all(|r| w.serves_inline(r)));
        idle.then_some(guard)
    }

    /// Serves `req` on the calling thread if the worker is idle, else
    /// hands `req` back for the mailbox. Counts one `InlineRpcs`.
    pub fn try_serve(&self, req: Request) -> Result<Response, Request> {
        match self.lock_idle(std::slice::from_ref(&req)) {
            Some(mut w) => {
                let w = w.as_mut().expect("checked idle");
                w.ctx.metrics.incr(Counter::InlineRpcs);
                Ok(w.handle_rpc(req))
            }
            None => Err(req),
        }
    }

    /// [`WorkerCell::try_serve`] for a pipelined batch; the whole batch
    /// counts one `InlineRpcs`.
    pub fn try_serve_batch(&self, reqs: Vec<Request>) -> Result<Vec<Response>, Vec<Request>> {
        match self.lock_idle(&reqs) {
            Some(mut w) => {
                let w = w.as_mut().expect("checked idle");
                w.ctx.metrics.incr(Counter::InlineRpcs);
                Ok(w.handle_batch(reqs))
            }
            None => Err(reqs),
        }
    }

    /// Queues `reqs` as one mailbox RPC. The receiver yields the
    /// responses, or disconnects if the worker is gone or shuts down
    /// with the RPC still queued.
    pub(crate) fn queue_rpc(&self, reqs: Vec<Request>) -> Receiver<Vec<Response>> {
        let (tx, rx) = bounded(1);
        let done: Completion = Box::new(move |resps| {
            let _ = tx.send(resps);
        });
        let _ = self.mailbox.send(WorkerMsg::Rpc { reqs, done });
        rx
    }

    /// Queues `step` to run on the worker's thread and returns without
    /// waiting. A worker that is gone drops it unrun.
    pub fn tell(&self, step: impl FnOnce(&mut Worker) + Send + 'static) {
        let _ = self.mailbox.send(WorkerMsg::Run(Box::new(step)));
    }

    /// Queues `step` like [`WorkerCell::tell`]; the receiver yields its
    /// result, or disconnects if the step is dropped unrun.
    pub(crate) fn queue<R: Send + 'static>(
        &self,
        step: impl FnOnce(&mut Worker) -> R + Send + 'static,
    ) -> Receiver<R> {
        let (tx, rx) = bounded(1);
        self.tell(move |w| {
            let _ = tx.send(step(w));
        });
        rx
    }

    /// Runs `step` on the worker's thread, in mailbox order, and waits
    /// for its result. Never runs it inline, even on an idle worker, so
    /// the memory a step builds stays in the worker thread's arena.
    /// `None` once the worker is gone: a shutdown drops the queued step,
    /// so the caller does not wait on a worker that will never answer.
    pub fn ask<R: Send + 'static>(
        &self,
        step: impl FnOnce(&mut Worker) -> R + Send + 'static,
    ) -> Option<R> {
        self.queue(step).recv().ok()
    }

    /// The worker thread's loop: wait for mail, then drain it under the
    /// cell lock. On `Shutdown` the worker leaves the cell, so its
    /// memory (and its handle on the transport, which points back at
    /// this cell through the registry) is freed even while callers
    /// still hold the cell; the mailbox closes, and later calls fail
    /// as unreachable.
    fn run(&self) {
        while self.mailbox.wait() {
            let mut cell = self.worker.lock();
            let Some(worker) = cell.as_mut() else {
                return;
            };
            while let Some(msg) = self.mailbox.try_recv() {
                if !worker.handle_msg(msg) {
                    self.mailbox.close();
                    *cell = None;
                    return;
                }
            }
        }
    }
}

/// Spawns a worker thread, returning the worker's cell and the
/// thread's join handle.
pub fn spawn_worker(ctx: WorkerContext) -> (Arc<WorkerCell>, std::thread::JoinHandle<()>) {
    let name = format!("mbal-worker-{}", ctx.addr);
    let cell = Arc::new(WorkerCell {
        mailbox: Mailbox::new(),
        worker: Mutex::new(Some(Worker::new(ctx))),
    });
    let runner = Arc::clone(&cell);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || runner.run())
        .expect("spawn worker thread");
    (cell, handle)
}

/// The hot keys a worker reports at the end of an epoch
/// ([`Worker::end_epoch`]): the read-hot keys, then the write-hot keys
/// not already among them.
pub fn merge_hot_keys(read_hot: Vec<HotKey>, write_hot: Vec<HotKey>) -> Vec<HotKey> {
    let mut out = read_hot;
    for wh in write_hot {
        if !out.iter().any(|h| h.key == wh.key) {
            out.push(wh);
        }
    }
    out
}
