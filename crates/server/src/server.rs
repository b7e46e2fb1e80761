//! The MBal server: workers + balance machinery.
//!
//! A [`Server`] spawns one worker thread per configured core, seeds each
//! with its cachelets from the cluster mapping, and drives the
//! multi-phase balancer every epoch ([`Server::tick`]):
//!
//! - **Phase 1** — fetches hot-key values from home workers, installs
//!   replicas on shadow servers over the transport, and tells home
//!   workers which keys are replicated where (so GETs piggyback replica
//!   locations).
//! - **Phase 2** — executes server-local migrations as ownership
//!   handoffs between worker threads (Release → Adopt), lease-based, and
//!   reports the mapping change to the coordinator.
//! - **Phase 3** — asks the coordinator for a coordinated plan and runs
//!   the per-bucket Write-Invalidate transfer to the destination server.
//!
//! Ticks are driven externally (tests, simulator) or by
//! [`Server::start_balance_thread`] on real time.

use crate::config::ServerConfig;
use crate::messages::{EpochReport, MigrationBatch, WorkerMsg};
use crate::transport::{InProcRegistry, Transport, TransportError, DEFAULT_DEADLINE};
use crate::unit::CacheUnit;
use crate::worker::{spawn_worker, Worker, WorkerCell, WorkerContext};
use mbal_balancer::phase1::ReplicationAction;
use mbal_balancer::plan::Migration;
use mbal_balancer::replicated::CoordinatorService;
use mbal_balancer::{BalanceDriver, Phase, WorkerLoad};
use mbal_core::clock::Clock;
use mbal_core::hotkey::HotKey;
use mbal_core::mem::GlobalPool;
use mbal_core::types::{CacheletId, ServerId, TenantId, WorkerAddr, WorkerId};
use mbal_membership::NodeState;
use mbal_proto::{Request, Response};
use mbal_ring::MappingTable;
use mbal_telemetry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, StatsReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How many drained buckets a coordinated migration accumulates before
/// flushing them to the destination as one pipelined batch.
const MIGRATE_FLUSH_BATCH: usize = 8;

/// A running MBal cache server.
pub struct Server {
    cfg: ServerConfig,
    workers: Vec<Arc<WorkerCell>>,
    handles: Vec<JoinHandle<()>>,
    transport: Arc<dyn Transport>,
    coordinator: Arc<dyn CoordinatorService>,
    clock: Arc<dyn Clock>,
    driver: BalanceDriver,
    /// Phase 2 leases: cachelet → (home, current, expiry ms).
    leases: HashMap<CacheletId, (WorkerId, WorkerId, u64)>,
    /// Home-side replica locations, mirrored into workers.
    replica_locations: HashMap<Vec<u8>, Vec<WorkerAddr>>,
    /// Cached cluster worker list for shadow selection.
    cluster_workers: Vec<WorkerAddr>,
    /// Per-worker metrics shards; workers hold `Arc` clones.
    metrics: Arc<MetricsRegistry>,
    /// Our SWIM incarnation, bumped to refute a false suspicion.
    incarnation: u64,
    /// Mirror of the drain mode pushed to workers.
    draining: bool,
    /// Last cluster epoch this server reconciled its cachelets against.
    seen_epoch: u64,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Spawns the server's workers, seeds cachelets from `mapping`, and
    /// registers every worker in `registry`.
    pub fn spawn<C: CoordinatorService + 'static>(
        cfg: ServerConfig,
        mapping: &MappingTable,
        registry: &Arc<InProcRegistry>,
        coordinator: Arc<C>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let transport: Arc<dyn Transport> = Arc::clone(registry) as Arc<dyn Transport>;
        Self::spawn_with_transport(cfg, mapping, registry, transport, coordinator, clock)
    }

    /// Like [`Server::spawn`], but server-originated traffic (replica
    /// propagation, coordinated migration) flows through the given
    /// `transport` instead of the registry directly — the seam where a
    /// [`crate::fault::FaultInjector`] slots in for chaos testing.
    /// Workers still register their mailboxes in `registry` so peers can
    /// reach them.
    pub fn spawn_with_transport<C: CoordinatorService + 'static>(
        cfg: ServerConfig,
        mapping: &MappingTable,
        registry: &Arc<InProcRegistry>,
        transport: Arc<dyn Transport>,
        coordinator: Arc<C>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let coordinator: Arc<dyn CoordinatorService> = coordinator;
        let global = Arc::new(GlobalPool::new(
            cfg.mem.capacity,
            cfg.mem.chunk_size,
            cfg.mem.numa_domains,
        ));
        let metrics = Arc::new(MetricsRegistry::new(cfg.workers as usize));
        let mut workers = Vec::new();
        let mut handles = Vec::new();
        for w in 0..cfg.workers {
            let addr = WorkerAddr {
                server: cfg.server,
                worker: WorkerId(w),
            };
            let numa = if cfg.mem.numa_aware {
                (w as u8) % cfg.mem.numa_domains.max(1)
            } else {
                0
            };
            let factory_pool = Arc::clone(&global);
            let factory_mem = cfg.mem.clone();
            let factory_tenants = cfg.tenants.clone();
            let ctx = WorkerContext {
                addr,
                transport: Arc::clone(&transport),
                clock: Arc::clone(&clock),
                hotkey: cfg.hotkey.clone(),
                load_capacity: cfg.worker_load_capacity,
                mem_capacity: cfg.worker_mem_capacity(),
                sync_replication: cfg.sync_replication,
                metrics: metrics.shard(w as usize),
                unit_factory: Box::new(move |id| {
                    CacheUnit::with_tenancy(
                        id,
                        Arc::clone(&factory_pool),
                        &factory_mem,
                        numa,
                        &factory_tenants,
                    )
                }),
                tenants: cfg.tenants.clone(),
            };
            let (cell, handle) = spawn_worker(ctx);
            handles.push(handle);
            registry.register(addr, Arc::clone(&cell));
            workers.push(cell);
        }

        let driver = BalanceDriver::new(cfg.server, cfg.balancer.clone(), cfg.hotkey.hot_threshold);
        let mut server = Self {
            cluster_workers: mapping.workers(),
            cfg,
            workers,
            handles,
            transport,
            coordinator,
            clock,
            driver,
            leases: HashMap::new(),
            replica_locations: HashMap::new(),
            metrics,
            incarnation: 0,
            draining: false,
            seen_epoch: 0,
            stop: Arc::new(AtomicBool::new(false)),
        };
        server.seed_cachelets(mapping, &global);
        server
    }

    fn seed_cachelets(&mut self, mapping: &MappingTable, global: &Arc<GlobalPool>) {
        for w in 0..self.cfg.workers {
            let addr = WorkerAddr {
                server: self.cfg.server,
                worker: WorkerId(w),
            };
            let numa = if self.cfg.mem.numa_aware {
                (w as u8) % self.cfg.mem.numa_domains.max(1)
            } else {
                0
            };
            for c in mapping.cachelets_of_worker(addr) {
                let unit = Box::new(CacheUnit::with_tenancy(
                    c,
                    Arc::clone(global),
                    &self.cfg.mem,
                    numa,
                    &self.cfg.tenants,
                ));
                self.worker(WorkerId(w)).ask(|wk| wk.adopt(unit, None));
            }
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.cfg.server
    }

    /// The server's worker addresses.
    pub fn worker_addrs(&self) -> Vec<WorkerAddr> {
        (0..self.cfg.workers)
            .map(|w| WorkerAddr {
                server: self.cfg.server,
                worker: WorkerId(w),
            })
            .collect()
    }

    /// Worker cells (each holding the worker's mailbox) paired with
    /// their addresses, for wiring a TCP front end via
    /// [`crate::tcp::serve_tcp`]: each worker's event loop serves
    /// batches inline on an idle worker and queues the rest.
    pub fn worker_mailboxes(&self) -> Vec<(WorkerAddr, Arc<WorkerCell>)> {
        self.worker_addrs()
            .into_iter()
            .zip(self.workers.iter().cloned())
            .collect()
    }

    /// The balancer's current phase.
    pub fn phase(&self) -> Phase {
        self.driver.phase()
    }

    /// The balance event log (Figure 13 data).
    pub fn events(&self) -> &mbal_balancer::EventLog {
        self.driver.events()
    }

    /// The cell of this server's worker `w`.
    fn worker(&self, w: WorkerId) -> &WorkerCell {
        &self.workers[w.0 as usize]
    }

    /// Queues `step` on every worker without waiting.
    fn broadcast(&self, step: impl FnOnce(&mut Worker) + Clone + Send + 'static) {
        for cell in &self.workers {
            cell.tell(step.clone());
        }
    }

    /// Direct RPC to one of this server's workers (bypasses transport).
    pub fn local_call(&self, w: WorkerId, req: Request) -> Option<Response> {
        self.worker(w).queue_rpc(vec![req]).recv().ok()?.pop()
    }

    /// Collects end-of-epoch reports from every worker. Every worker's
    /// step is queued before any is waited on, so the workers close
    /// their epochs in parallel.
    fn collect_reports(&self, epoch_secs: f64) -> Vec<EpochReport> {
        let pending: Vec<_> = self
            .workers
            .iter()
            .map(|cell| cell.queue(move |w| w.end_epoch(epoch_secs)))
            .collect();
        pending
            .into_iter()
            .filter_map(|rx| rx.recv().ok())
            .collect()
    }

    /// The server's metrics registry (one shard per worker).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Aggregated metrics snapshot across every worker shard. Reads the
    /// registry directly — no worker round-trip, safe on the hot path.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Aggregated worker statistics (ops, hits, reads) for experiments.
    pub fn totals(&self) -> (u64, u64, u64) {
        let s = self.metrics.snapshot();
        (
            s.get(Counter::Ops),
            s.get(Counter::GetHits),
            s.get(Counter::Gets),
        )
    }

    /// Per-worker [`StatsReport`]s, as a monitoring scrape would see
    /// them: one `Stats` RPC to each worker, so gauges are refreshed and
    /// percentiles extracted by the worker itself.
    pub fn stats_reports(&self) -> Vec<StatsReport> {
        (0..self.cfg.workers)
            .filter_map(
                |w| match self.local_call(WorkerId(w), Request::Stats { reset: false }) {
                    Some(Response::StatsBlob { payload }) => serde_json::from_slice(&payload).ok(),
                    _ => None,
                },
            )
            .collect()
    }

    /// Runs one balance epoch. Returns the phase in force.
    pub fn tick(&mut self, now_ms: u64) -> Phase {
        let epoch_secs = self.cfg.balancer.epoch_ms as f64 / 1_000.0;
        let reports = self.collect_reports(epoch_secs);
        let loads: Vec<WorkerLoad> = reports.iter().map(|r| r.load.clone()).collect();
        let hot_keys: HashMap<WorkerId, Vec<HotKey>> = reports
            .iter()
            .map(|r| (r.load.addr.worker, r.hot_keys.clone()))
            .collect();

        // Refresh the cluster view for shadow selection and report our
        // stats to the coordinator.
        self.coordinator
            .report_stats(self.cfg.server, loads.clone());
        self.cluster_workers = self.coordinator.mapping_snapshot().workers();

        let actions = self
            .driver
            .epoch(now_ms, &loads, &hot_keys, &self.cluster_workers);

        let backoff = actions.sampling_backoff;
        self.broadcast(move |w| w.set_sampling_backoff(backoff));
        if !actions.tenant_budgets.is_empty() {
            // The arbiter reallocates server-wide totals; each unit gets
            // an equal share, matching how quotas scale per unit.
            let total_units: usize = loads.iter().map(|l| l.cachelets.len()).sum();
            let per_unit: Vec<(TenantId, u64)> = actions
                .tenant_budgets
                .iter()
                .map(|&(t, b)| (t, b / total_units.max(1) as u64))
                .collect();
            self.broadcast(move |w| w.set_tenant_budgets(&per_unit));
        }
        for (wid, acts) in &actions.replication {
            self.execute_replication(*wid, acts, now_ms);
        }
        if !actions.local_migrations.is_empty() {
            self.execute_local_migrations(&actions.local_migrations, now_ms);
        }
        if !actions.cap_shed.is_empty() {
            self.execute_cap_shed(&actions.cap_shed);
        }
        for &src in &actions.coordinate {
            self.execute_coordinated(src);
        }
        self.expire_leases(now_ms);
        if self.cfg.membership {
            self.run_membership(now_ms);
        }
        actions.phase.unwrap_or(Phase::Normal)
    }

    /// Drives one round of the membership protocol (§ elasticity):
    /// heartbeat with incarnation-bump refutation, detector tick,
    /// execution of join/drain transfers queued for this server,
    /// replica promotion for cachelets reassigned here by a failure,
    /// drain-mode propagation, and publishing the view + gauges.
    fn run_membership(&mut self, now_ms: u64) {
        // Heartbeat; a `Suspect` reply means the coordinator is counting
        // down our confirm timer — refute with a higher incarnation.
        if self
            .coordinator
            .membership_heartbeat(self.cfg.server, self.incarnation, now_ms)
            == Some(NodeState::Suspect)
        {
            self.incarnation += 1;
            let _ =
                self.coordinator
                    .membership_heartbeat(self.cfg.server, self.incarnation, now_ms);
        }

        // Advance the detector; confirmed failures reassign the dead
        // node's cachelets inside the coordinator.
        let _ = self.coordinator.membership_tick(now_ms);

        // Execute the join/drain transfers queued for this server. A
        // failed transfer rolls back at the coordinator like any Phase-3
        // migration, so the mapping never lies about where data is.
        let moves = self.coordinator.pending_moves_for(self.cfg.server);
        self.announce_transfers(&moves);
        for m in &moves {
            self.migrate_out(m);
        }

        // On any epoch change the mapping may home cachelets here that
        // no worker owns yet — most importantly after a peer's confirmed
        // failure, which reassigns its cachelets with no data to move.
        // The epoch gate (rather than watching for `ConfirmedFailed`
        // directly) matters because only the *first* server to tick
        // after the confirm deadline sees the event, while every
        // survivor may have inherited cachelets. Materialize them,
        // promoting surviving shadow replicas (the Phase-1 copies) into
        // the fresh units; for cachelets already owned this is a no-op.
        let epoch = self.coordinator.cluster_epoch();
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.reconcile_owned_cachelets();
        }

        let Some(view) = self.coordinator.membership_view(now_ms) else {
            return;
        };
        let draining = view.state_of(self.cfg.server) == Some(NodeState::Draining);
        if draining != self.draining {
            self.draining = draining;
            self.broadcast(move |w| w.set_drain(draining));
        }
        let payload = serde_json::to_vec(&view).unwrap_or_default();
        self.broadcast(move |w| w.set_membership_view(payload));
        // Cluster-level gauges ride on worker 0's shard only: snapshots
        // sum gauges across shards, so exactly one shard may carry them.
        let shard = self.metrics.shard(0);
        shard.set_gauge(Gauge::ClusterSize, view.cluster_size() as u64);
        shard.set_gauge(Gauge::SuspectNodes, view.suspect_count() as u64);
        shard.set_gauge(
            Gauge::RebalanceInflight,
            self.coordinator.rebalance_inflight(),
        );
    }

    /// Ensures every cachelet the cluster mapping homes on this server
    /// exists in its worker. New units start cold except for keys with
    /// live shadow replicas held locally, which are promoted to
    /// authoritative values.
    fn reconcile_owned_cachelets(&mut self) {
        let mapping = self.coordinator.mapping_snapshot();
        let num_vns = mapping.num_vns() as u64;
        let num_cachelets = mapping.num_cachelets() as u64;
        for w in 0..self.cfg.workers {
            let addr = WorkerAddr {
                server: self.cfg.server,
                worker: WorkerId(w),
            };
            for cachelet in mapping.cachelets_of_worker(addr) {
                self.worker(WorkerId(w))
                    .ask(move |wk| wk.promote_replicas(cachelet, num_vns, num_cachelets));
            }
        }
    }

    fn execute_replication(&mut self, wid: WorkerId, acts: &[ReplicationAction], _now: u64) {
        let mapping = self.coordinator.mapping_snapshot();
        // Phase 1 batching: fetch every hot-key value from the home
        // worker first, group the installs by shadow, and ship one
        // pipelined batch per shadow instead of one round-trip per key.
        let mut by_shadow: HashMap<WorkerAddr, Vec<(Vec<u8>, Request)>> = HashMap::new();
        for act in acts {
            match act {
                ReplicationAction::Install {
                    key,
                    shadow,
                    lease_expiry_ms,
                }
                | ReplicationAction::Renew {
                    key,
                    shadow,
                    lease_expiry_ms,
                } => {
                    // Fetch the current value from the home worker.
                    let cachelet = mapping.cachelet_of_vn(mapping.vn_of(key));
                    let value = match self.local_call(
                        wid,
                        Request::Get {
                            cachelet,
                            key: key.clone(),
                        },
                    ) {
                        Some(Response::Value { value, .. }) => value,
                        _ => continue, // evicted or moved; nothing to copy
                    };
                    by_shadow.entry(*shadow).or_default().push((
                        key.clone(),
                        Request::ReplicaInstall {
                            key: key.clone(),
                            value,
                            lease_expiry_ms: *lease_expiry_ms,
                        },
                    ));
                }
                ReplicationAction::Retire { key, shadow } => {
                    self.transport
                        .cast(*shadow, Request::ReplicaInvalidate { key: key.clone() });
                    let empty = match self.replica_locations.get_mut(key) {
                        Some(list) => {
                            list.retain(|s| s != shadow);
                            list.is_empty()
                        }
                        None => false,
                    };
                    if empty {
                        self.replica_locations.remove(key);
                        let key = key.clone();
                        self.worker(wid).tell(move |w| w.unset_replicated(&key));
                    }
                }
            }
        }
        for (shadow, installs) in by_shadow {
            let (keys, reqs): (Vec<Vec<u8>>, Vec<Request>) = installs.into_iter().unzip();
            let results = self.transport.call_many(shadow, reqs, DEFAULT_DEADLINE);
            for (key, result) in keys.into_iter().zip(results) {
                if result.is_ok() {
                    let shadows = {
                        let entry = self.replica_locations.entry(key.clone()).or_default();
                        if !entry.contains(&shadow) {
                            entry.push(shadow);
                        }
                        entry.clone()
                    };
                    self.worker(wid)
                        .tell(move |w| w.set_replicated(key, shadows));
                }
            }
        }
    }

    fn execute_local_migrations(&mut self, plan: &[Migration], now_ms: u64) {
        for m in plan {
            if m.from.server != self.cfg.server || m.to.server != self.cfg.server {
                continue; // defensive: Phase 2 is local by construction
            }
            let Some(unit) = self.release(m) else {
                continue;
            };
            let (home, lease_expiry) =
                (m.from.worker, now_ms + self.cfg.balancer.cachelet_lease_ms);
            self.worker(m.to.worker)
                .ask(move |w| w.adopt(unit, Some((home, lease_expiry))));
            self.leases
                .insert(m.cachelet, (home, m.to.worker, lease_expiry));
            self.coordinator.report_local_move(m);
        }
    }

    /// Takes cachelet `m.cachelet` from worker `m.from`, leaving it
    /// redirecting to `m.to`; `None` if that worker does not own it.
    fn release(&self, m: &Migration) -> Option<Box<CacheUnit>> {
        let (id, to) = (m.cachelet, m.to);
        self.worker(m.from.worker)
            .ask(move |w| w.release(id, to))
            .flatten()
    }

    /// Executes the bounded-load shed (`BalancerConfig::load_cap`).
    /// Unlike a Phase-2 hotspot lease, a cap shed is a *durable*
    /// re-homing — the cap would just have to shed again when a lease
    /// expired under sustained skew — and each executed move counts a
    /// `ring_cap_spills` event on the source worker.
    fn execute_cap_shed(&mut self, plan: &[Migration]) {
        for m in plan {
            if m.from.server != self.cfg.server || m.to.server != self.cfg.server {
                continue; // the cap plans over this server's workers only
            }
            let Some(mut unit) = self.release(m) else {
                continue;
            };
            // The destination owns it outright: clear any hotspot-lease
            // residue so an old lease expiry cannot bounce it back.
            unit.meta_mut().adopt();
            self.leases.remove(&m.cachelet);
            self.worker(m.to.worker).ask(|w| w.adopt(unit, None));
            self.metrics
                .shard(m.from.worker.0 as usize)
                .incr(Counter::RingCapSpills);
            self.coordinator.report_local_move(m);
        }
    }

    /// Returns leased cachelets whose hotspot window ended back to their
    /// home workers ("restored to their home workers with negligible
    /// overhead", §3.3).
    fn expire_leases(&mut self, now_ms: u64) {
        let expired: Vec<(CacheletId, (WorkerId, WorkerId, u64))> = self
            .leases
            .iter()
            .filter(|(_, &(_, _, exp))| exp <= now_ms)
            .map(|(&c, &l)| (c, l))
            .collect();
        for (c, (home, current, _)) in expired {
            let back = Migration {
                cachelet: c,
                from: WorkerAddr {
                    server: self.cfg.server,
                    worker: current,
                },
                to: WorkerAddr {
                    server: self.cfg.server,
                    worker: home,
                },
                load: 0.0,
            };
            if let Some(mut unit) = self.release(&back) {
                unit.meta_mut().restore_home();
                self.worker(home).ask(|w| w.adopt(unit, None));
                self.coordinator.report_local_move(&back);
            }
            self.leases.remove(&c);
        }
    }

    fn execute_coordinated(&mut self, src: WorkerAddr) {
        let Some(plan) = self.coordinator.request_migration(src) else {
            return; // cluster hot: scale out is beyond this server
        };
        let plan: Vec<Migration> = plan
            .into_iter()
            .filter(|m| m.from.server == self.cfg.server)
            .collect();
        self.announce_transfers(&plan);
        for m in &plan {
            self.migrate_out(m);
        }
    }

    /// Points each destination back at its source before any transfer
    /// runs. The coordinator moves the whole plan in the mapping at
    /// once, but transfers run one after another, so clients reach a
    /// destination well before its data does. `MigrateAbort` is the
    /// message that points a destination at `home` (it also ends a
    /// failed transfer); sent first, it makes the destination answer
    /// `Moved` to the source for the cachelet, and misses in the unit
    /// the transfer builds there, until the commit.
    fn announce_transfers(&self, plan: &[Migration]) {
        for m in plan {
            let _ = self.transport.call_with_deadline(
                m.to,
                Request::MigrateAbort {
                    cachelet: m.cachelet,
                    home: m.from,
                },
                DEFAULT_DEADLINE,
            );
        }
    }

    /// Per-bucket Write-Invalidate transfer of one cachelet (§3.4).
    /// Drained buckets accumulate into pipelined `MigrateEntries`
    /// batches of `MIGRATE_FLUSH_BATCH`, so the transfer pays one
    /// round-trip per flush instead of per bucket; the commit travels
    /// under an explicit deadline.
    ///
    /// Failed batches are retried once (installation is add-if-absent,
    /// so re-delivery is idempotent), and a transfer that still cannot
    /// complete is **rolled back**: the destination discards its partial
    /// state, the source re-installs every drained entry, and the
    /// coordinator reverts the mapping — no acknowledged write is lost
    /// to a flaky link. Returns `true` only when the migration
    /// committed.
    pub fn migrate_out(&mut self, m: &Migration) -> bool {
        let (id, dest) = (m.cachelet, m.to);
        if self
            .worker(m.from.worker)
            .ask(move |w| w.begin_migration(id, dest))
            != Some(true)
        {
            return false;
        }
        // Every drained entry is kept here until the commit is
        // acknowledged, so a mid-transfer failure can restore the
        // source exactly.
        let mut drained: MigrationBatch = Vec::new();
        let mut pending: Vec<Request> = Vec::new();
        loop {
            match self.worker(m.from.worker).ask(move |w| w.drain_bucket(id)) {
                Some(Some(entries)) => {
                    if entries.is_empty() {
                        continue;
                    }
                    drained.extend(entries.iter().cloned());
                    pending.push(Request::MigrateEntries {
                        cachelet: m.cachelet,
                        entries,
                    });
                    if pending.len() >= MIGRATE_FLUSH_BATCH
                        && !self.flush_migration_batch(m, std::mem::take(&mut pending))
                    {
                        self.rollback_migration(m, drained);
                        return false;
                    }
                }
                Some(None) => break,
                None => {
                    self.rollback_migration(m, drained);
                    return false;
                }
            }
        }
        if !pending.is_empty() && !self.flush_migration_batch(m, pending) {
            self.rollback_migration(m, drained);
            return false;
        }
        if !self.commit_migration(m) {
            self.rollback_migration(m, drained);
            return false;
        }
        self.worker(m.from.worker)
            .ask(move |w| w.finish_migration(id));
        self.coordinator.migration_complete(m.cachelet);
        true
    }

    /// Ships one pipelined batch of `MigrateEntries` to the destination,
    /// retrying only the frames that failed. Safe to re-send because the
    /// destination installs add-if-absent.
    fn flush_migration_batch(&self, m: &Migration, reqs: Vec<Request>) -> bool {
        let shard = self.metrics.shard(m.from.worker.0 as usize);
        let results = self
            .transport
            .call_many(m.to, reqs.clone(), DEFAULT_DEADLINE);
        let mut retry: Vec<Request> = Vec::new();
        for (req, res) in reqs.into_iter().zip(&results) {
            if let Err(e) = res {
                if matches!(e, TransportError::Timeout(_)) {
                    shard.incr(Counter::TransportTimeouts);
                }
                retry.push(req);
            }
        }
        if retry.is_empty() {
            return true;
        }
        shard.add(Counter::TransportRetries, retry.len() as u64);
        self.transport
            .call_many(m.to, retry, DEFAULT_DEADLINE)
            .iter()
            .all(|r| r.is_ok())
    }

    /// Sends the `MigrateCommit`, retrying transport errors — a commit
    /// whose ack was lost (connection reset) has already taken effect on
    /// the destination, and re-sending it is idempotent, so retrying
    /// here avoids a needless full rollback.
    fn commit_migration(&self, m: &Migration) -> bool {
        let shard = self.metrics.shard(m.from.worker.0 as usize);
        let req = Request::MigrateCommit {
            cachelet: m.cachelet,
        };
        for attempt in 0..3 {
            match self
                .transport
                .call_with_deadline(m.to, req.clone(), DEFAULT_DEADLINE)
            {
                Ok(Response::MigrateAck) => return true,
                Ok(_) => return false,
                Err(e) => {
                    if matches!(e, TransportError::Timeout(_)) {
                        shard.incr(Counter::TransportTimeouts);
                    }
                    if attempt < 2 {
                        shard.incr(Counter::TransportRetries);
                    }
                }
            }
        }
        false
    }

    /// Rolls a failed transfer back: best-effort abort at the
    /// destination (short deadline — it may be the unreachable party),
    /// re-installation of the drained entries at the source, and a
    /// mapping reversion at the coordinator.
    fn rollback_migration(&mut self, m: &Migration, drained: MigrationBatch) {
        let _ = self.transport.call_with_deadline(
            m.to,
            Request::MigrateAbort {
                cachelet: m.cachelet,
                home: m.from,
            },
            std::time::Duration::from_millis(250),
        );
        let id = m.cachelet;
        self.worker(m.from.worker)
            .ask(move |w| w.abort_migration(id, drained));
        self.coordinator.migration_failed(m);
    }

    /// Starts a background thread ticking the balancer every epoch on
    /// the server's clock. Returns a guard handle; the thread stops at
    /// [`Server::shutdown`].
    pub fn start_balance_thread(server: Arc<parking_lot::Mutex<Server>>) -> JoinHandle<()> {
        let (stop, clock, epoch_ms) = {
            let s = server.lock();
            (
                Arc::clone(&s.stop),
                Arc::clone(&s.clock),
                s.cfg.balancer.epoch_ms,
            )
        };
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(epoch_ms));
                let now = clock.now_millis();
                server.lock().tick(now);
            }
        })
    }

    /// Stops workers and joins their threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for cell in &self.workers {
            let _ = cell.mailbox().send(WorkerMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
