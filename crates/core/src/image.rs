//! Images, the job launcher, and the runtime progress engine.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use caf_fabric::group::splitmix64;
use caf_fabric::{Fabric, FabricConfig, Group};
use caf_gasnetsim::{Gasnet, GasnetConfig};
use caf_mpisim::{Mpi, MpiConfig};

use crate::arena::SegmentArena;
use crate::backend::{Backend, FlushMode, GasnetBackend, MpiBackend, RT_HANDLER};
use crate::coarray::{On, RegionInner};
use crate::collectives::CollStash;
use crate::op::{CafOp, Chan, Edge};
use crate::rtmsg::RtMsg;
use crate::ship::ShipRegistry;
use crate::stats::Stats;
use crate::team::Team;

/// Which communication substrate the CAF runtime runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateKind {
    /// CAF-MPI — the paper's contribution: MPI-3 is the runtime.
    Mpi,
    /// CAF-GASNet — the original CAF 2.0 runtime, the paper's baseline.
    Gasnet,
}

/// Configuration of one CAF job.
#[derive(Debug, Clone, Copy)]
pub struct CafConfig {
    /// Substrate selection.
    pub substrate: SubstrateKind,
    /// MPI library configuration (used by the MPI substrate, and by the
    /// co-resident MPI library under `hybrid_mpi`).
    pub mpi: MpiConfig,
    /// GASNet library configuration.
    pub gasnet: GasnetConfig,
    /// On the GASNet substrate, also initialize a full MPI library on every
    /// image — the paper's *duplicate runtimes* situation, required for
    /// hybrid MPI+CAF applications (CGPOP) on CAF-GASNet and measured by
    /// Figure 1. On the MPI substrate this flag is meaningless: the single
    /// MPI library already serves both roles (that is the point of the
    /// paper).
    pub hybrid_mpi: bool,
    /// Release-point completion policy for the CAF-MPI backend (ignored on
    /// GASNet, whose sync of non-blocking puts is already a local
    /// operation). Defaults to the paper-faithful [`FlushMode::All`]; the
    /// §5 fixes are [`FlushMode::Targeted`] and [`FlushMode::Rflush`].
    pub flush: FlushMode,
    /// Small-put coalescing knobs (opt-in; default disabled so the
    /// paper-faithful direct path is what runs). See `crates/agg` and
    /// DESIGN.md §13. The runtime clamps the knobs at init — see
    /// [`Image::agg_config`] for the effective values.
    pub agg: caf_agg::AggConfig,
    /// How images execute: one OS thread each ([`caf_sched::ExecMode::Threads`],
    /// the paper-faithful default) or as caf-sched tasks sharing a few
    /// run slots ([`caf_sched::ExecMode::Tasks`]), which executes P=1024
    /// jobs for real. See DESIGN.md §15.
    pub exec: caf_sched::ExecConfig,
    /// Deterministic fault-injection schedule (DESIGN.md §17). Default:
    /// nothing dies. Jobs that inject kills should launch through
    /// [`CafUniverse::run_with_config_ft`] so a killed image becomes a
    /// `None` result instead of a job panic.
    pub fault: caf_fabric::FaultPlan,
}

impl Default for CafConfig {
    fn default() -> Self {
        CafConfig {
            substrate: SubstrateKind::Mpi,
            mpi: MpiConfig::default(),
            gasnet: GasnetConfig::default(),
            hybrid_mpi: false,
            flush: FlushMode::All,
            agg: caf_agg::AggConfig::default(),
            exec: caf_sched::ExecConfig::default(),
            fault: caf_fabric::FaultPlan::none(),
        }
    }
}

impl CafConfig {
    /// Default configuration on the given substrate.
    pub fn on(substrate: SubstrateKind) -> Self {
        CafConfig {
            substrate,
            ..CafConfig::default()
        }
    }
}

/// A runtime operation parked on a predicate event: `(event_id, op)`.
pub(crate) type DeferredOp = (u64, Box<dyn FnOnce(&Image)>);

/// Launcher for CAF jobs.
pub struct CafUniverse;

impl CafUniverse {
    /// Run `f` on `n` images over the MPI substrate (the default).
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Image) -> T + Send + Sync,
    {
        Self::run_with_config(n, CafConfig::default(), f)
    }

    /// As [`CafUniverse::run_with_config`], additionally capturing every
    /// image's time-decomposition ledger — the measurement path behind
    /// the paper's Figure 4 / Figure 8 profiles.
    pub fn run_collect_stats<T, F>(
        n: usize,
        config: CafConfig,
        f: F,
    ) -> Vec<(T, crate::stats::StatsReport)>
    where
        T: Send,
        F: Fn(&Image) -> T + Send + Sync,
    {
        Self::run_with_config(n, config, |img| {
            let r = f(img);
            (r, crate::stats::StatsReport::capture(img.stats()))
        })
    }

    /// Run `f` on `n` images with an explicit configuration; returns
    /// per-image results in image order.
    ///
    /// # Panics
    ///
    /// A panicking image is Fortran's `error stop`: its partners observe
    /// it as a failed image and unwind, and the first such panic is
    /// re-raised here once every image has returned. An image killed by
    /// fault injection panics the job too; use
    /// [`CafUniverse::run_with_config_ft`] to tolerate those.
    pub fn run_with_config<T, F>(n: usize, config: CafConfig, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Image) -> T + Send + Sync,
    {
        Self::launch(n, config, f)
            .into_iter()
            .map(|r| r.expect("image killed by fault injection (use run_with_config_ft)"))
            .collect()
    }

    /// Fault-tolerant launcher: as [`CafUniverse::run_with_config`], but a
    /// rank killed by the configured [`CafConfig::fault`] plan (or by its
    /// own [`Image::fail_image`]) yields `None` instead of panicking the
    /// job. Any *other* panic still propagates — only injected deaths are
    /// forgiven.
    pub fn run_with_config_ft<T, F>(n: usize, config: CafConfig, f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(&Image) -> T + Send + Sync,
    {
        Self::launch(n, config, f)
    }

    /// Run the job through the fabric's launcher; `None` for an image
    /// killed by fault injection, any other panic re-raised after the
    /// join — the first to have happened ([`Fabric::launch`]).
    fn launch<T, F>(n: usize, config: CafConfig, f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(&Image) -> T + Send + Sync,
    {
        let fabric = FabricConfig { planes: 2, exec: config.exec, fault: config.fault };
        let ship_reg = Arc::new(ShipRegistry::new());
        Fabric::launch(n, fabric, |planes| {
            let [ep0, ep1] = <[_; 2]>::try_from(planes).expect("two planes");
            let img = Image::init(ep0, ep1, config, Arc::clone(&ship_reg));
            f(&img)
        })
    }
}

/// One CAF process image: the runtime handle every CAF operation goes
/// through. One per thread; not `Sync`.
pub struct Image {
    pub(crate) backend: Backend,
    pub(crate) ship_reg: Arc<ShipRegistry>,
    /// Posted-event counts, keyed by event id.
    pub(crate) events: RefCell<HashMap<u64, u64>>,
    /// Copies deferred on a predicate event: `(event_id, op)`.
    pub(crate) deferred: RefCell<Vec<DeferredOp>>,
    /// Innermost-first stack of active finish block ids.
    pub(crate) finish_stack: RefCell<Vec<u64>>,
    /// Per-finish (shipped, completed) counters.
    pub(crate) finish_counters: RefCell<HashMap<u64, (u64, u64)>>,
    /// Hand-rolled collective fragments awaiting their consumer (GASNet).
    pub(crate) coll_stash: RefCell<CollStash>,
    /// Every coarray region this image holds a part of, keyed by region
    /// id (the window id on CAF-MPI): how a runtime message's id resolves
    /// to its region, and, ordered, the windows a release flushes in the
    /// same order on every run.
    pub(crate) regions: RefCell<BTreeMap<u64, Arc<RegionInner>>>,
    /// One-entry cursor over `regions`: the region last resolved by id.
    /// Message targets (aggregation records above all) hit the same region
    /// many times in a row, so the table is consulted once per run of
    /// equal ids. [`Image::forget_region`] clears it, so a freed region's
    /// memory is not held here.
    last_region: RefCell<Option<Arc<RegionInner>>>,
    /// Implicitly synchronized put count (consumed by `cofence`).
    pub(crate) implicit_puts: Cell<u64>,
    /// Small-put aggregation buckets (`crates/agg`), under the clamped
    /// effective configuration.
    pub(crate) agg: RefCell<caf_agg::Aggregator>,
    /// Per-image counter feeding globally unique batch tokens.
    pub(crate) agg_token_ctr: Cell<u64>,
    world: Team,
    stats: Stats,
}

impl Image {
    fn init(
        ep0: caf_fabric::Endpoint,
        ep1: caf_fabric::Endpoint,
        config: CafConfig,
        ship_reg: Arc<ShipRegistry>,
    ) -> Self {
        let n = ep0.size();
        let (backend, world) = match config.substrate {
            SubstrateKind::Mpi => {
                let mpi = Mpi::init(ep0, config.mpi);
                drop(ep1); // single library, single plane
                let world_comm = mpi.world();
                // Communication-free dup: image bring-up must not block
                // on peers a fault plan may kill before they ever reach
                // the runtime (the collective `comm_dup` barriers).
                let rt_comm = mpi.comm_dup_local(&world_comm);
                (
                    Backend::Mpi(Box::new(MpiBackend { mpi, rt_comm, flush: config.flush })),
                    Team { group: world_comm },
                )
            }
            SubstrateKind::Gasnet => {
                let g = Gasnet::init(ep0, config.gasnet);
                let inbox = Rc::new(RefCell::new(VecDeque::new()));
                g.register_handler(RT_HANDLER, {
                    let inbox = Rc::clone(&inbox);
                    move |_g: &Gasnet, _tok, _args, data| {
                        inbox.borrow_mut().push_back(data.to_vec());
                    }
                });
                let hybrid_mpi = if config.hybrid_mpi {
                    Some(Mpi::init(ep1, config.mpi))
                } else {
                    drop(ep1);
                    None
                };
                let rank = g.rank();
                let arena = SegmentArena::new(config.gasnet.segment_size);
                (
                    Backend::Gasnet(Box::new(GasnetBackend { g, arena, inbox, hybrid_mpi })),
                    Team { group: Group::new(0, (0..n).collect::<Vec<_>>(), rank) },
                )
            }
        };
        let rank = backend.rank();
        let agg_cfg = crate::agg::effective_agg_config(config.agg, config.substrate, n);
        Image {
            backend,
            ship_reg,
            events: RefCell::new(HashMap::new()),
            deferred: RefCell::new(Vec::new()),
            finish_stack: RefCell::new(Vec::new()),
            finish_counters: RefCell::new(HashMap::new()),
            coll_stash: RefCell::new(HashMap::new()),
            regions: RefCell::new(BTreeMap::new()),
            last_region: RefCell::new(None),
            implicit_puts: Cell::new(0),
            agg: RefCell::new(caf_agg::Aggregator::with_headroom(
                agg_cfg,
                rank,
                n,
                crate::rtmsg::AGG_BATCH_HEADER,
            )),
            agg_token_ctr: Cell::new(0),
            world,
            stats: Stats::new(),
        }
    }

    /// This image's index (0-based; Fortran's `this_image()` is 1-based).
    pub fn this_image(&self) -> usize {
        self.backend.rank()
    }

    /// Total number of images (`num_images()`).
    pub fn num_images(&self) -> usize {
        self.backend.size()
    }

    /// `TEAM_WORLD`.
    pub fn team_world(&self) -> Team {
        self.world.clone()
    }

    /// The per-image time-decomposition ledger.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Which substrate this job runs on.
    pub fn substrate(&self) -> SubstrateKind {
        match &self.backend {
            Backend::Mpi(_) => SubstrateKind::Mpi,
            Backend::Gasnet(_) => SubstrateKind::Gasnet,
        }
    }

    /// Direct access to the MPI library, for hybrid MPI+CAF applications.
    ///
    /// On the MPI substrate this is the *same* library instance the CAF
    /// runtime uses — the interoperability the paper is about. On the
    /// GASNet substrate it is the co-resident duplicate library, present
    /// only when [`CafConfig::hybrid_mpi`] was set.
    pub fn mpi(&self) -> Option<&Mpi> {
        match &self.backend {
            Backend::Mpi(b) => Some(&b.mpi),
            Backend::Gasnet(b) => b.hybrid_mpi.as_ref(),
        }
    }

    /// Bytes of runtime (non-user-data) memory mapped by the communication
    /// libraries on this image — the Figure-1 quantity.
    pub fn runtime_memory_overhead(&self) -> usize {
        self.backend.memory_overhead()
    }

    /// Snapshot of this image's substrate delay meter: per
    /// [`caf_fabric::DelayOp`] `(op, count, modeled_ns)` since job start.
    /// Counts and modeled nanoseconds are deterministic functions of the
    /// communication schedule (never wall-clock), which makes deltas of
    /// this snapshot the basis for CI-gateable benchmark numbers.
    pub fn delay_meter_snapshot(&self) -> Vec<(caf_fabric::DelayOp, u64, u64)> {
        match &self.backend {
            Backend::Mpi(b) => b.mpi.delay_meter().snapshot(),
            Backend::Gasnet(b) => b.g.delay_meter().snapshot(),
        }
    }

    /// Drive runtime progress: handle every runtime message that has
    /// already arrived. Called internally by blocking operations; exposed
    /// so long compute loops can keep shipped functions and events flowing.
    pub fn poll(&self) {
        while let Some(frame) = self.backend.try_recv_rtmsg() {
            self.handle_msg(&frame);
        }
    }

    /// Handle one runtime message, decoded in place from its frame.
    pub(crate) fn handle_msg(&self, frame: &[u8]) {
        match RtMsg::decode(frame) {
            RtMsg::EventNotify { event_id } => self.post_event_local(event_id),
            RtMsg::Ship { slot, finish_id } => {
                // The executor joins the shipper's clock before the
                // closure runs: the ship-registry slot is globally unique,
                // so it doubles as the happens-before channel token.
                let f = self.op(CafOp::recv(Chan::Ship, slot), || self.ship_reg.claim(slot));
                // Functions shipped *by* this function belong to the same
                // finish block (Yang's accounting), so propagate its id as
                // the innermost scope for the duration of the execution.
                self.finish_stack.borrow_mut().push(finish_id);
                f(self);
                self.finish_stack.borrow_mut().pop();
                // The shipped function's one-sided effects must be globally
                // visible before it counts as completed — including any
                // puts it parked in aggregation buckets, whose batches are
                // accounted to the same finish id.
                self.agg_drain_all(finish_id);
                self.flush_all();
                self.finish_counter(finish_id).1 += 1;
            }
            RtMsg::PutWithEvent {
                region_id,
                offset,
                event_id,
                data,
            } => {
                self.region_write_local(region_id, offset as usize, data);
                if event_id != 0 {
                    self.post_event_local(event_id);
                }
            }
            RtMsg::AggBatch {
                token,
                finish_id,
                data,
            } => self.handle_agg_batch(token, finish_id, data),
            RtMsg::CollPayload { team_id, seq, phase, src_idx, nchunks, data, .. } => {
                self.stash_fragment((team_id, seq, phase, src_idx), nchunks, data);
            }
        }
    }

    /// The `(shipped, completed)` counters of finish block `fid`.
    pub(crate) fn finish_counter(&self, fid: u64) -> std::cell::RefMut<'_, (u64, u64)> {
        std::cell::RefMut::map(self.finish_counters.borrow_mut(), |c| c.entry(fid).or_insert((0, 0)))
    }

    /// Unregister region `id` (at `coarray_free`) — the only way out of
    /// the region table — and clear the cursor if it points there.
    pub(crate) fn forget_region(&self, id: u64) {
        self.regions.borrow_mut().remove(&id);
        self.last_region.borrow_mut().take_if(|r| r.id() == id);
    }

    /// Run `f` on region `id` paired with this image's backend: one id
    /// compare when the cursor hits, one table lookup when it misses.
    ///
    /// # Panics
    ///
    /// Panics when no such region exists: ids arrive in runtime messages,
    /// so an unknown one is a runtime bug (or a message outliving its
    /// coarray — a program error the model's oracle reports first).
    #[inline]
    fn with_region<R>(&self, id: u64, f: impl FnOnce(On<'_>) -> R) -> R {
        let mut cursor = self.last_region.borrow_mut();
        let region = match &mut *cursor {
            Some(r) if r.id() == id => r,
            slot => {
                let regions = self.regions.borrow();
                let r = regions
                    .get(&id)
                    .unwrap_or_else(|| panic!("runtime message for unknown region {id}"));
                slot.insert(Arc::clone(r))
            }
        };
        f(region.on(&self.backend))
    }

    /// Write into this image's part of a region (the target path of
    /// `PutWithEvent` messages and aggregated `Put` records).
    pub(crate) fn region_write_local(&self, region_id: u64, offset: usize, data: &[u8]) {
        self.with_region(region_id, |on| match on {
            On::Mpi(b, win) => b.mpi.win_write_local(win, offset, data),
            On::Gasnet(b, r) => b.g.write_local(r.local_base() + offset, data),
        })
        .expect("message-delivered local write");
    }

    /// Read-modify-write one u64 in this image's part of a region (the
    /// accumulate-record target path of batched aggregation delivery).
    /// Applied serially by the owning image's progress engine, so
    /// concurrent updates from any number of origins are atomic.
    pub(crate) fn region_rmw_u64(&self, region_id: u64, offset: usize, f: impl FnOnce(u64) -> u64) {
        self.with_region(region_id, |on| match on {
            On::Mpi(b, win) => b.mpi.win_rmw_local_u64(win, offset, f),
            On::Gasnet(b, r) => b.g.rmw_local_u64(r.local_base() + offset, f),
        })
        .expect("accumulate local update");
    }

    /// Post `event_id` once on this image, releasing any deferred copies
    /// predicated on it.
    pub(crate) fn post_event_local(&self, event_id: u64) {
        *self.events.borrow_mut().entry(event_id).or_insert(0) += 1;
        // Release deferred operations whose predicate just fired.
        let ready: Vec<_> = {
            let mut deferred = self.deferred.borrow_mut();
            let mut ready = Vec::new();
            let mut i = 0;
            while i < deferred.len() {
                if deferred[i].0 == event_id {
                    ready.push(deferred.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            ready
        };
        for op in ready {
            op(self);
        }
    }

    // ----- failed-image semantics (Fortran 2018, DESIGN.md §17) --------

    /// Fail this image here (`fail image`). The image stops executing
    /// immediately; under [`CafConfig::fault`]`.detect` (the default)
    /// survivors observe the death at their next blocking point. Use
    /// [`CafUniverse::run_with_config_ft`] to turn the death into a `None`
    /// result instead of a job panic.
    pub fn fail_image(&self) -> ! {
        match &self.backend {
            Backend::Mpi(b) => b.mpi.fail_now(),
            Backend::Gasnet(b) => b.g.fail_now(),
        }
    }

    /// Failure status of image `i` (`image_status(i)`), as observed
    /// through the substrate's failure registry.
    pub fn image_status(&self, i: usize) -> crate::stat::ImageStatus {
        if self.backend.fault().is_failed(i) {
            crate::stat::ImageStatus::Failed
        } else {
            crate::stat::ImageStatus::Ok
        }
    }

    /// Every image observed to have failed so far (global ranks,
    /// ascending) — Fortran's `failed_images()`.
    pub fn failed_images(&self) -> Vec<usize> {
        self.backend.fault().failed_set()
    }

    /// A named fault-injection site: if the configured plan kills this
    /// image at this occurrence of `name`, die here (see
    /// [`caf_fabric::KillSite::Op`]).
    pub(crate) fn fault_point(&self, name: &str) {
        let fault = self.backend.fault();
        if fault.plan().is_empty() {
            return;
        }
        if fault.op_hit(name) {
            self.fail_image();
        }
    }

    /// Deliver the failed-image status a substrate error carries: record
    /// the trace instant and tell the race detector that edges to the
    /// failed images terminate. Any error other than a detected failure
    /// is a runtime bug and panics.
    pub(crate) fn stat_failed(&self, e: caf_fabric::FabricError) -> crate::stat::Stat {
        let caf_fabric::FabricError::ImageFailed { failed } = e else {
            panic!("substrate error: {e}")
        };
        debug_assert!(!failed.is_empty(), "stat_failed needs a failed set");
        caf_trace::instant(caf_trace::Op::StatDelivered, None, failed.len() as u64, None);
        for &r in &failed {
            self.edge(CafOp { edge: Edge::Failed(r), ..CafOp::of(None) });
        }
        crate::stat::Stat::FailedImage(failed)
    }

    /// Collectively derive a fresh token on `team` (used for event, finish,
    /// and GASNet-region ids). Every member must call this in the same
    /// collective context.
    pub(crate) fn next_team_token(&self, team: &Team, salt: u64) -> u64 {
        derive_token(team.id(), team.group.next_token(), salt)
    }
}

/// Token derivation with the mixer of every group id (SplitMix64's
/// finalizer over `team_id ^ counter·γ ^ salt⋘32`, γ its increment).
pub(crate) fn derive_token(team_id: u64, counter: u64, salt: u64) -> u64 {
    const GAMMA: u64 = 0x9e3779b97f4a7c15;
    let x = team_id ^ counter.wrapping_mul(GAMMA) ^ salt.rotate_left(32);
    splitmix64(x.wrapping_sub(GAMMA)) | 1 // never 0 (0 is the "no event" sentinel)
}

/// Unit-test helper: run `f` on `n` images of each substrate in turn.
#[cfg(test)]
pub(crate) fn both(n: usize, f: impl Fn(&Image) + Send + Sync) {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        CafUniverse::run_with_config(n, CafConfig::on(kind), |img| f(img));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_launch_on_both_substrates() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let res = CafUniverse::run_with_config(4, CafConfig::on(kind), |img| {
                assert_eq!(img.substrate(), kind);
                assert_eq!(img.team_world().size(), 4);
                (img.this_image(), img.num_images())
            });
            assert_eq!(res, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
        }
    }

    #[test]
    fn mpi_substrate_exposes_mpi_handle() {
        CafUniverse::run(2, |img| {
            assert!(img.mpi().is_some());
        });
    }

    #[test]
    fn gasnet_substrate_without_hybrid_has_no_mpi() {
        CafUniverse::run_with_config(2, CafConfig::on(SubstrateKind::Gasnet), |img| {
            assert!(img.mpi().is_none());
        });
    }

    #[test]
    fn hybrid_gasnet_has_duplicate_runtimes() {
        let cfg = CafConfig {
            hybrid_mpi: true,
            ..CafConfig::on(SubstrateKind::Gasnet)
        };
        let overheads = CafUniverse::run_with_config(2, cfg, |img| {
            assert!(img.mpi().is_some());
            img.runtime_memory_overhead()
        });
        // Duplicate runtimes must cost more than GASNet alone (Figure 1).
        let gasnet_only = CafUniverse::run_with_config(
            2,
            CafConfig::on(SubstrateKind::Gasnet),
            |img| img.runtime_memory_overhead(),
        );
        assert!(overheads[0] > gasnet_only[0]);
    }

    /// `error stop`: image 1 panics while image 0 sits in `sync_all`. The
    /// job must return (own 10 s watchdog, so a regression fails instead
    /// of hanging CI) and re-raise the *first* panic — image 0's is only
    /// its barrier reporting image 1's death.
    #[test]
    fn panicking_image_releases_its_partners_and_is_the_panic_reported() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for exec in [caf_sched::ExecConfig::default(), caf_sched::ExecConfig::tasks()] {
                let cfg = CafConfig {
                    exec,
                    ..CafConfig::on(kind)
                };
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let job = std::panic::catch_unwind(|| {
                        CafUniverse::run_with_config(2, cfg, |img| {
                            if img.this_image() == 1 {
                                panic!("marker: image 1 stops with an error");
                            }
                            img.sync_all();
                        })
                    });
                    let _ = tx.send(job.map(drop));
                });
                let job = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("{kind:?}/{:?}: partner never released", exec.mode));
                let payload = job.expect_err("the job must not succeed");
                let message = payload
                    .downcast_ref::<&str>()
                    .expect("the first panic's own payload");
                assert!(message.contains("marker"), "{kind:?}/{:?}: {message}", exec.mode);
            }
        }
    }

    #[test]
    fn derived_tokens_never_zero_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for team in 0..10u64 {
            for ctr in 1..10u64 {
                for salt in [0xEE, 0xF1, 0xCA] {
                    let t = derive_token(team, ctr, salt);
                    assert_ne!(t, 0);
                    assert!(seen.insert(t), "token collision");
                }
            }
        }
    }

    #[test]
    fn run_collect_stats_captures_ledgers() {
        let rows = CafUniverse::run_collect_stats(2, CafConfig::default(), |img| {
            img.sync_all();
            img.this_image()
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, 1);
        // The barrier must appear in the captured report.
        let report = &rows[0].1;
        let barrier_calls = report
            .rows
            .iter()
            .find(|(c, _, _)| *c == crate::stats::StatCat::Barrier)
            .map(|&(_, _, k)| k)
            .unwrap();
        assert!(barrier_calls >= 1);
    }

    #[test]
    fn post_event_accumulates() {
        CafUniverse::run(1, |img| {
            img.post_event_local(99);
            img.post_event_local(99);
            assert_eq!(img.events.borrow()[&99], 2);
        });
    }
}
