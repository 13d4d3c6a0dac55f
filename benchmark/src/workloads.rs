//! The eight workloads. Each is a closed loop of SPMD images: an image
//! issues its next operation when the previous one completes, so the
//! client count is the image count P.
//!
//! A *launch* is one `CafUniverse::run_with_config`: allocation, a fixed
//! number of warm-up and measured repetitions, verification data
//! hand-back, free. Launches have fixed size so that their ledgers and
//! their set-up cost repeat exactly; the driver in `run.rs` fits as many
//! launches as the time budget allows.

use std::sync::OnceLock;
use std::time::Instant;

use caf::{AggConfig, CafConfig, Coarray, ExecConfig, ExecMode, GasnetConfig, SubstrateKind};
use caf_fabric::topology::Grid2d;
use caf_hpcc::cgpop::{self, CgpopParams, ExchangeMode};
use caf_hpcc::complex::C64;
use caf_hpcc::ra::{self, RaOpts};
use caf_hpcc::{fft, hpl};

use crate::harness::ImageHarness;

/// One workload: what a launch runs and how its result is checked.
pub trait Workload: Send + Sync + 'static {
    /// Data an image hands back for verification outside the universe.
    type Verify: Send + 'static;

    fn name(&self) -> &'static str;
    /// Image count.
    fn p(&self) -> usize {
        2
    }
    /// What one unit of `*.rate` is.
    fn work_unit(&self) -> &'static str;
    /// Work units in one repetition.
    fn work_per_rep(&self) -> f64;
    /// `(warm-up, measured)` repetitions per launch.
    fn reps(&self) -> (usize, usize);
    /// Bytes of GASNet segment each image attaches: the working set, not
    /// the 64 MiB of `caf_bench::fast` (which at P=256 is 16 GiB).
    fn segment_bytes(&self) -> usize;
    /// Anything beyond substrate and segment size the kernel needs.
    fn configure(&self, _cfg: &mut CafConfig) {}
    /// The image body of one launch.
    fn image_main(&self, h: &mut ImageHarness<'_>, first_launch: bool) -> Self::Verify;
    /// Check what the images handed back, in image order.
    fn check(&self, handed_back: &[Self::Verify], first_launch: bool) -> Result<(), String>;
}

/// The runtime configuration of a workload: cost-free delay tables and
/// `CafConfig` defaults otherwise (stats accounting on, no trace
/// session, no fault plan); `hybrid_mpi` on CAF-GASNet so kernels that
/// call MPI directly find a library.
pub fn config_for<W: Workload>(w: &W, kind: SubstrateKind) -> CafConfig {
    let mut cfg = CafConfig {
        substrate: kind,
        gasnet: GasnetConfig {
            segment_size: w.segment_bytes(),
            ..GasnetConfig::default()
        },
        hybrid_mpi: kind == SubstrateKind::Gasnet,
        ..CafConfig::default()
    };
    w.configure(&mut cfg);
    cfg
}

/// CPUs a job runs on (see `host::Pinning`), hence the worker count of
/// the Tasks-mode executor.
pub const JOB_CPUS: usize = 1;

/// SplitMix64: the generator every seeded input stream comes from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- put8 / get8 --------------------------------------------------------

/// Elements of the target array: 256 KiB, cache-resident, so the
/// per-operation software path is what is timed.
const RMA_LEN: usize = 1 << 15;
/// Operations per repetition (one timed batch).
const RMA_BATCH: usize = 10_000;

/// The seeded element-offset stream of one batch.
fn rma_offsets(seed: u64) -> Vec<usize> {
    let mut st = seed ^ 0x0FF5_E705;
    (0..RMA_BATCH)
        .map(|_| (splitmix64(&mut st) % RMA_LEN as u64) as usize)
        .collect()
}

/// The value batch `b` writes with its `i`-th operation.
fn put_value(b: usize, i: usize) -> u64 {
    ((b as u64 + 1) << 32) | i as u64
}

/// What the `get8` target holds at element `j`.
fn get_value(seed: u64, j: usize) -> u64 {
    splitmix64(&mut (seed ^ j as u64))
}

/// Image 0 streams blocking 8-byte `Coarray::write`s to image 1.
pub struct Put8 {
    offs: Vec<usize>,
}

impl Put8 {
    pub fn new(seed: u64) -> Self {
        Put8 {
            offs: rma_offsets(seed),
        }
    }
}

impl Workload for Put8 {
    /// Image 1's array after the last batch.
    type Verify = Vec<u64>;

    fn name(&self) -> &'static str {
        "put8"
    }
    fn work_unit(&self) -> &'static str {
        "write"
    }
    fn work_per_rep(&self) -> f64 {
        RMA_BATCH as f64
    }
    fn reps(&self) -> (usize, usize) {
        (10, 200)
    }
    fn segment_bytes(&self) -> usize {
        2 * RMA_LEN * 8
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> Vec<u64> {
        let img = h.img;
        let world = img.team_world();
        let ca: Coarray<u64> = h.call("alloc", "core", || img.coarray_alloc(&world, RMA_LEN));
        if img.this_image() == 0 {
            let (warm, measured) = self.reps();
            for b in 0..warm + measured {
                h.rep("core", || {
                    let t = Instant::now();
                    for (i, &off) in self.offs.iter().enumerate() {
                        ca.write(img, 1, off, &[put_value(b, i)]);
                    }
                    t.elapsed().as_secs_f64()
                });
            }
        }
        // Image 1 is parked here for the whole stream.
        h.call("sync_all", "core", || img.sync_all());
        let back = if img.this_image() == 1 {
            h.verification(|| ca.local_vec(img))
        } else {
            Vec::new()
        };
        h.call("free", "core", || img.coarray_free(&world, ca));
        back
    }

    fn check(&self, handed_back: &[Vec<u64>], _first: bool) -> Result<(), String> {
        let (warm, measured) = self.reps();
        let last = warm + measured - 1;
        // Read-back of the last batch: every offset holds what the last
        // write to it stored.
        let mut want = std::collections::BTreeMap::new();
        for (i, &off) in self.offs.iter().enumerate() {
            want.insert(off, put_value(last, i));
        }
        let got = &handed_back[1];
        match want.iter().find(|&(&off, &v)| got.get(off) != Some(&v)) {
            None => Ok(()),
            Some((off, v)) => Err(format!(
                "put8 read-back: element {off} is {:?}, last batch wrote {v:#x}",
                got.get(*off)
            )),
        }
    }
}

/// Image 0 streams blocking 8-byte `Coarray::read`s from image 1.
pub struct Get8 {
    seed: u64,
    offs: Vec<usize>,
}

impl Get8 {
    pub fn new(seed: u64) -> Self {
        Get8 {
            seed,
            offs: rma_offsets(seed),
        }
    }
}

impl Workload for Get8 {
    /// What image 0 read in its last batch, in stream order.
    type Verify = Vec<u64>;

    fn name(&self) -> &'static str {
        "get8"
    }
    fn work_unit(&self) -> &'static str {
        "read"
    }
    fn work_per_rep(&self) -> f64 {
        RMA_BATCH as f64
    }
    fn reps(&self) -> (usize, usize) {
        (10, 200)
    }
    fn segment_bytes(&self) -> usize {
        2 * RMA_LEN * 8
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> Vec<u64> {
        let img = h.img;
        let world = img.team_world();
        let ca: Coarray<u64> = h.call("alloc", "core", || img.coarray_alloc(&world, RMA_LEN));
        if img.this_image() == 1 {
            let init: Vec<u64> = (0..RMA_LEN).map(|j| get_value(self.seed, j)).collect();
            h.call("init", "core", || ca.local_write(img, 0, &init));
        }
        h.call("sync_all", "core", || img.sync_all());
        let mut out = vec![0u64; RMA_BATCH];
        if img.this_image() == 0 {
            let (warm, measured) = self.reps();
            for _ in 0..warm + measured {
                h.rep("core", || {
                    let t = Instant::now();
                    for (slot, &off) in out.iter_mut().zip(self.offs.iter()) {
                        ca.read(img, 1, off, std::slice::from_mut(slot));
                    }
                    t.elapsed().as_secs_f64()
                });
            }
        }
        h.call("sync_all", "core", || img.sync_all());
        h.call("free", "core", || img.coarray_free(&world, ca));
        out
    }

    fn check(&self, handed_back: &[Vec<u64>], _first: bool) -> Result<(), String> {
        let got = &handed_back[0];
        match (0..RMA_BATCH).find(|&i| got[i] != get_value(self.seed, self.offs[i])) {
            None => Ok(()),
            Some(i) => Err(format!(
                "get8 read-back: operation {i} read {:#x} from element {}",
                got[i], self.offs[i]
            )),
        }
    }
}

// ---- sync ---------------------------------------------------------------

/// Round trips per repetition.
const SYNC_BATCH: usize = 2000;

/// Images 0 and 1 ping-pong `event_notify`/`event_wait`.
pub struct EventSync;

impl Workload for EventSync {
    /// Unconsumed posts visible at exit.
    type Verify = u64;

    fn name(&self) -> &'static str {
        "sync"
    }
    fn work_unit(&self) -> &'static str {
        "round trip"
    }
    fn work_per_rep(&self) -> f64 {
        SYNC_BATCH as f64
    }
    fn reps(&self) -> (usize, usize) {
        (2, 40)
    }
    fn segment_bytes(&self) -> usize {
        64 << 10
    }
    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> u64 {
        let img = h.img;
        let world = img.team_world();
        let (ping, pong) = h.call("alloc", "core", || {
            (img.event_alloc(&world), img.event_alloc(&world))
        });
        h.call("sync_all", "core", || img.sync_all());
        let me = img.this_image();
        let (warm, measured) = self.reps();
        for _ in 0..warm + measured {
            h.rep("core", || {
                let t = Instant::now();
                for _ in 0..SYNC_BATCH {
                    if me == 0 {
                        img.event_notify(&world, &ping, 1);
                        img.event_wait(&pong);
                    } else {
                        img.event_wait(&ping);
                        img.event_notify(&world, &pong, 0);
                    }
                }
                t.elapsed().as_secs_f64()
            });
        }
        h.call("sync_all", "core", || img.sync_all());
        h.verification(|| img.event_pending(&ping) + img.event_pending(&pong))
    }

    fn check(&self, handed_back: &[u64], _first: bool) -> Result<(), String> {
        match handed_back.iter().position(|&pending| pending != 0) {
            None => Ok(()),
            Some(i) => Err(format!(
                "sync: image {i} exits with {} unconsumed posts",
                handed_back[i]
            )),
        }
    }
}

// ---- fft ----------------------------------------------------------------

pub const FFT_LOG2: u32 = 20;

/// `hpcc::fft::run` on 2^20 points. The input is fixed by
/// `fft::input_element`; the seed does not enter.
#[derive(Default)]
pub struct Fft {
    serial: OnceLock<Vec<C64>>,
}

impl Fft {
    fn serial_spectrum(&self) -> &[C64] {
        self.serial.get_or_init(|| {
            let mut x: Vec<C64> = (0..1usize << FFT_LOG2).map(fft::input_element).collect();
            fft::serial_fft(&mut x, false);
            x
        })
    }
}

impl Workload for Fft {
    /// This image's block of the spectrum from the untimed verification
    /// repetition (first launch on each substrate only).
    type Verify = Vec<C64>;

    fn name(&self) -> &'static str {
        "fft"
    }
    fn work_unit(&self) -> &'static str {
        "flop"
    }
    fn work_per_rep(&self) -> f64 {
        5.0 * (1u64 << FFT_LOG2) as f64 * FFT_LOG2 as f64
    }
    fn reps(&self) -> (usize, usize) {
        (1, 4)
    }
    fn segment_bytes(&self) -> usize {
        // The transposes move through team alltoall, not coarrays.
        64 << 10
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, first_launch: bool) -> Vec<C64> {
        let img = h.img;
        let world = img.team_world();
        let (warm, measured) = self.reps();
        for _ in 0..warm + measured {
            h.rep("hpcc", || fft::run(img, &world, FFT_LOG2).seconds);
        }
        if !first_launch {
            return Vec::new();
        }
        h.verification(|| {
            let n = (1usize << FFT_LOG2) / world.size();
            let base = world.rank() * n;
            let local: Vec<C64> = (0..n).map(|i| fft::input_element(base + i)).collect();
            fft::distributed_fft(img, &world, &local, false)
        })
    }

    fn check(&self, handed_back: &[Vec<C64>], first_launch: bool) -> Result<(), String> {
        if !first_launch {
            return Ok(());
        }
        let want = self.serial_spectrum();
        let got: Vec<C64> = handed_back.iter().flatten().copied().collect();
        if got.len() != want.len() {
            return Err(format!("fft: {} points handed back", got.len()));
        }
        let scale = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
        match got
            .iter()
            .zip(want)
            .position(|(g, w)| (*g - *w).abs() > 1e-9 * scale)
        {
            None => Ok(()),
            Some(k) => Err(format!(
                "fft: point {k} is {:?}, serial_fft gives {:?}",
                got[k], want[k]
            )),
        }
    }
}

// ---- hpl ----------------------------------------------------------------

pub const HPL_N: usize = 768;
pub const HPL_NB: usize = 32;

/// `hpcc::hpl::run`, n=768, nb=32: the compute-bound control.
pub struct Hpl {
    /// Matrix seed.
    pub seed: u64,
}

impl Workload for Hpl {
    /// The scaled residual of every repetition.
    type Verify = Vec<f64>;

    fn name(&self) -> &'static str {
        "hpl"
    }
    fn work_unit(&self) -> &'static str {
        "flop"
    }
    fn work_per_rep(&self) -> f64 {
        // As `hpl::run` counts.
        let n = HPL_N as f64;
        2.0 / 3.0 * n * n * n + 1.5 * n * n
    }
    fn reps(&self) -> (usize, usize) {
        (2, 10)
    }
    fn segment_bytes(&self) -> usize {
        // Panels travel by team broadcast, not coarrays.
        64 << 10
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> Vec<f64> {
        let img = h.img;
        let world = img.team_world();
        let (warm, measured) = self.reps();
        let mut residuals = Vec::new();
        for _ in 0..warm + measured {
            h.rep("hpcc", || {
                let out = hpl::run(img, &world, HPL_N, HPL_NB, self.seed);
                residuals.push(out.residual);
                out.bench.seconds
            });
        }
        residuals
    }

    fn check(&self, handed_back: &[Vec<f64>], _first: bool) -> Result<(), String> {
        match handed_back
            .iter()
            .flatten()
            .find(|r| r.is_nan() || **r >= 16.0)
        {
            None => Ok(()),
            Some(r) => Err(format!("hpl: scaled residual {r} is not below 16")),
        }
    }
}

// ---- cgpop --------------------------------------------------------------

pub const CG_PARAMS: CgpopParams = CgpopParams {
    nx: 128,
    ny: 128,
    iters: 200,
};

/// `hpcc::cgpop::run`, 128×128 per image, 200 iterations; one
/// repetition is a `Push` run followed by a `Pull` run.
#[derive(Default)]
pub struct Cgpop {
    serial: OnceLock<Vec<f64>>,
}

impl Cgpop {
    fn domain(&self) -> (Grid2d, usize, usize) {
        let grid = Grid2d::new(self.p());
        (grid, grid.px * CG_PARAMS.nx, grid.py * CG_PARAMS.ny)
    }

    fn serial_solution(&self) -> &[f64] {
        self.serial.get_or_init(|| {
            let (_, gx, gy) = self.domain();
            cgpop::serial_cg(gx, gy, CG_PARAMS.iters).0
        })
    }
}

impl Workload for Cgpop {
    /// The last repetition's `[push, pull]` interior solutions.
    type Verify = [Vec<f64>; 2];

    fn name(&self) -> &'static str {
        "cgpop"
    }
    fn work_unit(&self) -> &'static str {
        "CG iteration"
    }
    fn work_per_rep(&self) -> f64 {
        2.0 * CG_PARAMS.iters as f64
    }
    fn reps(&self) -> (usize, usize) {
        (1, 6)
    }
    fn segment_bytes(&self) -> usize {
        // Halo inbox/outbox: four edges of at most 128 doubles each way.
        256 << 10
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> [Vec<f64>; 2] {
        let img = h.img;
        let world = img.team_world();
        let (warm, measured) = self.reps();
        let mut last = [Vec::new(), Vec::new()];
        for _ in 0..warm + measured {
            h.rep("hpcc", || {
                let push = cgpop::run(img, &world, CG_PARAMS, ExchangeMode::Push);
                let pull = cgpop::run(img, &world, CG_PARAMS, ExchangeMode::Pull);
                let secs = push.bench.seconds + pull.bench.seconds;
                last = [push.solution, pull.solution];
                secs
            });
        }
        last
    }

    fn check(&self, handed_back: &[[Vec<f64>; 2]], _first: bool) -> Result<(), String> {
        let want = self.serial_solution();
        let (grid, gx, _) = self.domain();
        let CgpopParams { nx, ny, .. } = CG_PARAMS;
        for (rank, modes) in handed_back.iter().enumerate() {
            let (cx, cy) = grid.coords(rank);
            for (mode, got) in ["push", "pull"].iter().zip(modes) {
                if got.len() != nx * ny {
                    return Err(format!(
                        "cgpop {mode}: image {rank} handed back {} cells",
                        got.len()
                    ));
                }
                for j in 0..ny {
                    for i in 0..nx {
                        let g = got[j * nx + i];
                        let w = want[(cy * ny + j) * gx + cx * nx + i];
                        let err = (g - w).abs();
                        if err.is_nan() || err >= 1e-8 * w.abs().max(1.0) {
                            return Err(format!(
                                "cgpop {mode}: image {rank} cell ({i},{j}) is {g}, serial_cg gives {w}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ---- ra / scale ---------------------------------------------------------

/// Compare the images' final tables with `ra::serial_reference`.
fn check_ra_tables(
    name: &str,
    tables: &[Vec<u64>],
    reference: &[u64],
    local_size: usize,
) -> Result<(), String> {
    for (rank, table) in tables.iter().enumerate() {
        let want = &reference[rank * local_size..(rank + 1) * local_size];
        if table.len() != local_size {
            return Err(format!(
                "{name}: image {rank} handed back {} words",
                table.len()
            ));
        }
        if let Some(i) = (0..local_size).find(|&i| table[i] != want[i]) {
            return Err(format!(
                "{name}: image {rank} word {i} is {:#x}, serial_reference gives {:#x}",
                table[i], want[i]
            ));
        }
    }
    Ok(())
}

pub const RA_LOG2_LOCAL: u32 = 18;
pub const RA_UPDATES: usize = 400_000;

/// Aggregated RandomAccess: `caf-agg` does most of the work. The update
/// stream is fixed by the HPCC definition; the seed does not enter.
#[derive(Default)]
pub struct Ra {
    reference: OnceLock<Vec<u64>>,
}

impl Workload for Ra {
    /// The last repetition's local table.
    type Verify = Vec<u64>;

    fn name(&self) -> &'static str {
        "ra"
    }
    fn work_unit(&self) -> &'static str {
        "update"
    }
    fn work_per_rep(&self) -> f64 {
        (RA_UPDATES * self.p()) as f64
    }
    fn reps(&self) -> (usize, usize) {
        (1, 6)
    }
    fn segment_bytes(&self) -> usize {
        2 * (8 << RA_LOG2_LOCAL)
    }
    fn configure(&self, cfg: &mut CafConfig) {
        cfg.agg = AggConfig::on();
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> Vec<u64> {
        let img = h.img;
        let world = img.team_world();
        let (warm, measured) = self.reps();
        let opts = RaOpts {
            aggregated: true,
            ..RaOpts::default()
        };
        let mut last = Vec::new();
        for _ in 0..warm + measured {
            h.rep("hpcc", || {
                let out = ra::run_opts(img, &world, RA_LOG2_LOCAL, RA_UPDATES, opts);
                last = out.local_table;
                out.bench.seconds
            });
        }
        last
    }

    fn check(&self, handed_back: &[Vec<u64>], _first: bool) -> Result<(), String> {
        let local = 1usize << RA_LOG2_LOCAL;
        let reference = self
            .reference
            .get_or_init(|| ra::serial_reference(self.p(), local, RA_UPDATES));
        check_ra_tables("ra", handed_back, reference, local)
    }
}

pub const SCALE_P: usize = 256;
pub const SCALE_LOG2_LOCAL: u32 = 6;
pub const SCALE_UPDATES: usize = 64;

/// The paper's RandomAccess (staged router, notify/wait per hypercube
/// round) at P=256 under `ExecMode::Tasks`.
pub struct Scale {
    /// `ExecConfig.seed`.
    pub seed: u64,
    reference: OnceLock<Vec<u64>>,
}

impl Scale {
    pub fn new(seed: u64) -> Self {
        Scale {
            seed,
            reference: OnceLock::new(),
        }
    }
}

impl Workload for Scale {
    /// The last repetition's local table.
    type Verify = Vec<u64>;

    fn name(&self) -> &'static str {
        "scale"
    }
    fn p(&self) -> usize {
        SCALE_P
    }
    fn work_unit(&self) -> &'static str {
        "update"
    }
    fn work_per_rep(&self) -> f64 {
        (SCALE_UPDATES * SCALE_P) as f64
    }
    fn reps(&self) -> (usize, usize) {
        (0, 2)
    }
    fn segment_bytes(&self) -> usize {
        // Table (512 B) plus eight staging slots of 4·64+65 words.
        64 << 10
    }
    fn configure(&self, cfg: &mut CafConfig) {
        cfg.exec = ExecConfig {
            mode: ExecMode::Tasks,
            workers: JOB_CPUS,
            seed: self.seed,
            ..ExecConfig::default()
        };
    }

    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) -> Vec<u64> {
        let img = h.img;
        let world = img.team_world();
        let (warm, measured) = self.reps();
        let mut last = Vec::new();
        for _ in 0..warm + measured {
            h.rep("hpcc", || {
                let out = ra::run(img, &world, SCALE_LOG2_LOCAL, SCALE_UPDATES);
                last = out.local_table;
                out.bench.seconds
            });
        }
        last
    }

    fn check(&self, handed_back: &[Vec<u64>], _first: bool) -> Result<(), String> {
        let local = 1usize << SCALE_LOG2_LOCAL;
        let reference = self
            .reference
            .get_or_init(|| ra::serial_reference(SCALE_P, local, SCALE_UPDATES));
        check_ra_tables("scale", handed_back, reference, local)
    }
}

// ---- deliberate failures (not part of the benchmark) --------------------

/// Image 0 panics while image 1 waits in `sync_all`: what a kernel bug
/// looks like to the harness. Run as `wallbench run selftest-panic`.
pub struct SelftestPanic;

/// Image 0 waits for an event nobody posts. `wallbench run selftest-hang`.
pub struct SelftestHang;

macro_rules! selftest_common {
    () => {
        type Verify = ();
        fn work_unit(&self) -> &'static str {
            "nothing"
        }
        fn work_per_rep(&self) -> f64 {
            1.0
        }
        fn reps(&self) -> (usize, usize) {
            (0, 1)
        }
        fn segment_bytes(&self) -> usize {
            64 << 10
        }
        fn check(&self, _: &[()], _: bool) -> Result<(), String> {
            Ok(())
        }
    };
}

impl Workload for SelftestPanic {
    selftest_common!();
    fn name(&self) -> &'static str {
        "selftest-panic"
    }
    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) {
        if h.img.this_image() == 0 {
            panic!("deliberate failure");
        }
        h.img.sync_all();
    }
}

impl Workload for SelftestHang {
    selftest_common!();
    fn name(&self) -> &'static str {
        "selftest-hang"
    }
    fn image_main(&self, h: &mut ImageHarness<'_>, _first: bool) {
        let ev = h.img.event_alloc(&h.img.team_world());
        if h.img.this_image() == 0 {
            h.img.event_wait(&ev);
        }
        h.img.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_stream_is_a_function_of_the_seed() {
        assert_eq!(rma_offsets(7), rma_offsets(7));
        assert_ne!(rma_offsets(7), rma_offsets(8));
        assert!(rma_offsets(7).iter().all(|&o| o < RMA_LEN));
        assert_eq!(rma_offsets(7).len(), RMA_BATCH);
    }

    #[test]
    fn put8_check_accepts_the_last_batch_and_rejects_a_stale_one() {
        let w = Put8::new(1);
        let (warm, measured) = w.reps();
        let mut arr = vec![0u64; RMA_LEN];
        for (i, &off) in w.offs.iter().enumerate() {
            arr[off] = put_value(warm + measured - 1, i);
        }
        assert_eq!(w.check(&[Vec::new(), arr.clone()], true), Ok(()));
        arr[w.offs[0]] = put_value(0, 0);
        assert!(w.check(&[Vec::new(), arr], true).is_err());
    }

    #[test]
    fn get8_check_compares_against_the_seeded_target_contents() {
        let w = Get8::new(3);
        let mut out: Vec<u64> = w.offs.iter().map(|&o| get_value(3, o)).collect();
        assert_eq!(w.check(&[out.clone(), Vec::new()], true), Ok(()));
        out[17] ^= 1;
        assert!(w.check(&[out, Vec::new()], true).is_err());
    }

    #[test]
    fn hpl_check_rejects_large_and_nan_residuals() {
        let w = Hpl { seed: 1 };
        assert_eq!(w.check(&[vec![0.5, 3.0], vec![1.0]], true), Ok(()));
        assert!(w.check(&[vec![0.5, 16.0]], true).is_err());
        assert!(w.check(&[vec![f64::NAN]], true).is_err());
    }

    #[test]
    fn ra_tables_are_checked_word_by_word() {
        let reference: Vec<u64> = (0..8).collect();
        let good = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        assert_eq!(check_ra_tables("ra", &good, &reference, 4), Ok(()));
        let bad = vec![vec![0, 1, 2, 3], vec![4, 5, 9, 7]];
        assert!(check_ra_tables("ra", &bad, &reference, 4)
            .unwrap_err()
            .contains("image 1 word 2"));
        assert!(check_ra_tables("ra", &[vec![0]], &reference, 4).is_err());
    }
}
