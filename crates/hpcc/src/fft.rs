//! HPC Challenge FFT — a large 1-D complex DFT, distributed with the
//! six-step (transpose) algorithm, whose only communication is team
//! alltoall.
//!
//! This is the benchmark where the paper's CAF-MPI consistently beats
//! CAF-GASNet (Figures 6–8): the transposes map to `MPI_ALLTOALL` on the
//! MPI substrate but to a hand-rolled AM exchange on GASNet.
//!
//! Reported performance follows the HPCC convention:
//! `GFlop/s = 5 · m · log2(m) / t · 10⁻⁹`.

use std::f64::consts::PI;
use std::time::Instant;

use caf::{zeroed_vec, Image, Team};
use caf_fabric::topology::{is_pow2, log2_exact};

use crate::complex::C64;
use crate::BenchResult;

/// The low `bits` bits of `i` in reverse order (the radix-2 FFT
/// permutation); `bits` is at least 1.
fn reverse_low_bits(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Scale every element of `a` by the real `by`.
fn scale(a: &mut [C64], by: f64) {
    for z in a {
        z.re *= by;
        z.im *= by;
    }
}

/// The twiddle table of a radix-2 transform of length `n`, built once and
/// read by every row a transform runs: w_n^j = e^{−2πij/n} for j < n/2,
/// each its own `C64::cis`, with no recurrence to drift.
///
/// The butterflies of stage `h` (h = 1, 2, 4, …, n/2: the two inputs `h`
/// apart) need w_{2h}^j = w_n^{j·n/2h}, every (n/2h)-th entry. (A
/// contiguous copy per stage measured slower on 1 024-point rows.)
/// A plan runs any power-of-two length up to `n`: a shorter transform
/// reads only the leading stages.
struct Plan {
    twiddles: Vec<C64>,
}

impl Plan {
    /// The plan for transforms of up to `n` points.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two.
    fn new(n: usize) -> Self {
        assert!(is_pow2(n), "FFT length {n} is not a power of two");
        let twiddles = (0..n / 2).map(|j| C64::cis(-2.0 * PI * j as f64 / n as f64)).collect();
        Plan { twiddles }
    }

    /// The longest transform the plan runs.
    fn len(&self) -> usize {
        (2 * self.twiddles.len()).max(1)
    }

    /// Unscaled in-place transform of `a`: forward, or with conjugated
    /// twiddles for `inverse` (the caller divides by the length).
    fn run(&self, a: &mut [C64], inverse: bool) {
        let n = a.len();
        assert!(
            is_pow2(n) && n <= self.len(),
            "a plan for {} points cannot run {n}",
            self.len()
        );
        if n == 1 {
            return;
        }
        let bits = n.ilog2();
        for i in 0..n {
            let j = reverse_low_bits(i, bits);
            if i < j {
                a.swap(i, j);
            }
        }
        if inverse {
            self.butterflies(a, C64::conj);
        } else {
            self.butterflies(a, |w| w);
        }
    }

    /// Every stage's butterflies over `a`, already in bit-reversed order,
    /// with each twiddle passed through `dir` (one copy per direction).
    fn butterflies(&self, a: &mut [C64], dir: impl Fn(C64) -> C64) {
        let mut h = 1;
        while h < a.len() {
            let stride = self.len() / (2 * h);
            for block in a.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                let stage = self.twiddles.iter().step_by(stride);
                for ((u, v), &w) in lo.iter_mut().zip(hi).zip(stage) {
                    let t = *v * dir(w);
                    *v = *u - t;
                    *u += t;
                }
            }
            h *= 2;
        }
    }
}

/// In-place serial radix-2 FFT (`inverse = true` for the scaled inverse).
///
/// # Panics
///
/// Panics unless `a.len()` is a power of two.
pub fn serial_fft(a: &mut [C64], inverse: bool) {
    Plan::new(a.len()).run(a, inverse);
    if inverse {
        scale(a, 1.0 / a.len() as f64);
    }
}

/// O(n²) reference DFT (forward), the oracle the tests compare against.
/// The exponent is reduced mod n before it becomes an angle, so every
/// term is exact to rounding.
#[cfg(test)]
fn naive_dft(x: &[C64]) -> Vec<C64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                acc += v * C64::cis(-2.0 * PI * ((j * k) % n) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

/// The step-3 twiddles w_m^e of an `m = n1 · n2` point transform, from
/// two tables of n2 and n1 entries (√m each when the two are equal):
/// w_m^e = `hi[e / n2] · lo[e % n2]`, with
/// `lo[i] = w_m^i` and `hi[i] = w_m^{i·n2} = w_{n1}^i`, each its own
/// `C64::cis`. Conjugated for the inverse.
struct Twiddles {
    lo: Vec<C64>,
    hi: Vec<C64>,
}

impl Twiddles {
    fn new(n1: usize, n2: usize, inverse: bool) -> Self {
        let sign = if inverse { 2.0 } else { -2.0 };
        let m = (n1 * n2) as f64;
        Twiddles {
            lo: (0..n2).map(|i| C64::cis(sign * PI * i as f64 / m)).collect(),
            hi: (0..n1).map(|i| C64::cis(sign * PI * i as f64 / n1 as f64)).collect(),
        }
    }

    /// w_m^e, for `e < m`.
    fn get(&self, e: usize) -> C64 {
        // n2 is a power of two: shift and mask, no division per point.
        let n2 = self.lo.len();
        self.hi[e >> n2.trailing_zeros()] * self.lo[e & (n2 - 1)]
    }
}

/// Side of the square tiles a transpose unpacks in. A tile reads `TILE`
/// rows of one received block and writes `TILE` columns of the result,
/// 16 KiB each way, so both stay in L1/L2 while the write side strides
/// by a whole row of the transpose.
const TILE: usize = 32;

/// First half of a transpose of the `rows × cols` matrix whose local
/// `rows/P × cols` row-major slab is `local`: pack destination d's
/// columns into block d of `blocks`, written front to back from empty,
/// so that a slab with the capacity but no contents needs no zeroing.
fn pack(local: &[C64], blocks: &mut Vec<C64>, p: usize, rows: usize, cols: usize) {
    assert!(rows % p == 0 && cols % p == 0, "P must divide both dims");
    assert_eq!(local.len(), rows / p * cols, "transpose slab size mismatch");
    let out_rows = cols / p;
    blocks.clear();
    for d in 0..p {
        for row in local.chunks_exact(cols) {
            blocks.extend_from_slice(&row[d * out_rows..(d + 1) * out_rows]);
        }
    }
}

/// Second half, one block at a time: `src`, the block from source `s`,
/// holds its `rows/P` rows of my `cols/P` columns; scatter it into its
/// transposed position in `out`, the local `cols/P × rows` slab of the
/// transpose.
fn unpack(s: usize, src: &[C64], p: usize, rows: usize, out: &mut [C64]) {
    let my_rows = rows / p;
    let out_rows = out.len() / rows;
    assert_eq!(src.len(), my_rows * out_rows, "transpose block size mismatch");
    for r0 in (0..my_rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(my_rows);
        for c0 in (0..out_rows).step_by(TILE) {
            for c in c0..(c0 + TILE).min(out_rows) {
                let at = c * rows + s * my_rows;
                let column = src[r0 * out_rows + c..].iter().step_by(out_rows);
                for (o, &x) in out[at + r0..at + r1].iter_mut().zip(column) {
                    *o = x;
                }
            }
        }
    }
}

/// The two slabs a transform moves its data through, each allocated once.
/// A transpose packs `data` into `spare`, lends `spare` to the alltoall
/// and unpacks each block it receives, where it arrived, into `data`:
/// the transpose is `data`, and `spare` comes back for the next one.
/// Only `data` is zeroed; the pack fills `spare` front to back.
struct Slabs {
    data: Vec<C64>,
    spare: Vec<C64>,
}

impl Slabs {
    fn new(len: usize) -> Self {
        Slabs { data: zeroed_vec(len), spare: Vec::with_capacity(len) }
    }

    /// Transpose `data`, the local `rows/P × cols` slab of a `rows × cols`
    /// matrix, into the local `cols/P × rows` slab of its transpose.
    fn transpose(&mut self, img: &Image, team: &Team, rows: usize, cols: usize) {
        pack(&self.data, &mut self.spare, team.size(), rows, cols);
        self.exchange(img, team, rows);
    }

    /// The rest of a transpose whose blocks are packed in `spare`: lend
    /// it, and unpack every block into `data`.
    fn exchange(&mut self, img: &Image, team: &Team, rows: usize) {
        let p = team.size();
        let (spare, data) = (std::mem::take(&mut self.spare), &mut self.data);
        let block = spare.len() / p;
        self.spare = img.alltoall_lend(team, spare, block, |s, b| unpack(s, b, p, rows, data));
    }
}

/// Distributed matrix transpose over a team: the input is the local
/// `rows/P × cols` row-major slab of a `rows × cols` row-block-distributed
/// matrix; the output is the local `cols/P × rows` slab of its transpose.
pub fn transpose(img: &Image, team: &Team, local: &[C64], rows: usize, cols: usize) -> Vec<C64> {
    let mut s = Slabs::new(local.len());
    pack(local, &mut s.spare, team.size(), rows, cols);
    s.exchange(img, team, rows);
    s.data
}

/// Distributed FFT via the six-step algorithm (`inverse = true` for the
/// scaled inverse). `local` is this image's contiguous block of the
/// natural-order input (`m / P` elements); the result is this image's
/// block of the natural-order spectrum.
///
/// Requires `m = local.len() · P` a power of two with `P` dividing both
/// factor dimensions (`P² ≤ m` suffices for the split used here).
///
/// A call builds its tables (one [`Plan`] for both row lengths, the two
/// step-3 [`Twiddles`] tables) and its two [`Slabs`] once, and keeps
/// none of them: nothing is cached from one call to the next. The
/// inverse runs the same passes with conjugated twiddles and scales the
/// result by 1/m in place.
pub fn distributed_fft(img: &Image, team: &Team, local: &[C64], inverse: bool) -> Vec<C64> {
    let p = team.size();
    let m = local.len() * p;
    assert!(is_pow2(m), "total FFT size must be a power of two");
    let k = log2_exact(m);
    let n1 = 1usize << (k / 2);
    let n2 = m / n1;
    assert!(
        n1 % p == 0 && n2 % p == 0,
        "P={p} must divide both factors n1={n1}, n2={n2}"
    );
    // n2 is n1 or 2·n1, so the plan for n2 also runs the rows of n1.
    let plan = Plan::new(n2);
    let twiddles = Twiddles::new(n1, n2, inverse);
    let mut s = Slabs::new(local.len());

    // Input viewed as matrix X[j2][j1] (n2 × n1 row-major), row-block
    // distributed. Step 1: transpose → rows j1.
    pack(local, &mut s.spare, p, n2, n1);
    s.exchange(img, team, n2);

    // Step 2: DFT of length n2 along each local row; Step 3: twiddle by
    // w_m^{j1·k2}, the exponent kept mod m.
    let my_rows1 = n1 / p;
    for (r, row) in s.data.chunks_exact_mut(n2).enumerate() {
        let j1 = team.rank() * my_rows1 + r;
        plan.run(row, inverse);
        let mut e = 0;
        for z in row {
            *z *= twiddles.get(e);
            e = (e + j1) & (m - 1);
        }
    }

    // Step 4: transpose back → rows k2.
    s.transpose(img, team, n1, n2);

    // Step 5: DFT of length n1 along each local row.
    for row in s.data.chunks_exact_mut(n1) {
        plan.run(row, inverse);
    }

    // Step 6: transpose → natural order (y[k] with k = n2·k1 + k2).
    s.transpose(img, team, n2, n1);
    let mut y = s.data;
    if inverse {
        scale(&mut y, 1.0 / m as f64);
    }
    y
}

/// Deterministic pseudo-random input element for global index `g`.
pub fn input_element(g: usize) -> C64 {
    let mut x = g as u64 ^ 0x9e3779b97f4a7c15;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    let re = (x & 0xffff_ffff) as f64 / u32::MAX as f64 - 0.5;
    let im = (x >> 32) as f64 / u32::MAX as f64 - 0.5;
    C64::new(re, im)
}

/// Timed benchmark entry: a forward FFT of `2^log2_size` points over the
/// team. Returns `(seconds, GFlop/s)`.
pub fn run(img: &Image, team: &Team, log2_size: u32) -> BenchResult {
    let m = 1usize << log2_size;
    let p = team.size();
    let local_n = m / p;
    let me = team.rank();
    let local: Vec<C64> = (0..local_n).map(|i| input_element(me * local_n + i)).collect();

    img.barrier(team);
    let t = Instant::now();
    let spectrum = distributed_fft(img, team, &local, false);
    img.barrier(team);
    let dt = t.elapsed().as_secs_f64();
    // Keep the result alive (prevent dead-code elimination).
    std::hint::black_box(&spectrum);

    let secs = img.allreduce(team, &[dt], |a, b| a.max(b))[0];
    let gflops = 5.0 * m as f64 * log2_size as f64 / secs * 1e-9;
    BenchResult {
        seconds: secs,
        metric: gflops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf::{CafConfig, CafUniverse, SubstrateKind};

    fn close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        let scale = b.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() <= tol * scale,
                "element {i}: {x:?} vs {y:?} (scale {scale})"
            );
        }
    }

    /// Also: a plan runs every shorter length exactly as that length's own.
    #[test]
    fn serial_fft_matches_naive_dft() {
        let longest = Plan::new(1 << 10);
        for bits in 0..=10u32 {
            let n = 1usize << bits;
            let x: Vec<C64> = (0..n).map(input_element).collect();
            let mut got = x.clone();
            serial_fft(&mut got, false);
            close(&got, &naive_dft(&x), 1e-12);
            let mut shorter = x.clone();
            longest.run(&mut shorter, false);
            assert_eq!(shorter, got, "n={n}: the plan for 1024 points differs");
        }
    }

    #[test]
    fn bit_reverse_involution() {
        for bits in 1..10u32 {
            for x in 0..(1usize << bits) {
                assert_eq!(reverse_low_bits(reverse_low_bits(x, bits), bits), x);
            }
        }
        assert_eq!(reverse_low_bits(0b001, 3), 0b100);
        assert_eq!(reverse_low_bits(0b110, 3), 0b011);
    }

    #[test]
    fn two_table_twiddles_match_direct_cis() {
        let (n1, n2) = (1 << 10, 1 << 10);
        let m = n1 * n2;
        for inverse in [false, true] {
            let t = Twiddles::new(n1, n2, inverse);
            let sign = if inverse { 2.0 } else { -2.0 };
            for e in (0..m).step_by(997) {
                let want = C64::cis(sign * PI * e as f64 / m as f64);
                let got = t.get(e);
                assert!((got - want).abs() <= 1e-15, "e={e}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn serial_roundtrip() {
        let n = 256;
        let x: Vec<C64> = (0..n).map(input_element).collect();
        let mut y = x.clone();
        serial_fft(&mut y, false);
        serial_fft(&mut y, true);
        close(&y, &x, 1e-12);
    }

    /// Transpose the `rows × cols` matrix M[r][c] = r·1000 + c over `p`
    /// images on both substrates and check every element of the result.
    fn check_transpose(p: usize, rows: usize, cols: usize) {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            CafUniverse::run_with_config(p, CafConfig::on(kind), |img| {
                let team = img.team_world();
                let me = img.this_image();
                let my_rows = rows / p;
                let local: Vec<C64> = (0..my_rows * cols)
                    .map(|i| {
                        let r = me * my_rows + i / cols;
                        let c = i % cols;
                        C64::new((r * 1000 + c) as f64, 0.0)
                    })
                    .collect();
                let t = transpose(img, &team, &local, rows, cols);
                let out_rows = cols / p;
                assert_eq!(t.len(), out_rows * rows);
                for lr in 0..out_rows {
                    let c = me * out_rows + lr; // transposed row = original col
                    for r in 0..rows {
                        let got = t[lr * rows + r];
                        let want = C64::new((r * 1000 + c) as f64, 0.0);
                        assert_eq!(got, want, "{kind:?} P={p} {rows}x{cols}: M[{r}][{c}]");
                    }
                }
            });
        }
    }

    #[test]
    fn distributed_transpose_is_correct() {
        check_transpose(4, 8, 12);
    }

    /// Blocks of more than one tile each way, ending in partial tiles:
    /// 2·TILE + 5 rows by TILE + 5 columns per block, on a power-of-two
    /// team (XOR pairing on CAF-MPI) and on a ring of three.
    #[test]
    fn transpose_spans_several_tiles_and_ends_in_partial_ones() {
        let (block_rows, block_cols) = (2 * TILE + 5, TILE + 5);
        for p in [2, 3] {
            check_transpose(p, p * block_rows, p * block_cols);
        }
    }

    /// An odd log2 size splits unevenly (n2 = 2·n1): the plan for n2 then
    /// also runs the rows of n1, and the two step-3 tables differ in size.
    #[test]
    fn distributed_fft_matches_serial_on_both_substrates() {
        for (bits, p) in [(10u32, 4usize), (11, 2), (11, 4)] {
            let m = 1usize << bits;
            let mut expect: Vec<C64> = (0..m).map(input_element).collect();
            serial_fft(&mut expect, false);
            for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
                CafUniverse::run_with_config(p, CafConfig::on(kind), |img| {
                    let team = img.team_world();
                    let local_n = m / p;
                    let me = img.this_image();
                    let local: Vec<C64> =
                        (0..local_n).map(|i| input_element(me * local_n + i)).collect();
                    let dist = distributed_fft(img, &team, &local, false);
                    close(&dist, &expect[me * local_n..(me + 1) * local_n], 1e-12);
                    let back = distributed_fft(img, &team, &dist, true);
                    close(&back, &local, 1e-12);
                });
            }
        }
    }

    #[test]
    fn distributed_roundtrip() {
        CafUniverse::run(2, |img| {
            let team = img.team_world();
            let local: Vec<C64> = (0..128).map(|i| input_element(img.this_image() * 128 + i)).collect();
            let y = distributed_fft(img, &team, &local, false);
            let back = distributed_fft(img, &team, &y, true);
            close(&back, &local, 1e-10);
        });
    }

    #[test]
    fn single_image_fft() {
        CafUniverse::run(1, |img| {
            let team = img.team_world();
            let local: Vec<C64> = (0..64).map(input_element).collect();
            let dist = distributed_fft(img, &team, &local, false);
            let mut expect = local.clone();
            serial_fft(&mut expect, false);
            close(&dist, &expect, 1e-10);
        });
    }

    #[test]
    fn run_reports_positive_gflops() {
        CafUniverse::run(4, |img| {
            let team = img.team_world();
            let r = run(img, &team, 12);
            assert!(r.seconds > 0.0);
            assert!(r.metric > 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn serial_fft_rejects_non_pow2() {
        let mut v = vec![C64::ZERO; 12];
        serial_fft(&mut v, false);
    }
}
