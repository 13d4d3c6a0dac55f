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

use std::time::Instant;

use caf::{zeroed_vec, Image, Team};
use caf_fabric::topology::{bit_reverse, is_pow2, log2_exact};

use crate::complex::C64;
use crate::BenchResult;

/// In-place serial radix-2 FFT (`inverse = true` for the scaled inverse).
///
/// # Panics
///
/// Panics unless `a.len()` is a power of two.
pub fn serial_fft(a: &mut [C64], inverse: bool) {
    let n = a.len();
    assert!(is_pow2(n), "FFT length {n} is not a power of two");
    let bits = log2_exact(n);
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            a.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = C64::cis(ang);
        for base in (0..n).step_by(len) {
            let mut w = C64::ONE;
            for j in 0..len / 2 {
                let u = a[base + j];
                let v = a[base + j + len / 2] * w;
                a[base + j] = u + v;
                a[base + j + len / 2] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for z in a.iter_mut() {
            z.re *= inv_n;
            z.im *= inv_n;
        }
    }
}

/// O(n²) reference DFT (forward).
pub fn naive_dft(x: &[C64]) -> Vec<C64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                acc += v * C64::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

/// Side of the square tiles a transpose unpacks in. A tile reads `TILE`
/// rows of one received block and writes `TILE` columns of the result,
/// 4 KiB each way, so both stay in L1 while the write side strides by a
/// whole row of the transpose.
const TILE: usize = 16;

/// The scratch of a distributed transpose, reused from one to the next:
/// the blocks packed for every destination, and the blocks received from
/// every source.
struct Transposer {
    send: Vec<C64>,
    recv: Vec<C64>,
}

impl Transposer {
    /// Scratch for transposing local slabs of `len` elements.
    fn new(len: usize) -> Self {
        Transposer { send: zeroed_vec(len), recv: zeroed_vec(len) }
    }

    /// First half of a transpose of the `rows × cols` matrix whose local
    /// `rows/P × cols` row-major slab is `local`: pack destination d's
    /// columns into block d and exchange the blocks. `local` is not read
    /// again, so [`Transposer::unpack`] may write over it.
    fn exchange(&mut self, img: &Image, team: &Team, local: &[C64], rows: usize, cols: usize) {
        let p = team.size();
        assert!(rows % p == 0 && cols % p == 0, "P must divide both dims");
        assert_eq!(local.len(), rows / p * cols, "transpose slab size mismatch");
        let out_rows = cols / p;
        let block = local.len() / p;
        for (d, dst) in self.send.chunks_exact_mut(block).enumerate() {
            for (row, seg) in local.chunks_exact(cols).zip(dst.chunks_exact_mut(out_rows)) {
                seg.copy_from_slice(&row[d * out_rows..(d + 1) * out_rows]);
            }
        }
        img.alltoall_into(team, &self.send, block, &mut self.recv);
    }

    /// Second half: the block from source s holds its `rows/P` rows of my
    /// `cols/P` columns; scatter each into its transposed position in
    /// `out`, the local `cols/P × rows` slab of the transpose.
    fn unpack(&self, p: usize, rows: usize, out: &mut [C64]) {
        let my_rows = rows / p;
        let out_rows = out.len() / rows;
        let block = my_rows * out_rows;
        for (s, src) in self.recv.chunks_exact(block).enumerate() {
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
    }
}

/// Distributed matrix transpose over a team: the input is the local
/// `rows/P × cols` row-major slab of a `rows × cols` row-block-distributed
/// matrix; the output is the local `cols/P × rows` slab of its transpose.
pub fn transpose(img: &Image, team: &Team, local: &[C64], rows: usize, cols: usize) -> Vec<C64> {
    let mut x = Transposer::new(local.len());
    x.exchange(img, team, local, rows, cols);
    let mut out = zeroed_vec(local.len());
    x.unpack(team.size(), rows, &mut out);
    out
}

/// Distributed forward FFT via the six-step algorithm. `local` is this
/// image's contiguous block of the natural-order input (`m / P` elements);
/// the result is this image's block of the natural-order spectrum.
///
/// Requires `m = local.len() · P` a power of two with `P` dividing both
/// factor dimensions (`P² ≤ m` suffices for the split used here).
///
/// The three transposes share one [`Transposer`], and each unpacks into
/// the one work buffer it packed from: three slabs of scratch for the
/// whole transform, each allocated once.
pub fn distributed_fft(img: &Image, team: &Team, local: &[C64], inverse: bool) -> Vec<C64> {
    if inverse {
        // ifft(x) = conj(fft(conj(x))) / m
        let conj: Vec<C64> = local.iter().map(|z| z.conj()).collect();
        let y = distributed_fft(img, team, &conj, false);
        let m = (local.len() * team.size()) as f64;
        return y
            .iter()
            .map(|z| C64::new(z.re / m, -z.im / m))
            .collect();
    }
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
    let mut x = Transposer::new(local.len());
    let mut work = zeroed_vec(local.len());

    // Input viewed as matrix X[j2][j1] (n2 × n1 row-major), row-block
    // distributed. Step 1: transpose → rows j1.
    x.exchange(img, team, local, n2, n1);
    x.unpack(p, n2, &mut work);

    // Step 2: DFT of length n2 along each local row; Step 3: twiddle by
    // w_m^{j1·k2}.
    let my_rows1 = n1 / p;
    for r in 0..my_rows1 {
        let j1 = team.rank() * my_rows1 + r;
        let row = &mut work[r * n2..(r + 1) * n2];
        serial_fft(row, false);
        for (k2, z) in row.iter_mut().enumerate() {
            *z *= C64::cis(-2.0 * std::f64::consts::PI * (j1 * k2) as f64 / m as f64);
        }
    }

    // Step 4: transpose back → rows k2.
    x.exchange(img, team, &work, n1, n2);
    x.unpack(p, n1, &mut work);

    // Step 5: DFT of length n1 along each local row.
    let my_rows2 = n2 / p;
    for r in 0..my_rows2 {
        serial_fft(&mut work[r * n1..(r + 1) * n1], false);
    }

    // Step 6: transpose → natural order (y[k] with k = n2·k1 + k2).
    x.exchange(img, team, &work, n2, n1);
    x.unpack(p, n2, &mut work);
    work
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

    #[test]
    fn serial_fft_matches_naive_dft() {
        for bits in 1..=7u32 {
            let n = 1usize << bits;
            let x: Vec<C64> = (0..n).map(input_element).collect();
            let mut got = x.clone();
            serial_fft(&mut got, false);
            close(&got, &naive_dft(&x), 1e-10);
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

    #[test]
    fn distributed_transpose_is_correct() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            CafUniverse::run_with_config(4, CafConfig::on(kind), |img| {
                let team = img.team_world();
                let (rows, cols) = (8, 12);
                let me = img.this_image();
                let my_rows = rows / 4;
                // M[r][c] = r*1000 + c
                let local: Vec<C64> = (0..my_rows * cols)
                    .map(|i| {
                        let r = me * my_rows + i / cols;
                        let c = i % cols;
                        C64::new((r * 1000 + c) as f64, 0.0)
                    })
                    .collect();
                let t = transpose(img, &team, &local, rows, cols);
                let out_rows = cols / 4;
                for lr in 0..out_rows {
                    let c = me * out_rows + lr; // transposed row = original col
                    for r in 0..rows {
                        assert_eq!(t[lr * rows + r].re, (r * 1000 + c) as f64);
                    }
                }
            });
        }
    }

    #[test]
    fn distributed_fft_matches_serial_on_both_substrates() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            CafUniverse::run_with_config(4, CafConfig::on(kind), |img| {
                let team = img.team_world();
                let bits = 10u32;
                let m = 1usize << bits;
                let local_n = m / 4;
                let me = img.this_image();
                let local: Vec<C64> =
                    (0..local_n).map(|i| input_element(me * local_n + i)).collect();
                let dist = distributed_fft(img, &team, &local, false);

                let full: Vec<C64> = (0..m).map(input_element).collect();
                let mut expect = full;
                serial_fft(&mut expect, false);
                close(&dist, &expect[me * local_n..(me + 1) * local_n], 1e-9);
            });
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
