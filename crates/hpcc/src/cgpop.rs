//! CGPOP — the conjugate-gradient solver extracted from LANL POP 2.0
//! (global ocean modeling), the paper's *hybrid MPI+CAF* application
//! (Figures 11–12).
//!
//! The algorithm is textbook CG on a 5-point stencil over a 2-D
//! processor grid, with two communication steps per iteration:
//!
//! * **UpdateHalo** — a boundary exchange with the four grid neighbours,
//!   done with coarray one-sided operations in either **PUSH** (write my
//!   boundary into the neighbour's ghost inbox) or **PULL** (read the
//!   neighbour's boundary from its outbox) style — the two variants the
//!   paper benchmarks;
//! * **GlobalSum** — a 3-word vector reduction done with **MPI** (the
//!   original CGPOP keeps its MPI reduction when ported to CAF; that mix
//!   is precisely the interoperability the paper targets).
//!
//! The paper reports execution time; so does [`run`] (the `metric` is
//! seconds, lower is better).

use std::time::Instant;

use caf::{Coarray, Image, Team};
use caf_fabric::topology::Grid2d;

use crate::BenchResult;

/// Halo-exchange style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Write my boundary into the neighbour's inbox (coarray write).
    Push,
    /// Read the neighbour's boundary from its outbox (coarray read).
    Pull,
}

/// Per-image problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgpopParams {
    /// Interior cells per image in x.
    pub nx: usize,
    /// Interior cells per image in y.
    pub ny: usize,
    /// CG iterations to run (fixed count, as the miniapp does).
    pub iters: usize,
}

/// Result of a CGPOP run.
#[derive(Debug, Clone)]
pub struct CgpopOutcome {
    /// Timing; `metric` is execution time in seconds.
    pub bench: BenchResult,
    /// Global 2-norm of the final residual.
    pub final_residual: f64,
    /// This image's interior solution (row-major `nx × ny`).
    pub solution: Vec<f64>,
}

/// Diagonal shift of the operator `A = (4 + SHIFT)·I − N₄` (keeps the
/// stencil SPD and well-conditioned, standing in for POP's barotropic
/// operator coefficients).
pub const SHIFT: f64 = 0.2;

/// The right-hand side at global cell `(gi, gj)` of a `gx × gy` domain.
pub fn rhs(gi: usize, gj: usize, gx: usize, gy: usize) -> f64 {
    let x = (gi as f64 + 0.5) / gx as f64;
    let y = (gj as f64 + 0.5) / gy as f64;
    (std::f64::consts::TAU * x).sin() * (std::f64::consts::PI * y).cos() + 0.1
}

/// Apply the 5-point operator to a ghosted field (`(nx+2)·(ny+2)`,
/// row-major, ghosts at the rim) producing the interior result.
fn apply_stencil(u: &[f64], nx: usize, ny: usize, out: &mut [f64]) {
    let w = nx + 2;
    for j in 1..=ny {
        for i in 1..=nx {
            out[(j - 1) * nx + (i - 1)] = (4.0 + SHIFT) * u[j * w + i]
                - u[j * w + i - 1]
                - u[j * w + i + 1]
                - u[(j - 1) * w + i]
                - u[(j + 1) * w + i];
        }
    }
}

/// Serial reference CG on the full `gx × gy` domain; returns the solution
/// and the final residual 2-norm after `iters` iterations.
pub fn serial_cg(gx: usize, gy: usize, iters: usize) -> (Vec<f64>, f64) {
    let w = gx + 2;
    let h = gy + 2;
    let ghosted = |field: &[f64]| {
        let mut g = vec![0.0; w * h];
        for j in 0..gy {
            for i in 0..gx {
                g[(j + 1) * w + i + 1] = field[j * gx + i];
            }
        }
        g
    };
    let b: Vec<f64> = (0..gx * gy).map(|k| rhs(k % gx, k / gx, gx, gy)).collect();
    let mut x = vec![0.0; gx * gy];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rs: f64 = r.iter().map(|v| v * v).sum();
    let mut q = vec![0.0; gx * gy];
    for _ in 0..iters {
        let pg = ghosted(&p);
        apply_stencil(&pg, gx, gy, &mut q);
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let alpha = rs / pq;
        for k in 0..gx * gy {
            x[k] += alpha * p[k];
            r[k] -= alpha * q[k];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rs_new / rs;
        rs = rs_new;
        for k in 0..gx * gy {
            p[k] = r[k] + beta * p[k];
        }
    }
    (x, rs.sqrt())
}

/// The miniapp's GlobalSum: a 3-word vector reduction **through MPI**
/// (`MPI_Allreduce`), exactly as the CAF port of CGPOP keeps doing.
fn global_sum3(img: &Image, vals: [f64; 3]) -> [f64; 3] {
    let mpi = img.mpi().expect(
        "CGPOP is a hybrid MPI+CAF application: on the GASNet substrate it \
         needs CafConfig::hybrid_mpi (duplicate runtimes)",
    );
    let out = mpi
        .allreduce(&mpi.world(), &vals, |a, b| a + b)
        .expect("GlobalSum allreduce");
    [out[0], out[1], out[2]]
}

struct Halo {
    grid: Grid2d,
    buf: Coarray<f64>,
    l: usize,
    nx: usize,
    ny: usize,
    mode: ExchangeMode,
}

// Slot layout in the halo coarray: 4 outboxes then 4 inboxes, each of
// length L = max(nx, ny); order W, E, S, N.
const W: usize = 0;
const E: usize = 1;
const S: usize = 2;
const N: usize = 3;

impl Halo {
    fn new(img: &Image, team: &Team, nx: usize, ny: usize, mode: ExchangeMode) -> Self {
        let grid = Grid2d::new(team.size());
        let l = nx.max(ny);
        let buf = img.coarray_alloc(team, 8 * l);
        Halo {
            grid,
            buf,
            l,
            nx,
            ny,
            mode,
        }
    }

    fn outbox(&self, dir: usize) -> usize {
        dir * self.l
    }

    fn inbox(&self, dir: usize) -> usize {
        (4 + dir) * self.l
    }

    fn pack(&self, u: &[f64], dir: usize) -> Vec<f64> {
        let w = self.nx + 2;
        match dir {
            W => (1..=self.ny).map(|j| u[j * w + 1]).collect(),
            E => (1..=self.ny).map(|j| u[j * w + self.nx]).collect(),
            S => (1..=self.nx).map(|i| u[w + i]).collect(),
            N => (1..=self.nx).map(|i| u[self.ny * w + i]).collect(),
            _ => unreachable!(),
        }
    }

    fn unpack(&self, u: &mut [f64], dir: usize, data: &[f64]) {
        let w = self.nx + 2;
        match dir {
            W => {
                for (j, &v) in data.iter().enumerate() {
                    u[(j + 1) * w] = v;
                }
            }
            E => {
                for (j, &v) in data.iter().enumerate() {
                    u[(j + 1) * w + self.nx + 1] = v;
                }
            }
            S => {
                for (i, &v) in data.iter().enumerate() {
                    u[i + 1] = v;
                }
            }
            N => {
                for (i, &v) in data.iter().enumerate() {
                    u[(self.ny + 1) * w + i + 1] = v;
                }
            }
            _ => unreachable!(),
        }
    }

    /// UpdateHalo: fill the ghost rim of `u` from the four neighbours.
    fn exchange(&self, img: &Image, team: &Team, u: &mut [f64]) {
        let me = team.rank();
        let nbrs = self.grid.neighbours(me); // [W, E, S, N]
        let opposite = [E, W, N, S];
        let lens = [self.ny, self.ny, self.nx, self.nx];

        match self.mode {
            ExchangeMode::Push => {
                // Write my boundary into each neighbour's facing inbox.
                for dir in 0..4 {
                    if let Some(nb) = nbrs[dir] {
                        let data = self.pack(u, dir);
                        self.buf.write(img, nb, self.inbox(opposite[dir]), &data);
                    }
                }
                img.barrier(team);
                for (dir, nb) in nbrs.iter().enumerate() {
                    if nb.is_some() {
                        let mut data = vec![0.0; lens[dir]];
                        self.buf.local_read(img, self.inbox(dir), &mut data);
                        self.unpack(u, dir, &data);
                    }
                }
                img.barrier(team);
            }
            ExchangeMode::Pull => {
                // Publish my boundaries in my own outboxes...
                for (dir, nb) in nbrs.iter().enumerate() {
                    if nb.is_some() {
                        let data = self.pack(u, dir);
                        self.buf.local_write(img, self.outbox(dir), &data);
                    }
                }
                img.barrier(team);
                // ...then read each neighbour's facing outbox.
                for dir in 0..4 {
                    if let Some(nb) = nbrs[dir] {
                        let mut data = vec![0.0; lens[dir]];
                        self.buf.read(img, nb, self.outbox(opposite[dir]), &mut data);
                        self.unpack(u, dir, &data);
                    }
                }
                img.barrier(team);
            }
        }
    }
}

/// Run CGPOP over `team` (which must be `TEAM_WORLD` — the GlobalSum uses
/// `MPI_COMM_WORLD`, as the miniapp does).
pub fn run(img: &Image, team: &Team, params: CgpopParams, mode: ExchangeMode) -> CgpopOutcome {
    let CgpopParams { nx, ny, iters } = params;
    let grid = Grid2d::new(team.size());
    let (px, py) = grid.coords(team.rank());
    let gx = grid.px * nx;
    let gy = grid.py * ny;

    let halo = Halo::new(img, team, nx, ny, mode);
    let w = nx + 2;
    let h = ny + 2;
    let interior = nx * ny;

    // Local right-hand side.
    let b: Vec<f64> = (0..interior)
        .map(|k| {
            let (i, j) = (k % nx, k / nx);
            rhs(px * nx + i, py * ny + j, gx, gy)
        })
        .collect();

    let mut x = vec![0.0f64; interior];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut q = vec![0.0f64; interior];
    let mut pg = vec![0.0f64; w * h]; // ghosted work field

    let local_dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();

    img.barrier(team);
    let t = Instant::now();

    let mut rs = global_sum3(img, [local_dot(&r, &r), 0.0, 0.0])[0];
    for _ in 0..iters {
        // Load p into the ghosted field and update its halo.
        for j in 0..ny {
            pg[(j + 1) * w + 1..(j + 1) * w + 1 + nx]
                .copy_from_slice(&p[j * nx..(j + 1) * nx]);
        }
        halo.exchange(img, team, &mut pg);
        apply_stencil(&pg, nx, ny, &mut q);

        let sums = global_sum3(img, [local_dot(&p, &q), 0.0, 0.0]);
        let alpha = rs / sums[0];
        for k in 0..interior {
            x[k] += alpha * p[k];
            r[k] -= alpha * q[k];
        }
        let rs_new = global_sum3(img, [local_dot(&r, &r), 0.0, 0.0])[0];
        let beta = rs_new / rs;
        rs = rs_new;
        for k in 0..interior {
            p[k] = r[k] + beta * p[k];
        }
    }

    img.barrier(team);
    let dt = t.elapsed().as_secs_f64();
    let secs = img.allreduce(team, &[dt], |a, b| a.max(b))[0];
    img.coarray_free(team, halo.buf);

    CgpopOutcome {
        bench: BenchResult {
            seconds: secs,
            metric: secs,
        },
        final_residual: rs.sqrt(),
        solution: x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf::{CafConfig, CafUniverse, SubstrateKind};
    use caf_fabric::topology::Grid2d;

    fn check_against_serial(p: usize, kind: SubstrateKind, mode: ExchangeMode) {
        let params = CgpopParams {
            nx: 8,
            ny: 6,
            iters: 25,
        };
        let grid = Grid2d::new(p);
        let (gx, gy) = (grid.px * params.nx, grid.py * params.ny);
        let (serial_x, serial_res) = serial_cg(gx, gy, params.iters);

        let cfg = CafConfig {
            hybrid_mpi: true, // needed on the GASNet substrate
            ..CafConfig::on(kind)
        };
        let outcomes = CafUniverse::run_with_config(p, cfg, move |img| {
            let team = img.team_world();
            run(img, &team, params, mode)
        });
        for (rank, out) in outcomes.iter().enumerate() {
            let (cx, cy) = grid.coords(rank);
            assert!(
                (out.final_residual - serial_res).abs() <= 1e-6 * serial_res.max(1e-30),
                "residual mismatch: {} vs {serial_res}",
                out.final_residual
            );
            for j in 0..params.ny {
                for i in 0..params.nx {
                    let got = out.solution[j * params.nx + i];
                    let want = serial_x[(cy * params.ny + j) * gx + cx * params.nx + i];
                    assert!(
                        (got - want).abs() < 1e-8 * want.abs().max(1.0),
                        "P={p} rank={rank} cell ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn push_matches_serial_mpi_substrate() {
        for p in [1usize, 2, 4, 6] {
            check_against_serial(p, SubstrateKind::Mpi, ExchangeMode::Push);
        }
    }

    #[test]
    fn pull_matches_serial_mpi_substrate() {
        for p in [1usize, 4, 6] {
            check_against_serial(p, SubstrateKind::Mpi, ExchangeMode::Pull);
        }
    }

    #[test]
    fn push_and_pull_match_serial_gasnet_substrate() {
        check_against_serial(4, SubstrateKind::Gasnet, ExchangeMode::Push);
        check_against_serial(4, SubstrateKind::Gasnet, ExchangeMode::Pull);
    }

    #[test]
    fn residual_decreases() {
        let (_x10, r10) = serial_cg(16, 16, 10);
        let (_x40, r40) = serial_cg(16, 16, 40);
        assert!(r40 < r10, "CG must converge: {r40} !< {r10}");
    }

    #[test]
    #[should_panic(expected = "needs CafConfig::hybrid_mpi")]
    fn gasnet_without_hybrid_mpi_panics_clearly() {
        CafUniverse::run_with_config(
            2,
            CafConfig::on(SubstrateKind::Gasnet),
            |img| {
                let team = img.team_world();
                let _ = run(
                    img,
                    &team,
                    CgpopParams {
                        nx: 4,
                        ny: 4,
                        iters: 1,
                    },
                    ExchangeMode::Push,
                );
            },
        );
    }
}
