//! Small topology helpers shared by collectives and benchmark kernels:
//! power-of-two math, hypercube dimensions, and a 2-D process grid used
//! for halo exchanges.

/// True if `n` is a power of two (and nonzero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// log2 of a power-of-two `n`.
///
/// # Panics
///
/// Panics when `n` is not a power of two.
pub fn log2_exact(n: usize) -> u32 {
    assert!(is_pow2(n), "{n} is not a power of two");
    n.trailing_zeros()
}

/// A 2-D process grid: `px * py == size`, as square as possible, used for
/// the CGPOP halo exchange decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2d {
    /// Number of process columns.
    pub px: usize,
    /// Number of process rows.
    pub py: usize,
}

impl Grid2d {
    /// Factor `size` into the most-square grid with `px >= py`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "grid of zero processes");
        let mut py = (size as f64).sqrt() as usize;
        while py > 1 && size % py != 0 {
            py -= 1;
        }
        Grid2d { px: size / py, py }
    }

    /// Grid coordinates of `rank` (row-major).
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank % self.px, rank / self.px)
    }

    /// Rank at grid coordinates `(x, y)`.
    pub fn rank(&self, x: usize, y: usize) -> usize {
        y * self.px + x
    }

    /// The four von-Neumann neighbours of `rank`, `None` at domain edges:
    /// `[west, east, south, north]`.
    pub fn neighbours(&self, rank: usize) -> [Option<usize>; 4] {
        let (x, y) = self.coords(rank);
        [
            (x > 0).then(|| self.rank(x - 1, y)),
            (x + 1 < self.px).then(|| self.rank(x + 1, y)),
            (y > 0).then(|| self.rank(x, y - 1)),
            (y + 1 < self.py).then(|| self.rank(x, y + 1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_predicates() {
        assert!(is_pow2(1));
        assert!(is_pow2(64));
        assert!(!is_pow2(0));
        assert!(!is_pow2(48));
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(1024), 10);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_rejects_non_pow2() {
        log2_exact(12);
    }

    #[test]
    fn grid_is_exact_factorization() {
        for size in 1..=64 {
            let g = Grid2d::new(size);
            assert_eq!(g.px * g.py, size, "size {size}");
            assert!(g.px >= g.py);
        }
        let g = Grid2d::new(24);
        assert_eq!((g.px, g.py), (6, 4));
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid2d::new(24);
        for r in 0..24 {
            let (x, y) = g.coords(r);
            assert_eq!(g.rank(x, y), r);
        }
    }

    #[test]
    fn neighbours_respect_edges() {
        let g = Grid2d::new(12); // 4 x 3
        assert_eq!(g.neighbours(0), [None, Some(1), None, Some(4)]);
        let r = g.rank(2, 1);
        assert_eq!(
            g.neighbours(r),
            [
                Some(g.rank(1, 1)),
                Some(g.rank(3, 1)),
                Some(g.rank(2, 0)),
                Some(g.rank(2, 2))
            ]
        );
    }
}
