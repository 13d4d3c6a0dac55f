//! Two-dimensional coarrays — the shape Fortran code actually declares
//! (`real :: A(n,m)[*]`). A thin, zero-copy layer over [`Coarray`] that
//! maps rows, columns, and rectangular blocks onto contiguous and strided
//! one-sided accesses.
//!
//! The local tile is **row-major**: rows are contiguous (one put/get),
//! columns are strided [`Section`]s — exactly the access-shape split a
//! CAF compiler produces for `A(i,:)` vs `A(:,j)` sections.

use caf_fabric::Pod;

use crate::coarray::{Coarray, Section};
use crate::image::Image;
use crate::team::Team;

/// A coarray of `rows × cols` elements per image, row-major.
pub struct Coarray2d<T: Pod> {
    inner: Coarray<T>,
    rows: usize,
    cols: usize,
}

impl<T: Pod> Clone for Coarray2d<T> {
    fn clone(&self) -> Self {
        Coarray2d {
            inner: self.inner.clone(),
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl<T: Pod> std::fmt::Debug for Coarray2d<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coarray2d")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish()
    }
}

impl Image {
    /// Collectively allocate a `rows × cols` coarray over `team`.
    pub fn coarray2d_alloc<T: Pod>(&self, team: &Team, rows: usize, cols: usize) -> Coarray2d<T> {
        Coarray2d {
            inner: self.coarray_alloc(team, rows * cols),
            rows,
            cols,
        }
    }

    /// Collectively free a 2-D coarray.
    pub fn coarray2d_free<T: Pod>(&self, team: &Team, ca: Coarray2d<T>) {
        self.coarray_free(team, ca.inner);
    }
}

impl<T: Pod> Coarray2d<T> {
    /// Rows per image.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per image.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying flat coarray (element `(r, c)` is at `r·cols + c`).
    pub fn flat(&self) -> &Coarray<T> {
        &self.inner
    }

    fn at(&self, r: usize, c: usize) -> usize {
        assert!(
            r < self.rows && c < self.cols,
            "element ({r}, {c}) outside {}×{} tile",
            self.rows,
            self.cols
        );
        r * self.cols + c
    }

    /// Blocking remote read of one element: `A(r, c)[member]`.
    pub fn read_elem(&self, img: &Image, member: usize, r: usize, c: usize) -> T {
        let mut out = crate::zeroed_vec::<T>(1);
        self.inner.read(img, member, self.at(r, c), &mut out);
        out[0]
    }

    /// Blocking remote write of one element.
    pub fn write_elem(&self, img: &Image, member: usize, r: usize, c: usize, v: T) {
        self.inner.write(img, member, self.at(r, c), &[v]);
    }

    /// Blocking remote read of row `r` (`A(r, :)[member]`) — contiguous.
    pub fn read_row(&self, img: &Image, member: usize, r: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.cols, "row buffer length");
        self.inner.read(img, member, self.at(r, 0), out);
    }

    /// Blocking remote write of row `r` — contiguous.
    pub fn write_row(&self, img: &Image, member: usize, r: usize, data: &[T]) {
        assert_eq!(data.len(), self.cols, "row buffer length");
        self.inner.write(img, member, self.at(r, 0), data);
    }

    /// Blocking remote read of column `c` (`A(:, c)[member]`) — a strided
    /// section with stride `cols`.
    pub fn read_col(&self, img: &Image, member: usize, c: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.rows, "column buffer length");
        self.inner.read_section(
            img,
            member,
            Section::new(self.at(0, c), self.rows, self.cols),
            out,
        );
    }

    /// Blocking remote write of column `c` — a strided section.
    pub fn write_col(&self, img: &Image, member: usize, c: usize, data: &[T]) {
        assert_eq!(data.len(), self.rows, "column buffer length");
        self.inner.write_section(
            img,
            member,
            Section::new(self.at(0, c), self.rows, self.cols),
            data,
        );
    }

    /// Blocking remote write of a rectangular block with top-left corner
    /// `(r0, c0)`; `data` is row-major `br × bc`.
    #[allow(clippy::too_many_arguments)] // BLAS-like geometry signature
    pub fn write_block(
        &self,
        img: &Image,
        member: usize,
        r0: usize,
        c0: usize,
        br: usize,
        bc: usize,
        data: &[T],
    ) {
        assert_eq!(data.len(), br * bc, "block buffer length");
        let _ = self.at(r0 + br.saturating_sub(1), c0 + bc.saturating_sub(1));
        for (i, row) in data.chunks(bc).enumerate() {
            self.inner.write(img, member, self.at(r0 + i, c0), row);
        }
    }

    /// Blocking remote read of a rectangular block (row-major `br × bc`).
    #[allow(clippy::too_many_arguments)] // BLAS-like geometry signature
    pub fn read_block(
        &self,
        img: &Image,
        member: usize,
        r0: usize,
        c0: usize,
        br: usize,
        bc: usize,
        out: &mut [T],
    ) {
        assert_eq!(out.len(), br * bc, "block buffer length");
        let _ = self.at(r0 + br.saturating_sub(1), c0 + bc.saturating_sub(1));
        for (i, row) in out.chunks_mut(bc).enumerate() {
            self.inner.read(img, member, self.at(r0 + i, c0), row);
        }
    }

    /// This image's whole tile, row-major.
    pub fn local_tile(&self, img: &Image) -> Vec<T> {
        self.inner.local_vec(img)
    }

    /// Write this image's whole tile, row-major.
    pub fn local_write_tile(&self, img: &Image, data: &[T]) {
        assert_eq!(data.len(), self.rows * self.cols, "tile buffer length");
        self.inner.local_write(img, 0, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{both, CafUniverse};

    #[test]
    fn rows_cols_elements_roundtrip() {
        both(2, |img| {
            let w = img.team_world();
            let a: Coarray2d<f64> = img.coarray2d_alloc(&w, 3, 4);
            if img.this_image() == 0 {
                a.write_row(img, 1, 1, &[1.0, 2.0, 3.0, 4.0]);
                a.write_col(img, 1, 2, &[10.0, 20.0, 30.0]);
                a.write_elem(img, 1, 2, 0, 99.0);
            }
            img.sync_all();
            if img.this_image() == 1 {
                let t = a.local_tile(img);
                // Row 0: col 2 overwritten by the column write.
                assert_eq!(t[2], 10.0);
                // Row 1: column write lands after the row write.
                assert_eq!(&t[4..8], &[1.0, 2.0, 20.0, 4.0]);
                // Row 2.
                assert_eq!(t[2 * 4 + 2], 30.0);
                assert_eq!(t[2 * 4], 99.0);
            }
            img.sync_all();
            if img.this_image() == 0 {
                assert_eq!(a.read_elem(img, 1, 1, 1), 2.0);
                let mut col = [0.0f64; 3];
                a.read_col(img, 1, 2, &mut col);
                assert_eq!(col, [10.0, 20.0, 30.0]);
                let mut row = [0.0f64; 4];
                a.read_row(img, 1, 1, &mut row);
                assert_eq!(row, [1.0, 2.0, 20.0, 4.0]);
            }
            img.sync_all();
            img.coarray2d_free(&w, a);
        });
    }

    #[test]
    fn blocks_roundtrip() {
        both(2, |img| {
            let w = img.team_world();
            let a: Coarray2d<u64> = img.coarray2d_alloc(&w, 4, 5);
            if img.this_image() == 0 {
                // 2×3 block at (1, 2).
                a.write_block(img, 1, 1, 2, 2, 3, &[1, 2, 3, 4, 5, 6]);
            }
            img.sync_all();
            if img.this_image() == 1 {
                let t = a.local_tile(img);
                assert_eq!(&t[7..10], &[1, 2, 3]);
                assert_eq!(&t[2 * 5 + 2..2 * 5 + 5], &[4, 5, 6]);
                assert_eq!(t[0], 0);
            }
            img.sync_all();
            if img.this_image() == 0 {
                let mut out = [0u64; 6];
                a.read_block(img, 1, 1, 2, 2, 3, &mut out);
                assert_eq!(out, [1, 2, 3, 4, 5, 6]);
            }
            img.sync_all();
            img.coarray2d_free(&w, a);
        });
    }

    #[test]
    #[should_panic(expected = "outside 2×2 tile")]
    fn out_of_tile_access_panics() {
        CafUniverse::run(1, |img| {
            let w = img.team_world();
            let a: Coarray2d<u64> = img.coarray2d_alloc(&w, 2, 2);
            let _ = a.read_elem(img, 0, 2, 0);
        });
    }
}
