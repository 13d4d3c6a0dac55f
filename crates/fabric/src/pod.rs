//! Plain-old-data marker trait and byte-level views.
//!
//! Substrates move typed buffers (`&[f64]`, `&[u64]`, ...) through byte-
//! oriented fabric primitives. [`Pod`] marks element types for which a
//! byte-level reinterpretation is sound, mirroring what an MPI datatype
//! engine does for predefined contiguous types.

use std::borrow::Cow;
use std::sync::Arc;

/// Marker for types that are valid for any bit pattern and contain no
/// padding, so `&[T] -> &[u8]` and back are sound.
///
/// # Safety
///
/// Implementors must guarantee:
/// * every bit pattern of `size_of::<T>()` bytes is a valid `T`,
/// * `T` has no padding bytes,
/// * `T` has no interior mutability and no drop glue (`T: Copy`).
// SAFETY: unsafe trait declaration — the contract implementors must
// uphold is the `# Safety` section above.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// Predefined "MPI datatypes".
// SAFETY: (this and the impls below) primitive integers and `()` accept
// every bit pattern, have no padding, no interior mutability, no drop glue.
unsafe impl Pod for () {}
unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {} // SAFETY: see block comment above.
unsafe impl Pod for u16 {} // SAFETY: see block comment above.
unsafe impl Pod for i16 {} // SAFETY: see block comment above.
unsafe impl Pod for u32 {} // SAFETY: see block comment above.
unsafe impl Pod for i32 {} // SAFETY: see block comment above.
unsafe impl Pod for u64 {} // SAFETY: see block comment above.
unsafe impl Pod for i64 {} // SAFETY: see block comment above.
unsafe impl Pod for usize {} // SAFETY: see block comment above.
unsafe impl Pod for isize {} // SAFETY: see block comment above.
// SAFETY: every 32-/64-bit pattern is a valid float (NaN payloads
// included); no padding, `Copy`.
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {} // SAFETY: see f32 above.
// SAFETY: an array of Pod elements is element-wise valid for any bytes,
// and `[T; N]` inserts no padding between elements.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Reinterpret a typed slice as bytes.
pub fn as_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` guarantees no padding and bit-pattern validity; the
    // length arithmetic cannot overflow because the slice already exists.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Reinterpret a typed slice as mutable bytes.
pub fn as_bytes_mut<T: Pod>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: as `as_bytes`, plus exclusive access via `&mut`.
    unsafe {
        std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(s))
    }
}

/// `bytes` as elements of `T`: the bytes themselves, cast in place, when
/// they are aligned for `T` (a packet sliced out of a typed slab always
/// is); a copy otherwise.
///
/// # Panics
///
/// As [`vec_from_bytes`].
pub fn cast_or_copy<T: Pod>(bytes: &[u8]) -> Cow<'_, [T]> {
    let elem = std::mem::size_of::<T>();
    if elem == 0 || !bytes.as_ptr().cast::<T>().is_aligned() {
        return Cow::Owned(vec_from_bytes(bytes));
    }
    assert!(
        bytes.len() % elem == 0,
        "byte length {} not a multiple of element size {}",
        bytes.len(),
        elem
    );
    let (ptr, len) = (bytes.as_ptr().cast::<T>(), bytes.len() / elem);
    // SAFETY: `ptr` is aligned for `T` (checked above) and spans `len`
    // whole `T`s of initialized bytes, each valid for any bit pattern
    // (`T: Pod`); the result borrows `bytes`, so it cannot outlive them.
    Cow::Borrowed(unsafe { std::slice::from_raw_parts(ptr, len) })
}

/// A shared typed vector seen as its bytes, so that it can own a
/// `Bytes` (`Bytes::from_owner`) without a copy: a send slab lent to the
/// fabric, whose lender takes it back with `Arc::try_unwrap` once the
/// last packet viewing it is gone.
pub struct ByteView<T>(pub Arc<Vec<T>>);

impl<T: Pod> AsRef<[u8]> for ByteView<T> {
    fn as_ref(&self) -> &[u8] {
        as_bytes(&self.0)
    }
}

/// Copy a byte buffer into a freshly allocated typed vector.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`; that is
/// always a protocol bug in the caller.
pub fn vec_from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let elem = std::mem::size_of::<T>();
    assert!(
        elem == 0 || bytes.len() % elem == 0,
        "byte length {} not a multiple of element size {}",
        bytes.len(),
        elem
    );
    let n = bytes.len().checked_div(elem).unwrap_or(0);
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: capacity reserved above; Pod means any bit pattern is valid.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    out
}

/// A vector of `len` all-zero elements. The allocation comes zeroed from
/// the allocator (calloc), so pages nobody writes are never touched.
pub fn zeroed_vec<T: Pod>(len: usize) -> Vec<T> {
    let layout = std::alloc::Layout::array::<T>(len).expect("zeroed_vec: length overflows");
    if layout.size() == 0 {
        // Nothing to allocate: `len` is 0 or `T` is zero-sized.
        // SAFETY: `T: Pod` makes the all-zero bit pattern a valid `T`.
        return vec![unsafe { std::mem::zeroed::<T>() }; len];
    }
    // SAFETY: `layout` has a non-zero size, as `alloc_zeroed` requires.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<T>();
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    // SAFETY: `ptr` is a block of the global allocator with exactly the
    // layout `Vec<T>` uses for capacity `len`; its bytes are all zero,
    // which `T: Pod` makes `len` valid elements.
    unsafe { Vec::from_raw_parts(ptr, len, len) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_vec_of_zero_sized_and_array_elements() {
        assert_eq!(zeroed_vec::<()>(3).len(), 3);
        let mut v = zeroed_vec::<[u16; 3]>(2);
        v.push([1, 2, 3]);
        assert_eq!(v, [[0; 3], [0; 3], [1, 2, 3]]);
    }

    #[test]
    fn roundtrip_f64() {
        let xs = [1.5f64, -2.25, 0.0, f64::MAX];
        let bytes = as_bytes(&xs);
        assert_eq!(bytes.len(), 32);
        let back: Vec<f64> = vec_from_bytes(bytes);
        assert_eq!(back, xs);
    }

    #[test]
    fn roundtrip_u64() {
        let xs = [u64::MAX, 0, 42];
        let back: Vec<u64> = vec_from_bytes(as_bytes(&xs));
        assert_eq!(back, xs);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn vec_from_bytes_rejects_ragged() {
        let bytes = [0u8; 7];
        let _: Vec<u64> = vec_from_bytes(&bytes);
    }

    #[test]
    fn as_bytes_mut_roundtrip() {
        let mut xs = [1u16, 2, 3];
        as_bytes_mut(&mut xs)[0] = 0xff;
        // Low byte replaced, high byte untouched (little-endian).
        assert_eq!(xs[0], 0x00ff);
    }

    #[test]
    fn cast_or_copy_borrows_aligned_bytes_and_copies_the_rest() {
        let xs = [1u64, 2, 3, 4];
        let bytes = as_bytes(&xs);
        let cast = cast_or_copy::<u64>(&bytes[8..]);
        assert!(matches!(cast, Cow::Borrowed(_)));
        assert_eq!(cast.as_ptr(), xs[1..].as_ptr());
        // One byte off an aligned buffer: every u32 is misaligned, so the
        // view is a copy.
        let mut words = [0u32; 3];
        let odd = &mut as_bytes_mut(&mut words)[1..9];
        odd.copy_from_slice(as_bytes(&[7u32, 9]));
        let copied = cast_or_copy::<u32>(odd);
        assert!(matches!(copied, Cow::Owned(_)));
        assert_eq!(&copied[..], &[7, 9]);
        assert_eq!(cast_or_copy::<()>(&[]).len(), 0);
    }

    #[test]
    fn a_byte_view_lends_its_vector_and_gives_it_back() {
        let slab = Arc::new(vec![0x0102u16, 0x0304]);
        let view = ByteView(Arc::clone(&slab));
        assert_eq!(view.as_ref(), &[2, 1, 4, 3]);
        assert_eq!(view.as_ref().as_ptr(), slab.as_ptr().cast());
        drop(view);
        assert_eq!(Arc::try_unwrap(slab), Ok(vec![0x0102, 0x0304]));
    }

    #[test]
    fn nested_arrays_are_pod() {
        let xs = [[1u8, 2], [3, 4]];
        assert_eq!(as_bytes(&xs), &[1, 2, 3, 4]);
    }
}
