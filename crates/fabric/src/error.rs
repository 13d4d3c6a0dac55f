//! Error type shared by the fabric and the substrates layered on it.

use std::fmt;

/// Errors surfaced by fabric operations.
///
/// These are programming or configuration errors in the layers above the
/// fabric (a substrate asking for an out-of-bounds remote access, a rank id
/// past the job size, ...), not transient network conditions: the in-process
/// fabric is lossless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A remote access fell outside the bounds of the target segment.
    OutOfBounds {
        /// Byte offset of the access.
        offset: usize,
        /// Length of the access in bytes.
        len: usize,
        /// Capacity of the segment in bytes.
        capacity: usize,
    },
    /// An atomic word access was not aligned to its element size.
    BadAlignment {
        /// The offending byte offset.
        offset: usize,
        /// Required alignment in bytes.
        required: usize,
    },
    /// A segment id did not resolve to a live segment.
    UnknownSegment(u64),
    /// A rank id was `>=` the job size.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The job size.
        size: usize,
    },
    /// A blocking operation's partner set includes at least one failed
    /// image (fault injection, [`crate::FaultPlan`]). Carries the failed
    /// ranks known at detection time, ascending.
    ImageFailed {
        /// The failed ranks observed by the detector.
        failed: Vec<usize>,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "remote access [{offset}, {}) exceeds segment capacity {capacity}",
                offset + len
            ),
            FabricError::BadAlignment { offset, required } => {
                write!(f, "offset {offset} is not {required}-byte aligned")
            }
            FabricError::UnknownSegment(id) => write!(f, "unknown segment id {id}"),
            FabricError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for job of size {size}")
            }
            FabricError::ImageFailed { failed } => {
                write!(f, "partner image(s) failed: {failed:?}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FabricError::OutOfBounds {
            offset: 8,
            len: 16,
            capacity: 10,
        };
        let s = e.to_string();
        assert!(s.contains("8"), "{s}");
        assert!(s.contains("24"), "{s}");
        assert!(s.contains("10"), "{s}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            FabricError::UnknownSegment(3),
            FabricError::UnknownSegment(3)
        );
        assert_ne!(
            FabricError::UnknownSegment(3),
            FabricError::UnknownSegment(4)
        );
    }

    #[test]
    fn rank_out_of_range_display() {
        let e = FabricError::RankOutOfRange { rank: 9, size: 8 };
        assert_eq!(e.to_string(), "rank 9 out of range for job of size 8");
    }
}
