//! Diagnostics produced by the checkers.

use std::fmt;

/// Half-open byte interval `[start, end)` within a window region (epoch
/// checker) or a coarray member's local part (race detector). Also used
/// for origin-buffer *address* ranges in the request-lifetime checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// First byte covered.
    pub start: u64,
    /// One past the last byte covered.
    pub end: u64,
}

impl ByteRange {
    /// The range `[start, start + len)`.
    pub fn new(start: u64, len: u64) -> Self {
        ByteRange {
            start,
            end: start.saturating_add(len),
        }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True when the two ranges share at least one byte. Empty ranges
    /// overlap nothing.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The shared bytes of two overlapping ranges.
    pub fn intersect(&self, other: &ByteRange) -> ByteRange {
        ByteRange {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        }
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Which rule was broken. The first six are MPI-3 passive-target RMA
/// obligations (epoch checker); the last is the CAF-level happens-before
/// race (vector-clock detector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An RMA call on a window with no open `lock_all` epoch.
    OutsideEpoch,
    /// `win_lock_all` on an already-open epoch, or `win_unlock_all` with
    /// none open.
    UnbalancedEpoch,
    /// `win_free` while the calling rank's epoch is still open.
    OpenEpochAtFree,
    /// A local load of window memory that an unflushed inbound put still
    /// targets (the data is not guaranteed visible until the origin
    /// flushes).
    ReadBeforeFlush,
    /// Two RMA operations (or an RMA put and a local store) touch
    /// overlapping bytes of the same target within one epoch with no
    /// separating flush — undefined behavior under MPI-3.
    EpochOverlap,
    /// An origin buffer handed to `rput`/`rget` was reused by another RMA
    /// call before the request completed.
    BufferReuse,
    /// A request-generating operation was dropped without `wait` — its
    /// completion certificate is lost (the paper's Fig 2 put-ack hazard).
    LostCompletion,
    /// Two coarray accesses, at least one a write, to overlapping bytes of
    /// the same member's part, unordered by happens-before.
    CoarrayRace,
}

impl ViolationKind {
    /// Stable lower-snake name (used in reports and tests).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::OutsideEpoch => "outside_epoch",
            ViolationKind::UnbalancedEpoch => "unbalanced_epoch",
            ViolationKind::OpenEpochAtFree => "open_epoch_at_free",
            ViolationKind::ReadBeforeFlush => "read_before_flush",
            ViolationKind::EpochOverlap => "epoch_overlap",
            ViolationKind::BufferReuse => "buffer_reuse",
            ViolationKind::LostCompletion => "lost_completion",
            ViolationKind::CoarrayRace => "coarray_race",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: what rule, who broke it, where.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule.
    pub kind: ViolationKind,
    /// Window id (epoch checker) or region id (race detector) involved.
    pub window: Option<u64>,
    /// Global rank / image whose operation triggered the check.
    pub image: usize,
    /// The other global rank involved, when the violation is a pair
    /// (conflicting-put origin, racing image, ...).
    pub other: Option<usize>,
    /// Byte range of the conflict, in window/region coordinates.
    pub range: Option<ByteRange>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: image {}", self.kind, self.image)?;
        if let Some(o) = self.other {
            write!(f, " vs image {o}")?;
        }
        if let Some(w) = self.window {
            write!(f, ", window {w:#x}")?;
        }
        if let Some(r) = self.range {
            write!(f, ", bytes {r}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Everything a replay found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The diagnostics, in detection order.
    pub violations: Vec<Violation>,
    /// What the replay could not judge: trace events lost to ring
    /// wraparound, events the analyses read that no image recorded (a
    /// thread no launch attributed), and diagnostics past the cap.
    pub dropped: usize,
    /// The happens-before edges the trace recorded, in replay order, as
    /// `(trace time, image, edge)`: what the detector was told, for
    /// reading a diagnostic against (the first 16 384).
    pub edges: Vec<(u64, usize, crate::hb::HbEdge)>,
}

impl Report {
    /// True when nothing was flagged (and nothing dropped).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Diagnostics of one kind.
    pub fn of_kind(&self, kind: ViolationKind) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.kind == kind).collect()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "clean (no violations)".to_string();
        }
        let mut out = format!(
            "{} violation(s){}:\n",
            self.violations.len(),
            if self.dropped > 0 {
                format!(" (+{} dropped)", self.dropped)
            } else {
                String::new()
            }
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_overlap_iff_sharing_bytes() {
        let a = ByteRange::new(0, 8);
        assert!(a.overlaps(&ByteRange::new(7, 1)));
        assert!(!a.overlaps(&ByteRange::new(8, 8)));
        assert!(!a.overlaps(&ByteRange::new(0, 0)), "empty overlaps nothing");
        assert_eq!(
            a.intersect(&ByteRange::new(4, 8)),
            ByteRange { start: 4, end: 8 }
        );
    }

    #[test]
    fn report_renders_kind_and_parties() {
        let mut r = Report::default();
        r.violations.push(Violation {
            kind: ViolationKind::EpochOverlap,
            window: Some(0x77),
            image: 2,
            other: Some(1),
            range: Some(ByteRange::new(8, 8)),
            detail: "put overlaps unflushed put".into(),
        });
        assert!(!r.is_clean());
        let s = r.render();
        assert!(s.contains("epoch_overlap"), "{s}");
        assert!(s.contains("image 2 vs image 1"), "{s}");
        assert!(s.contains("[8, 16)"), "{s}");
        assert_eq!(r.of_kind(ViolationKind::EpochOverlap).len(), 1);
    }
}
