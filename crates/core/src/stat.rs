//! Failed-image status reporting — the Fortran 2018 `STAT_FAILED_IMAGE`
//! surface (DESIGN.md §17).
//!
//! Every blocking operation with a `_stat` variant returns a [`Stat`]
//! instead of hanging (or panicking) when an image in its partner set has
//! failed. The failed set travels with the status so callers can shrink
//! their team ([`crate::Image::team_reform`]) and continue on the
//! survivors. Operations *without* a `_stat` variant panic on a detected
//! failure — they still never hang, but they treat death as fatal.

/// Status of one image as observed through the failure registry
/// (`image_status(i)` in Fortran 2018 terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageStatus {
    /// The image has not been observed to fail.
    Ok,
    /// The image has failed (`STAT_FAILED_IMAGE` would be returned by
    /// operations involving it).
    Failed,
}

/// Outcome of a blocking operation's failure screen — the `stat=`
/// out-parameter of Fortran 2018 image-control statements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Stat {
    /// The operation completed normally.
    #[default]
    Ok,
    /// The operation returned early because the listed images (global
    /// ranks, ascending, deduplicated) have failed — Fortran's
    /// `STAT_FAILED_IMAGE`.
    FailedImage(Vec<usize>),
}

impl Stat {
    /// True when the operation completed without observing a failure.
    pub fn is_ok(&self) -> bool {
        matches!(self, Stat::Ok)
    }

    /// The failed images this status reports (empty for [`Stat::Ok`]).
    pub fn failed(&self) -> &[usize] {
        match self {
            Stat::Ok => &[],
            Stat::FailedImage(f) => f,
        }
    }

    /// The policy of every plain blocking call: what its `_stat` form
    /// reports is fatal. `call` names the plain call.
    pub(crate) fn expect_ok(&self, call: &str) {
        assert!(
            self.is_ok(),
            "{call}: image(s) {:?} failed (use {call}_stat to handle failure)",
            self.failed()
        );
    }

    /// Fold another failed set into this status (sorted, deduplicated).
    pub(crate) fn merge(&mut self, more: &[usize]) {
        if more.is_empty() {
            return;
        }
        let mut all = std::mem::take(self).into_failed();
        all.extend_from_slice(more);
        all.sort_unstable();
        all.dedup();
        *self = Stat::FailedImage(all);
    }

    fn into_failed(self) -> Vec<usize> {
        match self {
            Stat::Ok => Vec::new(),
            Stat::FailedImage(f) => f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ok() {
        let s = Stat::default();
        assert!(s.is_ok());
        assert!(s.failed().is_empty());
    }

    #[test]
    fn merge_sorts_and_dedups() {
        let mut s = Stat::Ok;
        s.merge(&[]);
        assert!(s.is_ok(), "merging nothing stays Ok");
        s.merge(&[3, 1]);
        s.merge(&[2, 3]);
        assert_eq!(s.failed(), &[1, 2, 3]);
        assert!(!s.is_ok());
    }
}
