//! Teams — CAF 2.0's first-class process groups (paper §2.1).
//!
//! A team serves three purposes: a domain for coarray allocation, a rank
//! namespace, and an isolated collective/synchronization scope. On the MPI
//! substrate a team *is* a communicator; on the GASNet substrate it is a
//! runtime-managed member list with its own collective sequence space
//! (GASNet has no communicator concept — the runtime builds one).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use caf_mpisim::Comm;

use crate::backend::{Backend, On};

/// A CAF team.
#[derive(Debug, Clone)]
pub struct Team {
    pub(crate) inner: TeamInner,
}

#[derive(Debug, Clone)]
pub(crate) enum TeamInner {
    /// MPI substrate: the team is a communicator.
    Mpi(Comm),
    /// GASNet substrate: runtime-managed group.
    Gasnet(GTeam),
}

#[derive(Debug, Clone)]
pub(crate) struct GTeam {
    pub id: u64,
    /// Member global ranks in team order.
    pub members: Arc<[usize]>,
    pub my_idx: usize,
    pub state: Arc<GTeamState>,
}

#[derive(Debug, Default)]
pub(crate) struct GTeamState {
    /// Collective sequence number (advances identically on all members).
    pub coll_seq: AtomicU64,
}

impl GTeam {
    pub(crate) fn next_seq(&self) -> u64 {
        self.state.coll_seq.fetch_add(1, Ordering::Relaxed)
    }
}

impl Team {
    /// A fresh GASNet team: `members` (global ranks, team order) with this
    /// image at `my_idx`, and a collective sequence space of its own.
    pub(crate) fn gasnet(id: u64, members: Vec<usize>, my_idx: usize) -> Team {
        let state = Arc::new(GTeamState::default());
        Team { inner: TeamInner::Gasnet(GTeam { id, members: members.into(), my_idx, state }) }
    }

    /// The team paired with the backend of the substrate it lives on.
    ///
    /// # Panics
    ///
    /// Panics when the team was created by a job on the other substrate.
    #[inline]
    pub(crate) fn on<'a>(&'a self, backend: &'a Backend) -> On<'a, Comm, GTeam> {
        match (backend, &self.inner) {
            (Backend::Mpi(b), TeamInner::Mpi(comm)) => On::Mpi(b, comm),
            (Backend::Gasnet(b), TeamInner::Gasnet(t)) => On::Gasnet(b, t),
            _ => panic!("team does not belong to this substrate"),
        }
    }

    /// This image's rank within the team.
    pub fn rank(&self) -> usize {
        match &self.inner {
            TeamInner::Mpi(c) => c.rank(),
            TeamInner::Gasnet(t) => t.my_idx,
        }
    }

    /// Number of images in the team.
    pub fn size(&self) -> usize {
        match &self.inner {
            TeamInner::Mpi(c) => c.size(),
            TeamInner::Gasnet(t) => t.members.len(),
        }
    }

    /// Stable team identity (context id).
    pub fn id(&self) -> u64 {
        match &self.inner {
            TeamInner::Mpi(c) => c.id(),
            TeamInner::Gasnet(t) => t.id,
        }
    }

    /// Global (world) rank of team member `idx`.
    pub fn global_rank(&self, idx: usize) -> usize {
        match &self.inner {
            TeamInner::Mpi(c) => c.global_rank(idx),
            TeamInner::Gasnet(t) => t.members[idx],
        }
    }

    /// Member global ranks in team order.
    pub fn members(&self) -> Vec<usize> {
        match &self.inner {
            TeamInner::Mpi(c) => c.members().to_vec(),
            TeamInner::Gasnet(t) => t.members.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gasnet_team_accessors() {
        let t = Team {
            inner: TeamInner::Gasnet(GTeam {
                id: 9,
                members: vec![4, 6, 8].into(),
                my_idx: 1,
                state: Arc::new(GTeamState::default()),
            }),
        };
        assert_eq!(t.rank(), 1);
        assert_eq!(t.size(), 3);
        assert_eq!(t.id(), 9);
        assert_eq!(t.global_rank(2), 8);
        assert_eq!(t.members(), vec![4, 6, 8]);
    }

    #[test]
    fn gteam_seq_advances() {
        let t = GTeam {
            id: 0,
            members: vec![0].into(),
            my_idx: 0,
            state: Arc::new(GTeamState::default()),
        };
        assert_eq!(t.next_seq(), 0);
        assert_eq!(t.next_seq(), 1);
        // Clones share the sequence space.
        let u = t.clone();
        assert_eq!(u.next_seq(), 2);
        assert_eq!(t.next_seq(), 3);
    }
}
