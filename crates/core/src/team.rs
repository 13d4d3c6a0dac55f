//! Teams — CAF 2.0's first-class process groups (paper §2.1).
//!
//! A team serves three purposes: a domain for coarray allocation, a rank
//! namespace, and an isolated collective/synchronization scope. On both
//! substrates a team is one [`Group`]: on CAF-MPI that group *is* the
//! team's communicator; on CAF-GASNet, which has no communicator concept,
//! the runtime runs its collectives in the group's sequence space.

use caf_fabric::Group;

/// A CAF team.
#[derive(Debug, Clone)]
pub struct Team {
    pub(crate) group: Group,
}

impl Team {
    /// This image's rank within the team.
    pub fn rank(&self) -> usize {
        self.group.rank()
    }

    /// Number of images in the team.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// Stable team identity (context id).
    pub fn id(&self) -> u64 {
        self.group.id()
    }

    /// Global (world) rank of team member `idx`.
    pub fn global_rank(&self, idx: usize) -> usize {
        self.group.global_rank(idx)
    }

    /// Member global ranks in team order.
    pub fn members(&self) -> Vec<usize> {
        self.group.members().to_vec()
    }
}
