//! Process groups: the one type behind an MPI communicator and a CAF team.
//!
//! A [`Group`] is an ordered list of global ranks, the caller's index in
//! it, and an id that isolates its traffic. Its counters — the collective
//! sequence number, the number of children made from it and the number of
//! tokens derived on it — live in state that clones share, so every handle
//! onto a group advances the same sequence space. Ids are derived, never
//! agreed: every member computes a child's id from the parent's id and
//! values all members hold, so a split or a shrink agrees on its id
//! without a message of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::Result;

/// An ordered process group. Cheap to clone; clones are the same group.
#[derive(Debug, Clone)]
pub struct Group {
    id: u64,
    members: Arc<[usize]>,
    my_idx: usize,
    state: Arc<GroupState>,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Collective sequence number: advances identically on every member,
    /// because collectives are collective.
    coll_seq: AtomicU64,
    /// Children numbered from this group (splits, windows).
    children: AtomicU64,
    /// Tokens numbered on this group (a CAF team's events, finish blocks
    /// and GASNet regions): a space of its own, so those ids do not move
    /// when a split or a window numbers a child.
    tokens: AtomicU64,
    /// Children whose id can be derived a second time (a repeated shrink
    /// by the same failed set, a repeated local dup): the second
    /// derivation returns the first group, so one id is one sequence space.
    derived: Mutex<Vec<Group>>,
}

impl Group {
    /// Group `id` over `members` (global ranks, group order), with the
    /// caller at index `my_idx`, and counters of its own.
    pub fn new(id: u64, members: impl Into<Arc<[usize]>>, my_idx: usize) -> Group {
        let members = members.into();
        debug_assert!(my_idx < members.len());
        Group {
            id,
            members,
            my_idx,
            state: Arc::default(),
        }
    }

    /// The group's id (an MPI context id, a CAF team id).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The caller's rank within the group.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of group rank `idx`.
    #[inline]
    pub fn global_rank(&self, idx: usize) -> usize {
        self.members[idx]
    }

    /// Group rank of global rank `global`, if it is a member.
    #[inline]
    pub fn rank_of_global(&self, global: usize) -> Option<usize> {
        self.members.iter().position(|&g| g == global)
    }

    /// The member global ranks, in group order.
    #[inline]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Advance and return the collective sequence number.
    pub fn next_seq(&self) -> u64 {
        self.state.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Advance and return the child counter: every member that numbers
    /// its children in the same order gives a child the same index.
    pub fn next_child(&self) -> u64 {
        self.state.children.fetch_add(1, Ordering::Relaxed)
    }

    /// Advance and return the token counter (1, 2, …), which every member
    /// advances in the same collective calls.
    pub fn next_token(&self) -> u64 {
        self.state.tokens.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The congruent group (same members, same order) of id
    /// `derive_id(self.id(), index, color)`, made without communication.
    pub fn dup_local(&self, index: u64, color: u64) -> Group {
        self.derived(derive_id(self.id, index, color), || {
            (self.members.clone(), self.my_idx)
        })
    }

    /// Split by `color`, each part ordered by `(key, rank)`: `allgather`
    /// exchanges every member's `(color, key, rank)` triple. The child's
    /// id derives from the parent's next child index and `color`.
    pub fn split(
        &self,
        color: u64,
        key: i64,
        allgather: impl FnOnce(&[[u64; 3]]) -> Result<Vec<[u64; 3]>>,
    ) -> Result<Group> {
        let me = self.my_idx;
        let triples = allgather(&[[color, key as u64, me as u64]])?;
        let mut mine: Vec<(i64, usize)> = triples
            .iter()
            .filter(|t| t[0] == color)
            .map(|t| (t[1] as i64, t[2] as usize))
            .collect();
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|&(_, r)| self.members[r]).collect();
        let my_idx = mine
            .iter()
            .position(|&(_, r)| r == me)
            .expect("self not in own color group");
        Ok(Group::new(
            derive_id(self.id, self.next_child(), color),
            members,
            my_idx,
        ))
    }

    /// The survivors: the members not in `failed`, in group order, with
    /// global rank `me` (a survivor) at its new index. Every survivor
    /// derives the same id by chaining the excluded set into the parent's,
    /// so the shrink sends nothing and cannot hang on the failures it
    /// excludes.
    ///
    /// # Panics
    ///
    /// Panics if `me` is in `failed`.
    pub fn shrink(&self, failed: &[usize], me: usize) -> Group {
        let mut h = 0xFA_u64;
        for &r in failed {
            h = splitmix64(h ^ (r as u64 + 1));
        }
        self.derived(derive_id(self.id, h, 0xFA), || {
            let members: Vec<usize> = self
                .members
                .iter()
                .copied()
                .filter(|r| !failed.contains(r))
                .collect();
            let my_idx = members
                .iter()
                .position(|&g| g == me)
                .expect("shrink caller must be a survivor");
            (members.into(), my_idx)
        })
    }

    /// Child `id`, made by `make` the first time it is derived.
    fn derived(&self, id: u64, make: impl FnOnce() -> (Arc<[usize]>, usize)) -> Group {
        let mut derived = self
            .state
            .derived
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(child) = derived.iter().find(|g| g.id == id) {
            return child.clone();
        }
        let (members, my_idx) = make();
        let child = Group::new(id, members, my_idx);
        derived.push(child.clone());
        child
    }
}

/// A child's id from its parent's id, the child's index among the
/// parent's children and its colour. (Real MPI agrees on context ids with
/// a collective; the derivation is the fixed point that collective would
/// reach.)
pub fn derive_id(parent: u64, child_index: u64, color: u64) -> u64 {
    splitmix64(parent ^ splitmix64(child_index) ^ splitmix64(color.wrapping_add(0x9e37)))
}

/// SplitMix64 — a tiny, well-distributed 64-bit mixer; the one every id
/// and token of the runtime is derived with.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(ranks: &[usize], my_idx: usize) -> Group {
        Group::new(42, ranks.to_vec(), my_idx)
    }

    #[test]
    fn rank_translation_roundtrips() {
        let c = comm(&[5, 9, 2], 1);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(c.global_rank(2), 2);
        assert_eq!(c.rank_of_global(9), Some(1));
        assert_eq!(c.rank_of_global(7), None);
    }

    #[test]
    fn derived_ids_are_distinct() {
        let a = derive_id(0, 0, 0);
        let b = derive_id(0, 1, 0);
        let c = derive_id(0, 0, 1);
        let d = derive_id(a, 0, 0);
        let ids = [a, b, c, d];
        for i in 0..ids.len() {
            for j in 0..i {
                assert_ne!(ids[i], ids[j], "collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_id(7, 3, 1), derive_id(7, 3, 1));
    }

    #[test]
    fn splitmix_mixes() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn gasnet_team_accessors() {
        let t = Group::new(9, vec![4, 6, 8], 1);
        assert_eq!(t.rank(), 1);
        assert_eq!(t.size(), 3);
        assert_eq!(t.id(), 9);
        assert_eq!(t.global_rank(2), 8);
        assert_eq!(t.members(), vec![4, 6, 8]);
    }

    #[test]
    fn gteam_seq_advances() {
        let t = Group::new(0, vec![0], 0);
        assert_eq!(t.next_seq(), 0);
        assert_eq!(t.next_seq(), 1);
        // Clones share the sequence space.
        let u = t.clone();
        assert_eq!(u.next_seq(), 2);
        assert_eq!(t.next_seq(), 3);
    }

    #[test]
    fn coll_seq_advances() {
        let w = Group::new(0, vec![0], 0);
        assert_eq!(w.next_seq(), 0);
        assert_eq!(w.next_seq(), 1);
        assert_eq!(w.next_child(), 0);
        assert_eq!(w.next_child(), 1);
    }

    #[test]
    fn tokens_count_apart_from_children_and_sequence() {
        let t = Group::new(0, vec![0], 0);
        assert_eq!(t.next_token(), 1);
        // Children and collectives do not move the token count, so a
        // team's event, finish and region ids do not depend on them.
        t.next_child();
        t.next_seq();
        assert_eq!(t.next_token(), 2);
        // Clones share it.
        assert_eq!(t.clone().next_token(), 3);
        assert_eq!((t.next_child(), t.next_seq()), (1, 1));
    }

    #[test]
    fn split_groups_by_color_then_key() {
        // Rank 1 of [10, 11, 12, 13]; colours 0 1 0 1, keys reverse rank.
        let g = comm(&[10, 11, 12, 13], 1);
        let all = |_: &[[u64; 3]]| {
            Ok((0..4u64)
                .map(|r| [r % 2, (3 - r as i64) as u64, r])
                .collect())
        };
        let odd = g.split(1, 2, all).unwrap();
        assert_eq!((odd.members(), odd.rank()), (&[13, 11][..], 1));
        assert_eq!(odd.id(), derive_id(42, 0, 1));
        assert_eq!(g.split(1, 2, all).unwrap().id(), derive_id(42, 1, 1));
    }

    #[test]
    fn a_repeated_shrink_is_the_same_group() {
        let g = comm(&[0, 1, 2, 3], 0);
        let a = g.shrink(&[2], 0);
        assert_eq!((a.members(), a.rank()), (&[0, 1, 3][..], 0));
        assert_eq!(a.next_seq(), 0);
        let b = g.shrink(&[2], 0);
        assert_eq!((b.id(), b.next_seq()), (a.id(), 1));
        assert_ne!(g.shrink(&[1, 2], 0).id(), a.id());
        assert_eq!(g.dup_local(5, 6).id(), g.dup_local(5, 6).id());
    }
}
