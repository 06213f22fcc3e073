//! A single cluster: its head, members, and deputy succession.

use cbfd_net::id::{ClusterId, NodeId};
use serde::{Deserialize, Serialize};

/// One cluster of the two-tier architecture.
///
/// A cluster is a unit disk centred on its clusterhead: every member
/// is a one-hop neighbour of the head, so any two members are at most
/// two hops apart (via the head). The member list is kept sorted; the
/// deputy list is ordered by succession rank (index 0 = highest-ranked
/// DCH, the authority for judging clusterhead failures).
///
/// # Examples
///
/// ```
/// use cbfd_cluster::Cluster;
/// use cbfd_net::id::NodeId;
///
/// let c = Cluster::new(NodeId(3), vec![NodeId(3), NodeId(5), NodeId(9)], vec![NodeId(5)]);
/// assert_eq!(c.head(), NodeId(3));
/// assert!(c.contains(NodeId(9)));
/// assert_eq!(c.first_deputy(), Some(NodeId(5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    id: ClusterId,
    head: NodeId,
    members: Vec<NodeId>,
    deputies: Vec<NodeId>,
}

impl Cluster {
    /// Creates a cluster led by `head` with the given `members`
    /// (which must include the head) and ranked `deputies`.
    ///
    /// # Panics
    ///
    /// Panics if the head is not among the members, or a deputy is not
    /// a non-head member, or deputies repeat.
    pub fn new(head: NodeId, mut members: Vec<NodeId>, deputies: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(
            members.binary_search(&head).is_ok(),
            "head must be a member of its own cluster"
        );
        for (i, d) in deputies.iter().enumerate() {
            assert!(*d != head, "the head cannot be its own deputy");
            assert!(
                members.binary_search(d).is_ok(),
                "deputy {d} must be a cluster member"
            );
            assert!(
                !deputies[..i].contains(d),
                "deputy {d} listed more than once"
            );
        }
        Cluster {
            id: ClusterId::of(head),
            head,
            members,
            deputies,
        }
    }

    /// The cluster's identity (the founding head's ID).
    #[inline]
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The current clusterhead.
    #[inline]
    pub fn head(&self) -> NodeId {
        self.head
    }

    /// All members, sorted by ID (the head included).
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members, head included (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// A cluster always contains at least its head.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` belongs to this cluster.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Members other than the head, sorted by ID.
    pub fn non_head_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        let head = self.head;
        self.members.iter().copied().filter(move |m| *m != head)
    }

    /// The ranked deputy list (index 0 = highest rank).
    #[inline]
    pub fn deputies(&self) -> &[NodeId] {
        &self.deputies
    }

    /// The highest-ranked deputy, if any.
    #[inline]
    pub fn first_deputy(&self) -> Option<NodeId> {
        self.deputies.first().copied()
    }

    /// Succession rank of `node` (1-based), if it is a deputy.
    pub fn deputy_rank(&self, node: NodeId) -> Option<u8> {
        self.deputies
            .iter()
            .position(|d| *d == node)
            .map(|i| (i + 1) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(
            NodeId(2),
            vec![NodeId(2), NodeId(4), NodeId(6), NodeId(8)],
            vec![NodeId(6), NodeId(4)],
        )
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let c = Cluster::new(NodeId(1), vec![NodeId(3), NodeId(1), NodeId(3)], vec![]);
        assert_eq!(c.members(), &[NodeId(1), NodeId(3)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "head must be a member")]
    fn head_must_be_member() {
        let _ = Cluster::new(NodeId(1), vec![NodeId(2)], vec![]);
    }

    #[test]
    #[should_panic(expected = "must be a cluster member")]
    fn deputy_must_be_member() {
        let _ = Cluster::new(NodeId(1), vec![NodeId(1)], vec![NodeId(9)]);
    }

    #[test]
    #[should_panic(expected = "cannot be its own deputy")]
    fn head_cannot_be_deputy() {
        let _ = Cluster::new(NodeId(1), vec![NodeId(1), NodeId(2)], vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "listed more than once")]
    fn deputies_must_be_unique() {
        let _ = Cluster::new(
            NodeId(1),
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(2), NodeId(2)],
        );
    }

    #[test]
    fn membership_queries() {
        let c = cluster();
        assert!(c.contains(NodeId(4)));
        assert!(!c.contains(NodeId(5)));
        assert_eq!(
            c.non_head_members().collect::<Vec<_>>(),
            vec![NodeId(4), NodeId(6), NodeId(8)]
        );
    }

    #[test]
    fn deputy_ranks_are_one_based() {
        let c = cluster();
        assert_eq!(c.deputy_rank(NodeId(6)), Some(1));
        assert_eq!(c.deputy_rank(NodeId(4)), Some(2));
        assert_eq!(c.deputy_rank(NodeId(8)), None);
        assert_eq!(c.first_deputy(), Some(NodeId(6)));
    }
}
