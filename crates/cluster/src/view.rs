//! The network-wide clustering: affiliations, roles, and gateway
//! links between neighbouring clusters.

use crate::cluster::Cluster;
use crate::role::Role;
use cbfd_net::id::{ClusterId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// The gateway assignment between one pair of neighbouring clusters.
///
/// The primary gateway forwards first; backups of rank `k` stand by
/// with timeout `k · 2Thop` per the BGW-assisted forwarding mechanism
/// (Section 4.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayLink {
    /// The primary gateway.
    pub primary: NodeId,
    /// Backup gateways ordered by rank (index 0 = rank 1).
    pub backups: Vec<NodeId>,
}

impl GatewayLink {
    /// All forwarders, primary first.
    pub fn all(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.primary).chain(self.backups.iter().copied())
    }

    /// 1-based backup rank of `node`, if it is a backup on this link.
    pub fn backup_rank(&self, node: NodeId) -> Option<u8> {
        self.backups
            .iter()
            .position(|b| *b == node)
            .map(|i| (i + 1) as u8)
    }
}

/// An unordered cluster pair used as the key for gateway links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterPair(ClusterId, ClusterId);

impl ClusterPair {
    /// Creates the normalized (smaller-first) pair of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: ClusterId, b: ClusterId) -> Self {
        assert!(a != b, "a cluster pair must join two distinct clusters");
        if a < b {
            ClusterPair(a, b)
        } else {
            ClusterPair(b, a)
        }
    }

    /// The two clusters, smaller ID first.
    pub fn endpoints(&self) -> (ClusterId, ClusterId) {
        (self.0, self.1)
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this pair.
    pub fn other(&self, from: ClusterId) -> ClusterId {
        if from == self.0 {
            self.1
        } else if from == self.1 {
            self.0
        } else {
            panic!("{from} is not an endpoint of this pair")
        }
    }
}

/// The complete, network-wide clustering produced by formation.
///
/// # Examples
///
/// ```
/// use cbfd_cluster::{oracle, FormationConfig};
/// use cbfd_net::geometry::Point;
/// use cbfd_net::id::NodeId;
/// use cbfd_net::topology::Topology;
///
/// let positions = (0..4).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect();
/// let topology = Topology::from_positions(positions, 100.0);
/// let view = oracle::form(&topology, &FormationConfig::default());
/// assert!(view.cluster_of(NodeId(0)).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterView {
    clusters: BTreeMap<ClusterId, Cluster>,
    affiliation: Vec<Option<ClusterId>>,
    gateways: BTreeMap<ClusterPair, GatewayLink>,
}

impl ClusterView {
    /// Assembles a view from its parts. Formation algorithms are the
    /// intended callers; invariants are checked by
    /// [`invariants::check`](crate::invariants::check) rather than
    /// here, so that deliberately broken views can be constructed in
    /// tests.
    pub fn from_parts(
        clusters: BTreeMap<ClusterId, Cluster>,
        affiliation: Vec<Option<ClusterId>>,
        gateways: BTreeMap<ClusterPair, GatewayLink>,
    ) -> Self {
        ClusterView {
            clusters,
            affiliation,
            gateways,
        }
    }

    /// Number of nodes the view covers (affiliated or not).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.affiliation.len()
    }

    /// The cluster `node` is affiliated with, if any (F3 guarantees at
    /// most one).
    pub fn cluster_of(&self, node: NodeId) -> Option<ClusterId> {
        self.affiliation.get(node.index()).copied().flatten()
    }

    /// The cluster with identity `id`.
    pub fn cluster(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(&id)
    }

    /// Iterates over all clusters in ID order.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.values()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Nodes not affiliated with any cluster (unmarked or isolated).
    pub fn unaffiliated_nodes(&self) -> Vec<NodeId> {
        self.affiliation
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// The gateway link between clusters `a` and `b`, if they are
    /// neighbours.
    pub fn gateway_link(&self, a: ClusterId, b: ClusterId) -> Option<&GatewayLink> {
        self.gateways.get(&ClusterPair::new(a, b))
    }

    /// All gateway links keyed by normalized cluster pair.
    pub fn gateway_links(&self) -> impl Iterator<Item = (&ClusterPair, &GatewayLink)> {
        self.gateways.iter()
    }

    /// Clusters adjacent to `id` on the backbone, in ID order.
    pub fn neighbor_clusters(&self, id: ClusterId) -> Vec<ClusterId> {
        self.gateways
            .keys()
            .filter_map(|pair| {
                let (a, b) = pair.endpoints();
                if a == id {
                    Some(b)
                } else if b == id {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// The derived communication [`Role`] of `node` (precedence:
    /// CH > GW > BGW > DCH > OM).
    pub fn role_of(&self, node: NodeId) -> Role {
        let Some(cid) = self.cluster_of(node) else {
            return Role::Unaffiliated;
        };
        let cluster = &self.clusters[&cid];
        if cluster.head() == node {
            return Role::Clusterhead;
        }
        // Gateway / backup gateway on any link touching this node's
        // cluster; pick the lowest-ID peer for a stable label.
        let mut gw_peer: Option<ClusterId> = None;
        let mut bgw: Option<(ClusterId, u8)> = None;
        for (pair, link) in &self.gateways {
            let (a, b) = pair.endpoints();
            if a != cid && b != cid {
                continue;
            }
            let peer = pair.other(cid);
            if link.primary == node && gw_peer.is_none_or(|p| peer < p) {
                gw_peer = Some(peer);
            }
            if let Some(rank) = link.backup_rank(node) {
                if bgw.is_none_or(|(p, _)| peer < p) {
                    bgw = Some((peer, rank));
                }
            }
        }
        if let Some(peer) = gw_peer {
            return Role::Gateway { peer };
        }
        if let Some((peer, rank)) = bgw {
            return Role::BackupGateway { peer, rank };
        }
        if let Some(rank) = cluster.deputy_rank(node) {
            return Role::Deputy { rank };
        }
        Role::Ordinary
    }

    /// Connected components of the **cluster graph** (clusters as
    /// vertices, gateway links as edges), each sorted by cluster ID.
    pub fn backbone_components(&self) -> Vec<Vec<ClusterId>> {
        let mut seen: BTreeMap<ClusterId, bool> =
            self.clusters.keys().map(|c| (*c, false)).collect();
        let mut components = Vec::new();
        for start in self.clusters.keys().copied().collect::<Vec<_>>() {
            if seen[&start] {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen.insert(start, true);
            while let Some(c) = queue.pop_front() {
                component.push(c);
                for n in self.neighbor_clusters(c) {
                    if !seen[&n] {
                        seen.insert(n, true);
                        queue.push_back(n);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// Shortest backbone route between two clusters (BFS over gateway
    /// links), inclusive of both endpoints; `None` if the backbone
    /// does not connect them.
    pub fn backbone_route(&self, from: ClusterId, to: ClusterId) -> Option<Vec<ClusterId>> {
        if self.cluster(from).is_none() || self.cluster(to).is_none() {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut parent: BTreeMap<ClusterId, ClusterId> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        parent.insert(from, from);
        while let Some(c) = queue.pop_front() {
            for n in self.neighbor_clusters(c) {
                if parent.contains_key(&n) {
                    continue;
                }
                parent.insert(n, c);
                if n == to {
                    let mut route = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = parent[&cur];
                        route.push(cur);
                    }
                    route.reverse();
                    return Some(route);
                }
                queue.push_back(n);
            }
        }
        None
    }

    /// Records that `node` joined `cluster` (used by open-ended
    /// formation iterations, F4).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds or already affiliated.
    pub fn affiliate(&mut self, node: NodeId, cluster: ClusterId) {
        let slot = &mut self.affiliation[node.index()];
        assert!(slot.is_none(), "{node} is already affiliated (F3)");
        *slot = Some(cluster);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_view() -> ClusterView {
        // Cluster A = {0,1,2} headed by 0; cluster B = {3,4,5} headed
        // by 3; node 2 is the gateway, node 4 a backup gateway.
        let a = Cluster::new(
            NodeId(0),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(1)],
        );
        let b = Cluster::new(
            NodeId(3),
            vec![NodeId(3), NodeId(4), NodeId(5)],
            vec![NodeId(5)],
        );
        let ca = a.id();
        let cb = b.id();
        let mut clusters = BTreeMap::new();
        clusters.insert(ca, a);
        clusters.insert(cb, b);
        let affiliation = vec![Some(ca), Some(ca), Some(ca), Some(cb), Some(cb), Some(cb)];
        let mut gateways = BTreeMap::new();
        gateways.insert(
            ClusterPair::new(ca, cb),
            GatewayLink {
                primary: NodeId(2),
                backups: vec![NodeId(4)],
            },
        );
        ClusterView::from_parts(clusters, affiliation, gateways)
    }

    #[test]
    fn cluster_pair_normalizes() {
        let a = ClusterId::of(NodeId(5));
        let b = ClusterId::of(NodeId(2));
        let p = ClusterPair::new(a, b);
        assert_eq!(p.endpoints(), (b, a));
        assert_eq!(p.other(a), b);
        assert_eq!(p.other(b), a);
    }

    #[test]
    #[should_panic(expected = "two distinct clusters")]
    fn cluster_pair_rejects_self_loop() {
        let a = ClusterId::of(NodeId(1));
        let _ = ClusterPair::new(a, a);
    }

    #[test]
    fn affiliations_and_lookup() {
        let v = two_cluster_view();
        assert_eq!(v.node_count(), 6);
        assert_eq!(v.cluster_count(), 2);
        assert_eq!(v.cluster_of(NodeId(1)), Some(ClusterId::of(NodeId(0))));
        assert_eq!(v.cluster_of(NodeId(4)), Some(ClusterId::of(NodeId(3))));
        assert!(v.unaffiliated_nodes().is_empty());
    }

    #[test]
    fn roles_follow_precedence() {
        let v = two_cluster_view();
        let ca = ClusterId::of(NodeId(0));
        let cb = ClusterId::of(NodeId(3));
        assert_eq!(v.role_of(NodeId(0)), Role::Clusterhead);
        assert_eq!(v.role_of(NodeId(2)), Role::Gateway { peer: cb });
        assert_eq!(
            v.role_of(NodeId(4)),
            Role::BackupGateway { peer: ca, rank: 1 }
        );
        assert_eq!(v.role_of(NodeId(1)), Role::Deputy { rank: 1 });
        assert_eq!(v.role_of(NodeId(5)), Role::Deputy { rank: 1 });
    }

    #[test]
    fn gateway_link_queries() {
        let v = two_cluster_view();
        let ca = ClusterId::of(NodeId(0));
        let cb = ClusterId::of(NodeId(3));
        let link = v.gateway_link(cb, ca).expect("link exists either way");
        assert_eq!(link.primary, NodeId(2));
        assert_eq!(link.backup_rank(NodeId(4)), Some(1));
        assert_eq!(link.backup_rank(NodeId(2)), None);
        assert_eq!(link.all().collect::<Vec<_>>(), vec![NodeId(2), NodeId(4)]);
    }

    #[test]
    fn neighbor_clusters_and_backbone() {
        let v = two_cluster_view();
        let ca = ClusterId::of(NodeId(0));
        let cb = ClusterId::of(NodeId(3));
        assert_eq!(v.neighbor_clusters(ca), vec![cb]);
        assert_eq!(v.backbone_components(), vec![vec![ca, cb]]);
    }

    #[test]
    fn backbone_route_finds_paths() {
        let v = two_cluster_view();
        let ca = ClusterId::of(NodeId(0));
        let cb = ClusterId::of(NodeId(3));
        assert_eq!(v.backbone_route(ca, cb), Some(vec![ca, cb]));
        assert_eq!(v.backbone_route(ca, ca), Some(vec![ca]));
        assert_eq!(v.backbone_route(ca, ClusterId::of(NodeId(99))), None);
    }

    #[test]
    fn affiliate_rejects_double_membership() {
        let mut v = two_cluster_view();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.affiliate(NodeId(1), ClusterId::of(NodeId(3)));
        }));
        assert!(result.is_err(), "F3 violation must panic");
    }

    #[test]
    fn unaffiliated_nodes_are_reported() {
        let v = ClusterView::from_parts(BTreeMap::new(), vec![None, None], BTreeMap::new());
        assert_eq!(v.unaffiliated_nodes(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(v.role_of(NodeId(0)), Role::Unaffiliated);
    }
}

#[cfg(test)]
mod role_precedence_tests {
    use super::*;
    use crate::cluster::Cluster;
    use std::collections::BTreeMap;

    #[test]
    fn gateway_label_outranks_deputy_label() {
        // A node that is both a deputy and a gateway is labelled by
        // the higher-precedence backbone role.
        let a = Cluster::new(
            NodeId(0),
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(1)], // deputy...
        );
        let b = Cluster::new(NodeId(2), vec![NodeId(2)], vec![]);
        let (ca, cb) = (a.id(), b.id());
        let mut clusters = BTreeMap::new();
        clusters.insert(ca, a);
        clusters.insert(cb, b);
        let mut gateways = BTreeMap::new();
        gateways.insert(
            ClusterPair::new(ca, cb),
            GatewayLink {
                primary: NodeId(1), // ...and also the gateway
                backups: vec![],
            },
        );
        let view = ClusterView::from_parts(clusters, vec![Some(ca), Some(ca), Some(cb)], gateways);
        assert_eq!(view.role_of(NodeId(1)), Role::Gateway { peer: cb });
    }

    #[test]
    fn multi_link_gateway_gets_lowest_peer_label() {
        // A gateway on two links is labelled toward the lowest peer ID.
        let a = Cluster::new(NodeId(0), vec![NodeId(0), NodeId(3)], vec![]);
        let b = Cluster::new(NodeId(1), vec![NodeId(1)], vec![]);
        let c = Cluster::new(NodeId(2), vec![NodeId(2)], vec![]);
        let (ca, cb, cc) = (a.id(), b.id(), c.id());
        let mut clusters = BTreeMap::new();
        clusters.insert(ca, a);
        clusters.insert(cb, b);
        clusters.insert(cc, c);
        let mut gateways = BTreeMap::new();
        for peer in [cb, cc] {
            gateways.insert(
                ClusterPair::new(ca, peer),
                GatewayLink {
                    primary: NodeId(3),
                    backups: vec![],
                },
            );
        }
        let view = ClusterView::from_parts(
            clusters,
            vec![Some(ca), Some(cb), Some(cc), Some(ca)],
            gateways,
        );
        assert_eq!(view.role_of(NodeId(3)), Role::Gateway { peer: cb });
        // And both links are visible from the cluster's neighbour list.
        assert_eq!(view.neighbor_clusters(ca), vec![cb, cc]);
    }
}
