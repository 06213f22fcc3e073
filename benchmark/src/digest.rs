//! `outcome_digest`: one 64-bit FNV-1a fingerprint of everything an
//! [`FdsOutcome`] says about the simulated system. Two runs of one
//! commit on one seed must agree on it whatever the worker count, the
//! pass, or whether the nodes were wrapped for tracing; a PR that only
//! claims speed must leave it unchanged.

use cbfd_core::service::FdsOutcome;
use std::fmt::Write;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// The canonical text the digest is taken over: traffic counters,
/// wire bytes, false detections, completeness misses, the latency map
/// and the deterministic `ledger_ops` counter. List-valued fields are
/// sorted first, so two equal outcomes whose lists were collected in a
/// different node order render identically. The id-list shadow byte
/// ledger (`bytes_id_list`) is left out on purpose: ROADMAP item 2
/// deletes it.
pub fn canonical(o: &FdsOutcome) -> String {
    let mut false_detections: Vec<_> = o
        .false_detections
        .iter()
        .map(|f| (f.epoch, f.accuser.0, f.suspect.0, f.takeover))
        .collect();
    false_detections.sort_unstable();
    let mut missed: Vec<_> = o
        .missed
        .iter()
        .map(|m| (m.observer.0, m.failed.0))
        .collect();
    missed.sort_unstable();
    let mut crashed: Vec<_> = o.crashed.iter().map(|n| n.0).collect();
    crashed.sort_unstable();

    let m = &o.metrics;
    let mut s = String::new();
    write!(
        s,
        "epochs={};tx={};rx={};lost={};dead={};timers={};tx_per_node={:016x};",
        o.epochs,
        m.transmissions,
        m.deliveries,
        m.losses,
        m.dropped_dead,
        m.timers_fired,
        m.tx_per_node
            .iter()
            .fold(FNV_OFFSET, |h, c| fnv1a(h, &c.to_be_bytes())),
    )
    .expect("writing to a String cannot fail");
    write!(
        s,
        "bytes={};suppressed={}/{};reports={};peer_forwards={};retx={};joins={};",
        o.bytes,
        o.reports_suppressed,
        o.bytes_suppressed,
        o.reports,
        o.peer_forwards,
        o.retransmissions,
        o.joins,
    )
    .expect("writing to a String cannot fail");
    write!(
        s,
        "member_epochs={};update_misses={};ledger_ops={};completeness={:016x};",
        o.member_epochs,
        o.update_misses,
        o.ledger_ops,
        o.completeness.to_bits(),
    )
    .expect("writing to a String cannot fail");
    write!(
        s,
        "crashed={crashed:?};false={false_detections:?};missed={missed:?};latency={:?}",
        o.detection_latency
            .iter()
            .map(|(n, l)| (n.0, *l))
            .collect::<Vec<_>>(),
    )
    .expect("writing to a String cannot fail");
    s
}

/// FNV-1a of [`canonical`].
pub fn outcome_digest(o: &FdsOutcome) -> u64 {
    fnv1a(FNV_OFFSET, canonical(o).as_bytes())
}

/// Folds the digests of many worlds (in world order) into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_be_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbfd_core::config::FdsConfig;
    use cbfd_core::service::{Experiment, FalseDetection, PlannedCrash};
    use cbfd_net::geometry::Point;
    use cbfd_net::id::NodeId;
    use cbfd_net::topology::Topology;

    fn outcome() -> FdsOutcome {
        let positions = (0..30)
            .map(|i| Point::new(f64::from(i % 6) * 45.0, f64::from(i / 6) * 45.0))
            .collect();
        let exp = Experiment::new(
            Topology::from_positions(positions, 100.0),
            FdsConfig::default(),
            Default::default(),
        );
        let crash = PlannedCrash {
            epoch: 1,
            node: NodeId(7),
        };
        let mut o = exp.run(0.3, 6, &[crash], 11);
        // Two synthetic accuracy violations, so reordering has
        // something to reorder whatever the channel did.
        for (accuser, suspect) in [(2, 9), (1, 4)] {
            o.false_detections.push(FalseDetection {
                accuser: NodeId(accuser),
                suspect: NodeId(suspect),
                epoch: 3,
                takeover: false,
            });
        }
        o
    }

    #[test]
    fn known_fnv1a_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stable_under_reordering_of_equal_outcomes() {
        let a = outcome();
        let mut b = a.clone();
        b.false_detections.reverse();
        b.missed.reverse();
        b.crashed.reverse();
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
    }

    #[test]
    fn sensitive_to_a_one_event_change() {
        let a = outcome();
        let mut b = a.clone();
        b.metrics.deliveries += 1;
        assert_ne!(outcome_digest(&a), outcome_digest(&b));
        let mut c = a.clone();
        c.metrics.tx_per_node[3] += 1;
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
        let mut d = a.clone();
        d.false_detections.pop();
        assert_ne!(outcome_digest(&a), outcome_digest(&d));
        let mut e = a.clone();
        e.ledger_ops += 1;
        assert_ne!(outcome_digest(&a), outcome_digest(&e));
    }

    #[test]
    fn fold_depends_on_order_and_content() {
        assert_ne!(fold_digests([1, 2]), fold_digests([2, 1]));
        assert_ne!(fold_digests([1, 2]), fold_digests([1, 3]));
    }
}
