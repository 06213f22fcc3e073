//! Property-based tests over random geometries, parameters, and
//! message contents.

use cbfd::analysis::{false_detection, geometry, incompleteness};
use cbfd::cluster::{invariants, oracle, FormationConfig};
use cbfd::core::aggregation::Aggregate;
use cbfd::core::bitmap::RosterBitmap;
use cbfd::core::message::{Digest, FailureReport, FdsMsg, HealthUpdate};
use cbfd::core::rules::{detect_failures, RoundEvidence};
use cbfd::prelude::*;
use proptest::prelude::*;

fn arb_point(side: f64) -> impl Strategy<Value = Point> {
    (0.0..side, 0.0..side).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    proptest::collection::vec(arb_point(600.0), 2..120)
        .prop_map(|pts| Topology::from_positions(pts, 100.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn formation_invariants_hold_on_any_geometry(topology in arb_topology()) {
        let view = oracle::form(&topology, &FormationConfig::default());
        let violations = invariants::check(&topology, &view);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn formation_covers_every_connected_node(topology in arb_topology()) {
        let view = oracle::form(&topology, &FormationConfig::default());
        for node in topology.node_ids() {
            if topology.degree(node) > 0 {
                prop_assert!(view.cluster_of(node).is_some(), "{node} uncovered");
            } else {
                prop_assert!(view.cluster_of(node).is_none(), "{node} isolated yet covered");
            }
        }
    }

    #[test]
    fn extend_is_idempotent(topology in arb_topology()) {
        let config = FormationConfig::default();
        let view = oracle::form(&topology, &config);
        let again = oracle::extend(&topology, &config, &view);
        prop_assert_eq!(view, again);
    }

    #[test]
    fn members_are_at_most_two_hops_apart(topology in arb_topology()) {
        // The cluster is a unit disk: any two members reach each other
        // directly or via the head.
        let view = oracle::form(&topology, &FormationConfig::default());
        for cluster in view.clusters() {
            for m in cluster.members() {
                prop_assert!(
                    *m == cluster.head() || topology.linked(*m, cluster.head()),
                    "member {m} beyond one hop from its head"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fig5_forms_agree(n in 2u64..150, p in 0.0f64..=1.0, an in 0.0f64..=1.0) {
        let sum = false_detection::paper_sum(n, p, an);
        let closed = false_detection::closed_form(n, p, an);
        let diff = (sum - closed).abs();
        prop_assert!(
            diff <= 1e-9 * closed.max(1e-300) || diff < 1e-12,
            "n={n} p={p} an={an}: {sum} vs {closed}"
        );
    }

    #[test]
    fn fig7_forms_agree(n in 2u64..150, p in 0.0f64..=1.0, an in 0.0f64..=1.0) {
        let sum = incompleteness::binomial_sum(n, p, an);
        let closed = incompleteness::closed_form(n, p, an);
        let diff = (sum - closed).abs();
        prop_assert!(
            diff <= 1e-9 * closed.max(1e-300) || diff < 1e-12,
            "n={n} p={p} an={an}: {sum} vs {closed}"
        );
    }

    #[test]
    fn measures_are_probabilities(n in 2u64..200, p in 0.0f64..=1.0) {
        for v in [
            false_detection::worst_case(n, p),
            incompleteness::worst_case(n, p),
            cbfd::analysis::ch_false_detection::probability(n, p),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "n={n} p={p}: {v}");
        }
    }

    #[test]
    fn measures_decrease_with_density(n in 3u64..199, p in 0.01f64..=0.99) {
        prop_assert!(
            false_detection::worst_case(n + 1, p) <= false_detection::worst_case(n, p)
        );
        prop_assert!(
            incompleteness::worst_case(n + 1, p) <= incompleteness::worst_case(n, p)
        );
    }

    #[test]
    fn lens_fraction_bounds(t in 0.0f64..=1.0) {
        let f = geometry::an_fraction(t);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(f >= geometry::worst_case_an_fraction() - 1e-12);
    }
}

fn arb_node_ids() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(0u32..500, 0..40).prop_map(|v| v.into_iter().map(NodeId).collect())
}

fn arb_update() -> impl Strategy<Value = HealthUpdate> {
    (
        0u32..500,
        0u32..500,
        0u64..1_000,
        arb_node_ids(),
        arb_node_ids(),
        any::<bool>(),
        arb_node_ids(),
        arb_node_ids(),
        0u32..1_000,
        proptest::option::of((0u32..1000, any::<i32>(), -1000i32..1000, -1000i32..1000)),
    )
        .prop_map(
            |(
                from,
                cluster,
                epoch,
                new_failed,
                all_failed,
                takeover,
                joined,
                roster,
                roster_version,
                agg,
            )| {
                HealthUpdate {
                    from: NodeId(from),
                    cluster: ClusterId::of(NodeId(cluster)),
                    epoch,
                    new_failed,
                    all_failed,
                    takeover,
                    joined,
                    roster,
                    roster_version,
                    aggregate: agg.map(|(count, sum, min, max)| Aggregate {
                        count,
                        sum: i64::from(sum),
                        min,
                        max,
                    }),
                }
            },
        )
}

/// A bitmap over an arbitrary roster size (spanning the inline→spilled
/// boundary) with an arbitrary subset of positions set.
fn arb_bitmap() -> impl Strategy<Value = RosterBitmap> {
    (
        0u32..100,
        0usize..320,
        proptest::collection::vec(any::<bool>(), 320usize),
    )
        .prop_map(|(version, len, bits)| {
            let mut b = RosterBitmap::new(version, len);
            for (pos, set) in bits.iter().take(len).enumerate() {
                if *set {
                    b.set(pos);
                }
            }
            b
        })
}

fn arb_msg() -> impl Strategy<Value = FdsMsg> {
    prop_oneof![
        (0u32..500, any::<bool>(), proptest::option::of(any::<i32>())).prop_map(
            |(n, m, reading)| FdsMsg::Heartbeat {
                from: NodeId(n),
                marked: m,
                reading,
            }
        ),
        (
            0u32..500,
            0u32..500,
            arb_bitmap(),
            proptest::collection::vec((0u32..500, any::<i32>()), 0..20)
        )
            .prop_map(|(n, head, heard, readings)| FdsMsg::Digest(
                Digest::new(NodeId(n), ClusterId::of(NodeId(head)), heard).with_readings(
                    readings
                        .into_iter()
                        .map(|(id, r)| (NodeId(id), r))
                        .collect()
                )
            )),
        arb_update().prop_map(FdsMsg::HealthUpdate),
        (0u32..500, 0u64..1_000).prop_map(|(n, e)| FdsMsg::ForwardRequest {
            from: NodeId(n),
            epoch: e
        }),
        (0u32..500, arb_update()).prop_map(|(n, u)| FdsMsg::PeerForward {
            to: NodeId(n),
            update: u
        }),
        (0u32..500, 0u64..1_000).prop_map(|(n, e)| FdsMsg::PeerAck {
            from: NodeId(n),
            epoch: e
        }),
        (0u32..500, 0u32..500, arb_node_ids(), arb_node_ids()).prop_map(
            |(via, to, failed, known)| FdsMsg::Report(FailureReport {
                via: NodeId(via),
                to_cluster: ClusterId::of(NodeId(to)),
                failed,
                known_by: known.into_iter().map(ClusterId::of).collect(),
            })
        ),
        (0u32..500, 0u64..1_000).prop_map(|(n, e)| FdsMsg::SleepNotice {
            from: NodeId(n),
            until_epoch: e
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_round_trips(msg in arb_msg()) {
        let decoded = FdsMsg::decode(msg.encode()).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn detection_rule_never_condemns_heard_nodes(
        len in 1usize..200,
        expected_bits in proptest::collection::vec(any::<bool>(), 200),
        heartbeat_bits in proptest::collection::vec(any::<bool>(), 200),
        author_bits in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let roster_order: Vec<NodeId> = (0..len as u32).map(NodeId).collect();
        let mut evidence = RoundEvidence::new();
        evidence.reset(1, len);
        let mut expected = RosterBitmap::new(1, len);
        let mut heartbeats = RosterBitmap::new(1, len);
        for pos in 0..len {
            if expected_bits[pos] {
                expected.set(pos);
            }
            if heartbeat_bits[pos] {
                evidence.record_heartbeat(pos);
                heartbeats.set(pos);
            }
        }
        // Every digest reflects exactly the heartbeat set, like a
        // member that overheard all of R-1.
        for (pos, &authored) in author_bits.iter().enumerate().take(len) {
            if authored {
                evidence.record_digest(pos, Some(&heartbeats));
            }
        }
        let failed = detect_failures(&expected, &evidence, &roster_order);
        for f in &failed {
            let pos = f.0 as usize;
            prop_assert!(!heartbeat_bits[pos], "{f} was heard yet condemned");
            prop_assert!(!author_bits[pos], "{f} sent a digest yet condemned");
        }
        // And every expected node with zero evidence is condemned
        // (reflection adds nothing here: digests only repeat the
        // heartbeat set).
        for pos in 0..len {
            let evidenced = heartbeat_bits[pos] || author_bits[pos];
            prop_assert_eq!(
                failed.contains(&NodeId(pos as u32)),
                expected_bits[pos] && !evidenced,
                "position {}", pos
            );
        }
    }

    #[test]
    fn bitmap_set_clear_iter_match_btreeset_model(
        len in 1usize..320,
        ops in proptest::collection::vec((0usize..320, any::<bool>()), 0..80),
    ) {
        use std::collections::BTreeSet;
        let mut bitmap = RosterBitmap::new(7, len);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (idx, insert) in &ops {
            let pos = idx % len;
            if *insert {
                bitmap.set(pos);
                model.insert(pos);
            } else {
                bitmap.clear(pos);
                model.remove(&pos);
            }
            prop_assert_eq!(bitmap.contains(pos), model.contains(&pos));
        }
        prop_assert_eq!(bitmap.count(), model.len());
        prop_assert_eq!(bitmap.is_empty(), model.is_empty());
        let collected: Vec<usize> = bitmap.iter().collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(collected, expected, "iter yields positions in order");
    }

    #[test]
    fn bitmap_union_matches_btreeset_union(a in arb_bitmap(), b in arb_bitmap()) {
        use std::collections::BTreeSet;
        let sa: BTreeSet<usize> = a.iter().collect();
        let sb: BTreeSet<usize> = b.iter().collect();
        let mut unioned = a.clone();
        if a.version() == b.version() && a.len() == b.len() {
            unioned.union_with(&b).expect("same version unions");
            let expected: BTreeSet<usize> = sa.union(&sb).copied().collect();
            let got: BTreeSet<usize> = unioned.iter().collect();
            prop_assert_eq!(got, expected);
        } else if a.version() != b.version() {
            let err = unioned.union_with(&b).expect_err("version mismatch rejected");
            prop_assert_eq!(err.ours, a.version());
            prop_assert_eq!(err.theirs, b.version());
            prop_assert_eq!(&unioned, &a, "rejected union leaves the bitmap untouched");
        }
        // or_prefix is the lenient path: common prefix only, never more.
        let mut prefixed = a.clone();
        prefixed.or_prefix(&b);
        let common = a.len().min(b.len());
        let expected: BTreeSet<usize> = sa
            .iter()
            .copied()
            .chain(sb.iter().copied().filter(|p| *p < common))
            .collect();
        let got: BTreeSet<usize> = prefixed.iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bitmap_spill_boundary_is_seamless(extra in 0usize..130) {
        // Straddle the inline→boxed boundary (256 bits): grow a bitmap
        // across it and verify bits survive and positions stay stable.
        let len = 200 + extra;
        let mut grown = RosterBitmap::new(3, 200);
        for pos in (0..200).step_by(7) {
            grown.set(pos);
        }
        grown.grow(3, len);
        prop_assert_eq!(grown.len(), len);
        let mut fresh = RosterBitmap::new(3, len);
        for pos in (0..200).step_by(7) {
            fresh.set(pos);
        }
        prop_assert_eq!(&grown, &fresh, "growth across the spill boundary preserves bits");
        if len > 200 {
            grown.set(len - 1);
            prop_assert!(grown.contains(len - 1));
            prop_assert_eq!(grown.count(), fresh.count() + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Robustness: garbage on the air must yield an error, not a
        // panic (the simulator never corrupts, but a release-quality
        // codec cannot assume that).
        let _ = FdsMsg::decode(cbfd::core::bytes::Bytes::from(bytes));
    }

    #[test]
    fn truncated_valid_messages_error_cleanly(msg in arb_msg(), cut_fraction in 0.0f64..1.0) {
        let encoded = msg.encode();
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        if cut < encoded.len() {
            prop_assert!(FdsMsg::decode(encoded.slice(0..cut)).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grid_topology_equals_naive_on_any_geometry(
        pts in proptest::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 0..80),
        range in 10.0f64..300.0,
    ) {
        let positions: Vec<Point> = pts.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let fast = Topology::from_positions(positions.clone(), range);
        let slow = Topology::from_positions_naive(positions, range);
        for n in fast.node_ids() {
            prop_assert_eq!(fast.neighbors(n), slow.neighbors(n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outcome_bookkeeping_invariants_hold_on_random_runs(
        pts in proptest::collection::vec((0.0f64..400.0, 0.0f64..400.0), 6..30),
        p in 0.0f64..0.6,
        crash_index in 0usize..100,
        seed in 0u64..1_000,
    ) {
        use cbfd::core::service::PlannedCrash;
        let positions: Vec<Point> = pts.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let n = positions.len();
        let topology = Topology::from_positions(positions, 100.0);
        let exp = Experiment::new(
            topology,
            cbfd::core::config::FdsConfig::default(),
            FormationConfig::default(),
        );
        let crashes = [PlannedCrash { epoch: 1, node: NodeId((crash_index % n) as u32) }];
        let outcome = exp.run(p, 4, &crashes, seed);

        prop_assert!((0.0..=1.0).contains(&outcome.completeness));
        prop_assert!(outcome.incompleteness_rate() <= 1.0);
        prop_assert!(outcome.bytes >= outcome.metrics.transmissions * 6);
        prop_assert_eq!(outcome.crashed.len(), 1);
        for latency in outcome.detection_latency.values() {
            prop_assert!(*latency >= 1, "nothing is detected before its first silent epoch");
        }
        for fd in &outcome.false_detections {
            prop_assert!(fd.suspect != fd.accuser, "nobody condemns itself");
        }
        // Offered copies conserve: every delivery/loss/drop traces back
        // to a transmission with at least one in-range receiver.
        let offered = outcome.metrics.deliveries
            + outcome.metrics.losses
            + outcome.metrics.dropped_dead;
        prop_assert!(offered <= outcome.metrics.transmissions * (n as u64 - 1));
    }
}
