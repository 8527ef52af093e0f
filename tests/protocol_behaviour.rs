//! End-to-end behaviour of the paper's protocols: convergence to the optimum in
//! fully connected networks, weighted fairness, robustness with hidden nodes,
//! and dynamic re-convergence. These are the claims of Theorems 1-3 and of the
//! evaluation section, checked at reduced scale so the suite stays fast.

use wlan_sa::analytic;
use wlan_sa::core::{
    run_dynamic, MembershipChange, MembershipSchedule, Protocol, Scenario, TopologySpec,
};
use wlan_sa::sim::SimDuration;

fn adaptive(
    proto: Protocol,
    n: usize,
    warm: u64,
    measure: u64,
    seed: u64,
) -> wlan_sa::ScenarioResult {
    Scenario::new(proto, TopologySpec::FullyConnected, n)
        .durations(
            SimDuration::from_secs(warm),
            SimDuration::from_secs(measure),
        )
        .seed(seed)
        .run()
}

#[test]
fn wtop_converges_to_near_optimal_throughput() {
    let n = 10;
    let model = analytic::SlotModel::table1();
    let optimum = analytic::optimal_throughput(&model, &vec![1.0; n]) / 1e6;
    let p_star = analytic::optimal_p(&model, &vec![1.0; n]);
    let r = adaptive(Protocol::WTopCsma, n, 40, 8, 2);
    assert!(
        r.throughput_mbps > 0.9 * optimum,
        "wTOP reached {:.2} Mbps, optimum is {:.2} Mbps",
        r.throughput_mbps,
        optimum
    );
    let p_end = r.control_trace.last().unwrap().1;
    assert!(
        p_end > p_star / 3.0 && p_end < p_star * 3.0,
        "converged p {p_end} should be within 3x of p* {p_star}"
    );
}

#[test]
fn tora_converges_to_near_optimal_throughput() {
    let n = 10;
    let model = analytic::SlotModel::table1();
    let optimum = analytic::optimal_throughput(&model, &vec![1.0; n]) / 1e6;
    let r = adaptive(Protocol::ToraCsma, n, 40, 8, 2);
    assert!(
        r.throughput_mbps > 0.85 * optimum,
        "TORA reached {:.2} Mbps, optimum is {:.2} Mbps",
        r.throughput_mbps,
        optimum
    );
}

#[test]
fn adaptive_schemes_beat_standard_dcf_in_fully_connected_networks() {
    // The paper's Fig. 3: with many stations and CWmin = 8, standard 802.11 is
    // clearly below the tuned schemes.
    let n = 30;
    let dcf = adaptive(Protocol::Standard80211, n, 3, 6, 4);
    let wtop = adaptive(Protocol::WTopCsma, n, 50, 6, 4);
    let tora = adaptive(Protocol::ToraCsma, n, 50, 6, 4);
    assert!(
        wtop.throughput_mbps > dcf.throughput_mbps,
        "wTOP {:.2} vs DCF {:.2}",
        wtop.throughput_mbps,
        dcf.throughput_mbps
    );
    assert!(
        tora.throughput_mbps > dcf.throughput_mbps,
        "TORA {:.2} vs DCF {:.2}",
        tora.throughput_mbps,
        dcf.throughput_mbps
    );
}

#[test]
fn wtop_provides_weighted_fairness() {
    // Table II: normalised throughput (throughput / weight) is equal across
    // stations, regardless of the weight mix.
    let weights = vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0];
    let r = Scenario::new(
        Protocol::WTopCsma,
        TopologySpec::FullyConnected,
        weights.len(),
    )
    .weights(weights.clone())
    .durations(SimDuration::from_secs(40), SimDuration::from_secs(15))
    .seed(6)
    .run();
    assert!(
        r.weighted_jain_index > 0.97,
        "weighted Jain index {}",
        r.weighted_jain_index
    );
    // A weight-3 station should get roughly 3x the throughput of a weight-1 station.
    let s1 = r.per_node_mbps[0];
    let s3 = r.per_node_mbps[9];
    let ratio = s3 / s1;
    assert!(
        ratio > 2.2 && ratio < 3.8,
        "weight-3/weight-1 throughput ratio {ratio}"
    );
}

#[test]
fn equal_weights_give_plain_fairness() {
    let r = adaptive(Protocol::WTopCsma, 8, 40, 10, 8);
    assert!(r.jain_index > 0.95, "Jain index {}", r.jain_index);
}

#[test]
fn hidden_nodes_break_idlesense_but_not_the_sa_schemes() {
    // The paper's headline (Figs. 6-7, Table III): with hidden terminals the
    // model-based IdleSense collapses while TORA-CSMA stays near the top and
    // wTOP-CSMA remains serviceable; TORA beats wTOP and standard 802.11.
    // (wTOP does not beat 802.11 at this configuration, so that is not
    // asserted.)
    let n = 25;
    let topo = TopologySpec::UniformDisc { radius: 16.0 };
    let mut results = Vec::new();
    for proto in [
        Protocol::Standard80211,
        Protocol::IdleSense,
        Protocol::WTopCsma,
        Protocol::ToraCsma,
    ] {
        let r = Scenario::new(proto, topo.clone(), n)
            .durations(SimDuration::from_secs(50), SimDuration::from_secs(8))
            .seed(11)
            .run();
        results.push(r);
    }
    let dcf = &results[0];
    let idlesense = &results[1];
    let wtop = &results[2];
    let tora = &results[3];
    assert!(idlesense.hidden_pairs > 0);
    assert!(
        tora.throughput_mbps > dcf.throughput_mbps,
        "TORA {:.2} should beat 802.11 {:.2} with hidden nodes",
        tora.throughput_mbps,
        dcf.throughput_mbps
    );
    assert!(
        tora.throughput_mbps > wtop.throughput_mbps,
        "TORA {:.2} should beat wTOP {:.2} with hidden nodes",
        tora.throughput_mbps,
        wtop.throughput_mbps
    );
    assert!(
        wtop.throughput_mbps > 3.0 * idlesense.throughput_mbps,
        "wTOP {:.2} should dwarf IdleSense {:.2} with hidden nodes",
        wtop.throughput_mbps,
        idlesense.throughput_mbps
    );
    assert!(
        tora.throughput_mbps > 10.0,
        "TORA should stay above 10 Mbps, got {:.2}",
        tora.throughput_mbps
    );
}

#[test]
fn wtop_tracks_membership_changes() {
    // Figs. 8-9 in miniature: throughput recovers after the number of stations
    // doubles, because the controller re-converges.
    let schedule = MembershipSchedule {
        initial_active: 5,
        changes: vec![MembershipChange {
            at_secs: 40.0,
            active: 15,
        }],
    };
    let mut scenario = Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, 15)
        .durations(SimDuration::ZERO, SimDuration::from_secs(80))
        .seed(9);
    scenario.throughput_bin = SimDuration::from_secs(2);
    let result = run_dynamic(&scenario, &schedule, SimDuration::from_secs(80));

    let late: Vec<f64> = result
        .throughput_series
        .iter()
        .filter(|(t, _, _)| *t > 65.0)
        .map(|(_, mbps, _)| *mbps)
        .collect();
    assert!(!late.is_empty());
    let late_avg = late.iter().sum::<f64>() / late.len() as f64;
    assert!(
        late_avg > 20.0,
        "throughput should recover after the membership change, got {late_avg:.2} Mbps"
    );
    // The control variable must have moved downward after more stations arrived.
    let p_before = result
        .control_trace
        .iter()
        .filter(|(t, _)| *t > 30.0 && *t < 40.0)
        .map(|(_, p)| *p)
        .next_back()
        .unwrap();
    let p_after = result.control_trace.last().unwrap().1;
    assert!(
        p_after < p_before,
        "control variable should decrease when stations join: before {p_before}, after {p_after}"
    );
}

#[test]
fn per_seed_results_are_reproducible_and_seed_sensitive() {
    let a = adaptive(Protocol::ToraCsma, 12, 10, 5, 42);
    let b = adaptive(Protocol::ToraCsma, 12, 10, 5, 42);
    let c = adaptive(Protocol::ToraCsma, 12, 10, 5, 43);
    assert_eq!(a.throughput_mbps, b.throughput_mbps);
    assert_eq!(a.per_node_mbps, b.per_node_mbps);
    assert_ne!(a.throughput_mbps, c.throughput_mbps);
}
