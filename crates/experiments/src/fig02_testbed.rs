//! Figure 2: the 3-tier Clos testbed — builds it and prints the wiring
//! plus ECMP route multiplicities (validated further by integration
//! tests).

use crate::common::CcChoice;
use crate::report::Run;
use crate::scenarios::testbed;
use netsim::network::Node;

/// Runs the experiment.
pub fn run(_run: &mut Run) {
    let tb = testbed(CcChoice::dcqcn_paper(), true, false, 5, 1);
    let (mut switches, mut hosts) = (0, 0);
    for n in &tb.net.nodes {
        match n {
            Node::Switch(_) => switches += 1,
            Node::Host(_) => hosts += 1,
        }
    }
    println!("nodes: {switches} switches + {hosts} hosts");
    // ECMP multiplicity along an inter-pod path: T1 → (L1,L2) → (S1,S2).
    let t1 = tb.net.switch(tb.tors[0]);
    let far_host = tb.hosts[3][0];
    let up = t1.routes.get(&far_host).map_or(0, |p| p.len());
    let l1 = tb.net.switch(tb.leaves[0]);
    let spine_up = l1.routes.get(&far_host).map_or(0, |p| p.len());
    println!("ECMP: T1 has {up} equal-cost uplinks toward T4-rack hosts; L1 has {spine_up} toward spines");
    let local = tb.hosts[0][0];
    let down = t1.routes.get(&local).map_or(0, |p| p.len());
    println!("      T1 has {down} route to its own rack host (direct)");
    assert_eq!((up, spine_up, down), (2, 2, 1));
    println!("wiring matches Figure 2.");
}
