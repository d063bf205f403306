//! What building and re-routing a k=8 fat tree costs, counted rather than
//! timed: allocator calls repeat exactly on any machine, where wall clock
//! on a shared runner is noise.

mod counting;

use counting::measured;
use netsim::host::HostConfig;
use netsim::switch::SwitchConfig;
use netsim::topology::{fat_tree, LinkParams};

/// With one BFS per host and one port `Vec` per (node, host) the build
/// made 29 149 allocations, a recompute 28 850 and a flap 57 728; grouped
/// BFSes and interned sets make about 800, 500 and 1 000.
#[test]
fn a_k8_fat_tree_builds_and_reroutes_in_bounded_allocations() {
    let build = || {
        fat_tree(
            8,
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        )
    };
    let (mut ft, calls, _) = measured(build);
    assert_eq!(ft.hosts.len(), 128);
    assert!(
        calls <= 2_000,
        "{calls} allocations to build a k=8 fat tree"
    );

    let ((), calls, _) = measured(|| ft.net.recompute_routes());
    assert!(
        calls <= 1_500,
        "{calls} allocations to recompute its routes"
    );

    // Each transition recomputes every route.
    let link = ft.net.link_between(ft.edges[0], ft.aggs[0]).unwrap();
    let ((), calls, _) = measured(|| {
        ft.net.set_link_state(link, false);
        ft.net.set_link_state(link, true);
    });
    assert!(calls <= 3_000, "{calls} allocations to flap one link");
    assert_eq!(ft.net.fault_stats().reroutes, 3);
}
