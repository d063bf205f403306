// The other crate's caller of the `unused_pub_surface.rs` fixture.

use netsim::{from_crate, report, Config, Tracer};

pub fn drive(t: &mut Tracer) -> u64 {
    t.enable();
    from_crate();
    let c = Config {
        a: 1,
        ..Default::default()
    };
    c.a + report().total
}
