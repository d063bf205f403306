pub struct Network {
    drops: u64,
    seen: u64,
}

impl Network {
    pub fn metric(&self, _name: &str) -> u64 {
        self.drops
    }

    pub fn run_until(&mut self) {
        // The owner's field: no name to look up.
        self.seen = self.drops;
    }
}

/// Post-run reporting is cold, so reading a counter by name is fine.
pub fn report(net: &Network) -> u64 {
    net.metric("drops")
}
