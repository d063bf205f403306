pub struct Network {
    drops: u64,
}

impl Network {
    pub fn metric(&self, _name: &str) -> u64 {
        self.drops
    }

    pub fn run_until(&mut self) {
        let _ = self.metric("drops");
        let name = "drops";
        let _ = self.metric(name);
    }
}
