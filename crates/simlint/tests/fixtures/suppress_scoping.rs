pub struct Buffer {
    occupied: u64,
}

impl Buffer {
    pub fn f(&mut self) {
        self.occupied += 1; // simlint: allow(counter-arith) fixture
        // simlint: allow(counter) a prefix is not the rule
        self.occupied += 2;
        self.occupied += 4; // simlint: allow(map-iter) the wrong rule
        self.occupied += 3; // simlint: allow(all) fixture
        // simlint: allow(map-iter, counter-arith) fixture
        self.occupied += 5;
    }
}
