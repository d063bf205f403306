//! A miniature netsim surface. The doctest below is a caller:
//!
//! ```
//! let q = netsim::Queue::new();
//! assert!(q.doc_only());
//! ```
//!
//! ```text
//! netsim::in_a_text_block(); // not Rust: names nothing
//! ```

/// Called from another crate.
pub fn from_crate() {}

/// Called from an integration test.
pub fn from_test() {}

/// Read by an example.
pub const FROM_EXAMPLE: u64 = 1;

/// Named only inside a `text` block: fires.
pub fn in_a_text_block() {}

/// Named by the doctest.
pub struct Queue {
    /// Never read outside: fires.
    pub depth: u64,
    inner: u64,
}

impl Queue {
    /// Called by the doctest.
    pub fn new() -> Queue {
        Queue { depth: 0, inner: 0 }
    }
    /// Called by the doctest.
    pub fn doc_only(&self) -> bool {
        self.inner == 0
    }
    /// Fires: the only `enable()` outside is on a receiver typed `Tracer`.
    pub fn enable(&mut self) {}
}

/// Enabled through a typed receiver.
pub struct Tracer;

impl Tracer {
    /// Called as `t.enable()` with `t: &mut Tracer`.
    pub fn enable(&mut self) {}
}

/// Never named outside, but the return type of a used fn.
pub struct Report {
    /// Read by the other crate.
    pub total: u64,
    /// Never read: fires.
    pub unread: u64,
}

/// Called from another crate.
pub fn report() -> Report {
    Report { total: 0, unread: 0 }
}

/// Built by a struct literal outside: every field counts as used.
pub struct Config {
    /// Set by the literal.
    pub a: u64,
    /// Left to `..Default::default()`.
    pub b: u64,
}

// simlint: allow(unused-pub) kept for an out-of-tree caller (fixture)
pub fn tolerated() {}

/// Already crate-private: out of the rule's scope.
pub(crate) fn internal() {}

/// Never named anywhere: the struct and its field both fire.
pub struct Orphan {
    /// Fires with its struct.
    pub x: u64,
}

#[cfg(test)]
mod tests {
    /// Test code is out of scope.
    pub fn helper() {}
}
