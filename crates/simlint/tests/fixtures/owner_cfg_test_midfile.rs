//! A test-only helper in the middle of a file: the test exemption ends
//! with the helper, so the guarded field below it is still seen.

pub(crate) struct Host {
    rate: u64,
}

#[cfg(test)]
fn helper() -> u32 {
    7
}

// A second NP comes back below the helper.
pub(crate) struct Np {
    last_cnp: Option<u64>,
}
