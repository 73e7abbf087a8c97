//! Fixture: a clean file. Mentions of `HashMap` iteration,
//! `Instant::now`, `std::env`, and `inode as u32` in comments or string
//! literals must not fire — the scanner strips both before matching.
//! Expected diagnostics: none.

use std::collections::BTreeMap;

/// Sorted iteration over a `BTreeMap` is deterministic; a `HashMap`
/// here would need `// lint: ordered-ok`.
pub fn ordered(map: &BTreeMap<u64, u64>) -> Vec<u64> {
    map.keys().copied().collect()
}

pub fn messages() -> (&'static str, String) {
    let a = "prefer virtual clocks over Instant::now and std::env";
    (a, format!("cast {} via u32::try_from, never inode as u32", 7))
}

pub fn lifetime_soup<'a>(x: &'a [u8]) -> &'a [u8] {
    let _c: char = 'x';
    let _nl = '\n';
    x
}
