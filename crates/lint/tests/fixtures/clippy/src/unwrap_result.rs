//! `.unwrap()`/`.expect(..)` in library code (formerly KL005). Unit
//! tests and justified sites are exempt.

use std::collections::BTreeMap;

/// A missing key panics mid-run.
pub fn lookup(map: &BTreeMap<u32, u32>) -> u32 {
    *map.get(&1).unwrap()
}

/// A bad string panics mid-run.
pub fn parse(s: &str) -> u64 {
    s.parse().expect("caller validated")
}

/// A call split across lines is still one call.
pub fn first(frames: &[u64]) -> u64 {
    *frames
        .first()
        .expect(
            "non-empty",
        )
}

/// A justified site states why the value is present.
#[expect(clippy::unwrap_used, reason = "every caller inserts key 1 first")]
pub fn guarded(map: &BTreeMap<u32, u32>) -> u32 {
    *map.get(&1).unwrap()
}

/// A fallback is not a panic.
pub fn fallback(s: &str) -> u64 {
    s.parse().unwrap_or(0)
}

/// Ordered iteration is deterministic.
pub fn ordered(map: &BTreeMap<u64, u64>) -> Vec<u64> {
    map.keys().copied().collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_unwrap_freely() {
        let n: u64 = "3".parse().unwrap();
        assert_eq!(super::fallback("3"), n);
    }
}
