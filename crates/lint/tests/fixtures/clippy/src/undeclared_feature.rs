//! A `cfg` naming a feature `Cargo.toml` does not declare (formerly
//! KL007's first check): the gated code could never be compiled in.

/// A typo'd feature on an item.
#[cfg(feature = "trcae")]
pub fn emit() {}

/// A typo'd feature in `cfg_attr`.
#[cfg_attr(feature = "ksna", derive(Debug))]
pub struct Audit;

/// A typo'd feature in `cfg!`.
pub fn enabled() -> bool {
    cfg!(feature = "nope")
}

/// A feature renamed away, as `kloc-lint --explain KL007` used to show it.
#[cfg(feature = "tracing")]
pub fn record(event: u64) {
    let _ = event;
}

/// Declared features, either polarity, are fine.
#[cfg(feature = "probe")]
pub fn probed() {}

/// See [`probed`].
#[cfg(not(feature = "ksan"))]
pub fn unsanitized() {}

/// A typo'd feature nested in `all(..)` and `not(..)`.
#[cfg(all(feature = "ksan", not(feature = "tracee")))]
pub fn sanitized_untraced() {}
