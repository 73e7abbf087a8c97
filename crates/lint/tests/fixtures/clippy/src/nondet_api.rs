//! Wall clock, entropy, ambient environment and thread spawns (formerly
//! KL002 and KL003).

use std::collections::hash_map::RandomState;
use std::env;
use std::time::Instant as Clock;

/// Wall-clock time differs run to run: virtual clocks only.
pub fn wall_clock() -> std::time::Instant {
    let _ = std::time::SystemTime::UNIX_EPOCH;
    Clock::now()
}

/// A wall-clock stamp, as `kloc-lint --explain KL002` used to show it.
pub fn stamp() -> u128 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos()
}

/// Configuration must come from the run's config, not the process.
pub fn ambient_config() -> Option<String> {
    std::env::var("KLOC_SEED").ok()
}

/// The same read through an imported module.
pub fn ambient_flag() -> bool {
    env::var_os("KLOC_FAST").is_some()
}

/// Per-process hash seeds. `rand::random()` is the other classic entropy
/// source, but the workspace has no registry dependency to name it.
pub fn randomness() -> RandomState {
    RandomState::new()
}

/// kloc-sim owns all concurrency.
pub fn concurrency(work: Vec<u64>) {
    std::thread::spawn(move || work.len());
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new().spawn(|| {});
}

/// A sanctioned exception names its reason.
#[expect(clippy::disallowed_methods, reason = "documented escape hatch")]
pub fn sanctioned() -> usize {
    std::env::args().count()
}

/// A local type that shares a banned name is not the banned path.
pub mod sim_clock {
    /// A virtual instant.
    pub struct Instant(pub u64);

    impl Instant {
        /// The virtual epoch.
        pub fn now() -> Instant {
            Instant(0)
        }
    }
}

/// Resolves to [`sim_clock::Instant`], not `std::time::Instant`.
pub fn virtual_now() -> sim_clock::Instant {
    sim_clock::Instant::now()
}
