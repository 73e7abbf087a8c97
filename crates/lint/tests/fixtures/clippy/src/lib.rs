//! Violations of the model-crate rules that clippy and rustc enforce,
//! next to the sites those rules must leave alone. The expected
//! `(file, line, lint)` findings are pinned in `tests/lint_fixtures.rs`.

#![warn(missing_docs)]
// The header every model crate's `lib.rs` carries.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod nondet_api;
pub mod undeclared_feature;
pub mod unwrap_result;
