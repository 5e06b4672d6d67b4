//! Workspace root crate: re-exports the [`sleepers`] public API so the
//! repository-level examples and integration tests exercise exactly
//! what a downstream user of the library would import.

#![forbid(unsafe_code)]

pub use sleepers::*;
