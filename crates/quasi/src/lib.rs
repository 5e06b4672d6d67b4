//! # sw-quasi — relaxed cache consistency via quasi-copies (§7)
//!
//! "If the applications supported by the system allow it, we could
//! relax the consistency of the caches, thereby opening the door for
//! shorter invalidation reports." A *quasi-copy* (Alonso, Barbará &
//! Garcia-Molina, 1990) is a cached value allowed to deviate from the
//! central copy in a controlled way. Two coherency conditions are
//! implemented:
//!
//! * [`delay`] — the **delay condition** (Eq. 27): the cached value may
//!   lag the server by at most `α` seconds. Rather than clients blindly
//!   re-fetching every `α`, the server keeps per-item *obligation
//!   lists* recording when copies went out, and considers an item for
//!   reporting only when an outstanding copy is about to exceed its
//!   allowed lag — "bound to reduce the number of times x is reported";
//! * [`arithmetic`] — the **arithmetic condition** (Eq. 28): for
//!   numeric items, report a change only when it moves the value more
//!   than `ε` away from the last reported value ("report an item, but
//!   only if it changes more than the prescribed limit").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arithmetic;
pub mod delay;

pub use arithmetic::EpsilonFilter;
pub use delay::ObligationTracker;
