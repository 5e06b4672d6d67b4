//! # sw-signature — combined-signature machinery for the SIG strategy
//!
//! Implements the file-comparison-style signature scheme the paper adapts
//! from Barbará & Lipton (1991) and Rangarajan & Fussell (1991) (§3.3):
//!
//! * every item has a `g`-bit checksum of its value ([`sig::ItemSignature`]);
//! * `m` subsets `S_1 … S_m` of the database are chosen a priori, each
//!   item belonging to `S_j` independently with probability `1/(f+1)`
//!   ([`subsets::SubsetFamily`] — membership is *derived from a shared
//!   seed*, so server and clients agree without ever exchanging the
//!   sets, exactly matching "universally known and agreed upon before
//!   any exchange of information takes place");
//! * the server broadcasts the XOR-combined signature of every subset;
//! * a client compares the broadcast signatures of subsets it caches
//!   against its stored copies and diagnoses items appearing in "too
//!   many" unmatching subsets — more than `m·δ_f` with `δ_f = K·p` —
//!   as invalid, by word operations over `m`-bit masks
//!   ([`syndrome::SyndromeDecoder`]);
//! * [`bounds`] provides the analytical side: the per-subset false-alarm
//!   probability `p` (Eq. 21), the Chernoff bound on false diagnosis
//!   (Eq. 22), the required number of signatures `m` (Eq. 24), and the
//!   probability `P_nf` of no false diagnosis used by the hit-ratio
//!   model (Eq. 26/43).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod sig;
pub mod subsets;
pub mod syndrome;

pub use bounds::{chernoff_false_alarm_bound, p_valid_in_unmatched, prob_no_false_diagnosis, required_signatures, SigPlan};
pub use sig::{combine, item_signature, CombinedSignature, ItemSignature};
pub use subsets::SubsetFamily;
pub use syndrome::SyndromeDecoder;
