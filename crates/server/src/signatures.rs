//! The server's combined signatures (SIG, §3.3, and the cold half of
//! §10's hybrid).
//!
//! The server "computes the m combined signatures sig_1 … sig_m and
//! broadcasts them". [`SignatureVector`] keeps them materialized: built
//! once from the database, then XOR-patched on every update — each
//! update touches the `m/(f+1)` expected subsets containing the item, so
//! a report costs O(m) whatever the database size. Items of an optional
//! [`HotSet`] never participate (HYB broadcasts those by id instead).

use std::sync::Arc;

use sw_signature::{item_signature, CombinedSignature, SyndromeDecoder};

use crate::database::{Database, UpdateRecord};
use crate::hybrid::HotSet;

/// The `m` combined signatures the next report carries.
///
/// The vector lives behind an [`Arc`] so a report shares it with every
/// listening client without copying; the first [`patch`](Self::patch)
/// after a [`snapshot`](Self::snapshot) copies it once (copy-on-write),
/// further patches are in place.
#[derive(Debug, Clone)]
pub struct SignatureVector {
    decoder: SyndromeDecoder,
    hot: HotSet,
    sigs: Arc<Vec<CombinedSignature>>,
}

impl SignatureVector {
    /// Computes the signatures of every item outside `hot` (an empty set
    /// for plain SIG) from the database — O(n·m/(f+1)), done once.
    pub fn new(decoder: SyndromeDecoder, hot: HotSet, db: &Database) -> Self {
        let plan = decoder.plan();
        let mut sigs = vec![0u64; plan.m as usize];
        for item in (0..db.len()).filter(|&item| !hot.contains(item)) {
            let s = item_signature(item, db.value(item), plan.g);
            for j in decoder.family().subsets_of(item) {
                sigs[j as usize] ^= s;
            }
        }
        SignatureVector {
            decoder,
            hot,
            sigs: Arc::new(sigs),
        }
    }

    /// Folds one applied update in: swaps the item's old signature for
    /// its new one in every subset containing it. Hot items ride the id
    /// list, not the signatures.
    pub fn patch(&mut self, rec: &UpdateRecord) {
        if self.hot.contains(rec.item) {
            return;
        }
        let g = self.decoder.plan().g;
        let patch =
            item_signature(rec.item, rec.previous, g) ^ item_signature(rec.item, rec.value, g);
        let sigs = Arc::make_mut(&mut self.sigs);
        for j in self.decoder.family().subsets_of(rec.item) {
            sigs[j as usize] ^= patch;
        }
    }

    /// The current signatures, shared with the report that carries them.
    pub fn snapshot(&self) -> Arc<Vec<CombinedSignature>> {
        Arc::clone(&self.sigs)
    }

    /// Signature width `g` in bits.
    pub fn sig_bits(&self) -> u32 {
        self.decoder.plan().g
    }

    /// The items excluded from the signatures.
    pub fn hot(&self) -> &HotSet {
        &self.hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_signature::{SigPlan, SubsetFamily};
    use sw_sim::{SimDuration, SimTime};

    /// A report's snapshot keeps the values it was built with: the next
    /// patch copies the vector instead of writing through the share.
    #[test]
    fn a_snapshot_is_not_touched_by_later_patches() {
        let mut db = Database::new(200, |i| i + 77, SimDuration::from_secs(1e5));
        let plan = SigPlan::new(5, 16, db.len(), 0.05, SigPlan::DEFAULT_K);
        let decoder = SyndromeDecoder::new(SubsetFamily::new(0x1234, plan.m, plan.f), plan);
        let mut v = SignatureVector::new(decoder, HotSet::default(), &db);
        let before = v.snapshot();
        let copy = before.to_vec();
        v.patch(&db.apply_update(150, 999, SimTime::from_secs(5.0)));
        assert_eq!(*before, copy, "the broadcast payload keeps its values");
        assert_ne!(v.snapshot(), before, "the patch reached the live vector");
    }
}
