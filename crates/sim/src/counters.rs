//! Counter records: a struct of `u64` counters with one field list.
//!
//! Everything the system counts — a client's `MuStats`, the query
//! plane's `QueryStats`, the fault, capacity, coop, migration and safety
//! families, and the three per-interval records (the client's decision
//! row, the server's tick, the cell's series row) — is a plain struct
//! of `u64` fields. [`counters!`](macro@crate::counters) declares such
//! a struct and, from the same field list, its [`Counters`] impl: the
//! names the fields bear on a trace, a `/metrics` page or a flight
//! line, and the pairwise walk that `since`, `absorb`, `total`,
//! `values` and `named` are written over once.
//! A new counter is one field in one declaration; every fold, delta,
//! wire layout and sink that reads the record picks it up.

/// The most counters one record may hold: [`Counters::values`] gathers
/// them in a stack buffer this wide ([`counters!`](macro@crate::counters) checks the bound at
/// compile time).
pub const MAX_COUNTERS: usize = 16;

/// A record of `u64` counters with one field list.
pub trait Counters: Copy + Default {
    /// The name each counter bears wherever it is emitted, in field
    /// order.
    const NAMES: &'static [&'static str];

    /// Applies `f` to every counter paired with `other`'s, in
    /// [`NAMES`](Self::NAMES) order — the one field list.
    fn zip(&mut self, other: &Self, f: impl FnMut(&mut u64, u64));

    /// Folds another record into this one (fleet- or run-level totals).
    fn absorb(&mut self, other: &Self) {
        self.zip(other, |mine, theirs| *mine += theirs);
    }

    /// The sum of `records` (a fleet's clients, a mesh's cells).
    fn total(records: impl IntoIterator<Item = Self>) -> Self {
        records.into_iter().fold(Self::default(), |mut total, record| {
            total.absorb(&record);
            total
        })
    }

    /// What these counters gained since the earlier snapshot `before`
    /// of the same source (per-interval deltas).
    fn since(&self, before: &Self) -> Self {
        let mut delta = *self;
        delta.zip(before, |now, then| *now -= then);
        delta
    }

    /// The counter values in [`NAMES`](Self::NAMES) order; no
    /// allocation.
    fn values(&self) -> impl Iterator<Item = u64> + use<Self> {
        let mut out = [0u64; MAX_COUNTERS];
        let mut n = 0;
        let mut walker = *self;
        walker.zip(self, |_, v| {
            out[n] = v;
            n += 1;
        });
        out.into_iter().take(n)
    }

    /// `(name, value)` pairs in field order: what a flight line, a
    /// gauge set or a counter family is fed from.
    fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + use<Self> {
        Self::NAMES.iter().copied().zip(self.values())
    }
}

/// The laws every [`Counters`] impl obeys, checked on distinct values
/// in every field (test support: each crate runs it over its records).
/// `NAMES` are distinct and as many as the fields `zip` visits;
/// `since` then `absorb` round-trips; `values` and `named` follow
/// `NAMES` order.
pub fn assert_laws<T: Counters + PartialEq + std::fmt::Debug>() {
    for (i, name) in T::NAMES.iter().enumerate() {
        assert!(!T::NAMES[..i].contains(name), "{name} is listed twice");
    }
    let (mut before, mut fields) = (T::default(), 0u64);
    before.zip(&T::default(), |c, _| {
        fields += 1;
        *c = fields;
    });
    assert_eq!(
        fields as usize,
        T::NAMES.len(),
        "zip visits one field per name"
    );
    let mut after = before;
    after.zip(&before, |c, b| *c = 3 * b + 4);
    let delta = after.since(&before);
    assert!(
        delta.values().eq((1..=fields).map(|k| 2 * k + 4)),
        "{delta:?}"
    );
    assert_eq!(T::total([before, delta]), after);
    assert!(after
        .named()
        .map(|(name, _)| name)
        .eq(T::NAMES.iter().copied()));
    assert!(after.named().map(|(_, v)| v).eq(after.values()));
}

/// Declares a counter record and its [`Counters`] impl from one field
/// list. Every listed field is a `u64` named by its identifier, or by
/// the literal after `as` where the emitted vocabulary differs from the
/// field name. Fields that are not counters (an interval index, flags,
/// `f64` sums) come first, typed, and end with `;`.
///
/// ```
/// sw_sim::counters! {
///     /// What one tick did.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct Tick {
///         /// Wall-clock seconds, not a counter.
///         pub secs: f64;
///         /// Bytes sent.
///         pub bytes,
///         /// Updates applied.
///         pub updates as "updates_applied",
///     }
/// }
/// use sw_sim::Counters;
/// assert_eq!(Tick::NAMES, ["bytes", "updates_applied"]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$pmeta:meta])* $pvis:vis $plain:ident : $pty:ty ),* ;
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident $(as $label:literal)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$pmeta])* $pvis $plain: $pty, )*
            $( $(#[$fmeta])* $fvis $field: u64, )*
        }

        impl $crate::Counters for $name {
            const NAMES: &'static [&'static str] =
                &[$( $crate::counters!(@name $field $($label)?) ),*];

            fn zip(&mut self, other: &Self, mut f: impl FnMut(&mut u64, u64)) {
                $( f(&mut self.$field, other.$field); )*
            }
        }

        const _: () = assert!(<$name as $crate::Counters>::NAMES.len() <= $crate::MAX_COUNTERS);
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($counters:tt)* }) => {
        $crate::counters! { $(#[$meta])* $vis struct $name { ; $($counters)* } }
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $label:literal) => { $label };
}

#[cfg(test)]
mod tests {
    use super::*;

    counters! {
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Mixed {
            label: f64,
            on: bool;
            first,
            second as "renamed",
        }
    }

    counters! {
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Plain { a, b, c }
    }

    #[test]
    fn macro_records_obey_the_laws() {
        assert_laws::<Mixed>();
        assert_laws::<Plain>();
        assert_eq!(Mixed::NAMES, ["first", "renamed"]);
    }

    #[test]
    fn since_and_absorb_leave_plain_fields_alone() {
        let now = Mixed {
            label: 2.5,
            on: true,
            first: 9,
            second: 4,
        };
        let then = Mixed {
            label: 1.0,
            on: false,
            first: 2,
            second: 1,
        };
        assert_eq!(
            now.since(&then),
            Mixed {
                label: 2.5,
                on: true,
                first: 7,
                second: 3
            }
        );
        assert_eq!(
            now.named().collect::<Vec<_>>(),
            [("first", 9), ("renamed", 4)]
        );
    }
}
