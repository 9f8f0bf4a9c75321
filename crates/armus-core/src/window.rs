//! A bounded window over an append-only sequence, read by cursor: the
//! registry's delta journal, the store's per-tenant change log, and the
//! retained reports of a verifier or a site. Each owner keeps its own lock.
//!
//! **The cursor rule.** [`Window::since`] answers the entries from the
//! cursor to the head for a cursor in `[base, head]`, and [`Behind`] for
//! any other: one the window dropped, or one past the head, which another
//! window issued (another or a restarted store) — its reader must resync.
//!
//! **Positions wrap** (modulo 2⁶⁴), so an owner may offset the cursors it
//! issues by a random origin, as the store does per instance: another
//! instance's cursor then lands outside `[base, head]` but by chance.

use std::collections::vec_deque::Iter;
use std::collections::VecDeque;

/// A read from a cursor outside `[base, head]`: resync from a whole view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Behind;

/// The last `capacity` entries of an append-only sequence, oldest first.
pub struct Window<T> {
    entries: VecDeque<T>,
    /// The position of `entries[0]`.
    base: u64,
    capacity: usize,
}

impl<T> Window<T> {
    /// An empty window of `capacity` entries, the first at position 0.
    pub fn new(capacity: usize) -> Window<T> {
        Window { entries: VecDeque::new(), base: 0, capacity }
    }

    /// Appends `entry`. The oldest entry leaves a full window first, so
    /// the buffer never outgrows `capacity`; at capacity 0, `entry` itself.
    pub fn push(&mut self, entry: T) {
        if self.entries.len() == self.capacity {
            self.base = self.base.wrapping_add(1);
            if self.entries.pop_front().is_none() {
                return;
            }
        }
        self.entries.push_back(entry);
    }

    /// The position of the next entry: a caught-up reader's cursor.
    pub fn head(&self) -> u64 {
        self.base.wrapping_add(self.entries.len() as u64)
    }

    /// The position of the oldest retained entry: how many have left.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// True when the window retains nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        self.entries.iter()
    }

    /// The entries from `cursor` to the head, or [`Behind`] outside `[base, head]`.
    pub fn since(&self, cursor: u64) -> Result<Iter<'_, T>, Behind> {
        let behind = usize::try_from(self.head().wrapping_sub(cursor)).map_err(|_| Behind)?;
        let first = self.entries.len().checked_sub(behind).ok_or(Behind)?;
        Ok(self.entries.range(first..))
    }

    /// The retained entries, oldest first, by value.
    pub fn into_vec(self) -> Vec<T> {
        self.entries.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a `Vec` of everything ever pushed: after any
        /// interleaving of pushes (`Some`) and reads (`None`), at every
        /// capacity below 8 and from an origin at 0 or near `u64::MAX`
        /// (so positions wrap), the window retains the model's last
        /// `capacity` entries, `base` counts what left, and `since`
        /// answers the model's tail for every cursor in `[base, head]` and
        /// `Behind` for cursors two below the base and two past the head.
        #[test]
        fn a_window_reads_as_the_tail_of_everything_pushed(
            steps in proptest::collection::vec(
                prop_oneof![(0u32..1000).prop_map(Some), Just(None)],
                0..40,
            ),
            below_max in 0u64..8,
        ) {
            for origin in [0, u64::MAX - below_max] {
                for capacity in 0..8 {
                    // At an origin: as if `origin` entries had already left.
                    let mut window = Window { base: origin, ..Window::new(capacity) };
                    let mut model: Vec<u32> = Vec::new();
                    for step in &steps {
                        if let Some(entry) = step {
                            window.push(*entry);
                            model.push(*entry);
                            continue;
                        }
                        let dropped = model.len().saturating_sub(capacity);
                        let at = |offset: usize| origin.wrapping_add(offset as u64);
                        prop_assert_eq!(window.base(), at(dropped));
                        prop_assert_eq!(window.head(), at(model.len()));
                        prop_assert_eq!(window.is_empty(), model.len() == dropped);
                        prop_assert_eq!(window.iter().copied().collect::<Vec<_>>(), &model[dropped..]);
                        for offset in dropped..=model.len() {
                            let read = window.since(at(offset)).map(|it| it.copied().collect::<Vec<_>>());
                            prop_assert_eq!(read, Ok(model[offset..].to_vec()));
                        }
                        for outside in [1, 2] {
                            prop_assert_eq!(window.since(window.base().wrapping_sub(outside)).err(), Some(Behind));
                            prop_assert_eq!(window.since(window.head().wrapping_add(outside)).err(), Some(Behind));
                        }
                    }
                    prop_assert_eq!(window.into_vec(), &model[model.len().saturating_sub(capacity)..]);
                }
            }
        }
    }
}
