//! Streaming row updates: the serving layer's bridge to the
//! incremental machinery in `spgemm::delta`.
//!
//! [`ServeEngine::try_submit_row_update`] edits a registered matrix a
//! few rows at a time instead of re-registering it wholesale. The
//! store still gets a brand-new immutable version (snapshot semantics
//! for in-flight jobs are untouched), but the engine additionally
//! remembers *what changed*: a [`DeltaTracker`] record per name with
//! the pre-edit version, the post-edit version, and the
//! [`DirtyRows`] the patch produced. Consecutive updates to one name
//! compose (dirty sets union, the window stretches back to the oldest
//! un-consumed version), so the tracker stays one bounded record per
//! name no matter how fast edits arrive.
//!
//! Expression jobs consume those records: a cached evaluator at an
//! older version of the name is advanced with
//! [`spgemm::expr::ExprPlan::update_in`] over the window's dirty
//! rows when the window reaches back to its version — any superset of
//! the changed rows is exact, so one stretched window serves every
//! evaluator inside it. A version the tracker no longer covers (a
//! wholesale re-registration in between) simply binds a new
//! evaluator: divergence invalidates, it never corrupts.
//!
//! [`ServeEngine::try_submit_row_update`]: crate::ServeEngine::try_submit_row_update

use spgemm::delta::DirtyRows;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What [`crate::ServeEngine::try_submit_row_update`] returns: the
/// version transition the patch caused and how many rows it touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowUpdateReceipt {
    /// Store version the patch was applied against.
    pub old_version: u64,
    /// Store version now registered under the name.
    pub new_version: u64,
    /// Rows of the matrix the patch structurally or numerically
    /// edited (the [`DirtyRows`] count).
    pub rows_dirtied: usize,
}

/// One name's edit window: everything that changed between
/// `from_version` (a version an evaluator may still be at) and
/// `to_version` (the current registration).
#[derive(Clone, Debug)]
pub(crate) struct DeltaRecord {
    pub(crate) from_version: u64,
    pub(crate) to_version: u64,
    pub(crate) dirty: DirtyRows,
}

/// Per-name edit windows, plus the lock that serializes
/// read-modify-write row updates against the store.
#[derive(Default)]
pub(crate) struct DeltaTracker {
    /// Recovers from poisoning: a critical section replaces whole records.
    map: Mutex<HashMap<String, DeltaRecord>>,
    /// Held across a whole get → patch → re-insert row update so two
    /// concurrent updates to one store can't both apply against the
    /// same base version and silently drop one patch.
    update_lock: Mutex<()>,
}

impl DeltaTracker {
    /// Serialize a read-modify-write row update (see `update_lock`).
    /// Recovers from poisoning: the guard holds no data.
    pub(crate) fn update_guard(&self) -> MutexGuard<'_, ()> {
        (self.update_lock.lock()).unwrap_or_else(PoisonError::into_inner)
    }
    /// Record an update `old_version → new_version` of `name` with the
    /// given dirty set, composing with an existing record when it
    /// chains (its `to_version` is exactly `old_version` and the shape
    /// is unchanged). A record that does not chain — the name was
    /// re-registered wholesale in between — is replaced, narrowing the
    /// window to this single step.
    pub(crate) fn record(&self, name: &str, old_version: u64, new_version: u64, dirty: &DirtyRows) {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        let rec = match map.remove(name) {
            Some(prev) if prev.to_version == old_version && prev.dirty.nrows() == dirty.nrows() => {
                let mut merged = prev.dirty;
                merged.union_with(dirty);
                DeltaRecord {
                    from_version: prev.from_version,
                    to_version: new_version,
                    dirty: merged,
                }
            }
            _ => DeltaRecord {
                from_version: old_version,
                to_version: new_version,
                dirty: dirty.clone(),
            },
        };
        map.insert(name.to_string(), rec);
    }

    /// The edit window ending at exactly `version` of `name`, if the
    /// tracker holds one. `None` means no evaluator at an older version
    /// of this name can be advanced to `version`.
    pub(crate) fn applicable(&self, name: &str, version: u64) -> Option<DeltaRecord> {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.get(name)
            .filter(|rec| rec.to_version == version)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_updates_compose_their_windows() {
        let t = DeltaTracker::default();
        t.record("m", 0, 1, &DirtyRows::from_rows(8, [2]));
        t.record("m", 1, 2, &DirtyRows::from_rows(8, [5]));
        let rec = t.applicable("m", 2).expect("window covers v2");
        assert_eq!(rec.from_version, 0);
        assert_eq!(rec.dirty.iter().collect::<Vec<_>>(), vec![2, 5]);
        assert!(t.applicable("m", 1).is_none(), "stale version misses");
    }

    #[test]
    fn non_chaining_update_resets_the_window() {
        let t = DeltaTracker::default();
        t.record("m", 0, 1, &DirtyRows::from_rows(8, [2]));
        // A wholesale re-registration happened: versions skip.
        t.record("m", 5, 6, &DirtyRows::from_rows(8, [7]));
        let rec = t.applicable("m", 6).expect("new single-step window");
        assert_eq!(rec.from_version, 5);
        assert_eq!(rec.dirty.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn shape_change_resets_instead_of_unioning() {
        let t = DeltaTracker::default();
        t.record("m", 0, 1, &DirtyRows::from_rows(8, [2]));
        t.record("m", 1, 2, &DirtyRows::from_rows(16, [9]));
        let rec = t.applicable("m", 2).expect("replaced record");
        assert_eq!(rec.from_version, 1);
        assert_eq!(rec.dirty.nrows(), 16);
    }
}
