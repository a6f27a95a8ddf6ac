//! Named, fingerprinted, shared matrices — the serving layer's data
//! plane.
//!
//! Tenants register matrices once under a name; jobs reference them by
//! name and capture an [`Arc`] snapshot at submission, so a tenant
//! re-registering a name (new values, possibly new structure) never
//! races in-flight jobs. The store computes each matrix's `O(nnz)`
//! [`Csr::structure_fingerprint`] **once at registration**, which is
//! what lets the plan cache key products by structure without paying a
//! per-request fingerprint pass.

use spgemm_sparse::{csr_bytes, Csr};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An immutable registered matrix: the payload plus the metadata the
/// scheduler keys on.
pub struct StoredMatrix {
    name: String,
    /// Monotone per-store registration counter. Two registrations of
    /// the same name get different versions, so result deduplication
    /// (same operands ⇒ same product) can use `(name, version)` as an
    /// identity without comparing values.
    version: u64,
    fingerprint: u64,
    matrix: Arc<Csr<f64>>,
}

impl StoredMatrix {
    /// The name this matrix is registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registration counter value (unique within one store).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The structure fingerprint computed at registration
    /// ([`Csr::structure_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The matrix itself.
    pub fn csr(&self) -> &Csr<f64> {
        &self.matrix
    }

    /// Shared handle to the matrix.
    pub fn csr_arc(&self) -> Arc<Csr<f64>> {
        Arc::clone(&self.matrix)
    }
}

impl std::fmt::Debug for StoredMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StoredMatrix({:?} v{} {}x{} nnz={} fp={:#018x})",
            self.name,
            self.version,
            self.matrix.nrows(),
            self.matrix.ncols(),
            self.matrix.nnz(),
            self.fingerprint
        )
    }
}

/// Concurrent name → matrix registry.
///
/// ```
/// use spgemm_serve::MatrixStore;
/// use spgemm_sparse::Csr;
///
/// let store = MatrixStore::new();
/// let a = store.insert("a", Csr::<f64>::identity(4));
/// assert_eq!(store.get("a").unwrap().version(), a.version());
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Default)]
pub struct MatrixStore {
    inner: Mutex<HashMap<String, Arc<StoredMatrix>>>,
    next_version: AtomicU64,
}

impl MatrixStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recovers from poisoning: a critical section moves whole `Arc`s.
    fn map(&self) -> MutexGuard<'_, HashMap<String, Arc<StoredMatrix>>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register `matrix` under `name`, replacing any previous
    /// registration. Jobs that captured the previous registration keep
    /// using it (snapshot semantics). Computes the structure
    /// fingerprint once, here.
    pub fn insert(&self, name: impl Into<String>, matrix: Csr<f64>) -> Arc<StoredMatrix> {
        let stored = self.replace(name.into(), None, matrix);
        stored.expect("an unconditional registration always lands")
    }

    /// [`MatrixStore::insert`], only while `name`'s current
    /// registration is `expect` when one is given; `None` otherwise.
    pub(crate) fn replace(
        &self,
        name: String,
        expect: Option<u64>,
        matrix: Csr<f64>,
    ) -> Option<Arc<StoredMatrix>> {
        let fingerprint = matrix.structure_fingerprint();
        let mut map = self.map();
        if expect.is_some() && map.get(&name).map(|m| m.version) != expect {
            return None;
        }
        // Drawn under the lock: one name's versions rise in the order
        // its registrations land.
        let stored = Arc::new(StoredMatrix {
            fingerprint,
            version: self.next_version.fetch_add(1, Ordering::Relaxed),
            matrix: Arc::new(matrix),
            name: name.clone(),
        });
        map.insert(name, Arc::clone(&stored));
        Some(stored)
    }

    /// The current registration of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<StoredMatrix>> {
        self.map().get(name).cloned()
    }

    /// Remove `name`; returns whether it was present. In-flight jobs
    /// holding the matrix are unaffected.
    pub fn remove(&self, name: &str) -> bool {
        self.map().remove(name).is_some()
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered names and the approximate CSR bytes ([`csr_bytes`])
    /// of their current registrations, from one locked read (snapshots
    /// captured by in-flight jobs are not counted).
    pub(crate) fn levels(&self) -> (usize, u64) {
        let map = self.map();
        (map.len(), map.values().map(|m| csr_bytes(m.csr())).sum())
    }

    /// Registered names, unordered.
    pub fn names(&self) -> Vec<String> {
        self.map().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reregistration_bumps_version_and_keeps_snapshots() {
        let store = MatrixStore::new();
        let first = store.insert("m", Csr::<f64>::identity(3));
        let second = store.insert("m", Csr::<f64>::identity(5));
        assert!(second.version() > first.version());
        assert_eq!(first.csr().nrows(), 3, "snapshot unaffected by replace");
        assert_eq!(store.get("m").unwrap().csr().nrows(), 5);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn fingerprint_matches_csr_method() {
        let store = MatrixStore::new();
        let m = Csr::<f64>::identity(7);
        let fp = m.structure_fingerprint();
        let stored = store.insert("id", m);
        assert_eq!(stored.fingerprint(), fp);
    }

    #[test]
    fn remove_and_names() {
        let store = MatrixStore::new();
        store.insert("x", Csr::<f64>::identity(2));
        store.insert("y", Csr::<f64>::identity(2));
        let mut names = store.names();
        names.sort();
        assert_eq!(names, ["x", "y"]);
        assert!(store.remove("x"));
        assert!(!store.remove("x"));
        assert_eq!(store.len(), 1);
    }
}
