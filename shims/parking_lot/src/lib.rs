//! Offline stand-in for the `parking_lot` crate.
//!
//! The vendored build environment has no network access, so the real
//! `parking_lot` cannot be fetched. This shim wraps `std::sync` primitives
//! behind parking_lot's poison-free API surface (the subset this workspace
//! uses): `lock()`/`read()`/`write()` return guards directly, recovering the
//! inner value if a previous holder panicked.
#![expect(
    clippy::disallowed_methods,
    reason = "the shim is the primitive `rasql_storage::sync` ranks; it wraps `std::sync`'s constructors"
)]

use std::sync::{self, LockResult};

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        unpoison(self.inner.lock())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

/// A reader-writer lock whose accessors never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// RAII guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, ignoring poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        unpoison(self.inner.read())
    }

    /// Acquire an exclusive write guard, ignoring poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        unpoison(self.inner.write())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

fn unpoison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
