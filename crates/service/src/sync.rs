//! Poison-recovering synchronization helpers.
//!
//! The service shares the admission state across its engine and session
//! threads behind a mutex. A panicking holder
//! poisons the lock, and the default `.lock().expect(...)` response turns
//! that one panic into a cascade that takes the whole host down with an
//! unrelated message — the DET003 failure class the workspace lint bans in
//! schedule-affecting crates. These helpers implement the sanctioned
//! recovery instead: locks are taken poison-recovering (every protected
//! invariant here survives a mid-update panic, because updates are either
//! single writes or are re-validated by the reader), and joined threads
//! re-raise their own panic payload via [`std::panic::resume_unwind`] so
//! the original failure surfaces with its original message.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::Duration;

/// Lock `mutex`, recovering the guard from a poisoned lock. Callers must
/// only protect state that stays consistent across a panicking holder (see
/// module docs).
pub(crate) fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `condvar`, recovering the re-acquired guard from a poisoned
/// lock.
pub(crate) fn wait_clean<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `condvar` for at most `limit`, recovering the re-acquired guard
/// from a poisoned lock. The caller re-checks its condition either way.
pub(crate) fn wait_timeout_clean<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    limit: Duration,
) -> MutexGuard<'a, T> {
    match condvar.wait_timeout(guard, limit) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// Join a scoped thread, propagating its panic — if any — with the
/// original payload instead of a generic `.expect` message.
pub(crate) fn join_or_resume<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// [`join_or_resume`] for owned (non-scoped) threads — the host's
/// long-lived engine thread.
pub(crate) fn join_owned_or_resume<T>(handle: JoinHandle<T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
