//! Production implementation of the [`Atomics`] family: plain
//! `std::sync::atomic` types plus a spin-then-yield blocking wait.
//!
//! Everything is `#[inline]` and monomorphizes to exactly the code the
//! protocol contained before extraction.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::atomics::{AtomicBoolT, AtomicU64T, AtomicUsizeT, Atomics, MutexT};

/// Spin for short waits, yield to the OS once a wait turns long: an
/// oversubscribed machine needs the scheduler's help to get the straggler
/// running.
#[inline]
fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < (1 << 10) {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Zero-sized factory for the production atomics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealAtomics;

/// Production `u64` atomic.
#[derive(Debug, Default)]
pub struct RealU64(AtomicU64);

/// Production `usize` atomic.
#[derive(Debug, Default)]
pub struct RealUsize(AtomicUsize);

/// Production `bool` atomic.
#[derive(Debug, Default)]
pub struct RealBool(AtomicBool);

/// Production mutex: `std::sync::Mutex` with poison recovery, matching
/// the idiom used across the workspace (a panicked holder must not take
/// the whole server down; the protected data is rebuilt or validated by
/// its owner).
#[derive(Debug, Default)]
pub struct RealMutex<T>(Mutex<T>);

impl AtomicU64T for RealU64 {
    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }
    #[inline]
    fn store(&self, value: u64, order: Ordering) {
        self.0.store(value, order);
    }
    #[inline]
    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        self.0.fetch_add(value, order)
    }
    #[inline]
    fn fetch_or(&self, value: u64, order: Ordering) -> u64 {
        self.0.fetch_or(value, order)
    }
    #[inline]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.0.compare_exchange(current, new, success, failure)
    }
    #[inline]
    fn wait_until<F: FnMut(u64) -> bool>(&self, order: Ordering, mut pred: F) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.0.load(order);
            if pred(v) {
                return v;
            }
            backoff(&mut spins);
        }
    }
}

impl AtomicUsizeT for RealUsize {
    #[inline]
    fn load(&self, order: Ordering) -> usize {
        self.0.load(order)
    }
    #[inline]
    fn store(&self, value: usize, order: Ordering) {
        self.0.store(value, order);
    }
    #[inline]
    fn fetch_add(&self, value: usize, order: Ordering) -> usize {
        self.0.fetch_add(value, order)
    }
    #[inline]
    fn wait_until<F: FnMut(usize) -> bool>(&self, order: Ordering, mut pred: F) -> usize {
        let mut spins = 0u32;
        loop {
            let v = self.0.load(order);
            if pred(v) {
                return v;
            }
            backoff(&mut spins);
        }
    }
}

impl AtomicBoolT for RealBool {
    #[inline]
    fn load(&self, order: Ordering) -> bool {
        self.0.load(order)
    }
    #[inline]
    fn store(&self, value: bool, order: Ordering) {
        self.0.store(value, order);
    }
}

impl<T: Send> MutexT<T> for RealMutex<T> {
    type Guard<'a>
        = MutexGuard<'a, T>
    where
        T: 'a;
    #[inline]
    fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Atomics for RealAtomics {
    type U64 = RealU64;
    type Usize = RealUsize;
    type Bool = RealBool;
    type Mutex<T: Send> = RealMutex<T>;
    #[inline]
    fn u64(&self, init: u64, _name: &'static str) -> RealU64 {
        RealU64(AtomicU64::new(init))
    }
    #[inline]
    fn usize(&self, init: usize, _name: &'static str) -> RealUsize {
        RealUsize(AtomicUsize::new(init))
    }
    #[inline]
    fn boolean(&self, init: bool, _name: &'static str) -> RealBool {
        RealBool(AtomicBool::new(init))
    }
    #[inline]
    fn mutex<T: Send>(&self, init: T, _name: &'static str) -> RealMutex<T> {
        RealMutex(Mutex::new(init))
    }
}
