//! Offline stand-in for the `loom` model checker.
//!
//! Same shape as the real crate — `loom::model`, `loom::thread`,
//! `loom::sync::{Mutex, RwLock, atomic}`, `loom::cell::UnsafeCell` — but
//! implemented in-tree so the workspace builds without registry access.
//! The engine (`rt`) is a CHESS-style bounded model checker: real OS
//! threads run one at a time under a cooperative scheduler, every
//! synchronization operation is a schedule point, and schedules are
//! enumerated depth-first with a preemption bound.
//!
//! # What this models, and what it deliberately does not
//!
//! * **Modeled**: every interleaving of synchronization operations (up to
//!   the preemption bound), lost wake-ups, lock-order deadlocks, torn
//!   multi-step protocols, ABA-style races at schedule-point granularity.
//! * **Not modeled**: weak-memory reordering. All atomic operations
//!   execute with sequentially consistent semantics regardless of the
//!   `Ordering` passed, so a bug that *only* reproduces under
//!   relaxed/acquire-release reordering is invisible here (the real loom
//!   models those). The ThreadSanitizer job covers part of that gap with
//!   real hardware reordering under stress.
//!
//! Primitives used outside [`model`] fall back to their `std`
//! equivalents, so `cfg(loom)` builds of non-model unit tests still run.

mod rt;

pub use rt::model;

use rt::ctx;
use std::sync::Mutex as StdMutex;

/// Lazily binds an object to a per-execution controller resource id; the
/// generation check re-registers the resource on every new execution.
struct ResourceId {
    slot: StdMutex<Option<(u64, usize)>>,
}

impl ResourceId {
    const fn new() -> Self {
        ResourceId { slot: StdMutex::new(None) }
    }

    fn get(&self, ctrl: &rt::Controller, register: impl FnOnce() -> usize) -> usize {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        match *slot {
            Some((generation, id)) if generation == ctrl.generation => id,
            _ => {
                let id = register();
                *slot = Some((ctrl.generation, id));
                id
            }
        }
    }
}

pub mod thread {
    use super::rt::{self, ctx};
    use std::panic::AssertUnwindSafe;
    use std::sync::{Arc, Mutex};

    enum Inner<T> {
        Real(std::thread::JoinHandle<T>),
        Model {
            ctrl: Arc<rt::Controller>,
            tid: usize,
            result: Arc<Mutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Join handle for a model (or fallback std) thread.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> JoinHandle<T> {
        /// Wait for the thread; returns the closure's output like
        /// `std::thread::JoinHandle::join`.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Real(h) => h.join(),
                Inner::Model { ctrl, tid, result } => {
                    let (_, my) = ctx().expect("join called outside the model");
                    ctrl.join_thread(my, tid);
                    result
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("joined thread left no result")
                }
            }
        }
    }

    /// Spawn a thread under the model scheduler (or plainly, outside a
    /// model run).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            None => JoinHandle(Inner::Real(std::thread::spawn(f))),
            Some((ctrl, my)) => {
                let tid = ctrl.register_thread();
                let result = Arc::new(Mutex::new(None));
                let (c2, r2) = (Arc::clone(&ctrl), Arc::clone(&result));
                let os = std::thread::spawn(move || {
                    rt::set_ctx(Some((Arc::clone(&c2), tid)));
                    c2.wait_initial(tid);
                    let out = std::panic::catch_unwind(AssertUnwindSafe(f));
                    let msg = match &out {
                        Ok(_) => None,
                        Err(p) => rt::payload_msg(&**p),
                    };
                    *r2.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    c2.finish(tid, msg);
                    rt::set_ctx(None);
                });
                ctrl.os_handles.lock().unwrap_or_else(|e| e.into_inner()).push(os);
                // Spawning is a schedule point: the child may run first.
                ctrl.schedule_point(my);
                JoinHandle(Inner::Model { ctrl, tid, result })
            }
        }
    }

    /// A pure schedule point (any runnable thread may be chosen).
    pub fn yield_now() {
        match ctx() {
            Some((ctrl, my)) => ctrl.schedule_point(my),
            None => std::thread::yield_now(),
        }
    }
}

pub mod hint {
    use super::ctx;

    /// Spin hint: a schedule point inside the model, a CPU hint outside.
    pub fn spin_loop() {
        match ctx() {
            Some((ctrl, my)) => ctrl.schedule_point(my),
            None => std::hint::spin_loop(),
        }
    }
}

pub mod cell {
    /// Transparent `UnsafeCell` wrapper mirroring the std API (`get`),
    /// plus loom's closure accessors (`with`/`with_mut`). The model
    /// serializes all execution, so no extra access tracking is needed
    /// for soundness of the model run itself.
    #[derive(Debug, Default)]
    pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub const fn new(value: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }

    impl<T: ?Sized> UnsafeCell<T> {
        pub const fn get(&self) -> *mut T {
            self.0.get()
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }

        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

pub mod sync {
    pub use std::sync::Arc;

    use super::rt::{self, ctx};
    use super::ResourceId;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc as StdArc;

    // ------------------------------------------------------------ Mutex

    /// Model-checked mutex. Diverges from std/loom in returning guards
    /// directly (no `LockResult`); the only consumer is
    /// `phoebe_common::sync`, which wants the parking_lot shape anyway.
    pub struct Mutex<T: ?Sized> {
        id: ResourceId,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex { id: ResourceId::new(), inner: std::sync::Mutex::new(value) }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        fn model_id(&self, ctrl: &rt::Controller) -> usize {
            self.id.get(ctrl, || ctrl.register_mutex())
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            let model = ctx().map(|(ctrl, my)| {
                let id = self.model_id(&ctrl);
                ctrl.mutex_lock(my, id);
                (ctrl, my, id)
            });
            // With the model grant held, the real lock is uncontended.
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            MutexGuard { inner: Some(inner), model }
        }

        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match ctx() {
                Some((ctrl, my)) => {
                    let id = self.model_id(&ctrl);
                    if !ctrl.mutex_try_lock(my, id) {
                        return None;
                    }
                    let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                    Some(MutexGuard { inner: Some(inner), model: Some((ctrl, my, id)) })
                }
                None => match self.inner.try_lock() {
                    Ok(g) => Some(MutexGuard { inner: Some(g), model: None }),
                    Err(std::sync::TryLockError::Poisoned(e)) => {
                        Some(MutexGuard { inner: Some(e.into_inner()), model: None })
                    }
                    Err(std::sync::TryLockError::WouldBlock) => None,
                },
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            match self.inner.get_mut() {
                Ok(v) => v,
                Err(e) => e.into_inner(),
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        model: Option<(StdArc<rt::Controller>, usize, usize)>,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock before the model release hands the
            // grant to a waiter.
            self.inner = None;
            if let Some((ctrl, my, id)) = self.model.take() {
                ctrl.mutex_unlock(my, id);
            }
        }
    }

    // ----------------------------------------------------------- RwLock

    /// Model-checked reader-writer lock (guard-returning API, as above).
    pub struct RwLock<T: ?Sized> {
        id: ResourceId,
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        pub fn new(value: T) -> Self {
            RwLock { id: ResourceId::new(), inner: std::sync::RwLock::new(value) }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> RwLock<T> {
        fn model_id(&self, ctrl: &rt::Controller) -> usize {
            self.id.get(ctrl, || ctrl.register_rwlock())
        }

        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let model = ctx().map(|(ctrl, my)| {
                let id = self.model_id(&ctrl);
                ctrl.rw_read(my, id);
                (ctrl, my, id)
            });
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            RwLockReadGuard { inner: Some(inner), model }
        }

        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let model = ctx().map(|(ctrl, my)| {
                let id = self.model_id(&ctrl);
                ctrl.rw_write(my, id);
                (ctrl, my, id)
            });
            let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            RwLockWriteGuard { inner: Some(inner), model }
        }

        pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
            match ctx() {
                Some((ctrl, my)) => {
                    let id = self.model_id(&ctrl);
                    if !ctrl.rw_try_read(my, id) {
                        return None;
                    }
                    let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
                    Some(RwLockReadGuard { inner: Some(inner), model: Some((ctrl, my, id)) })
                }
                None => match self.inner.try_read() {
                    Ok(g) => Some(RwLockReadGuard { inner: Some(g), model: None }),
                    Err(std::sync::TryLockError::Poisoned(e)) => {
                        Some(RwLockReadGuard { inner: Some(e.into_inner()), model: None })
                    }
                    Err(std::sync::TryLockError::WouldBlock) => None,
                },
            }
        }

        pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
            match ctx() {
                Some((ctrl, my)) => {
                    let id = self.model_id(&ctrl);
                    if !ctrl.rw_try_write(my, id) {
                        return None;
                    }
                    let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
                    Some(RwLockWriteGuard { inner: Some(inner), model: Some((ctrl, my, id)) })
                }
                None => match self.inner.try_write() {
                    Ok(g) => Some(RwLockWriteGuard { inner: Some(g), model: None }),
                    Err(std::sync::TryLockError::Poisoned(e)) => {
                        Some(RwLockWriteGuard { inner: Some(e.into_inner()), model: None })
                    }
                    Err(std::sync::TryLockError::WouldBlock) => None,
                },
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            match self.inner.get_mut() {
                Ok(v) => v,
                Err(e) => e.into_inner(),
            }
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    pub struct RwLockReadGuard<'a, T: ?Sized> {
        inner: Option<std::sync::RwLockReadGuard<'a, T>>,
        model: Option<(StdArc<rt::Controller>, usize, usize)>,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            if let Some((ctrl, my, id)) = self.model.take() {
                ctrl.rw_unlock(my, id, false);
            }
        }
    }

    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
        model: Option<(StdArc<rt::Controller>, usize, usize)>,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            if let Some((ctrl, my, id)) = self.model.take() {
                ctrl.rw_unlock(my, id, true);
            }
        }
    }

    // ---------------------------------------------------------- atomics

    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use super::super::rt::ctx;

        #[inline]
        fn point() {
            if let Some((ctrl, my)) = ctx() {
                ctrl.schedule_point(my);
            }
        }

        /// Fence: a schedule point; the SC engine needs no memory effect.
        pub fn fence(_order: Ordering) {
            point();
        }

        // Every operation is a schedule point executed with SeqCst
        // semantics; the passed ordering is accepted but not weakened
        // (see the crate docs on what this shim does not model).
        macro_rules! atomic_int {
            ($name:ident, $std:ident, $ty:ty) => {
                #[derive(Debug, Default)]
                pub struct $name(std::sync::atomic::$std);

                impl $name {
                    pub const fn new(v: $ty) -> Self {
                        $name(std::sync::atomic::$std::new(v))
                    }

                    pub fn into_inner(self) -> $ty {
                        self.0.into_inner()
                    }

                    pub fn get_mut(&mut self) -> &mut $ty {
                        self.0.get_mut()
                    }

                    pub fn load(&self, _o: Ordering) -> $ty {
                        point();
                        self.0.load(Ordering::SeqCst)
                    }

                    pub fn store(&self, v: $ty, _o: Ordering) {
                        point();
                        self.0.store(v, Ordering::SeqCst)
                    }

                    pub fn swap(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.swap(v, Ordering::SeqCst)
                    }

                    pub fn fetch_add(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_add(v, Ordering::SeqCst)
                    }

                    pub fn fetch_sub(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_sub(v, Ordering::SeqCst)
                    }

                    pub fn fetch_or(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_or(v, Ordering::SeqCst)
                    }

                    pub fn fetch_and(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_and(v, Ordering::SeqCst)
                    }

                    pub fn fetch_xor(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_xor(v, Ordering::SeqCst)
                    }

                    pub fn fetch_max(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_max(v, Ordering::SeqCst)
                    }

                    pub fn fetch_min(&self, v: $ty, _o: Ordering) -> $ty {
                        point();
                        self.0.fetch_min(v, Ordering::SeqCst)
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        _s: Ordering,
                        _f: Ordering,
                    ) -> Result<$ty, $ty> {
                        point();
                        self.0.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                    }

                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        s: Ordering,
                        f: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.compare_exchange(current, new, s, f)
                    }
                }
            };
        }

        atomic_int!(AtomicU8, AtomicU8, u8);
        atomic_int!(AtomicU16, AtomicU16, u16);
        atomic_int!(AtomicU32, AtomicU32, u32);
        atomic_int!(AtomicU64, AtomicU64, u64);
        atomic_int!(AtomicUsize, AtomicUsize, usize);
        atomic_int!(AtomicI64, AtomicI64, i64);

        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            pub const fn new(v: bool) -> Self {
                AtomicBool(std::sync::atomic::AtomicBool::new(v))
            }

            pub fn into_inner(self) -> bool {
                self.0.into_inner()
            }

            pub fn load(&self, _o: Ordering) -> bool {
                point();
                self.0.load(Ordering::SeqCst)
            }

            pub fn store(&self, v: bool, _o: Ordering) {
                point();
                self.0.store(v, Ordering::SeqCst)
            }

            pub fn swap(&self, v: bool, _o: Ordering) -> bool {
                point();
                self.0.swap(v, Ordering::SeqCst)
            }

            pub fn fetch_or(&self, v: bool, _o: Ordering) -> bool {
                point();
                self.0.fetch_or(v, Ordering::SeqCst)
            }

            pub fn fetch_and(&self, v: bool, _o: Ordering) -> bool {
                point();
                self.0.fetch_and(v, Ordering::SeqCst)
            }

            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                _s: Ordering,
                _f: Ordering,
            ) -> Result<bool, bool> {
                point();
                self.0.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            pub fn compare_exchange_weak(
                &self,
                current: bool,
                new: bool,
                s: Ordering,
                f: Ordering,
            ) -> Result<bool, bool> {
                self.compare_exchange(current, new, s, f)
            }
        }

        #[derive(Debug)]
        pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

        impl<T> AtomicPtr<T> {
            pub const fn new(p: *mut T) -> Self {
                AtomicPtr(std::sync::atomic::AtomicPtr::new(p))
            }

            pub fn into_inner(self) -> *mut T {
                self.0.into_inner()
            }

            pub fn load(&self, _o: Ordering) -> *mut T {
                point();
                self.0.load(Ordering::SeqCst)
            }

            pub fn store(&self, p: *mut T, _o: Ordering) {
                point();
                self.0.store(p, Ordering::SeqCst)
            }

            pub fn swap(&self, p: *mut T, _o: Ordering) -> *mut T {
                point();
                self.0.swap(p, Ordering::SeqCst)
            }

            pub fn compare_exchange(
                &self,
                current: *mut T,
                new: *mut T,
                _s: Ordering,
                _f: Ordering,
            ) -> Result<*mut T, *mut T> {
                point();
                self.0.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};

    /// The classic lost update: unsynchronized load+store must be caught.
    #[test]
    #[should_panic(expected = "lost update")]
    fn finds_lost_update() {
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        let v = n.load(Ordering::SeqCst);
                        n.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        });
    }

    /// The fixed version (atomic RMW) passes every schedule.
    #[test]
    fn rmw_has_no_lost_update() {
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
    }

    /// Opposite lock order must be reported as a deadlock, not hang.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn finds_lock_order_deadlock() {
        super::model(|| {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = super::thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_gb, _ga));
            t.join().unwrap();
        });
    }

    /// Mutexes serialize: increment under a lock never loses updates.
    #[test]
    fn mutex_serializes() {
        super::model(|| {
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        let mut g = n.lock();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock(), 2);
        });
    }

    /// Primitives work outside `model` (std fallback).
    #[test]
    fn fallback_outside_model() {
        let n = AtomicU64::new(1);
        assert_eq!(n.fetch_add(1, Ordering::SeqCst), 1);
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        let t = super::thread::spawn(|| 7u32);
        assert_eq!(t.join().unwrap(), 7);
    }
}
