//! Shimmed `sync` primitives: atomics, `Arc`, and a parking_lot-style
//! `Mutex`.
//!
//! In a normal build everything here is a plain re-export — code that
//! imports from `calliope_check::sync` compiles to exactly what it
//! would with `std`/`parking_lot`. Under `--cfg calliope_check` the
//! types carry a `model` registration next to the real
//! primitive: inside a model run every operation routes through the
//! scheduler; outside one (ordinary tests built with the cfg, or drops
//! running while a panic unwinds) they fall through to the real
//! primitive.

#[cfg(not(calliope_check))]
pub use parking_lot::{Mutex, MutexGuard};
#[cfg(not(calliope_check))]
pub use std::sync::Arc;

#[cfg(not(calliope_check))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(calliope_check)]
pub use checked::{Arc, Mutex, MutexGuard};

#[cfg(calliope_check)]
pub mod atomic {
    pub use super::checked::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

#[cfg(calliope_check)]
mod checked {
    use crate::model::{cur_ctx, Ctx, Registration};
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::Ordering;

    /// The model context, unless none is active or the thread is
    /// unwinding — drops that run during a model teardown must not
    /// re-enter the scheduler.
    fn model_ctx() -> Option<Ctx> {
        if std::thread::panicking() {
            return None;
        }
        cur_ctx()
    }

    macro_rules! shim_atomic {
        ($name:ident, $real:ty, $prim:ty, $to:expr, $from:expr) => {
            /// Instrumented drop-in for the std atomic of the same name.
            pub struct $name {
                real: $real,
                reg: Registration,
            }

            impl $name {
                /// Creates the atomic (const, like std's).
                pub const fn new(v: $prim) -> Self {
                    Self {
                        real: <$real>::new(v),
                        reg: Registration::new(),
                    }
                }

                fn init(&self) -> u64 {
                    // relaxed: seeding a model location from the value
                    // the object was constructed with; the model
                    // serializes every subsequent access.
                    $to(self.real.load(Ordering::Relaxed))
                }

                /// See the std atomic's `load`.
                pub fn load(&self, ord: Ordering) -> $prim {
                    match model_ctx() {
                        Some(ctx) => {
                            $from(ctx.run.atomic_load(ctx.tid, &self.reg, self.init(), ord))
                        }
                        None => self.real.load(ord),
                    }
                }

                /// See the std atomic's `store`.
                pub fn store(&self, v: $prim, ord: Ordering) {
                    match model_ctx() {
                        Some(ctx) => ctx.run.atomic_store(
                            ctx.tid,
                            &self.reg,
                            self.init(),
                            $to(v),
                            ord,
                            |n| self.real.store($from(n), Ordering::SeqCst),
                        ),
                        None => self.real.store(v, ord),
                    }
                }

                /// See the std atomic's `swap`.
                pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                    self.rmw(ord, |_| $to(v), |r| r.swap(v, ord))
                }

                fn rmw(
                    &self,
                    ord: Ordering,
                    f: impl FnOnce(u64) -> u64,
                    real: impl FnOnce(&$real) -> $prim,
                ) -> $prim {
                    match model_ctx() {
                        Some(ctx) => $from(ctx.run.atomic_rmw(
                            ctx.tid,
                            &self.reg,
                            self.init(),
                            ord,
                            f,
                            |n| self.real.store($from(n), Ordering::SeqCst),
                        )),
                        None => real(&self.real),
                    }
                }

                /// Exclusive access to the value (like std's `get_mut`).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.real.get_mut()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    // relaxed: Debug peeks at the mirror value; it is
                    // not part of any synchronization protocol.
                    fmt::Debug::fmt(&self.real.load(Ordering::Relaxed), f)
                }
            }
        };
    }

    shim_atomic!(
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        (|v: u64| v),
        (|v: u64| v)
    );
    shim_atomic!(
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        (|v: usize| v as u64),
        (|v: u64| v as usize)
    );
    shim_atomic!(
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool,
        (|v: bool| v as u64),
        (|v: u64| v != 0)
    );

    macro_rules! shim_fetch {
        ($name:ident, $prim:ty, $($method:ident => $apply:expr),+ $(,)?) => {
            impl $name {
                $(
                    /// See the std atomic's method of the same name.
                    pub fn $method(&self, v: $prim, ord: Ordering) -> $prim {
                        #[allow(clippy::redundant_closure_call)]
                        self.rmw(
                            ord,
                            |old| {
                                let apply: fn($prim, $prim) -> $prim = $apply;
                                let conv_to = |x: $prim| x as u64;
                                conv_to(apply(old as $prim, v))
                            },
                            |r| r.$method(v, ord),
                        )
                    }
                )+
            }
        };
    }

    shim_fetch!(AtomicU64, u64,
        fetch_add => |a, b| a.wrapping_add(b),
        fetch_sub => |a, b| a.wrapping_sub(b),
        fetch_max => |a, b| a.max(b),
        fetch_min => |a, b| a.min(b),
    );
    shim_fetch!(AtomicUsize, usize,
        fetch_add => |a, b| a.wrapping_add(b),
        fetch_sub => |a, b| a.wrapping_sub(b),
        fetch_max => |a, b| a.max(b),
        fetch_min => |a, b| a.min(b),
    );

    struct ArcInner<T> {
        strong: AtomicUsize,
        data: T,
    }

    /// Instrumented `Arc`: the strong count is a shimmed atomic, so
    /// clone/drop ordering is part of the explored interleavings and a
    /// refcount protocol bug shows up as a model failure instead of a
    /// silent double-free.
    pub struct Arc<T> {
        ptr: std::ptr::NonNull<ArcInner<T>>,
    }

    // SAFETY: same bounds as std's Arc — the refcount serializes the
    // final drop, and shared access to T requires T: Sync.
    unsafe impl<T: Send + Sync> Send for Arc<T> {}
    // SAFETY: see above.
    unsafe impl<T: Send + Sync> Sync for Arc<T> {}

    impl<T> Arc<T> {
        /// Allocates a new refcounted value.
        pub fn new(data: T) -> Arc<T> {
            let inner = Box::new(ArcInner {
                strong: AtomicUsize::new(1),
                data,
            });
            Arc {
                ptr: std::ptr::NonNull::from(Box::leak(inner)),
            }
        }

        fn inner(&self) -> &ArcInner<T> {
            // SAFETY: the allocation lives until the strong count hits
            // zero, and holding &self proves the count is nonzero.
            unsafe { self.ptr.as_ref() }
        }
    }

    impl<T> Clone for Arc<T> {
        fn clone(&self) -> Arc<T> {
            // relaxed: matching std::sync::Arc — a clone only needs to
            // see a nonzero count, which holding &self guarantees; the
            // release/acquire pair lives in Drop.
            self.inner().strong.fetch_add(1, Ordering::Relaxed);
            Arc { ptr: self.ptr }
        }
    }

    impl<T> Deref for Arc<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner().data
        }
    }

    impl<T> Drop for Arc<T> {
        fn drop(&mut self) {
            if self.inner().strong.fetch_sub(1, Ordering::Release) != 1 {
                return;
            }
            // The acquire load pairs with every other clone's release
            // decrement, ordering their last use of the data before
            // the free (std's Arc uses an acquire fence here).
            self.inner().strong.load(Ordering::Acquire);
            // SAFETY: the count just went 1 -> 0, so this is the only
            // remaining handle and nobody can observe the allocation
            // again.
            unsafe { drop(Box::from_raw(self.ptr.as_ptr())) }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Arc<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&**self, f)
        }
    }

    /// Instrumented parking_lot-style mutex (no poisoning, guard from
    /// plain `lock()`). Inside a model run, blocking is model-level:
    /// the scheduler parks the thread and explores who runs instead.
    pub struct Mutex<T> {
        reg: Registration,
        /// Real exclusion for passthrough use outside a model run.
        real: std::sync::Mutex<()>,
        data: std::cell::UnsafeCell<T>,
    }

    // SAFETY: the mutex hands out &mut T only under exclusion (model
    // scheduler inside a run, the real mutex outside).
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: see above.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    impl<T> Mutex<T> {
        /// Creates the mutex (const, like parking_lot's).
        pub const fn new(v: T) -> Mutex<T> {
            Mutex {
                reg: Registration::new(),
                real: std::sync::Mutex::new(()),
                data: std::cell::UnsafeCell::new(v),
            }
        }

        /// Acquires the lock, blocking (in model time inside a run)
        /// until available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match model_ctx() {
                Some(ctx) => {
                    ctx.run.mutex_lock(ctx.tid, &self.reg);
                    MutexGuard {
                        m: self,
                        real: None,
                        ctx: Some(ctx),
                    }
                }
                None => {
                    let g = self.real.lock().unwrap_or_else(|e| e.into_inner());
                    MutexGuard {
                        m: self,
                        real: Some(g),
                        ctx: None,
                    }
                }
            }
        }

        /// Mutable access without locking (requires `&mut self`).
        pub fn get_mut(&mut self) -> &mut T {
            self.data.get_mut()
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.data.into_inner()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    impl<T> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Mutex(..)")
        }
    }

    /// RAII guard for [`Mutex`].
    pub struct MutexGuard<'a, T> {
        m: &'a Mutex<T>,
        real: Option<std::sync::MutexGuard<'a, ()>>,
        ctx: Option<Ctx>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: the guard proves exclusion (model or real).
            unsafe { &*self.m.data.get() }
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: the guard proves exclusion (model or real).
            unsafe { &mut *self.m.data.get() }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            let _ = &self.real; // released by its own drop
            if let Some(ctx) = self.ctx.take() {
                if !std::thread::panicking() {
                    ctx.run.mutex_unlock(ctx.tid, &self.m.reg);
                }
                // While unwinding: the run is being torn down, so the
                // model-level lock state no longer matters.
            }
        }
    }
}
