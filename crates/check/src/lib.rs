//! Shimmed concurrency primitives plus a deterministic "loom-lite"
//! model checker for the MSU's lock-free core.
//!
//! The paper's MSU relies on "the atomicity of memory read and write
//! instructions to produce atomic enqueue and dequeue operations"
//! (§2.3). That lock-free surface — the SPSC page ring, the refcounted
//! page pool, the atomic metrics — is guarded here by machine checking
//! rather than code review alone.
//!
//! # How it works
//!
//! Production code imports its concurrency primitives from this crate
//! instead of `std`/`parking_lot`:
//!
//! - [`sync::atomic::AtomicUsize`], [`sync::atomic::AtomicU64`],
//!   [`sync::atomic::AtomicBool`]
//! - [`sync::Arc`], [`sync::Mutex`]
//! - [`cell::UnsafeCell`]
//! - [`thread::spawn`]
//!
//! In a normal build these are zero-cost re-exports (or `#[repr(transparent)]`
//! wrappers) of the real types — there is no runtime difference.
//!
//! Under `RUSTFLAGS="--cfg calliope_check"` they become instrumented
//! versions that route every operation through `model`'s scheduler. A
//! test wraps its concurrent scenario in `model::model` (or a
//! configured `model::Checker`); the scheduler then re-runs the
//! scenario under every reachable thread interleaving (depth-first over
//! scheduling decisions), additionally exploring *weak-memory* effects:
//! an `Acquire`/`Relaxed` load may observe any store in the location's
//! history that the C11 coherence and release/acquire rules permit
//! (`SeqCst` is totalized — a `SeqCst` load observes the latest store).
//! Equivalent interleavings are pruned by hashing Foata normal forms of
//! the execution trace (state hashing), and a failing execution prints
//! its decision trace, replayable via `CALLIOPE_CHECK_REPLAY`.
//!
//! Outside a model run (for example when ordinary unit tests execute
//! with the cfg enabled), the instrumented types transparently fall
//! back to the real primitives, so the whole workspace can be built and
//! tested under the cfg.

pub mod cell;
pub mod sync;
pub mod thread;

#[cfg(calliope_check)]
pub mod model;

#[cfg(calliope_check)]
pub use model::{model, Checker, Report};
