//! Offline minimal [loom](https://github.com/tokio-rs/loom)-style concurrency
//! model checker, following this workspace's offline-shims pattern (no
//! network, no external crates).
//!
//! [`model()`] runs a closure repeatedly under every thread interleaving a
//! bounded-preemption DFS scheduler can produce, with shimmed atomics that
//! model C11 weak memory: per-location modification order plus vector
//! happens-before clocks, so a `Relaxed` load can observe stale values the
//! way real hardware permits. Missing `Release`/`Acquire` edges therefore
//! show up as assertion failures in model tests instead of one-in-a-million
//! production races. See [`rt`](self) module docs in `rt.rs` for the memory
//! model and its documented sound simplifications.
//!
//! Outside a [`model()`] execution every shimmed type transparently delegates
//! to its `std` counterpart, so a crate compiled against this shim (e.g. the
//! runtime under `--cfg coup_model`) still runs its ordinary test suite
//! correctly.
//!
//! # Example
//!
//! ```
//! use loom::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! loom::model(|| {
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let thief = Arc::clone(&flag);
//!     let handle = loom::thread::spawn(move || {
//!         thief.store(1, Ordering::Release);
//!     });
//!     let seen = flag.load(Ordering::Acquire);
//!     assert!(seen == 0 || seen == 1);
//!     handle.join().unwrap();
//!     assert_eq!(flag.load(Ordering::Acquire), 1);
//! });
//! ```

mod rt;

pub use model::model;

/// Model entry points and exploration configuration.
pub mod model {
    use crate::rt;
    use std::sync::Arc;

    /// Configures an exhaustive model-checking run.
    #[derive(Debug, Clone)]
    pub struct Builder {
        /// Maximum number of preemptive context switches per execution
        /// (switches at blocking points are free). Defaults to `2`, or the
        /// `COUP_MODEL_PREEMPTIONS` environment variable.
        pub preemption_bound: usize,
        /// Hard cap on explored executions; exceeding it panics (treat as a
        /// state-space explosion, not a pass). Defaults to `1_000_000`, or
        /// `COUP_MODEL_MAX_ITERS`.
        pub max_iterations: u64,
        /// Per-execution step cap for livelock detection.
        pub max_steps: u64,
    }

    fn env_usize(name: &str, default: usize) -> usize {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    impl Default for Builder {
        fn default() -> Self {
            Builder {
                preemption_bound: env_usize("COUP_MODEL_PREEMPTIONS", 2),
                max_iterations: env_usize("COUP_MODEL_MAX_ITERS", 1_000_000) as u64,
                max_steps: 100_000,
            }
        }
    }

    impl Builder {
        /// Exhaustively explore `f` under every schedule the preemption
        /// bound admits. Panics on the first failing execution (assertion
        /// failure, deadlock, or livelock), reporting how many executions
        /// had run.
        pub fn check<F>(&self, f: F)
        where
            F: Fn() + Send + Sync + 'static,
        {
            let f = Arc::new(f);
            let mut schedule = rt::Schedule::default();
            let mut executions: u64 = 0;
            loop {
                executions += 1;
                if executions > self.max_iterations {
                    panic!(
                        "model exceeded {} executions without exhausting the schedule tree; \
                         raise COUP_MODEL_MAX_ITERS or shrink the test",
                        self.max_iterations
                    );
                }
                let exec = Arc::new(rt::Exec::new(
                    schedule,
                    self.preemption_bound,
                    self.max_steps,
                ));
                let root_exec = exec.clone();
                let root_f = f.clone();
                let root = std::thread::spawn(move || {
                    rt::controlled_thread(root_exec, 0, move || root_f());
                });
                exec.wait_all_finished();
                let _ = root.join();
                for handle in exec.take_handles() {
                    let _ = handle.join();
                }
                let (failure, returned) = exec.take_results();
                schedule = returned;
                if let Some(message) = failure {
                    panic!("model checking failed on execution {executions}: {message}");
                }
                if !schedule.advance() {
                    break;
                }
            }
        }
    }

    /// Model-check `f` with the default [`Builder`].
    pub fn model<F>(f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        Builder::default().check(f)
    }
}

/// Shimmed `std::sync` subset: atomics, `Mutex`, `Condvar`.
pub mod sync {
    /// Shimmed `std::sync::atomic` subset.
    pub mod atomic {
        use crate::rt;
        pub use std::sync::atomic::Ordering;

        /// An atomic fence participating in the model's clock propagation
        /// (C11 fence semantics); delegates to `std` outside a model run.
        pub fn fence(order: Ordering) {
            if rt::with_ctx(|exec, tid| exec.fence(tid, order)).is_none() {
                std::sync::atomic::fence(order);
            }
        }

        macro_rules! shim_atomic {
            ($name:ident, $real:ident, $prim:ty) => {
                /// Model-checked atomic integer. Holds a real `std` atomic
                /// that provides the initial value and the fallback path
                /// outside model executions.
                #[derive(Debug, Default)]
                pub struct $name {
                    real: std::sync::atomic::$real,
                }

                impl $name {
                    /// Creates a new atomic with the given initial value.
                    pub const fn new(value: $prim) -> Self {
                        $name {
                            real: std::sync::atomic::$real::new(value),
                        }
                    }

                    fn addr(&self) -> usize {
                        &self.real as *const _ as usize
                    }

                    fn initial(&self) -> u64 {
                        self.real.load(Ordering::Relaxed) as u64
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $prim {
                        rt::with_ctx(|exec, tid| {
                            exec.atomic_load(tid, self.addr(), self.initial(), order) as $prim
                        })
                        .unwrap_or_else(|| self.real.load(order))
                    }

                    /// Atomic store.
                    pub fn store(&self, value: $prim, order: Ordering) {
                        if rt::with_ctx(|exec, tid| {
                            exec.atomic_store(tid, self.addr(), self.initial(), value as u64, order)
                        })
                        .is_none()
                        {
                            self.real.store(value, order)
                        }
                    }

                    /// Atomic swap, returning the previous value.
                    pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(order, |_| value, |real| real.swap(value, order))
                    }

                    /// Atomic compare-and-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        rt::with_ctx(|exec, tid| {
                            exec.atomic_cas(
                                tid,
                                self.addr(),
                                self.initial(),
                                current as u64,
                                new as u64,
                                success,
                                failure,
                            )
                            .map(|v| v as $prim)
                            .map_err(|v| v as $prim)
                        })
                        .unwrap_or_else(|| {
                            self.real.compare_exchange(current, new, success, failure)
                        })
                    }

                    /// Atomic compare-and-exchange; in the model this never
                    /// fails spuriously (a sound strengthening).
                    pub fn compare_exchange_weak(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    fn rmw(
                        &self,
                        order: Ordering,
                        mut apply: impl FnMut($prim) -> $prim,
                        fallback: impl FnOnce(&std::sync::atomic::$real) -> $prim,
                    ) -> $prim {
                        rt::with_ctx(|exec, tid| {
                            exec.atomic_rmw(tid, self.addr(), self.initial(), order, &mut |old| {
                                apply(old as $prim) as u64
                            }) as $prim
                        })
                        .unwrap_or_else(|| fallback(&self.real))
                    }

                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(
                            order,
                            |old| old.wrapping_add(value),
                            |real| real.fetch_add(value, order),
                        )
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(
                            order,
                            |old| old.wrapping_sub(value),
                            |real| real.fetch_sub(value, order),
                        )
                    }

                    /// Atomic bitwise AND, returning the previous value.
                    pub fn fetch_and(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(
                            order,
                            |old| old & value,
                            |real| real.fetch_and(value, order),
                        )
                    }

                    /// Atomic bitwise OR, returning the previous value.
                    pub fn fetch_or(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(order, |old| old | value, |real| real.fetch_or(value, order))
                    }

                    /// Atomic bitwise XOR, returning the previous value.
                    pub fn fetch_xor(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(
                            order,
                            |old| old ^ value,
                            |real| real.fetch_xor(value, order),
                        )
                    }

                    /// Atomic minimum, returning the previous value.
                    pub fn fetch_min(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(
                            order,
                            |old| old.min(value),
                            |real| real.fetch_min(value, order),
                        )
                    }

                    /// Atomic maximum, returning the previous value.
                    pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                        self.rmw(
                            order,
                            |old| old.max(value),
                            |real| real.fetch_max(value, order),
                        )
                    }
                }
            };
        }

        shim_atomic!(AtomicU64, AtomicU64, u64);
        shim_atomic!(AtomicU32, AtomicU32, u32);
        shim_atomic!(AtomicUsize, AtomicUsize, usize);

        /// Model-checked atomic boolean (values stored as 0/1 in the model).
        #[derive(Debug, Default)]
        pub struct AtomicBool {
            real: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates a new atomic boolean.
            pub const fn new(value: bool) -> Self {
                AtomicBool {
                    real: std::sync::atomic::AtomicBool::new(value),
                }
            }

            fn addr(&self) -> usize {
                &self.real as *const _ as usize
            }

            fn initial(&self) -> u64 {
                self.real.load(Ordering::Relaxed) as u64
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> bool {
                rt::with_ctx(|exec, tid| {
                    exec.atomic_load(tid, self.addr(), self.initial(), order) != 0
                })
                .unwrap_or_else(|| self.real.load(order))
            }

            /// Atomic store.
            pub fn store(&self, value: bool, order: Ordering) {
                if rt::with_ctx(|exec, tid| {
                    exec.atomic_store(tid, self.addr(), self.initial(), value as u64, order)
                })
                .is_none()
                {
                    self.real.store(value, order)
                }
            }

            /// Atomic swap, returning the previous value.
            pub fn swap(&self, value: bool, order: Ordering) -> bool {
                rt::with_ctx(|exec, tid| {
                    exec.atomic_rmw(tid, self.addr(), self.initial(), order, &mut |_| {
                        value as u64
                    }) != 0
                })
                .unwrap_or_else(|| self.real.swap(value, order))
            }
        }
    }

    use crate::rt;
    use std::sync::{LockResult, PoisonError};

    /// Model-aware mutex. During a model execution the lock protocol (block,
    /// wake, happens-before transfer) runs in the model scheduler; the inner
    /// `std` mutex is then uncontended by construction. Outside a model it is
    /// exactly a `std::sync::Mutex`.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    /// Guard for [`Mutex`]; releases the model-side lock on drop.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        std: Option<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        fn addr(&self) -> usize {
            &self.inner as *const _ as usize
        }

        /// Acquires the mutex, blocking the (model or OS) thread.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if rt::with_ctx(|exec, tid| exec.mutex_lock(tid, self.addr())).is_some() {
                let std = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    std: Some(std),
                    lock: self,
                })
            } else {
                match self.inner.lock() {
                    Ok(std) => Ok(MutexGuard {
                        std: Some(std),
                        lock: self,
                    }),
                    Err(poisoned) => Err(PoisonError::new(MutexGuard {
                        std: Some(poisoned.into_inner()),
                        lock: self,
                    })),
                }
            }
        }
    }

    impl<'a, T> std::ops::Deref for MutexGuard<'a, T> {
        type Target = T;

        fn deref(&self) -> &T {
            self.std.as_ref().expect("guard still held")
        }
    }

    impl<'a, T> std::ops::DerefMut for MutexGuard<'a, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.std.as_mut().expect("guard still held")
        }
    }

    impl<'a, T> Drop for MutexGuard<'a, T> {
        fn drop(&mut self) {
            if let Some(std) = self.std.take() {
                drop(std);
                rt::with_ctx(|exec, tid| exec.mutex_unlock(tid, self.lock.addr()));
            }
        }
    }

    /// Model-aware condition variable. In the model, waits and notifies run
    /// through the scheduler (FIFO wakeups, no spurious wakes — a sound
    /// subset); a missed wakeup therefore surfaces as a reported deadlock.
    #[derive(Debug, Default)]
    pub struct Condvar {
        std: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub const fn new() -> Self {
            Condvar {
                std: std::sync::Condvar::new(),
            }
        }

        fn addr(&self) -> usize {
            &self.std as *const _ as usize
        }

        /// Releases the guard's mutex and blocks until notified.
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let lock = guard.lock;
            let std = guard.std.take().expect("guard still held");
            match rt::with_ctx(|exec, tid| (exec.clone(), tid)) {
                Some((exec, tid)) => {
                    // Model path: the std lock is uncontended scaffolding;
                    // release it, run the model wait protocol (unlock,
                    // block, notify, re-lock), then re-take the std lock.
                    drop(std);
                    exec.condvar_wait(tid, self.addr(), lock.addr());
                    let std = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    Ok(MutexGuard {
                        std: Some(std),
                        lock,
                    })
                }
                None => match self.std.wait(std) {
                    Ok(std) => Ok(MutexGuard {
                        std: Some(std),
                        lock,
                    }),
                    Err(poisoned) => Err(PoisonError::new(MutexGuard {
                        std: Some(poisoned.into_inner()),
                        lock,
                    })),
                },
            }
        }

        /// Wakes one model/OS waiter.
        pub fn notify_one(&self) {
            if rt::with_ctx(|exec, tid| exec.condvar_notify(tid, self.addr(), false)).is_none() {
                self.std.notify_one();
            }
        }

        /// Wakes every model/OS waiter.
        pub fn notify_all(&self) {
            if rt::with_ctx(|exec, tid| exec.condvar_notify(tid, self.addr(), true)).is_none() {
                self.std.notify_all();
            }
        }
    }
}

/// Shimmed `std::thread` subset.
pub mod thread {
    use crate::rt;
    use std::sync::{Arc, Mutex, PoisonError};

    /// Cooperatively yield; in the model this rotates the scheduler to the
    /// next runnable thread (spin loops must call this or
    /// [`crate::hint::spin_loop`] to make progress under the model).
    pub fn yield_now() {
        if rt::with_ctx(|exec, tid| exec.yield_point(tid)).is_none() {
            std::thread::yield_now();
        }
    }

    enum HandleImpl<T> {
        Model {
            exec: Arc<rt::Exec>,
            tid: usize,
            slot: Arc<Mutex<Option<T>>>,
        },
        Std(std::thread::JoinHandle<T>),
    }

    /// Join handle for a model-controlled or real thread.
    pub struct JoinHandle<T> {
        imp: HandleImpl<T>,
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("JoinHandle(..)")
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result.
        pub fn join(self) -> std::thread::Result<T> {
            match self.imp {
                HandleImpl::Model { exec, tid, slot } => {
                    let caller = rt::with_ctx(|_, me| me)
                        .expect("model JoinHandle joined outside its model execution");
                    exec.join_thread(caller, tid);
                    let value = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                    match value {
                        Some(value) => Ok(value),
                        // The child panicked; the execution already failed
                        // and this thread unwinds at its next model op.
                        None => Err(Box::new("model thread panicked".to_string())),
                    }
                }
                HandleImpl::Std(handle) => handle.join(),
            }
        }
    }

    fn spawn_model<T, F>(exec: &Arc<rt::Exec>, parent: usize, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let tid = exec.register_thread(parent);
        let slot = Arc::new(Mutex::new(None));
        let child_slot = slot.clone();
        let child_exec = exec.clone();
        let os = std::thread::spawn(move || {
            let slot = child_slot.clone();
            rt::controlled_thread(child_exec, tid, move || {
                let value = f();
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        });
        exec.add_handle(os);
        exec.spawn_point(parent);
        JoinHandle {
            imp: HandleImpl::Model {
                exec: exec.clone(),
                tid,
                slot,
            },
        }
    }

    /// Spawn a thread; under the model it becomes a scheduler-controlled
    /// thread participating in the interleaving search.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match rt::with_ctx(|exec, tid| (exec.clone(), tid)) {
            Some((exec, parent)) => spawn_model(&exec, parent, f),
            None => JoinHandle {
                imp: HandleImpl::Std(std::thread::spawn(f)),
            },
        }
    }

    /// Mirror of `std::thread::Builder` (the name is ignored in the model).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a new thread builder.
        pub fn new() -> Self {
            Builder::default()
        }

        /// Names the thread (fallback mode only; the model ignores names).
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawns the thread, mirroring `std::thread::Builder::spawn`.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            match rt::with_ctx(|exec, tid| (exec.clone(), tid)) {
                Some((exec, parent)) => Ok(spawn_model(&exec, parent, f)),
                None => {
                    let mut builder = std::thread::Builder::new();
                    if let Some(name) = self.name {
                        builder = builder.name(name);
                    }
                    builder.spawn(f).map(|handle| JoinHandle {
                        imp: HandleImpl::Std(handle),
                    })
                }
            }
        }
    }
}

/// Shimmed `std::hint` subset.
pub mod hint {
    use crate::rt;

    /// Spin-loop hint; in the model this is a scheduler rotation point (see
    /// [`crate::thread::yield_now`]).
    pub fn spin_loop() {
        if rt::with_ctx(|exec, tid| exec.yield_point(tid)).is_none() {
            std::hint::spin_loop();
        }
    }
}
