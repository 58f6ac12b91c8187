//! The virtual-thread runtime.

use crate::clock::SimTime;
use crate::config::{SchedConfig, SchedMode, PRIORITY_BASE_MAX, PRIORITY_BASE_MIN};
use crate::deadlock::{BlockedThread, DeadlockInfo};
use crate::handle::{EndOnDrop, JobCell, JoinHandle};
use crate::policy::{highest_priority, SchedPolicy};
use crate::pool::{Release, POOL};
use crate::state::{BlockReason, Inner, ThreadSlot, ThreadStatus};
use crate::vtid::Vtid;
use crate::{SchedError, SchedResult};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

#[derive(Clone)]
struct Ctx {
    rt: Runtime,
    vtid: Vtid,
    clock: Arc<AtomicU64>,
}

/// The virtual thread the calling OS thread is executing, if any.
pub fn current_vtid() -> Option<Vtid> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.vtid))
}

/// The runtime owning the calling virtual thread, if any.
pub fn current_runtime() -> Option<Runtime> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.rt.clone()))
}

struct RtShared {
    config: SchedConfig,
    mu: Mutex<Inner>,
    /// RNG for the random policy. Only ever locked while `mu` is held.
    rng: Mutex<ChaCha8Rng>,
    /// [`SchedPolicy::Priority`] only: the sorted, distinct steps (1-based)
    /// that are PCT priority-change points. Drawn from the seed at
    /// [`Runtime::new`], so `(seed, depth)` fully names the schedule.
    change_points: Vec<u64>,
    /// Signalled on every thread finish (drives `run` and driver-side joins).
    driver_cv: Condvar,
    /// Global maximum over all per-thread virtual clocks, ever.
    makespan: AtomicU64,
    /// Fast-path flag mirroring `Inner::poison.is_some()`.
    poisoned: AtomicBool,
    /// Set by `run()`; allows kicks from driver-side unblocks.
    started: AtomicBool,
}

/// A handle to the scheduler. Cheap to clone (`Arc` inside).
///
/// See the crate-level docs for the execution model. All methods are safe to
/// call from any thread; methods documented as requiring a *virtual thread*
/// panic when called from an unmanaged thread.
#[derive(Clone)]
pub struct Runtime {
    shared: Arc<RtShared>,
}

/// A reference to a runtime that does not keep it alive; see
/// [`Runtime::downgrade`].
#[derive(Clone)]
pub struct WeakRuntime {
    shared: Weak<RtShared>,
}

impl WeakRuntime {
    /// The runtime, if any [`Runtime`] handle to it is still alive.
    pub fn upgrade(&self) -> Option<Runtime> {
        self.shared.upgrade().map(|shared| Runtime { shared })
    }
}

impl Runtime {
    /// A reference to this runtime that does not keep it alive. Once every
    /// handle is dropped and every spawned thread joined from the driver,
    /// [`WeakRuntime::upgrade`] returns `None`.
    pub fn downgrade(&self) -> WeakRuntime {
        WeakRuntime {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Create a runtime with the given configuration.
    pub fn new(config: SchedConfig) -> Runtime {
        let seed = config.seed;
        // Priority policy: draw the d change points up front from a stream
        // derived from (but independent of) the decision RNG, so the same
        // (seed, depth) always names the same schedule.
        let mut change_points = Vec::new();
        if let SchedPolicy::Priority { depth } = config.policy {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            let horizon = config.pct_horizon.max(1);
            change_points = (0..depth).map(|_| rng.gen_range(0..horizon) + 1).collect();
            change_points.sort_unstable();
            change_points.dedup();
        }
        Runtime {
            shared: Arc::new(RtShared {
                config,
                mu: Mutex::new(Inner::default()),
                rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
                change_points,
                driver_cv: Condvar::new(),
                makespan: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                started: AtomicBool::new(false),
            }),
        }
    }

    /// The configuration this runtime was created with.
    pub fn config(&self) -> &SchedConfig {
        &self.shared.config
    }

    fn deterministic(&self) -> bool {
        self.shared.config.mode == SchedMode::Deterministic
    }

    /// Spawn a virtual thread. In deterministic mode it does not start
    /// running until [`Runtime::run`] (or a scheduling decision) grants it.
    ///
    /// The thread runs on a worker of the process-wide pool. If no worker
    /// is idle and the OS refuses a new thread, the run is poisoned with
    /// [`SchedError::SpawnFailed`] and the thread never runs; its handle's
    /// `join` returns that error.
    pub fn spawn<T, F>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let name = name.into();
        let cell = Arc::new(JobCell::new());
        let mut inner = self.shared.mu.lock();
        let vtid = Vtid::from_index(inner.slots.len());
        let mut slot = ThreadSlot::new(name.clone());
        // Priority policy: a pinned thread takes its pin verbatim;
        // everything else draws from the base range. Spawn order is
        // deterministic in deterministic mode, so the draw sequence —
        // and thus the whole priority assignment — is a function of
        // the seed.
        if let SchedPolicy::Priority { .. } = self.shared.config.policy {
            slot.priority = match self
                .shared
                .config
                .priority_pins
                .iter()
                .find(|(pin, _)| *pin == name)
            {
                Some((_, p)) => *p,
                None => {
                    let mut rng = self.shared.rng.lock();
                    rng.gen_range(PRIORITY_BASE_MIN..PRIORITY_BASE_MAX + 1)
                }
            };
        }

        let ctx = Ctx {
            rt: self.clone(),
            vtid,
            clock: Arc::clone(&slot.clock),
        };
        let end = EndOnDrop(Arc::clone(&cell));
        let deterministic = self.deterministic();
        let gate = Arc::clone(&slot.gate);
        // The job cannot touch `inner` before this lock is released, so
        // the slot is pushed only once a worker has taken the job.
        let job = move |release: &Release| {
            let rt = ctx.rt.clone();
            CURRENT.with(|c| *c.borrow_mut() = Some(ctx));
            let result = catch_unwind(AssertUnwindSafe(|| {
                // A poisoned run lets the body start ungated; its first
                // scheduler call returns the error.
                if deterministic {
                    let _ = rt.wait_for_grant(&gate);
                }
                f()
            }));
            end.0.put(result);
            // Back on the idle stack before the next thread is granted, so
            // that thread's spawns can reuse this worker.
            release.now();
            rt.finish_current(vtid);
            CURRENT.with(|c| c.borrow_mut().take());
            drop(rt);
            drop(end);
        };
        match POOL.execute(job) {
            Ok(worker) => {
                slot.worker = Some(worker);
                let status = if deterministic {
                    ThreadStatus::Runnable
                } else {
                    ThreadStatus::Running
                };
                inner.push(slot, status);
            }
            Err(e) => {
                // Never runnable, never live: the scheduler cannot grant
                // a thread that does not exist.
                inner.push(slot, ThreadStatus::Finished);
                let err = SchedError::SpawnFailed {
                    name: name.clone(),
                    error: e.to_string(),
                };
                self.poison_all(&mut inner, err);
            }
        }
        drop(inner);
        JoinHandle::new(self.clone(), vtid, cell, name)
    }

    /// Start scheduling (deterministic mode) and wait until every virtual
    /// thread has finished. Returns the poison error if the run deadlocked
    /// or was aborted.
    pub fn run(&self) -> SchedResult<()> {
        self.shared.started.store(true, Ordering::SeqCst);
        if self.deterministic() {
            let mut inner = self.shared.mu.lock();
            self.kick(&mut inner);
            self.unlock(inner);
        }
        let mut inner = self.shared.mu.lock();
        while inner.live() > 0 {
            self.shared.driver_cv.wait(&mut inner);
        }
        match &inner.poison {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The poison error, if the run deadlocked or was shut down.
    pub fn error(&self) -> Option<SchedError> {
        self.shared.mu.lock().poison.clone()
    }

    /// Number of virtual threads that have not yet finished.
    pub fn live_threads(&self) -> usize {
        self.shared.mu.lock().live()
    }

    /// Total virtual threads ever spawned.
    pub fn total_threads(&self) -> usize {
        self.shared.mu.lock().slots.len()
    }

    /// Name given to `vtid` at spawn.
    pub fn thread_name(&self, vtid: Vtid) -> String {
        self.shared.mu.lock().slot(vtid).name.clone()
    }

    /// Scheduling decisions taken so far.
    pub fn steps(&self) -> u64 {
        self.shared.mu.lock().steps
    }

    // ---- scheduling primitives -------------------------------------------

    /// A voluntary yield point. In deterministic mode this is where the
    /// scheduler may switch to another virtual thread; in free mode it is a
    /// no-op (modulo poison checking). Must be called from a virtual thread.
    pub fn yield_now(&self) -> SchedResult<()> {
        if self.shared.poisoned.load(Ordering::Relaxed) {
            return Err(self.error().unwrap_or(SchedError::Shutdown));
        }
        if !self.deterministic() {
            return Ok(());
        }
        let me = current_vtid().expect("yield_now called outside a virtual thread");
        let mut inner = self.shared.mu.lock();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        inner.set_status(me, ThreadStatus::Runnable);
        let next = self
            .choose(&mut inner)
            .expect("the yielding thread is runnable");
        self.count_step(&mut inner)?;
        // A grant to `me` leaves its gate open, so the wait returns at once.
        self.grant(&mut inner, next);
        self.hand_off(inner, me)
    }

    /// Block the calling virtual thread until another thread calls
    /// [`Runtime::unblock`] on it. If an unblock was already delivered
    /// (wake token), returns immediately after a reschedule. Returns an
    /// error if the whole system deadlocks while this thread is blocked.
    pub fn block_current(&self, reason: BlockReason) -> SchedResult<()> {
        let me = current_vtid().expect("block_current called outside a virtual thread");
        let mut inner = self.shared.mu.lock();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        if inner.slot(me).wake_tokens > 0 {
            inner.slot_mut(me).wake_tokens -= 1;
            drop(inner);
            return self.yield_now();
        }
        inner.set_status(me, ThreadStatus::Blocked(reason));
        if self.deterministic() {
            self.schedule(&mut inner)?;
            return self.hand_off(inner, me);
        }
        // Free mode: park until an `unblock` credits a wake token.
        loop {
            if let Some(p) = &inner.poison {
                return Err(p.clone());
            }
            if inner.slot(me).wake_tokens > 0 {
                inner.slot_mut(me).wake_tokens -= 1;
                inner.set_status(me, ThreadStatus::Running);
                return Ok(());
            }
            drop(inner);
            std::thread::park();
            inner = self.shared.mu.lock();
        }
    }

    /// Make a blocked virtual thread runnable again (or credit it a wake
    /// token if it is not currently blocked). Safe to call from any thread.
    pub fn unblock(&self, vtid: Vtid) {
        let mut inner = self.shared.mu.lock();
        self.unblock_locked(&mut inner, vtid);
        // If nothing is running (e.g. unblock from the driver), kick.
        if self.deterministic() && self.shared.started.load(Ordering::SeqCst) {
            self.kick(&mut inner);
        }
        self.unlock(inner);
    }

    fn unblock_locked(&self, inner: &mut Inner, vtid: Vtid) {
        let deterministic = self.deterministic();
        match inner.slot(vtid).status() {
            ThreadStatus::Blocked(_) if deterministic => {
                inner.set_status(vtid, ThreadStatus::Runnable);
            }
            ThreadStatus::Finished => {}
            _ => {
                let slot = inner.slot_mut(vtid);
                slot.wake_tokens += 1;
                // Free mode grants nothing, so there is no handoff to
                // defer: the sleeper rechecks its tokens under the lock.
                if let Some(worker) = slot.worker.as_ref().filter(|_| !deterministic) {
                    worker.unpark();
                }
            }
        }
    }

    fn finish_current(&self, me: Vtid) {
        let mut inner = self.shared.mu.lock();
        inner.set_status(me, ThreadStatus::Finished);
        let waiters = std::mem::take(&mut inner.slot_mut(me).join_waiters);
        for w in waiters {
            self.unblock_locked(&mut inner, w);
        }
        self.shared.driver_cv.notify_all();
        if self.deterministic() && inner.live() > 0 && inner.poison.is_none() {
            let _ = self.schedule(&mut inner);
        }
        self.unlock(inner);
    }

    /// Cooperatively wait for `target` to finish. Used by [`JoinHandle`].
    pub(crate) fn join_wait(&self, target: Vtid) -> SchedResult<()> {
        if let Some(me) = current_vtid() {
            loop {
                let mut inner = self.shared.mu.lock();
                if inner.slot(target).status() == &ThreadStatus::Finished {
                    return Ok(());
                }
                if let Some(p) = &inner.poison {
                    return Err(p.clone());
                }
                let name = inner.slot(target).name.clone();
                inner.slot_mut(target).join_waiters.push(me);
                drop(inner);
                self.block_current(BlockReason::Join(name))?;
            }
        } else {
            let mut inner = self.shared.mu.lock();
            loop {
                if inner.slot(target).status() == &ThreadStatus::Finished {
                    return Ok(());
                }
                if inner.poison.is_some() && inner.live() == 0 {
                    return Err(inner.poison.clone().unwrap());
                }
                self.shared.driver_cv.wait(&mut inner);
            }
        }
    }

    pub(crate) fn is_finished(&self, target: Vtid) -> bool {
        self.shared.mu.lock().slot(target).status() == &ThreadStatus::Finished
    }

    // ---- internal scheduling helpers -------------------------------------

    fn choose(&self, inner: &mut Inner) -> Option<Vtid> {
        if inner.runnable().is_empty() {
            return None;
        }
        // PCT change point: when the step about to be taken was drawn at
        // construction, the thread that would win is demoted below every
        // other thread. The k-th demotion takes priority -k, so it also
        // ranks below all earlier ones. The step, and every later one until
        // the next change point, goes to the runner-up.
        if let Ok(k) = self.shared.change_points.binary_search(&(inner.steps + 1)) {
            let top = highest_priority(inner.runnable(), |v| inner.slot(v).priority);
            inner.slot_mut(top).priority = -(k as i64) - 1;
        }
        let inner: &Inner = inner;
        let mut rng = self.shared.rng.lock();
        Some(self.shared.config.policy.choose(
            inner.runnable(),
            |v| inner.slot(v).clock_now(),
            |v| inner.slot(v).priority,
            inner.last_granted,
            &mut rng,
        ))
    }

    /// Grant the next runnable thread, or declare a deadlock when no thread
    /// is runnable, none is running and some are blocked.
    fn schedule(&self, inner: &mut Inner) -> SchedResult<()> {
        match self.choose(inner) {
            Some(next) => {
                self.count_step(inner)?;
                self.grant(inner, next);
            }
            None if inner.running() == 0 && inner.blocked() > 0 => {
                self.declare_deadlock(inner);
                return Err(inner.poison.clone().expect("poison just set"));
            }
            None => {}
        }
        Ok(())
    }

    /// Give `next` the execution token and open its gate. Its worker is
    /// unparked by [`Runtime::unlock`], once the mutex is free.
    fn grant(&self, inner: &mut Inner, next: Vtid) {
        inner.last_granted = Some(next);
        inner.set_status(next, ThreadStatus::Running);
        debug_assert!(inner.running() <= 1, "two threads hold the token");
        let slot = inner.slot(next);
        // Pairs with the grantee's `Acquire` swap: it sees all its granter
        // wrote before the step.
        slot.gate.store(true, Ordering::Release);
        inner.wake = slot.worker.clone();
    }

    /// Release the mutex, then wake the worker a grant chose. Waking after
    /// unlocking keeps the grantee from blocking at once on the mutex its
    /// waker still holds.
    fn unlock(&self, mut inner: MutexGuard<'_, Inner>) {
        let wake = inner.wake.take();
        drop(inner);
        if let Some(worker) = wake {
            worker.unpark();
        }
    }

    fn kick(&self, inner: &mut Inner) {
        if inner.running() == 0 && inner.poison.is_none() {
            let _ = self.schedule(inner);
        }
    }

    fn count_step(&self, inner: &mut Inner) -> SchedResult<()> {
        inner.steps += 1;
        if let Some(max) = self.shared.config.max_steps {
            if inner.steps > max {
                self.poison_all(inner, SchedError::Shutdown);
                return Err(SchedError::Shutdown);
            }
        }
        Ok(())
    }

    /// Release the mutex (waking the grantee, if any) and wait for the
    /// calling thread `me`'s own next grant.
    fn hand_off(&self, inner: MutexGuard<'_, Inner>, me: Vtid) -> SchedResult<()> {
        let gate = Arc::clone(&inner.slot(me).gate);
        self.unlock(inner);
        self.wait_for_grant(&gate)
    }

    /// Park until a grant opens `gate` or the run is poisoned. Called only
    /// by the thread `gate` belongs to, on the worker grants unpark; an
    /// unpark meant for an earlier thread of the same worker just loops.
    fn wait_for_grant(&self, gate: &AtomicBool) -> SchedResult<()> {
        loop {
            if self.shared.poisoned.load(Ordering::Acquire) {
                return Err(self.error().unwrap_or(SchedError::Shutdown));
            }
            if gate.swap(false, Ordering::Acquire) {
                return Ok(());
            }
            std::thread::park();
        }
    }

    fn declare_deadlock(&self, inner: &mut Inner) {
        let blocked = (inner.slots.iter().enumerate())
            .filter_map(|(i, slot)| match slot.status() {
                ThreadStatus::Blocked(reason) => Some(BlockedThread {
                    vtid: Vtid::from_index(i),
                    name: slot.name.clone(),
                    reason: reason.clone(),
                }),
                _ => None,
            })
            .collect();
        let info = DeadlockInfo {
            blocked,
            step: inner.steps,
        };
        self.poison_all(inner, SchedError::Deadlock(info));
    }

    /// Set the poison, ungate everything, and wake every parked thread so
    /// the whole system can unwind.
    fn poison_all(&self, inner: &mut Inner, err: SchedError) {
        if inner.poison.is_none() {
            inner.poison = Some(err);
        }
        self.shared.poisoned.store(true, Ordering::SeqCst);
        let live = (inner.slots.iter()).filter(|s| s.status() != &ThreadStatus::Finished);
        for worker in live.filter_map(|s| s.worker.as_ref()) {
            worker.unpark();
        }
        self.shared.driver_cv.notify_all();
    }

    /// Abort the run: every blocked or parked thread wakes with
    /// [`SchedError::Shutdown`]. Intended for harness-level timeouts.
    pub fn shutdown(&self) {
        let mut inner = self.shared.mu.lock();
        self.poison_all(&mut inner, SchedError::Shutdown);
    }

    // ---- virtual time ------------------------------------------------------

    /// Advance the calling virtual thread's clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.advance(SimTime::from_nanos(ns));
    }

    /// Advance the calling virtual thread's clock by `dt`.
    pub fn advance(&self, dt: SimTime) {
        CURRENT.with(|c| {
            let b = c.borrow();
            let ctx = b.as_ref().expect("advance called outside a virtual thread");
            let new = ctx.clock.fetch_add(dt.as_nanos(), Ordering::Relaxed) + dt.as_nanos();
            self.shared.makespan.fetch_max(new, Ordering::Relaxed);
        });
    }

    /// The calling virtual thread's clock.
    pub fn clock(&self) -> SimTime {
        CURRENT.with(|c| {
            let b = c.borrow();
            let ctx = b.as_ref().expect("clock called outside a virtual thread");
            SimTime::from_nanos(ctx.clock.load(Ordering::Relaxed))
        })
    }

    /// Raise the calling virtual thread's clock to at least `t` (message
    /// delivery: receiver time = max(receiver, sender + latency)).
    pub fn merge_clock(&self, t: SimTime) {
        CURRENT.with(|c| {
            let b = c.borrow();
            let ctx = b
                .as_ref()
                .expect("merge_clock called outside a virtual thread");
            ctx.clock.fetch_max(t.as_nanos(), Ordering::Relaxed);
            self.shared
                .makespan
                .fetch_max(t.as_nanos(), Ordering::Relaxed);
        });
    }

    /// `vtid`'s current clock.
    pub fn clock_of(&self, vtid: Vtid) -> SimTime {
        self.shared.mu.lock().slot(vtid).clock_now()
    }

    /// Maximum virtual clock observed across all threads, ever — the
    /// simulated makespan of the run.
    pub fn makespan(&self) -> SimTime {
        SimTime::from_nanos(self.shared.makespan.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.mu.lock();
        f.debug_struct("Runtime")
            .field("mode", &self.shared.config.mode)
            .field("threads", &inner.slots.len())
            .field("live", &inner.live())
            .field("steps", &inner.steps)
            .field("poison", &inner.poison)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedPolicy;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_runs_to_completion() {
        let rt = Runtime::new(SchedConfig::deterministic(1));
        let h = rt.spawn("solo", || 42);
        rt.run().unwrap();
        assert_eq!(h.join().unwrap(), 42);
        assert_eq!(rt.live_threads(), 0);
    }

    #[test]
    fn free_mode_runs_without_run_call_gating() {
        let rt = Runtime::new(SchedConfig::free());
        let h = rt.spawn("free", || "done");
        assert_eq!(h.join().unwrap(), "done");
    }

    #[test]
    fn deterministic_interleaving_is_reproducible() {
        let order_for_seed = |seed: u64| {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4 {
                let rt2 = rt.clone();
                let log2 = Arc::clone(&log);
                handles.push(rt.spawn(format!("t{i}"), move || {
                    for _ in 0..5 {
                        log2.lock().push(i);
                        rt2.yield_now().unwrap();
                    }
                }));
            }
            rt.run().unwrap();
            for h in handles {
                h.join().unwrap();
            }
            Arc::try_unwrap(log).unwrap().into_inner()
        };
        assert_eq!(order_for_seed(11), order_for_seed(11));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let order_for_seed = |seed: u64| {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..3 {
                let rt2 = rt.clone();
                let log2 = Arc::clone(&log);
                rt.spawn(format!("t{i}"), move || {
                    for _ in 0..8 {
                        log2.lock().push(i);
                        rt2.yield_now().unwrap();
                    }
                });
            }
            rt.run().unwrap();
            Arc::try_unwrap(log).unwrap().into_inner()
        };
        // Not guaranteed in principle, but over 24 scheduling points the
        // probability of identical random schedules is negligible.
        assert_ne!(order_for_seed(1), order_for_seed(2));
    }

    #[test]
    fn block_unblock_pingpong() {
        let rt = Runtime::new(SchedConfig::deterministic(3));
        let flag = Arc::new(AtomicBool::new(false));
        let rt_a = rt.clone();
        let flag_a = Arc::clone(&flag);
        let a = rt.spawn("blocker", move || {
            while !flag_a.load(Ordering::SeqCst) {
                rt_a.block_current(BlockReason::Other("wait flag".into()))
                    .unwrap();
            }
            true
        });
        let rt_b = rt.clone();
        let flag_b = Arc::clone(&flag);
        let target = a.vtid();
        rt.spawn("waker", move || {
            rt_b.yield_now().unwrap();
            flag_b.store(true, Ordering::SeqCst);
            rt_b.unblock(target);
        });
        rt.run().unwrap();
        assert!(a.join().unwrap());
    }

    #[test]
    fn wake_token_before_block_is_not_lost() {
        let rt = Runtime::new(SchedConfig::deterministic(5));
        let rt_a = rt.clone();
        let a = rt.spawn("late-blocker", move || {
            // Burn some yields so the waker very likely unblocks first.
            for _ in 0..10 {
                rt_a.yield_now().unwrap();
            }
            rt_a.block_current(BlockReason::Other("token".into()))
                .unwrap();
            7
        });
        let rt_b = rt.clone();
        let target = a.vtid();
        rt.spawn("early-waker", move || {
            rt_b.unblock(target);
        });
        rt.run().unwrap();
        assert_eq!(a.join().unwrap(), 7);
    }

    #[test]
    fn whole_system_deadlock_is_detected() {
        let rt = Runtime::new(SchedConfig::deterministic(7));
        for i in 0..2 {
            let rt2 = rt.clone();
            rt.spawn(format!("stuck{i}"), move || {
                let e = rt2
                    .block_current(BlockReason::Message(format!("recv{i}")))
                    .unwrap_err();
                assert!(matches!(e, SchedError::Deadlock(_)));
            });
        }
        let err = rt.run().unwrap_err();
        match err {
            SchedError::Deadlock(info) => {
                assert_eq!(info.blocked.len(), 2);
                assert!(info.involves("recv0"));
                assert!(info.involves("recv1"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn join_from_vthread_is_cooperative() {
        let rt = Runtime::new(SchedConfig::deterministic(9));
        let rt_a = rt.clone();
        let child = rt.spawn("child", move || {
            rt_a.yield_now().unwrap();
            21
        });
        let rt_b = rt.clone();
        let parent = rt.spawn("parent", move || {
            let _ = rt_b.yield_now();
            2 * child.join().unwrap()
        });
        rt.run().unwrap();
        assert_eq!(parent.join().unwrap(), 42);
    }

    #[test]
    fn virtual_clocks_and_makespan() {
        let rt = Runtime::new(SchedConfig::time_faithful(0));
        let rt_a = rt.clone();
        rt.spawn("fast", move || rt_a.advance_ns(10));
        let rt_b = rt.clone();
        rt.spawn("slow", move || {
            rt_b.advance_ns(100);
            assert_eq!(rt_b.clock().as_nanos(), 100);
            rt_b.merge_clock(SimTime::from_nanos(500));
            assert_eq!(rt_b.clock().as_nanos(), 500);
        });
        rt.run().unwrap();
        assert_eq!(rt.makespan().as_nanos(), 500);
    }

    #[test]
    fn earliest_clock_first_serializes_by_time() {
        let rt = Runtime::new(
            SchedConfig::deterministic(0).with_policy(SchedPolicy::EarliestClockFirst),
        );
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        for (i, cost) in [30u64, 10, 20].into_iter().enumerate() {
            let rt2 = rt.clone();
            let log2 = Arc::clone(&log);
            rt.spawn(format!("w{i}"), move || {
                for _ in 0..3 {
                    log2.lock().push((rt2.clock().as_nanos(), i));
                    rt2.advance_ns(cost);
                    rt2.yield_now().unwrap();
                }
            });
        }
        rt.run().unwrap();
        let log = Arc::try_unwrap(log).unwrap().into_inner();
        // Step *start* times must be nondecreasing: the policy always runs
        // the least-advanced runnable thread next.
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {log:?}");
        }
    }

    #[test]
    fn panicking_thread_does_not_hang_the_runtime() {
        let rt = Runtime::new(SchedConfig::deterministic(4));
        let bad = rt.spawn("bad", || panic!("boom"));
        let rt2 = rt.clone();
        let good = rt.spawn("good", move || {
            rt2.yield_now().unwrap();
            1
        });
        rt.run().unwrap();
        assert!(bad.join().is_err());
        assert_eq!(good.join().unwrap(), 1);
    }

    #[test]
    fn max_steps_aborts_livelock() {
        let rt = Runtime::new(SchedConfig::deterministic(0).with_max_steps(Some(100)));
        let rt2 = rt.clone();
        rt.spawn("spinner", move || loop {
            if rt2.yield_now().is_err() {
                break;
            }
        });
        let err = rt.run().unwrap_err();
        assert_eq!(err, SchedError::Shutdown);
    }

    #[test]
    fn dynamic_spawn_from_vthread() {
        let rt = Runtime::new(SchedConfig::deterministic(6));
        let counter = Arc::new(AtomicUsize::new(0));
        let rt2 = rt.clone();
        let c2 = Arc::clone(&counter);
        rt.spawn("forker", move || {
            let mut hs = Vec::new();
            for i in 0..3 {
                let c3 = Arc::clone(&c2);
                let rt3 = rt2.clone();
                hs.push(rt2.spawn(format!("kid{i}"), move || {
                    rt3.yield_now().unwrap();
                    c3.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
        });
        rt.run().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    fn priority_order(seed: u64, depth: u8, pins: Vec<(String, i64)>) -> Vec<usize> {
        let rt = Runtime::new(
            SchedConfig::deterministic(seed)
                .with_policy(SchedPolicy::Priority { depth })
                .with_pct_horizon(16)
                .with_priority_pins(pins),
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let rt2 = rt.clone();
            let log2 = Arc::clone(&log);
            rt.spawn(format!("t{i}"), move || {
                for _ in 0..5 {
                    log2.lock().push(i);
                    rt2.yield_now().unwrap();
                }
            });
        }
        rt.run().unwrap();
        Arc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn priority_schedule_is_reproducible() {
        assert_eq!(
            priority_order(42, 3, Vec::new()),
            priority_order(42, 3, Vec::new())
        );
    }

    #[test]
    fn priority_depth_changes_the_schedule() {
        // depth 0 = fixed priorities: strictly one thread to completion,
        // then the next. With change points the prefix winner gets demoted
        // at some step, so (very likely for this seed) the orders differ.
        assert_ne!(
            priority_order(42, 0, Vec::new()),
            priority_order(42, 4, Vec::new())
        );
    }

    #[test]
    fn priority_pins_override_draws() {
        // Pin t2 above PRIORITY_BASE_MAX and t0 below zero: t2 must run all
        // its steps first and t0 all its steps last, regardless of seed.
        let pins = vec![
            ("t2".to_string(), PRIORITY_BASE_MAX + 10),
            ("t0".to_string(), -10),
        ];
        let order = priority_order(7, 0, pins);
        assert_eq!(&order[..5], &[2usize, 2, 2, 2, 2][..]);
        assert_eq!(&order[15..], &[0usize, 0, 0, 0, 0][..]);
    }

    /// Run `f` on a helper thread, so a hang fails the test instead of
    /// stalling it.
    fn within_10s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("{what} hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
        }
    }

    #[test]
    fn failed_worker_creation_poisons_the_run() {
        use crate::JoinError;
        let (run, lost, started) = within_10s("run() after a failed spawn", || {
            let rt = Runtime::new(SchedConfig::deterministic(1));
            let rt2 = rt.clone();
            let started = rt.spawn("started", move || rt2.yield_now());
            crate::pool::fail_next_execute();
            let lost = rt.spawn("lost", || 1);
            let run = rt.run();
            (run, lost.join().err(), started.join().ok())
        });
        let want = SchedError::SpawnFailed {
            name: "lost".into(),
            error: "injected".into(),
        };
        assert_eq!(run, Err(want.clone()));
        assert!(matches!(lost, Some(JoinError::Sched(e)) if e == want));
        assert_eq!(started, Some(Err(want)));
    }

    /// One runtime's share of the stress mix: 16 groups of four threads —
    /// a yielder, a semaphore ping-pong pair (block/unblock), and a thread
    /// that spawns a child and joins it. Returns the steps taken and the
    /// number of finished work items.
    fn stress_run(config: SchedConfig) -> (u64, usize) {
        use crate::SimSemaphore;
        let rt = Runtime::new(config);
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for g in 0..16 {
            let ping = SimSemaphore::new(rt.clone(), format!("ping{g}"), 0);
            let pong = SimSemaphore::new(rt.clone(), format!("pong{g}"), 0);
            let (rt1, done1) = (rt.clone(), Arc::clone(&done));
            handles.push(rt.spawn(format!("yield{g}"), move || {
                for _ in 0..16 {
                    rt1.advance_ns(1);
                    rt1.yield_now().unwrap();
                    done1.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let (ping2, pong2, done2) = (ping.clone(), pong.clone(), Arc::clone(&done));
            handles.push(rt.spawn(format!("ping{g}"), move || {
                for _ in 0..8 {
                    ping2.release();
                    pong2.acquire().unwrap();
                    done2.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let done3 = Arc::clone(&done);
            handles.push(rt.spawn(format!("pong{g}"), move || {
                for _ in 0..8 {
                    ping.acquire().unwrap();
                    pong.release();
                    done3.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let (rt4, done4) = (rt.clone(), Arc::clone(&done));
            handles.push(rt.spawn(format!("spawner{g}"), move || {
                let (rt5, done5) = (rt4.clone(), Arc::clone(&done4));
                let child = rt4.spawn(format!("child{g}"), move || {
                    for _ in 0..4 {
                        rt5.yield_now().unwrap();
                    }
                    done5.fetch_add(1, Ordering::Relaxed);
                });
                rt4.yield_now().unwrap();
                child.join().unwrap();
                done4.fetch_add(1, Ordering::Relaxed);
            }));
        }
        rt.run().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        (rt.steps(), done.load(Ordering::Relaxed))
    }

    #[test]
    fn concurrent_runtimes_lose_no_wakeups() {
        let per_run = 16 * (16 + 8 + 8 + 1 + 1);
        for deterministic in [true, false] {
            let results = within_10s("eight concurrent runtimes", move || {
                let runs: Vec<_> = (0..8u64)
                    .map(|i| {
                        std::thread::spawn(move || {
                            stress_run(if deterministic {
                                SchedConfig::deterministic(i % 2)
                            } else {
                                SchedConfig::free()
                            })
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().unwrap())
                    .collect::<Vec<_>>()
            });
            for (i, &(steps, done)) in results.iter().enumerate() {
                assert_eq!(done, per_run, "runtime {i} lost work");
                if deterministic {
                    // Same seed, same decisions, however the OS interleaves
                    // the eight runtimes' workers.
                    assert_eq!(steps, results[i % 2].0, "runtime {i} diverged");
                }
            }
        }
    }

    #[test]
    fn shutdown_wakes_every_parked_thread() {
        // Deterministic threads parked before their first grant, and free
        // threads parked in `block_current`.
        for deterministic in [true, false] {
            let outcomes = within_10s("shutdown of a parked run", move || {
                let rt = Runtime::new(if deterministic {
                    SchedConfig::deterministic(5)
                } else {
                    SchedConfig::free()
                });
                let handles: Vec<_> = (0..64)
                    .map(|i| {
                        let rt2 = rt.clone();
                        rt.spawn(format!("parked{i}"), move || {
                            let me = current_vtid().unwrap();
                            let result = if deterministic {
                                // Never granted: the poisoned run leaves
                                // this thread's status alone.
                                let inner = rt2.shared.mu.lock();
                                assert_eq!(inner.slot(me).status(), &ThreadStatus::Runnable);
                                assert_eq!(inner.running(), 0);
                                drop(inner);
                                rt2.yield_now()
                            } else {
                                rt2.block_current(BlockReason::Other("forever".into()))
                            };
                            result.unwrap_err()
                        })
                    })
                    .collect();
                if deterministic {
                    // Ungranted threads look the same parked or not; the
                    // pause only makes it likely they have parked.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                } else {
                    while rt.shared.mu.lock().blocked() < 64 {
                        std::thread::yield_now();
                    }
                }
                rt.shutdown();
                let run = rt.run();
                let joined: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
                (run, joined)
            });
            assert_eq!(outcomes.0, Err(SchedError::Shutdown));
            assert!(outcomes.1.iter().all(|e| *e == SchedError::Shutdown));
        }
    }

    #[test]
    fn stale_unparks_do_not_start_an_ungranted_thread() {
        let ran_early = within_10s("a run after stale unparks", || {
            // The worker that ran `first` is idle again and most likely
            // takes `second`; unpark it once more while it is idle.
            let first_rt = Runtime::new(SchedConfig::deterministic(0));
            let first = first_rt.spawn("first", || ());
            let first_worker = first_rt.shared.mu.lock().slot(first.vtid()).worker.clone();
            first_rt.run().unwrap();
            first.join().unwrap();
            first_worker.unwrap().unpark();

            let rt = Runtime::new(SchedConfig::deterministic(1));
            let started = Arc::new(AtomicBool::new(false));
            let started2 = Arc::clone(&started);
            let second = rt.spawn("second", move || started2.store(true, Ordering::SeqCst));
            let worker = rt.shared.mu.lock().slot(second.vtid()).worker.clone();
            // Each pause gives a wrongly woken body time to start.
            for _ in 0..3 {
                worker.as_ref().unwrap().unpark();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let ran_early = started.load(Ordering::SeqCst);
            rt.run().unwrap();
            second.join().unwrap();
            assert!(started.load(Ordering::SeqCst));
            ran_early
        });
        assert!(!ran_early, "the body ran before its thread was granted");
    }

    #[test]
    fn joined_runtime_is_released_by_its_workers() {
        let rt = Runtime::new(SchedConfig::deterministic(2));
        let weak = rt.downgrade();
        let rt2 = rt.clone();
        let ok = rt.spawn("ok", move || rt2.yield_now().is_ok());
        let bad = rt.spawn("bad", || panic!("boom"));
        rt.run().unwrap();
        assert!(ok.join().unwrap());
        assert!(bad.join().is_err());
        drop(rt);
        assert!(weak.upgrade().is_none(), "a worker still holds the runtime");
    }

    #[test]
    fn steps_are_counted() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let rt2 = rt.clone();
        rt.spawn("y", move || {
            for _ in 0..5 {
                rt2.yield_now().unwrap();
            }
        });
        rt.run().unwrap();
        assert!(rt.steps() >= 5);
    }
}

#[cfg(test)]
mod free_mode_tests {
    use super::*;
    use crate::{SchedConfig, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn free_mode_runs_threads_concurrently() {
        let rt = Runtime::new(SchedConfig::free());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = Arc::clone(&counter);
            let rt2 = rt.clone();
            handles.push(rt.spawn(format!("w{i}"), move || {
                for _ in 0..100 {
                    c.fetch_add(1, Ordering::Relaxed);
                    rt2.yield_now().unwrap();
                }
            }));
        }
        rt.run().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn free_mode_block_unblock() {
        let rt = Runtime::new(SchedConfig::free());
        let blocker = rt.spawn("blocker", {
            let rt = rt.clone();
            move || {
                rt.block_current(crate::BlockReason::Other("free wait".into()))
                    .unwrap();
                5
            }
        });
        let target = blocker.vtid();
        let rt2 = rt.clone();
        rt.spawn("waker", move || {
            // Give the blocker a moment to actually park, then wake it.
            std::thread::sleep(std::time::Duration::from_millis(10));
            rt2.unblock(target);
        });
        rt.run().unwrap();
        assert_eq!(blocker.join().unwrap(), 5);
    }

    #[test]
    fn free_mode_wake_token_before_block() {
        let rt = Runtime::new(SchedConfig::free());
        let h = rt.spawn("late", {
            let rt = rt.clone();
            move || {
                // Token arrives (possibly) before we block; must not hang.
                std::thread::sleep(std::time::Duration::from_millis(10));
                rt.block_current(crate::BlockReason::Other("token".into()))
                    .unwrap();
                1
            }
        });
        rt.unblock(h.vtid());
        rt.run().unwrap();
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn free_mode_virtual_clocks_still_tracked() {
        let rt = Runtime::new(SchedConfig::free());
        let rt2 = rt.clone();
        rt.spawn("t", move || {
            rt2.advance(SimTime::from_micros(5));
        });
        rt.run().unwrap();
        assert_eq!(rt.makespan(), SimTime::from_micros(5));
    }
}
