//! Internal scheduler state, kept behind the runtime's one mutex. A thread
//! waiting for the token does not wait on that mutex: it parks until a
//! grant opens its slot's gate, then takes the gate without locking.
//! [`Inner::set_status`] keeps the runnable list and the counters in step
//! with every status change, so a scheduling step never scans the slots.

use crate::clock::SimTime;
use crate::vtid::Vtid;
use crate::SchedError;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

/// Why a virtual thread is blocked. Carried into deadlock reports so the
/// HOME pipeline can explain *what* each participant was waiting for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a message (MPI receive/wait/probe). The payload is a
    /// human-readable description such as `"MPI_Recv(src=1, tag=0)"`.
    Message(String),
    /// Waiting to acquire a lock (OpenMP critical section or runtime lock).
    Lock(String),
    /// Waiting at a barrier (OpenMP barrier or MPI collective).
    Barrier(String),
    /// Waiting for another virtual thread to finish.
    Join(String),
    /// Waiting on a semaphore.
    Semaphore(String),
    /// Anything else.
    Other(String),
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::Message(s) => write!(f, "message: {s}"),
            BlockReason::Lock(s) => write!(f, "lock: {s}"),
            BlockReason::Barrier(s) => write!(f, "barrier: {s}"),
            BlockReason::Join(s) => write!(f, "join: {s}"),
            BlockReason::Semaphore(s) => write!(f, "semaphore: {s}"),
            BlockReason::Other(s) => write!(f, "{s}"),
        }
    }
}

/// Lifecycle state of one virtual thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    /// Wants to run; waiting for a grant.
    Runnable,
    /// Currently holds the execution token (deterministic mode) or is simply
    /// live (free mode).
    Running,
    /// Blocked on a scheduler primitive.
    Blocked(BlockReason),
    /// The closure returned or panicked.
    Finished,
}

/// Per-thread bookkeeping slot.
pub(crate) struct ThreadSlot {
    pub(crate) name: String,
    /// Set only through [`Inner::set_status`].
    status: ThreadStatus,
    /// Pending wake tokens (park/unpark protocol): an `unblock` delivered
    /// before the target actually blocks must not be lost.
    pub(crate) wake_tokens: u32,
    /// Opened by a grant while the runtime's mutex is held; taken by the
    /// granted thread without it.
    pub(crate) gate: Arc<AtomicBool>,
    /// The pooled worker running this thread, which grants and free-mode
    /// unblocks unpark. `None` only for a thread no worker could take.
    pub(crate) worker: Option<Thread>,
    /// Virtual clock, shared with the thread-local fast path.
    pub(crate) clock: Arc<AtomicU64>,
    /// Threads blocked in `join` on this thread.
    pub(crate) join_waiters: Vec<Vtid>,
    /// Scheduling priority ([`crate::SchedPolicy::Priority`] only): drawn
    /// or pinned at spawn, lowered by change-point demotions.
    pub(crate) priority: i64,
}

impl ThreadSlot {
    /// Counts as finished until [`Inner::push`] gives it a status.
    pub(crate) fn new(name: String) -> Self {
        ThreadSlot {
            name,
            status: ThreadStatus::Finished,
            wake_tokens: 0,
            gate: Arc::new(AtomicBool::new(false)),
            worker: None,
            clock: Arc::new(AtomicU64::new(0)),
            join_waiters: Vec::new(),
            priority: 0,
        }
    }

    pub(crate) fn status(&self) -> &ThreadStatus {
        &self.status
    }

    pub(crate) fn clock_now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.load(Ordering::Relaxed))
    }
}

/// Shared mutable scheduler state, protected by the runtime's global mutex.
#[derive(Default)]
pub(crate) struct Inner {
    pub(crate) slots: Vec<ThreadSlot>,
    /// Runnable threads in id order: the list every policy chooses from.
    runnable: Vec<Vtid>,
    /// Threads `Running`, `Blocked` and not yet `Finished`.
    running: usize,
    blocked: usize,
    live: usize,
    /// Scheduling decisions taken so far (deterministic mode).
    pub(crate) steps: u64,
    /// Last thread granted (for round-robin).
    pub(crate) last_granted: Option<Vtid>,
    /// Once set, every scheduler primitive returns this error and gating is
    /// disabled so that all threads can unwind.
    pub(crate) poison: Option<SchedError>,
    /// The worker a grant chose, to be unparked once the mutex is released.
    pub(crate) wake: Option<Thread>,
}

impl Inner {
    /// Add `slot` as the next thread id, in `status`.
    pub(crate) fn push(&mut self, slot: ThreadSlot, status: ThreadStatus) {
        self.slots.push(slot);
        self.set_status(Vtid::from_index(self.slots.len() - 1), status);
    }

    /// Move `v` to `status`, updating the runnable list and the counters.
    pub(crate) fn set_status(&mut self, v: Vtid, status: ThreadStatus) {
        match std::mem::replace(&mut self.slots[v.index()].status, status) {
            ThreadStatus::Runnable => {
                let at = self.runnable.binary_search(&v).expect("runnable is listed");
                self.runnable.remove(at);
            }
            ThreadStatus::Running => self.running -= 1,
            ThreadStatus::Blocked(_) => self.blocked -= 1,
            ThreadStatus::Finished => self.live += 1,
        }
        match self.slots[v.index()].status {
            ThreadStatus::Runnable => {
                let at = self.runnable.binary_search(&v).unwrap_err();
                self.runnable.insert(at, v);
            }
            ThreadStatus::Running => self.running += 1,
            ThreadStatus::Blocked(_) => self.blocked += 1,
            ThreadStatus::Finished => self.live -= 1,
        }
    }

    pub(crate) fn runnable(&self) -> &[Vtid] {
        &self.runnable
    }

    pub(crate) fn running(&self) -> usize {
        self.running
    }

    pub(crate) fn blocked(&self) -> usize {
        self.blocked
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn slot(&self, v: Vtid) -> &ThreadSlot {
        &self.slots[v.index()]
    }

    pub(crate) fn slot_mut(&mut self, v: Vtid) -> &mut ThreadSlot {
        &mut self.slots[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_reason_display() {
        assert_eq!(
            BlockReason::Message("MPI_Recv(src=1)".into()).to_string(),
            "message: MPI_Recv(src=1)"
        );
        assert_eq!(BlockReason::Lock("cs".into()).to_string(), "lock: cs");
        assert_eq!(BlockReason::Other("x".into()).to_string(), "x");
    }

    #[test]
    fn inner_queries() {
        let mut inner = Inner::default();
        for name in ["a", "b", "c", "d"] {
            inner.push(ThreadSlot::new(name.into()), ThreadStatus::Runnable);
        }
        let v: Vec<Vtid> = (0..4).map(Vtid::from_index).collect();
        inner.set_status(v[1], ThreadStatus::Blocked(BlockReason::Other("x".into())));
        inner.set_status(v[2], ThreadStatus::Running);
        assert_eq!(inner.runnable(), [v[0], v[3]]);
        assert_eq!((inner.running(), inner.blocked(), inner.live()), (1, 1, 4));
        inner.set_status(v[1], ThreadStatus::Runnable);
        inner.set_status(v[2], ThreadStatus::Finished);
        assert_eq!(inner.runnable(), [v[0], v[1], v[3]]);
        assert_eq!((inner.running(), inner.blocked(), inner.live()), (0, 0, 3));
        inner.push(ThreadSlot::new("e".into()), ThreadStatus::Finished);
        assert_eq!(
            inner.slot(Vtid::from_index(4)).status(),
            &ThreadStatus::Finished
        );
        assert_eq!(inner.live(), 3);
    }
}
