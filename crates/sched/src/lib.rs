//! # home-sched — deterministic virtual-thread scheduler
//!
//! The substrate underneath the HOME checker's simulated MPI ranks and
//! OpenMP threads. Every concurrent entity in the simulation (an MPI rank,
//! an OpenMP worker inside a rank) is a *virtual thread*: a job run by a
//! worker of one process-wide pool of OS threads, whose progress is gated
//! by this scheduler. A worker that finishes its job parks and takes the
//! next spawn; the pool creates an OS thread only when no worker is idle
//! ([`os_threads_spawned`] counts them), and a worker idle for two seconds
//! exits. Because the OS thread is a pooled worker, a virtual thread's
//! panic line on stderr names `home-sched-worker`, not the virtual
//! thread's name (`rank3.r1.t1`); the [`JoinError::Panicked`] payload still
//! carries the panic message.
//!
//! Two execution modes are supported:
//!
//! * [`SchedMode::Free`] — no gating; virtual threads run with real OS
//!   concurrency. Useful for stress testing and wall-clock benchmarks.
//! * [`SchedMode::Deterministic`] — exactly one virtual thread runs at a
//!   time; at every *yield point* the scheduler picks the next runnable
//!   thread according to a [`SchedPolicy`] (seeded random, round-robin, or
//!   earliest-virtual-clock-first). A fixed seed reproduces the exact same
//!   interleaving, which is what lets the test suite reproduce
//!   schedule-dependent behaviour such as races that only manifest under
//!   some interleavings.
//!
//! A deterministic step hands the token straight to the chosen thread: the
//! yielder opens its gate under the runtime's mutex, unparks its worker
//! once the mutex is released, and parks until its own gate opens. The
//! woken thread takes its gate without the mutex: one wake, one park.
//!
//! The scheduler also maintains a **virtual clock** per thread (nanosecond
//! resolution). Simulated compute charges time with [`Runtime::advance_ns`],
//! message deliveries propagate clocks across threads, and the maximum
//! per-thread clock at the end of a run is the simulated makespan reported
//! by the benchmark harness.
//!
//! Finally, the deterministic mode performs **whole-system deadlock
//! detection**: if every live virtual thread is blocked, all blocked threads
//! are woken with [`SchedError::Deadlock`], carrying a report of who was
//! blocked on what. This is how the paper's Figure 2 case study (two threads
//! per rank receiving with the same tag) is caught deterministically.
//!
//! ## Example
//!
//! ```
//! use home_sched::{Runtime, SchedConfig};
//!
//! let rt = Runtime::new(SchedConfig::deterministic(42));
//! let h1 = rt.spawn("worker-0", {
//!     let rt = rt.clone();
//!     move || { rt.advance_ns(100); 1 }
//! });
//! let h2 = rt.spawn("worker-1", {
//!     let rt = rt.clone();
//!     move || { rt.advance_ns(250); 2 }
//! });
//! rt.run();
//! assert_eq!(h1.join().unwrap() + h2.join().unwrap(), 3);
//! assert_eq!(rt.makespan().as_nanos(), 250);
//! ```

mod clock;
mod config;
mod deadlock;
mod handle;
mod policy;
mod pool;
mod runtime;
mod semaphore;
mod state;
mod vtid;

pub use clock::SimTime;
pub use config::{SchedConfig, SchedMode, PRIORITY_BASE_MAX, PRIORITY_BASE_MIN};
pub use deadlock::{BlockedThread, DeadlockInfo};
pub use handle::{JoinError, JoinHandle};
pub use policy::SchedPolicy;
pub use pool::os_threads_spawned;
pub use runtime::{current_runtime, current_vtid, Runtime, WeakRuntime};
pub use semaphore::SimSemaphore;
pub use state::BlockReason;
pub use vtid::Vtid;

/// Errors surfaced to virtual threads by scheduler primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Every live virtual thread was blocked; the run cannot make progress.
    Deadlock(DeadlockInfo),
    /// The runtime was shut down while this thread was blocked.
    Shutdown,
    /// No pooled worker could be found or created for a spawned virtual
    /// thread; carries the thread's name and the OS error.
    SpawnFailed {
        /// Name given to the virtual thread at spawn.
        name: String,
        /// The OS error from creating a worker thread.
        error: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Deadlock(info) => write!(f, "deadlock detected: {info}"),
            SchedError::Shutdown => write!(f, "runtime shut down"),
            SchedError::SpawnFailed { name, error } => {
                write!(f, "could not start virtual thread `{name}`: {error}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Result alias for scheduler primitives that can observe a deadlock.
pub type SchedResult<T> = Result<T, SchedError>;
