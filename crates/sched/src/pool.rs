//! The process-wide pool of parked OS threads that virtual threads run on.
//!
//! [`Runtime::spawn`](crate::Runtime::spawn) hands each virtual thread's
//! body to [`POOL`] as a job. The most recently idled worker takes it; a
//! new OS thread is created only when no worker is idle. A worker that has
//! been idle for [`KEEP_ALIVE`] exits, so a long-lived process does not
//! keep thousands of parked threads after one large run.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long an idle worker stays parked before its OS thread exits.
const KEEP_ALIVE: Duration = Duration::from_secs(2);

/// The pool every runtime spawns on.
pub(crate) static POOL: Pool = Pool::new(KEEP_ALIVE);

/// OS threads the process-wide pool has created so far.
pub fn os_threads_spawned() -> u64 {
    POOL.spawned.load(Ordering::Relaxed)
}

type Job = Box<dyn FnOnce(&Release) + Send>;

pub(crate) struct Pool {
    /// Parked workers' mailboxes, most recently idled at the back.
    idle: Mutex<VecDeque<Arc<Mailbox>>>,
    keep_alive: Duration,
    spawned: AtomicU64,
}

/// Where a parked worker receives its next job.
struct Mailbox {
    job: Mutex<Option<Job>>,
    cv: Condvar,
    /// The worker itself, returned by the `execute` that picks it.
    thread: Thread,
}

/// Handed to every job: lets it put its worker back on the idle stack
/// before it has fully returned.
pub(crate) struct Release {
    pool: &'static Pool,
    mailbox: Arc<Mailbox>,
    done: Cell<bool>,
}

impl Release {
    /// Make this worker available to the next `execute`. A job handed over
    /// before the current one returns waits in the mailbox until it does.
    /// Idempotent within one job.
    pub(crate) fn now(&self) {
        if !self.done.replace(true) {
            self.pool.idle.lock().push_back(Arc::clone(&self.mailbox));
        }
    }
}

#[cfg(test)]
thread_local! {
    static FAIL_NEXT: Cell<bool> = const { Cell::new(false) };
}

/// Make the next [`Pool::execute`] called from this OS thread fail as if
/// the OS had refused to create a thread.
#[cfg(test)]
pub(crate) fn fail_next_execute() {
    FAIL_NEXT.with(|f| f.set(true));
}

impl Pool {
    const fn new(keep_alive: Duration) -> Pool {
        Pool {
            idle: Mutex::new(VecDeque::new()),
            keep_alive,
            spawned: AtomicU64::new(0),
        }
    }

    /// Run `job` on an idle worker, or on a new OS thread when none is
    /// idle, and return that worker's handle. On error the job has been
    /// dropped without running.
    pub(crate) fn execute(
        &'static self,
        job: impl FnOnce(&Release) + Send + 'static,
    ) -> io::Result<Thread> {
        let job: Job = Box::new(job);
        #[cfg(test)]
        if FAIL_NEXT.with(|f| f.replace(false)) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "injected"));
        }
        let parked = self.idle.lock().pop_back();
        if let Some(mailbox) = parked {
            *mailbox.job.lock() = Some(job);
            mailbox.cv.notify_one();
            return Ok(mailbox.thread.clone());
        }
        let worker = std::thread::Builder::new()
            .name("home-sched-worker".into())
            .spawn(move || self.work(job))?;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(worker.thread().clone())
    }

    /// A worker's life: run jobs until none arrives within the keep-alive.
    fn work(&'static self, first: Job) {
        let release = Release {
            pool: self,
            mailbox: Arc::new(Mailbox {
                job: Mutex::new(None),
                cv: Condvar::new(),
                thread: std::thread::current(),
            }),
            done: Cell::new(false),
        };
        let mut job = first;
        loop {
            release.done.set(false);
            // A job catches its own body's panic; this only keeps the
            // worker alive if the job's bookkeeping itself panicked.
            let _ = catch_unwind(AssertUnwindSafe(|| job(&release)));
            release.now();
            match self.next_job(&release.mailbox) {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    fn next_job(&self, mailbox: &Arc<Mailbox>) -> Option<Job> {
        let deadline = Instant::now() + self.keep_alive;
        let mut slot = mailbox.job.lock();
        loop {
            if let Some(job) = slot.take() {
                return Some(job);
            }
            let now = Instant::now();
            if now < deadline {
                mailbox.cv.wait_for(&mut slot, deadline - now);
                continue;
            }
            drop(slot);
            let mut idle = self.idle.lock();
            if let Some(at) = idle.iter().position(|m| Arc::ptr_eq(m, mailbox)) {
                idle.remove(at);
                return None;
            }
            drop(idle);
            // An `execute` popped this worker after the deadline: its job
            // is on the way.
            slot = mailbox.job.lock();
            while slot.is_none() {
                mailbox.cv.wait(&mut slot);
            }
        }
    }

    #[cfg(test)]
    fn idle_workers(&self) -> usize {
        self.idle.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn leaked(keep_alive: Duration) -> &'static Pool {
        Box::leak(Box::new(Pool::new(keep_alive)))
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn idle_worker_is_reused() {
        let pool = leaked(Duration::from_secs(60));
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            let worker = pool
                .execute(move |_| tx.send(std::thread::current().id()).unwrap())
                .unwrap();
            let ran_on = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(ran_on, worker.id(), "execute returned another worker");
            wait_until("the worker is idle again", || pool.idle_workers() == 1);
        }
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn released_worker_takes_a_job_handed_over_before_it_returns() {
        let pool = leaked(Duration::from_secs(60));
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        pool.execute(move |release| {
            release.now();
            // This worker is the only idle one: the nested job queues in
            // its mailbox and runs after this job returns.
            pool.execute(move |_| tx2.send("second").unwrap()).unwrap();
            tx.send("first").unwrap();
        })
        .unwrap();
        let order: Vec<_> = (0..2)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        assert_eq!(order, ["first", "second"]);
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn idle_workers_exit_after_keep_alive_and_are_recreated() {
        let pool = leaked(Duration::from_millis(500));
        // Each job holds its worker until all four have started, so the
        // pool has to create four threads.
        let all_started = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let all_started = Arc::clone(&all_started);
            pool.execute(move |_| {
                all_started.wait();
            })
            .unwrap();
        }
        wait_until("all four workers are idle", || pool.idle_workers() == 4);
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 4);
        wait_until("every idle worker has exited", || pool.idle_workers() == 0);
        let (tx, rx) = mpsc::channel();
        pool.execute(move |_| tx.send(()).unwrap()).unwrap();
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn injected_failure_drops_the_job() {
        let pool = leaked(Duration::from_secs(60));
        let marker = Arc::new(());
        let held = Arc::clone(&marker);
        fail_next_execute();
        assert!(pool.execute(move |_| drop(held)).is_err());
        assert_eq!(Arc::strong_count(&marker), 1);
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 0);
    }
}
