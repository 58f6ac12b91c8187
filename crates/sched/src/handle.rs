//! Join handles for virtual threads.

use crate::runtime::Runtime;
use crate::vtid::Vtid;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Error returned by [`JoinHandle::join`].
#[derive(Debug)]
pub enum JoinError {
    /// The virtual thread panicked; the payload is its panic message when
    /// it was a string.
    Panicked(String),
    /// The scheduler was poisoned (deadlock/shutdown) and the thread's
    /// result never materialized.
    Sched(crate::SchedError),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(msg) => write!(f, "virtual thread panicked: {msg}"),
            JoinError::Sched(e) => write!(f, "scheduler error during join: {e}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Where a virtual thread's job leaves its result. The job marks the cell
/// *ended* once it has let go of its runtime (its worker's current-thread
/// context is cleared and its `Runtime` clone dropped), or when it is
/// dropped without running because no worker could take it.
pub(crate) struct JobCell<T> {
    state: Mutex<CellState<T>>,
    ended: Condvar,
}

struct CellState<T> {
    result: Option<std::thread::Result<T>>,
    ended: bool,
}

impl<T> JobCell<T> {
    pub(crate) fn new() -> Self {
        JobCell {
            state: Mutex::new(CellState {
                result: None,
                ended: false,
            }),
            ended: Condvar::new(),
        }
    }

    pub(crate) fn put(&self, result: std::thread::Result<T>) {
        self.state.lock().result = Some(result);
    }

    fn wait_ended(&self) {
        let mut state = self.state.lock();
        while !state.ended {
            self.ended.wait(&mut state);
        }
    }
}

/// Ends its cell when dropped: at the close of the job that owns it, or
/// with that job if the job never ran.
pub(crate) struct EndOnDrop<T>(pub(crate) Arc<JobCell<T>>);

impl<T> Drop for EndOnDrop<T> {
    fn drop(&mut self) {
        self.0.state.lock().ended = true;
        self.0.ended.notify_all();
    }
}

/// Handle to a spawned virtual thread.
///
/// `join` is cooperative when called from another virtual thread (it blocks
/// through the scheduler, participating in deadlock detection) and a plain
/// condition wait when called from the driver.
pub struct JoinHandle<T> {
    rt: Runtime,
    vtid: Vtid,
    cell: Arc<JobCell<T>>,
    name: String,
}

impl<T: Send + 'static> JoinHandle<T> {
    pub(crate) fn new(rt: Runtime, vtid: Vtid, cell: Arc<JobCell<T>>, name: String) -> Self {
        JoinHandle {
            rt,
            vtid,
            cell,
            name,
        }
    }

    /// The virtual thread id of the spawned thread.
    pub fn vtid(&self) -> Vtid {
        self.vtid
    }

    /// The name given at spawn.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True if the thread's closure has returned (or panicked).
    pub fn is_finished(&self) -> bool {
        self.rt.is_finished(self.vtid)
    }

    /// Wait for the thread to finish and return its result. A driver-side
    /// join also waits until the thread's job has let go of the runtime.
    pub fn join(self) -> Result<T, JoinError> {
        let waited = self.rt.join_wait(self.vtid);
        // Poisoned run: the thread may still produce a result while
        // unwinding, so wait for its job to end before looking.
        if waited.is_err() || crate::runtime::current_vtid().is_none() {
            self.cell.wait_ended();
        }
        let Some(result) = self.cell.state.lock().result.take() else {
            // No result: the job never ran because no worker could take
            // it, and the spawn poisoned the run.
            let e = waited.err().or_else(|| self.rt.error());
            return Err(JoinError::Sched(e.unwrap_or(crate::SchedError::Shutdown)));
        };
        result.map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            JoinError::Panicked(msg)
        })
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("vtid", &self.vtid)
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedConfig;

    #[test]
    fn handle_reports_metadata() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let h = rt.spawn("meta", || ());
        assert_eq!(h.name(), "meta");
        assert_eq!(h.vtid().index(), 0);
        rt.run().unwrap();
        assert!(h.is_finished());
        h.join().unwrap();
    }

    #[test]
    fn join_error_display() {
        let e = JoinError::Panicked("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
