//! Task attribution for I/O and logical-resource accesses.
//!
//! The dependency-soundness checker (`minicc depcheck`) needs every file
//! access and every logical-input read (a source file, the project
//! manifest, a module's dormancy record) attributed to the *query task*
//! that performed it, so it can diff actual accesses against the engine's
//! declared dependencies. Two pieces live here:
//!
//! * a **thread-local task-context stack** ([`task_scope`]): the build
//!   system pushes the active task's label around each task body, which
//!   the query engine runs on the thread that drives the build. Recorded
//!   faultfs operations ([`crate::record`], thread-local too) and noted
//!   accesses are tagged with the innermost label ([`active_task`]);
//! * the **[`AccessRecord`]** a build appends, to a log it owns, for each
//!   logical-resource access it makes while auditing. The log is a value
//!   of that build, not process state, so concurrent sessions audit
//!   independently.

use std::cell::RefCell;

thread_local! {
    /// Stack of active task labels on this thread; the top attributes.
    static TASK_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Pushes `label` as the thread's active task until the guard drops.
/// Nested scopes attribute to the innermost label.
#[must_use = "the task context pops when the guard drops"]
pub fn task_scope(label: impl Into<String>) -> TaskGuard {
    TASK_STACK.with(|s| s.borrow_mut().push(label.into()));
    TaskGuard { _priv: () }
}

/// Pops the task label pushed by [`task_scope`] on drop.
#[derive(Debug)]
pub struct TaskGuard {
    _priv: (),
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        TASK_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The thread's active task label, if any (the innermost [`task_scope`]).
pub fn active_task() -> Option<String> {
    TASK_STACK.with(|s| s.borrow().last().cloned())
}

/// One logical-resource access noted by an auditing build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// The task active on the accessing thread, if any. Accesses outside
    /// any task scope (driver/session-level work) carry `None`.
    pub task: Option<String>,
    /// The logical resource name (domain-defined, e.g. `src:lib`,
    /// `manifest`, `state:lib`).
    pub resource: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_scopes_nest_and_pop() {
        assert_eq!(active_task(), None);
        let outer = task_scope("outer");
        assert_eq!(active_task().as_deref(), Some("outer"));
        {
            let _inner = task_scope("inner");
            assert_eq!(active_task().as_deref(), Some("inner"));
        }
        assert_eq!(active_task().as_deref(), Some("outer"));
        drop(outer);
        assert_eq!(active_task(), None);
    }
}
