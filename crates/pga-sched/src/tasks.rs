//! Task sets: the flat list of independent closures the executors run.
//!
//! This module is on the `pga-analyze` panic-path surface: task sets are
//! built on serving-adjacent code (the monitor's retrain path), so
//! nothing here may panic or index directly.

/// Scheduler failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A task body panicked; the run drained cleanly and stopped.
    TaskPanicked {
        /// Position of the panicking task in its set (add order).
        index: usize,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::TaskPanicked { index } => write!(f, "task {index} panicked"),
        }
    }
}

impl std::error::Error for SchedError {}

/// One task body.
pub(crate) type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A set of independent tasks, each run exactly once, in no promised
/// order. Closures may borrow from the enclosing scope (lifetime `'a`);
/// the executors run them inside `std::thread::scope`, so borrowed
/// inputs and output slots work the same way they do with scoped
/// threads.
#[derive(Default)]
pub struct TaskSet<'a> {
    pub(crate) tasks: Vec<Task<'a>>,
}

impl<'a> TaskSet<'a> {
    /// An empty set.
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a task. Its index — the one a [`SchedError::TaskPanicked`]
    /// names — is the number of tasks added before it.
    pub fn add<F>(&mut self, body: F)
    where
        F: FnOnce() + Send + 'a,
    {
        self.tasks.push(Box::new(body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_counts_added_tasks() {
        let mut set = TaskSet::new();
        assert!(set.is_empty());
        set.add(|| {});
        set.add(|| {});
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            SchedError::TaskPanicked { index: 3 }.to_string(),
            "task 3 panicked"
        );
    }
}
