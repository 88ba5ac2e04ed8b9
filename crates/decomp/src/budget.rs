//! Search budgets: deadlines and cooperative cancellation.
//!
//! Every decomposition search accepts a [`Budget`]. Budgets carry an
//! optional wall-clock deadline (the paper uses a 3600 s timeout; the
//! laptop-scale harness uses much smaller ones) and a chain of *cancel
//! scopes* ([`Budget::child_scope`]), the one way to stop a search early.
//!
//! When sibling searches run concurrently, the first sibling to make the
//! group's outcome inevitable cancels the group's scope: a failed
//! component under a separator, a found witness in a speculative
//! separator scan, or the first definitive answer of the first-of-three
//! GHD race (§6.4). Every budget derived from the scope — including
//! budgets derived further down the tree — observes the stop on its next
//! tick. Scopes chain to their parents, so cancelling an ancestor scope
//! stops all descendants.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One link of a cancel-scope chain. Cancellation flows downward only:
/// tripping a node stops every budget whose chain passes through it.
#[derive(Debug, Default)]
struct ScopeNode {
    flag: AtomicBool,
    parent: Option<Arc<ScopeNode>>,
}

impl ScopeNode {
    fn is_cancelled(&self) -> bool {
        let mut node = self;
        loop {
            if node.flag.load(Ordering::Relaxed) {
                return true;
            }
            match &node.parent {
                Some(p) => node = p,
                None => return false,
            }
        }
    }
}

/// A handle that cancels one scope created by [`Budget::child_scope`].
/// Cloneable so every sibling task of a fork can carry one.
#[derive(Debug, Clone)]
pub struct CancelScope(Arc<ScopeNode>);

impl CancelScope {
    /// Trips the scope: every budget derived from it stops.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Relaxed);
    }

    /// Whether this scope (or an ancestor) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.is_cancelled()
    }
}

/// A search budget. Cheap to clone; clones share their cancel scopes.
#[derive(Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    scope: Option<Arc<ScopeNode>>,
    trace_id: u64,
}

impl Default for Budget {
    /// An unlimited budget. Captures the ambient telemetry request id
    /// (see [`Budget::trace_id`]), like every other constructor.
    fn default() -> Budget {
        Budget {
            deadline: None,
            scope: None,
            trace_id: hyperbench_telemetry::current_request_id(),
        }
    }
}

impl Budget {
    /// A budget that never expires.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget expiring `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Budget::default()
        }
    }

    /// The telemetry request id this budget was constructed under (via
    /// `hyperbench_telemetry::with_request_id`), or 0 when the search
    /// was not started on behalf of a traced request. Clones and
    /// [`Budget::child_scope`] derivations inherit it, so logs emitted
    /// deep inside a decomposition can be joined back to the HTTP
    /// request that triggered it.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Derives a budget for a group of sibling subtasks plus the handle
    /// that cancels exactly that group. The derived budget inherits the
    /// deadline and every enclosing scope, so a stop at any level above
    /// still propagates.
    pub fn child_scope(&self) -> (Budget, CancelScope) {
        let node = Arc::new(ScopeNode {
            flag: AtomicBool::new(false),
            parent: self.scope.clone(),
        });
        let budget = Budget {
            deadline: self.deadline,
            scope: Some(node.clone()),
            trace_id: self.trace_id,
        };
        (budget, CancelScope(node))
    }

    /// Whether the budget is exhausted (deadline passed, or any enclosing
    /// cancel scope tripped).
    pub fn is_stopped(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(s) = &self.scope {
            if s.is_cancelled() {
                return true;
            }
        }
        false
    }
}

/// Marker error: the search was stopped by its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

/// A tick counter that polls a [`Budget`] every `INTERVAL` ticks, keeping
/// the `Instant::now()` syscall off the hot path.
pub struct Ticker {
    budget: Budget,
    count: u64,
}

impl Ticker {
    const INTERVAL: u64 = 1024;

    /// Wraps a budget.
    pub fn new(budget: &Budget) -> Ticker {
        Ticker {
            budget: budget.clone(),
            count: 0,
        }
    }

    /// Counts one unit of work; returns `Err(Stopped)` when the budget has
    /// expired (checked every 1024 ticks).
    #[inline]
    pub fn tick(&mut self) -> Result<(), Stopped> {
        self.count += 1;
        if self.count.is_multiple_of(Self::INTERVAL) && self.budget.is_stopped() {
            return Err(Stopped);
        }
        Ok(())
    }

    /// Forces an immediate budget check.
    pub fn check_now(&self) -> Result<(), Stopped> {
        if self.budget.is_stopped() {
            Err(Stopped)
        } else {
            Ok(())
        }
    }

    /// Total ticks counted (diagnostics).
    pub fn ticks(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let b = Budget::unlimited();
        assert!(!b.is_stopped());
        let mut t = Ticker::new(&b);
        for _ in 0..10_000 {
            assert!(t.tick().is_ok());
        }
        assert_eq!(t.ticks(), 10_000);
    }

    #[test]
    fn deadline_stops() {
        let b = Budget::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.is_stopped());
        let t = Ticker::new(&b);
        assert_eq!(t.check_now(), Err(Stopped));
    }

    #[test]
    fn cancel_flag_is_shared() {
        let (b1, scope) = Budget::unlimited().child_scope();
        let b2 = b1.clone();
        assert!(!b2.is_stopped());
        scope.cancel();
        assert!(b1.is_stopped());
        assert!(b2.is_stopped());
    }

    #[test]
    fn ticker_detects_cancel_within_interval() {
        let (b, scope) = Budget::unlimited().child_scope();
        let mut t = Ticker::new(&b);
        scope.cancel();
        let mut stopped = false;
        for _ in 0..2048 {
            if t.tick().is_err() {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
    }

    #[test]
    fn child_scope_cancels_derived_budgets_only() {
        let root = Budget::unlimited();
        let (child, scope) = root.child_scope();
        let grandchild = child.clone();
        assert!(!child.is_stopped());
        scope.cancel();
        assert!(scope.is_cancelled());
        assert!(child.is_stopped());
        assert!(grandchild.is_stopped());
        // The parent budget is unaffected: cancellation flows down only.
        assert!(!root.is_stopped());
    }

    #[test]
    fn scopes_chain_through_generations() {
        let root = Budget::unlimited();
        let (child, outer) = root.child_scope();
        let (grandchild, _inner) = child.child_scope();
        assert!(!grandchild.is_stopped());
        outer.cancel();
        assert!(grandchild.is_stopped(), "ancestor scope must propagate");
    }

    #[test]
    fn trace_id_is_captured_and_inherited() {
        let outside = Budget::unlimited();
        assert_eq!(outside.trace_id(), 0, "no ambient request id");
        hyperbench_telemetry::with_request_id(77, || {
            let b = Budget::with_timeout(Duration::from_secs(1));
            assert_eq!(b.trace_id(), 77);
            let (child, _scope) = b.child_scope();
            assert_eq!(child.trace_id(), 77);
            assert_eq!(b.clone().trace_id(), 77);
        });
    }

    #[test]
    fn child_scopes_inherit_the_deadline() {
        let (race, _stop) = Budget::with_timeout(Duration::from_millis(0)).child_scope();
        let (derived, _scope) = race.child_scope();
        std::thread::sleep(Duration::from_millis(2));
        assert!(race.is_stopped());
        assert!(derived.is_stopped());
    }
}
