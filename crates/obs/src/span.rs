//! Span tracing: begin/end spans with a per-thread stack.
//!
//! A span is opened with [`crate::span()`] (or [`SpanGuard::enter`]) and
//! closed when the guard drops; closing records a `span` event — name,
//! parent span, nesting depth, elapsed nanos — into the global flight
//! recorder.  The stack is thread-local, so spans opened on different
//! worker threads nest independently and cost no synchronization until the
//! single recorder write at close.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder::FieldValue;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records its event into the global recorder on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    parent: Option<&'static str>,
    depth: usize,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name` on this thread's stack.
    pub fn enter(name: &'static str) -> SpanGuard {
        let (parent, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            let depth = stack.len();
            stack.push(name);
            (parent, depth)
        });
        SpanGuard {
            name,
            parent,
            depth,
            start: Instant::now(),
        }
    }

    /// The innermost span currently open on this thread, if any.
    pub fn current() -> Option<&'static str> {
        SPAN_STACK.with(|stack| stack.borrow().last().copied())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            // Pop this span.  Guards drop in LIFO order in straight-line
            // code; if a caller leaked an inner guard across an outer drop,
            // truncate to this span's depth rather than corrupt the stack.
            let mut stack = stack.borrow_mut();
            stack.truncate(self.depth);
        });
        if crate::enabled() {
            let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut fields = vec![
                ("name", FieldValue::Text(self.name.to_string())),
                ("depth", FieldValue::U64(self.depth as u64)),
                ("nanos", FieldValue::U64(nanos)),
            ];
            if let Some(parent) = self.parent {
                fields.push(("parent", FieldValue::Text(parent.to_string())));
            }
            crate::recorder().record("span", fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_a_per_thread_stack() {
        assert_eq!(SpanGuard::current(), None);
        let outer = SpanGuard::enter("outer");
        assert_eq!(SpanGuard::current(), Some("outer"));
        {
            let inner = SpanGuard::enter("inner");
            assert_eq!(inner.parent, Some("outer"));
            assert_eq!(inner.depth, 1);
            assert_eq!(SpanGuard::current(), Some("inner"));
        }
        assert_eq!(SpanGuard::current(), Some("outer"));
        assert_eq!(outer.depth, 0);
        drop(outer);
        assert_eq!(SpanGuard::current(), None);
    }

    #[test]
    fn other_threads_see_an_empty_stack() {
        let _outer = SpanGuard::enter("main-thread-span");
        std::thread::spawn(|| {
            assert_eq!(SpanGuard::current(), None);
            let _inner = SpanGuard::enter("worker-span");
            assert_eq!(SpanGuard::current(), Some("worker-span"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn closing_a_span_records_an_event() {
        let _guard = crate::tests::enabled_lock();
        drop(SpanGuard::enter("recorded-span"));
        let events = crate::recorder().events();
        assert!(events.iter().any(|e| {
            e.kind == "span"
                && e.fields
                    .iter()
                    .any(|(k, v)| *k == "name" && *v == FieldValue::Text("recorded-span".into()))
        }));
    }
}
