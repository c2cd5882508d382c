//! Hierarchical timed spans.
//!
//! [`span`] pushes its name onto a thread-local path and records the
//! elapsed time under the full slash-joined path when the guard drops, so
//! nested guards yield paths like `serve_step/feed`. [`leaf`] skips the
//! path stack entirely — hot kernels use it so `kernel/matmul` aggregates
//! under one name no matter which pool thread (and under which caller) it
//! ran. Guards are meant to drop in LIFO order, which ordinary lexical
//! scoping guarantees; an out-of-order drop only mislabels paths, it never
//! panics.
//!
//! At trace level 2 the same guards additionally emit begin/end events
//! into the [flight recorder](crate::flight), so code instrumented with
//! `span()`/`leaf()` shows up in per-request timelines with no changes.

use std::cell::RefCell;
use std::time::Instant;

use crate::event::{Event, EventKind};
use crate::registry::record_duration_ns;

thread_local! {
    /// The slash-joined path of currently open hierarchical spans.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

enum Inner {
    /// A span on the thread-local path stack; `truncate_to` restores the
    /// path when the guard drops. `events` remembers whether a begin event
    /// was emitted, so the matching end is emitted even if the trace level
    /// changes while the guard is alive.
    Hier {
        name: &'static str,
        truncate_to: usize,
        start: Instant,
        events: bool,
    },
    /// A flat timer that never touches the path stack.
    Leaf {
        name: &'static str,
        start: Instant,
        events: bool,
    },
}

/// Emits a begin event when the flight recorder is armed; returns whether
/// it did, so the guard can emit the matching end.
#[inline]
fn begin_event(name: &'static str) -> bool {
    if crate::events_enabled() {
        crate::flight::record(Event::now(EventKind::Begin, name, 0));
        true
    } else {
        false
    }
}

/// A timing guard returned by [`span`] and [`leaf`]; records its elapsed
/// time into the registry when dropped. A no-op (and nearly free) while
/// tracing is disabled.
pub struct Span(Option<Inner>);

/// Opens a hierarchical span. While the guard lives, further spans on this
/// thread nest under it (`parent/child`); the elapsed time is recorded
/// under the full path at drop.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let truncate_to = PATH.with(|p| {
        let mut p = p.borrow_mut();
        let n = p.len();
        if n > 0 {
            p.push('/');
        }
        p.push_str(name);
        n
    });
    let events = begin_event(name);
    Span(Some(Inner::Hier {
        name,
        truncate_to,
        start: Instant::now(),
        events,
    }))
}

/// Opens a flat timer that records under `name` alone, ignoring the
/// hierarchical path. Use for hot leaf kernels that run on arbitrary pool
/// threads under arbitrary callers.
#[inline]
pub fn leaf(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let events = begin_event(name);
    Span(Some(Inner::Leaf {
        name,
        start: Instant::now(),
        events,
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        match self.0.take() {
            None => {}
            Some(Inner::Hier {
                name,
                truncate_to,
                start,
                events,
            }) => {
                let ns = start.elapsed().as_nanos() as u64;
                let path = PATH.with(|p| {
                    let mut p = p.borrow_mut();
                    let full = p.clone();
                    p.truncate(truncate_to);
                    full
                });
                record_duration_ns(&path, ns);
                if events {
                    crate::flight::record(Event::now(EventKind::End, name, 0));
                }
            }
            Some(Inner::Leaf {
                name,
                start,
                events,
            }) => {
                record_duration_ns(name, start.elapsed().as_nanos() as u64);
                if events {
                    crate::flight::record(Event::now(EventKind::End, name, 0));
                }
            }
        }
    }
}

/// Runs `f` under a hierarchical span and returns its result.
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_restores_after_nested_guards() {
        // Exercise only the path bookkeeping (no global registry writes
        // needed): with tracing forced on, open and close nested spans and
        // check the thread-local path empties back out.
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        {
            let _a = span("a");
            {
                let _b = span("b");
                PATH.with(|p| assert_eq!(&*p.borrow(), "a/b"));
            }
            PATH.with(|p| assert_eq!(&*p.borrow(), "a"));
        }
        PATH.with(|p| assert_eq!(&*p.borrow(), ""));
        crate::set_enabled(false);
    }

    #[test]
    fn leaf_does_not_touch_the_path() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        {
            let _a = span("outer");
            let _l = leaf("kernel");
            PATH.with(|p| assert_eq!(&*p.borrow(), "outer"));
        }
        crate::set_enabled(false);
    }
}
