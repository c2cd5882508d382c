//! Fixed-size flight-recorder events and request attribution.
//!
//! An [`Event`] is a `Copy` record — timestamp, kind, static name, request
//! id, one integer argument — so recording one is a couple of word moves
//! into a preallocated ring ([`crate::flight`]): no allocation ever happens
//! on the hot path. Events are only recorded at trace level 2
//! (`LM4DB_TRACE=2` or [`crate::set_level`]`(2)`); at levels 0 and 1 every
//! event call site is the same relaxed-load-plus-branch as the rest of the
//! instrumentation.
//!
//! **Request attribution.** A thread-local *current request id* tags every
//! event recorded while a [`request_scope`] guard is alive. The serve
//! engine opens one around each request's selection; forward work is
//! shared — one stacked forward serves several requests — so the engine
//! times it once and books the interval under each member with
//! [`complete_for`]. Together that is what turns a flat event stream into
//! per-request timelines.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span or leaf timer opened (`ph: "B"` in Chrome traces).
    Begin,
    /// The matching close (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A complete interval whose duration is in [`Event::arg`] (`ph: "X"`,
    /// emitted by [`complete_for`], whose caller knows the duration only
    /// at the end).
    Complete,
}

/// One fixed-size flight-recorder record. `Copy`, allocation-free: the
/// name is `&'static str`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch (first event wins).
    pub ts_ns: u64,
    /// Kind-specific payload: duration for [`EventKind::Complete`], a
    /// caller-supplied value for instants, 0 otherwise.
    pub arg: u64,
    /// Request id + 1; 0 means unattributed. See [`Event::request`].
    pub(crate) req1: u64,
    /// Static event name (span/leaf/instant name).
    pub name: &'static str,
    /// What this record marks.
    pub kind: EventKind,
}

impl Event {
    /// Builds an event stamped now, attributed to the thread's current
    /// request (if any).
    #[inline]
    pub(crate) fn now(kind: EventKind, name: &'static str, arg: u64) -> Event {
        Event {
            ts_ns: now_ns(),
            arg,
            req1: CURRENT_REQ.with(|c| c.get()),
            name,
            kind,
        }
    }

    /// Same, but attributed to an explicit request id.
    #[inline]
    pub(crate) fn now_for(kind: EventKind, name: &'static str, arg: u64, req: u64) -> Event {
        Event {
            ts_ns: now_ns(),
            arg,
            req1: req + 1,
            name,
            kind,
        }
    }

    /// The request this event belongs to, if it was recorded under a
    /// [`request_scope`] (or with an explicit id).
    pub fn request(&self) -> Option<u64> {
        self.req1.checked_sub(1)
    }
}

/// The process-wide trace epoch: all event timestamps are relative to the
/// first call, so traces from one run share one clock.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the trace epoch.
#[inline]
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// Current request id + 1 (0 = none), restored by [`RequestScope`].
    static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
}

/// Guard returned by [`request_scope`]; restores the previous attribution
/// when dropped, so scopes nest correctly.
pub struct RequestScope {
    prev: u64,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQ.with(|c| c.set(self.prev));
    }
}

/// Attributes every event recorded on this thread to request `id` while
/// the guard lives. Cheap enough to use unconditionally (one thread-local
/// store each way), so attribution stays correct even when tracing is
/// toggled mid-request.
#[inline]
pub fn request_scope(id: u64) -> RequestScope {
    let prev = CURRENT_REQ.with(|c| c.replace(id + 1));
    RequestScope { prev }
}

/// The request id events on this thread are currently attributed to.
pub fn current_request() -> Option<u64> {
    CURRENT_REQ.with(|c| c.get()).checked_sub(1)
}

/// Records an instant event under the current request. No-op below trace
/// level 2.
#[inline]
pub fn instant(name: &'static str) {
    if crate::events_enabled() {
        crate::flight::record(Event::now(EventKind::Instant, name, 0));
    }
}

/// Records an instant event carrying an integer argument (chunk counts,
/// attempt numbers, …). No-op below trace level 2.
#[inline]
pub fn instant_arg(name: &'static str, arg: u64) {
    if crate::events_enabled() {
        crate::flight::record(Event::now(EventKind::Instant, name, arg));
    }
}

/// Records an instant event attributed to an explicit request id — for
/// call sites (submit/admit/retire) that know the request but run outside
/// any [`request_scope`]. No-op below trace level 2.
#[inline]
pub fn instant_for(name: &'static str, req: u64) {
    if crate::events_enabled() {
        crate::flight::record(Event::now_for(EventKind::Instant, name, 0, req));
    }
}

/// Like [`instant_for`], but carrying an integer argument — e.g. tagging a
/// request's trace with its tenant id at submit. No-op below trace level 2.
#[inline]
pub fn instant_for_arg(name: &'static str, req: u64, arg: u64) {
    if crate::events_enabled() {
        crate::flight::record(Event::now_for(EventKind::Instant, name, arg, req));
    }
}

/// Records a complete interval of `dur_ns` that ends now, attributed to an
/// explicit request id — for work shared by several requests (one stacked
/// forward over a group of sequences), where no single [`request_scope`]
/// can cover it: the caller times the shared work once and books the
/// interval under each member. No-op below trace level 2.
#[inline]
pub fn complete_for(name: &'static str, req: u64, dur_ns: u64) {
    if crate::events_enabled() {
        crate::flight::record(Event::now_for(EventKind::Complete, name, dur_ns, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request(), None);
        {
            let _a = request_scope(7);
            assert_eq!(current_request(), Some(7));
            {
                let _b = request_scope(9);
                assert_eq!(current_request(), Some(9));
            }
            assert_eq!(current_request(), Some(7));
        }
        assert_eq!(current_request(), None);
    }

    #[test]
    fn event_request_roundtrip() {
        let _g = request_scope(0);
        let e = Event::now(EventKind::Instant, "x", 0);
        assert_eq!(e.request(), Some(0));
        drop(_g);
        let e = Event::now(EventKind::Instant, "x", 0);
        assert_eq!(e.request(), None);
        let e = Event::now_for(EventKind::Instant, "x", 0, 3);
        assert_eq!(e.request(), Some(3));
    }
}
