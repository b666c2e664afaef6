//! A hand-rolled single-threaded async executor for the event-driven serving
//! core.
//!
//! The offline build environment has no tokio (and no crates.io access at
//! all), so the reactor in [`crate::transport`] is driven by this minimal
//! executor built from `std` primitives only:
//!
//! * **Tasks** — each spawned future becomes a task behind an
//!   `Arc`; the task *is* its own waker (`std::task::Wake`), and an atomic
//!   state machine (idle → scheduled → running → rescheduled) makes wakes
//!   from any thread race-free without ever double-queueing a task.
//! * **Deadline heap** — every pending [`sleep`](Handle::sleep) (handshake,
//!   read-idle, backoff and probe deadlines) is one `(deadline, seq, waker)`
//!   entry in a binary min-heap; each pass of the run loop pops and wakes
//!   every entry that is due, and the earliest remaining deadline bounds how
//!   long the loop may block.  A sleep never fires before its deadline.
//! * **One run loop** — [`Executor::run`] advances the timers, polls every
//!   scheduled task to quiescence, then blocks until the next deadline, an
//!   external wake or — while the [`Handle::park_io`] set is non-empty — one
//!   poll interval, and afterwards re-wakes that set.  Only the blocking
//!   step depends on the [`ReactorBackend`]:
//!   [`Epoll`](ReactorBackend::Epoll) parks in `epoll_pwait` (via the raw
//!   bindings in [`crate::sys`]) on per-fd interest registered through
//!   [`Handle::park_socket`], with cross-thread wakes delivered over an
//!   eventfd — idle connections cost nothing and a readable socket wakes its
//!   future in microseconds; [`Tick`](ReactorBackend::Tick), the portable
//!   fallback, waits on a condvar, and futures blocked on non-blocking
//!   sockets sit in the park_io set, so they retry once per *tick* (the poll
//!   interval).
//! * **Oneshot channels** — [`oneshot`] lets CPU-bound work on the
//!   [`crate::ThreadPool`] complete a future back inside the event loop: the
//!   pool thread calls [`oneshot::Sender::send`], which wakes the awaiting
//!   task immediately (no tick latency on the completion path).
//!
//! The executor is single-threaded by design: one reactor thread runs
//! [`Executor::run`], all tasks are polled there, and cross-thread interaction
//! is confined to wakes (queue push + condvar notify or eventfd write) and
//! oneshot completions.  Multi-core serving shards *connections* across
//! several executors (see `transport`), never tasks across threads.

use crate::sys;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::fd::RawFd;
#[cfg(not(unix))]
/// Raw socket descriptor on non-unix targets (the epoll backend never
/// constructs there, so the alias only keeps signatures compiling).
type RawFd = i32;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// How the reactor's run loop blocks between bursts of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorBackend {
    /// Block in `epoll_pwait` on real kernel readiness: per-fd interest via
    /// [`Handle::park_socket`], cross-thread wakes via eventfd, the next
    /// timer deadline as the wait timeout.  Linux x86-64/aarch64 only.
    Epoll,
    /// The portable timed re-poll: wait on a condvar for at most one poll
    /// interval (500 µs in [`crate::TcpServer`]), then re-wake every parked
    /// I/O future so it retries its socket.
    Tick,
}

impl ReactorBackend {
    /// The backend requested by the `CORGI_REACTOR_BACKEND` environment
    /// variable (`"epoll"` or `"tick"`, case-insensitive).  Unset or
    /// unrecognized values request [`Epoll`](Self::Epoll), which
    /// [`resolve`](Self::resolve) degrades to [`Tick`](Self::Tick) wherever
    /// the syscalls are unavailable.
    pub fn from_env() -> Self {
        match std::env::var("CORGI_REACTOR_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("tick") => Self::Tick,
            _ => Self::Epoll,
        }
    }

    /// Degrade [`Epoll`](Self::Epoll) to [`Tick`](Self::Tick) when the
    /// readiness syscalls are compiled out (non-Linux) or refused at runtime
    /// (seccomp); see [`sys::readiness_available`].
    pub fn resolve(self) -> Self {
        match self {
            Self::Epoll if sys::readiness_available() => Self::Epoll,
            _ => Self::Tick,
        }
    }

    /// Stable lowercase name, used in bench IDs and reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Epoll => "epoll",
            Self::Tick => "tick",
        }
    }
}

/// A waker parked on socket readiness, with the interest bits currently armed
/// in the epoll set (0 = disarmed, waiting for its future to re-park).
struct FdWaiter {
    interest: u32,
    waker: Waker,
}

/// The epoll backend's kernel state: one poll set, the eventfd that external
/// threads write to interrupt `epoll_pwait`, and the fd → waker registry.
struct Poller {
    epoll: sys::Epoll,
    wakeup: sys::EventFd,
    waiters: Mutex<HashMap<RawFd, FdWaiter>>,
}

impl Poller {
    fn new() -> std::io::Result<Self> {
        let epoll = sys::Epoll::new()?;
        let wakeup = sys::EventFd::new()?;
        epoll.add(wakeup.as_raw_fd(), sys::EPOLLIN)?;
        Ok(Self {
            epoll,
            wakeup,
            waiters: Mutex::new(HashMap::new()),
        })
    }
}

// Task scheduling states; transitions are CAS-driven so concurrent wakes from
// pool threads and the reactor thread never lose a wakeup or enqueue twice.
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const RESCHEDULED: u8 = 3;

struct Task {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl Task {
    /// Move the task to `SCHEDULED` and enqueue it, unless it is already
    /// queued (or running, in which case the run loop re-queues it afterwards).
    fn schedule(self: &Arc<Self>) {
        // After shutdown the run loop is gone and `purge` has drained (or is
        // about to drain) every registry: enqueueing would park this task in
        // a dead queue forever, leaking its future (and any socket it owns)
        // through the ready → task → handle → shared cycle.  Dropping the
        // wake is the release path: the caller's waker clone was this task's
        // last reference.
        if self.shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.shared.push_ready(Arc::clone(self));
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, RESCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued (or already marked for re-queueing).
                _ => return,
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// State shared between the run loop, task wakers and [`Handle`]s.
struct Shared {
    ready: Mutex<VecDeque<Arc<Task>>>,
    wakeup: Condvar,
    io_parked: Mutex<Vec<Waker>>,
    timers: Timers,
    shutdown: AtomicBool,
    /// `Some` on the epoll backend, `None` on tick.
    poller: Option<Poller>,
    /// The thread currently inside [`Executor::run`], so same-thread wakes
    /// (a task polled on the reactor scheduling another) skip the eventfd
    /// write — the run loop re-checks the ready queue before blocking.
    reactor_thread: Mutex<Option<std::thread::ThreadId>>,
    /// Times the run loop has blocked, so tests can tell a loop that waits
    /// from one that spins.
    #[cfg(test)]
    blocks: std::sync::atomic::AtomicUsize,
}

impl Shared {
    fn push_ready(&self, task: Arc<Task>) {
        self.ready
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(task);
        self.notify();
    }

    /// Interrupt a (possibly) blocked run loop.  On epoll, every cross-thread
    /// wake writes the eventfd unconditionally: the reactor drains it each
    /// wakeup, and level-triggered readability means a write landing between
    /// that drain and the next `epoll_pwait` still returns it immediately —
    /// no lost-wakeup window, unlike any "already signaled" flag scheme.
    fn notify(&self) {
        match &self.poller {
            Some(poller) => {
                let on_reactor = *self
                    .reactor_thread
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    == Some(std::thread::current().id());
                if !on_reactor {
                    poller.wakeup.notify();
                }
            }
            None => {
                self.wakeup.notify_one();
            }
        }
    }

    fn pop_ready(&self) -> Option<Arc<Task>> {
        self.ready
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

/// A cloneable handle into a running (or about to run) [`Executor`]: spawn
/// tasks, create timers, park on I/O, request shutdown.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Spawn a future onto the executor.  Safe to call from any thread,
    /// including from inside a task.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            state: AtomicU8::new(IDLE),
            shared: Arc::clone(&self.shared),
        });
        task.schedule();
    }

    /// Register a waker to be re-woken on the next reactor tick.  I/O futures
    /// call this after a `WouldBlock` so their socket is re-polled at the
    /// configured poll interval.
    ///
    /// Works on both backends: the epoll run loop bounds its wait by the poll
    /// interval whenever this set is non-empty and re-wakes it after every
    /// wakeup, so a future with no single fd to watch is never stranded.
    pub fn park_io(&self, waker: &Waker) {
        self.shared
            .io_parked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(waker.clone());
    }

    /// Park a future on kernel readiness for `fd`: wake it when the socket
    /// becomes readable (`readable`, which includes peer hangup) and/or
    /// writable (`writable`).  The interest is **one-shot by disarm**: the
    /// run loop disarms the fd when it delivers a wake, and the future
    /// re-declares its *current* interest by calling this again on its next
    /// `Pending` — so interest always tracks what the future actually awaits.
    ///
    /// On the tick backend this degrades to [`park_io`](Self::park_io)
    /// (re-poll next tick).  Callers must call
    /// [`deregister_socket`](Self::deregister_socket) before closing the fd.
    pub fn park_socket(&self, fd: RawFd, readable: bool, writable: bool, waker: &Waker) {
        let Some(poller) = &self.shared.poller else {
            self.park_io(waker);
            return;
        };
        let mut want = 0u32;
        if readable {
            want |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if writable {
            want |= sys::EPOLLOUT;
        }
        // Declared before the guard so a waker displaced here drops *after*
        // the lock is released: a dropped waker can run a task destructor
        // that re-enters this lock via `deregister_socket`.
        let mut stale_waker: Option<Waker> = None;
        let mut waiters = poller.waiters.lock().unwrap_or_else(|e| e.into_inner());
        match waiters.entry(fd) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if entry.interest != want
                    && poller.epoll.modify(fd, want).is_err()
                    && poller.epoll.add(fd, want).is_err()
                {
                    // Kernel refused both ops (fd in a weird state): fall back
                    // to tick service rather than stranding the future.  The
                    // removed entry drops only after the guard for the same
                    // re-entrancy reason as `stale_waker`.
                    let removed = occupied.remove();
                    drop(waiters);
                    drop(removed);
                    self.park_io(waker);
                    return;
                }
                entry.interest = want;
                if !entry.waker.will_wake(waker) {
                    stale_waker = Some(std::mem::replace(&mut entry.waker, waker.clone()));
                }
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                if poller.epoll.add(fd, want).is_err() && poller.epoll.modify(fd, want).is_err() {
                    drop(waiters);
                    self.park_io(waker);
                    return;
                }
                vacant.insert(FdWaiter {
                    interest: want,
                    waker: waker.clone(),
                });
            }
        }
        drop(waiters);
        drop(stale_waker);
    }

    /// Drop any readiness registration for `fd`.  Must be called before the
    /// owning future closes the descriptor; harmless on the tick backend or
    /// for fds that were never parked.
    pub fn deregister_socket(&self, fd: RawFd) {
        if let Some(poller) = &self.shared.poller {
            // Hold the removed entry past the guard: dropping its waker can
            // run a task destructor that re-enters this same lock.
            let removed = poller
                .waiters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&fd);
            let _ = poller.epoll.delete(fd);
            drop(removed);
        }
    }

    /// The readiness backend this executor actually runs (after fallback).
    pub fn backend(&self) -> ReactorBackend {
        if self.shared.poller.is_some() {
            ReactorBackend::Epoll
        } else {
            ReactorBackend::Tick
        }
    }

    /// A future that resolves once `duration` has elapsed, never earlier.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        Sleep {
            deadline: Instant::now() + duration,
            shared: Arc::clone(&self.shared),
            registered: false,
        }
    }

    /// Ask the run loop to exit; pending tasks are dropped.  Idempotent and
    /// safe from any thread.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wakeup.notify_all();
        if let Some(poller) = &self.shared.poller {
            poller.wakeup.notify();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Timer entries currently queued on this executor.
    #[cfg(test)]
    pub(crate) fn pending_timers(&self) -> usize {
        self.shared.timers.len()
    }
}

/// The single-threaded future runner driving the serving reactor.
pub struct Executor {
    shared: Arc<Shared>,
    io_poll_interval: Duration,
}

impl Executor {
    /// Create an executor on the given backend (after
    /// [`ReactorBackend::resolve`]-style fallback: an epoll request silently
    /// degrades to tick if the poll set cannot be created).
    /// `io_poll_interval` is the reactor *tick*: the longest the run loop
    /// blocks while any future sits in the [`park_io`](Handle::park_io) set,
    /// which on tick holds every future waiting on a socket.
    pub fn with_backend(backend: ReactorBackend, io_poll_interval: Duration) -> Self {
        let poller = match backend.resolve() {
            ReactorBackend::Epoll => Poller::new().ok(),
            ReactorBackend::Tick => None,
        };
        Self {
            shared: Arc::new(Shared {
                ready: Mutex::new(VecDeque::new()),
                wakeup: Condvar::new(),
                io_parked: Mutex::new(Vec::new()),
                timers: Timers::default(),
                shutdown: AtomicBool::new(false),
                poller,
                reactor_thread: Mutex::new(None),
                #[cfg(test)]
                blocks: Default::default(),
            }),
            io_poll_interval: io_poll_interval.max(Duration::from_micros(50)),
        }
    }

    /// The readiness backend this executor actually runs (after fallback).
    pub fn backend(&self) -> ReactorBackend {
        self.handle().backend()
    }

    /// A handle for spawning and shutdown, cloneable across threads.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drive all tasks until [`Handle::shutdown`] is called.
    ///
    /// Each pass: wake due timers, poll every scheduled task to quiescence,
    /// block until something can change (the only backend-specific step),
    /// then re-wake the whole [`park_io`](Handle::park_io) set.
    pub fn run(&self) {
        *self
            .shared
            .reactor_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(std::thread::current().id());
        let mut events = vec![sys::EpollEvent::default(); 128];
        'run: while !self.shared.shutdown.load(Ordering::Acquire) {
            self.shared.timers.advance(Instant::now());

            while let Some(task) = self.shared.pop_ready() {
                self.poll_task(&task);
                if self.shared.shutdown.load(Ordering::Acquire) {
                    break 'run;
                }
            }

            self.block(self.next_wait(), &mut events);

            // Give every future in the park_io set another shot at its
            // socket (the wait above was bounded by the poll interval
            // whenever any were parked).
            let parked: Vec<Waker> = std::mem::take(
                &mut *self
                    .shared
                    .io_parked
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()),
            );
            for waker in parked {
                waker.wake();
            }
        }
        *self
            .shared
            .reactor_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        self.purge();
    }

    /// How long the run loop may block: until the next timer deadline,
    /// capped at one poll interval while the park_io set is non-empty.
    fn next_wait(&self) -> Duration {
        let has_io = !self
            .shared
            .io_parked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty();
        let until_timer = self
            .shared
            .timers
            .next_deadline()
            .map(|d| d.saturating_duration_since(Instant::now()));
        match (has_io, until_timer) {
            (true, Some(t)) => t.min(self.io_poll_interval),
            (true, None) => self.io_poll_interval,
            (false, Some(t)) => t,
            // Fully quiescent: only an external wake (spawn, oneshot
            // completion, readiness, shutdown) can change anything; the cap
            // just bounds how long a missed notify could ever stall us.
            (false, None) => Duration::from_millis(100),
        }
    }

    /// Block for at most `wait` — the only step of the run loop that
    /// depends on the backend.  On epoll: `epoll_pwait` with the wait
    /// rounded up to whole milliseconds, then disarm and wake every fd that
    /// fired.  On tick: the condvar, with a 10 µs floor.
    ///
    /// Nothing is runnable when this is called, and a cross-thread push
    /// landing after the run loop's drain is never lost: on epoll it has
    /// already written the eventfd, whose level-triggered readability makes
    /// the wait return at once; on tick either the ready-queue check under
    /// the condvar's lock sees it or its notify ends the wait.  Same-thread
    /// pushes cannot happen here (the loop ran them to quiescence).
    fn block(&self, wait: Duration, events: &mut [sys::EpollEvent]) {
        #[cfg(test)]
        self.shared.blocks.fetch_add(1, Ordering::Relaxed);
        let Some(poller) = &self.shared.poller else {
            let ready = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
            if ready.is_empty() && !self.shared.shutdown.load(Ordering::Acquire) {
                let _ = self
                    .shared
                    .wakeup
                    .wait_timeout(ready, wait.max(Duration::from_micros(10)))
                    .unwrap_or_else(|e| e.into_inner());
            }
            return;
        };
        // Ceil to whole milliseconds so a sub-ms timer wait does not
        // degenerate into a timeout-0 busy spin.
        let timeout_ms = wait.as_nanos().div_ceil(1_000_000).min(60_000) as i32;
        let n = poller.epoll.wait(events, timeout_ms).unwrap_or(0);

        let wakeup_fd = poller.wakeup.as_raw_fd();
        let mut fired = Vec::new();
        {
            let mut waiters = poller.waiters.lock().unwrap_or_else(|e| e.into_inner());
            for event in &events[..n] {
                let fd = event.tag() as RawFd;
                if fd == wakeup_fd {
                    poller.wakeup.drain();
                    continue;
                }
                if let Some(entry) = waiters.get_mut(&fd) {
                    // Disarm before waking: level-triggered readiness must
                    // not be re-delivered to a future that has stopped
                    // consuming it (backpressure, inflight cap); the future
                    // re-arms its current interest on its next park_socket.
                    if entry.interest != 0 {
                        let _ = poller.epoll.modify(fd, 0);
                        entry.interest = 0;
                    }
                    fired.push(entry.waker.clone());
                }
            }
        }
        for waker in fired {
            waker.wake();
        }
    }

    /// Break the `Shared` → `Task` → future → `Handle` → `Shared` reference
    /// cycle on shutdown by draining every waker registry.  Dropping the task
    /// `Arc`s drops their futures — and with them the listener and connection
    /// sockets they own — so peers see EOF instead of a dead, half-open
    /// server.  Tasks parked on an in-flight oneshot are released when its
    /// sender completes (the dispatch pool drains before the server drops).
    fn purge(&self) {
        loop {
            let Some(task) = self.shared.pop_ready() else {
                break;
            };
            drop(task);
        }
        // Every registry is emptied with take-then-drop: dropping a waker here
        // can drop the last `Arc<Task>` and run its future's destructor, and
        // `ConnectionTask::drop` re-enters `deregister_socket` (the waiters
        // lock).  Dropping inside the guard scope would self-deadlock.
        let parked = std::mem::take(
            &mut *self
                .shared
                .io_parked
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        drop(parked);
        self.shared.timers.clear();
        if let Some(poller) = &self.shared.poller {
            let waiters =
                std::mem::take(&mut *poller.waiters.lock().unwrap_or_else(|e| e.into_inner()));
            drop(waiters);
        }
    }

    fn poll_task(&self, task: &Arc<Task>) {
        task.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(task));
        let mut cx = Context::from_waker(&waker);
        let mut slot = task.future.lock().unwrap_or_else(|e| e.into_inner());
        let Some(future) = slot.as_mut() else {
            return; // completed earlier; a stale waker re-queued it
        };
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                *slot = None;
                task.state.store(IDLE, Ordering::Release);
            }
            Poll::Pending => {
                drop(slot);
                // If a wake arrived while we were polling, requeue; otherwise
                // go idle and wait for the waker.
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    task.state.store(SCHEDULED, Ordering::Release);
                    self.shared.push_ready(Arc::clone(task));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deadline heap
// ---------------------------------------------------------------------------

/// One pending sleep.  Entries order by `(deadline, seq)`: earliest first,
/// and registration order among equal deadlines.
struct TimerEntry {
    deadline: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The executor's pending sleeps: a min-heap on deadline behind one mutex.
/// A reactor holds a handful of timers (a handshake or read-idle deadline
/// per connection, a backoff or probe deadline per peer link), so a heap's
/// O(log n) push and pop and its O(1) peek beat any bucketed structure.
#[derive(Default)]
struct Timers {
    inner: Mutex<TimerHeap>,
}

#[derive(Default)]
struct TimerHeap {
    entries: BinaryHeap<Reverse<TimerEntry>>,
    next_seq: u64,
}

impl Timers {
    fn register(&self, deadline: Instant, waker: Waker) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(Reverse(TimerEntry {
            deadline,
            seq,
            waker,
        }));
    }

    /// Wake every timer whose deadline is at or before `now`, in deadline
    /// order.  Due entries are popped under the lock and woken (and dropped)
    /// only after it is released: waker destructors can run task teardown
    /// code that takes other reactor locks.
    fn advance(&self, now: Instant) {
        let mut fired: Vec<Waker> = Vec::new();
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            while let Some(top) = inner.entries.peek_mut() {
                if top.0.deadline > now {
                    break;
                }
                fired.push(PeekMut::pop(top).0.waker);
            }
        }
        for waker in fired {
            waker.wake();
        }
    }

    /// Earliest registered deadline, if any (sizes the run loop's wait).
    fn next_deadline(&self) -> Option<Instant> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.entries.peek().map(|top| top.0.deadline)
    }

    /// Drop every registered entry (and the task wakers they hold), outside
    /// the lock for the same reason as [`advance`](Self::advance).
    fn clear(&self) {
        let drained =
            std::mem::take(&mut self.inner.lock().unwrap_or_else(|e| e.into_inner()).entries);
        drop(drained);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }
}

/// Future returned by [`Handle::sleep`].
///
/// It registers one heap entry on its first pending poll.  Dropping it early
/// leaves that entry queued until its deadline, when it wakes the task once
/// for nothing; a future that re-arms a deadline should keep one `Sleep` and
/// replace it only after it fires.
pub struct Sleep {
    deadline: Instant,
    shared: Arc<Shared>,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if Instant::now() >= this.deadline {
            Poll::Ready(())
        } else {
            // Register with the heap once: a task re-polled for other
            // reasons (I/O ticks) must not pile up duplicate entries, and the
            // task's waker is stable so the original entry stays valid.
            if !this.registered {
                this.shared
                    .timers
                    .register(this.deadline, cx.waker().clone());
                this.registered = true;
            }
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Oneshot channel
// ---------------------------------------------------------------------------

/// A single-value channel whose receiving half is a [`Future`]: the bridge by
/// which blocking work on the [`crate::ThreadPool`] re-enters the event loop.
pub mod oneshot {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    struct Inner<T> {
        state: Mutex<State<T>>,
    }

    struct State<T> {
        value: Option<T>,
        waker: Option<Waker>,
        closed: bool,
    }

    /// Sending half; consumed by [`Sender::send`].  Dropping it without
    /// sending resolves the receiver with [`Canceled`].
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half; a future resolving to the sent value, or [`Canceled`]
    /// if the sender was dropped first (e.g. the producing job panicked).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned when the sending half was dropped without sending.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Canceled;

    impl std::fmt::Display for Canceled {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "oneshot sender dropped without sending")
        }
    }

    impl std::error::Error for Canceled {}

    /// Create a connected sender/receiver pair.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                value: None,
                waker: None,
                closed: false,
            }),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Deliver the value, waking the receiver if it is awaiting.  Returns
        /// the value back if the receiver was already dropped.
        pub fn send(self, value: T) -> Result<(), T> {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.closed {
                return Err(value);
            }
            state.value = Some(value);
            let waker = state.waker.take();
            drop(state);
            if let Some(waker) = waker {
                waker.wake();
            }
            // Dropping self now sets `closed`, which is harmless: receivers
            // check for a delivered value before the closed flag.
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.closed = true;
            let waker = state.waker.take();
            drop(state);
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Lets a later `send` fail fast instead of stashing a dead value.
            self.inner
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .closed = true;
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, Canceled>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(value) = state.value.take() {
                return Poll::Ready(Ok(value));
            }
            if state.closed {
                return Poll::Ready(Err(Canceled));
            }
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    impl<T> Unpin for Receiver<T> {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Both backends where the readiness syscalls exist, tick alone
    /// elsewhere: every test below that takes a backend runs on each.
    fn backends() -> Vec<ReactorBackend> {
        let mut backends = vec![ReactorBackend::Tick];
        if ReactorBackend::Epoll.resolve() == ReactorBackend::Epoll {
            backends.push(ReactorBackend::Epoll);
        }
        backends
    }

    /// Run `future` on a fresh executor until it completes and return its
    /// output.
    fn run_to_completion<T: Send + 'static>(
        backend: ReactorBackend,
        future: impl Future<Output = T> + Send + 'static,
    ) -> T {
        let executor = Executor::with_backend(backend, Duration::from_micros(200));
        let handle = executor.handle();
        let output = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&output);
        let stopper = handle.clone();
        handle.spawn(async move {
            let value = future.await;
            *slot.lock().unwrap() = Some(value);
            stopper.shutdown();
        });
        executor.run();
        let value = output.lock().unwrap().take();
        value.expect("the future completed before shutdown")
    }

    #[test]
    fn oneshot_delivers_across_threads() {
        for backend in backends() {
            let (tx, rx) = oneshot::channel::<u32>();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(99).unwrap();
            });
            assert_eq!(run_to_completion(backend, rx), Ok(99), "{backend:?}");
        }
    }

    #[test]
    fn oneshot_sender_drop_cancels() {
        for backend in backends() {
            let (tx, rx) = oneshot::channel::<u32>();
            drop(tx);
            assert_eq!(
                run_to_completion(backend, rx),
                Err(oneshot::Canceled),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn executor_runs_spawned_tasks_and_shuts_down() {
        let executor = Executor::with_backend(ReactorBackend::Tick, Duration::from_micros(200));
        let handle = executor.handle();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            handle.spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let stopper = handle.clone();
        let counter_done = Arc::clone(&counter);
        handle.spawn(async move {
            // Wait for the ten increments, then stop the loop from inside.
            while counter_done.load(Ordering::SeqCst) < 10 {
                stopper.sleep(Duration::from_millis(1)).await;
            }
            stopper.shutdown();
        });
        executor.run();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(handle.pending_timers(), 0, "purge empties the heap");
    }

    #[test]
    fn sleep_respects_its_deadline() {
        let executor = Executor::with_backend(ReactorBackend::Tick, Duration::from_micros(200));
        let handle = executor.handle();
        let start = Instant::now();
        let woke_after = Arc::new(Mutex::new(None));
        let woke = Arc::clone(&woke_after);
        let stopper = handle.clone();
        handle.spawn(async move {
            stopper.sleep(Duration::from_millis(25)).await;
            *woke.lock().unwrap() = Some(start.elapsed());
            stopper.shutdown();
        });
        executor.run();
        let elapsed = woke_after.lock().unwrap().expect("task ran");
        assert!(
            elapsed >= Duration::from_millis(25),
            "sleep fired early after {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "sleep fired far too late after {elapsed:?}"
        );
    }

    #[test]
    fn heap_timers_fire_in_deadline_order_and_never_early() {
        // 200 sleeps registered in shuffled order, two per deadline, spread
        // over 20–317 ms (past 256 ms, where a 256-slot 1 ms hashed wheel
        // wraps), plus one sleep registered and dropped before its
        // deadline.  Every sleep must wake at or after its deadline, in
        // deadline order, without the run loop hanging or spinning.
        for backend in backends() {
            let executor = Executor::with_backend(backend, Duration::from_micros(500));
            let handle = executor.handle();
            let base = Instant::now() + Duration::from_millis(20);
            let mut deadlines: Vec<Instant> = (0..200u64)
                .map(|i| base + Duration::from_millis(3 * (i / 2)))
                .collect();
            // Fisher–Yates with a fixed LCG, so the order is shuffled but
            // reproducible.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            for i in (1..deadlines.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                deadlines.swap(i, (state >> 33) as usize % (i + 1));
            }
            let sleep_until = |deadline: Instant| Sleep {
                deadline,
                shared: Arc::clone(&handle.shared),
                registered: false,
            };

            let woken: Arc<Mutex<Vec<(Instant, Instant)>>> = Arc::default();
            for &deadline in &deadlines {
                let sleep = sleep_until(deadline);
                let woken = Arc::clone(&woken);
                let stopper = handle.clone();
                handle.spawn(async move {
                    sleep.await;
                    let mut woken = woken.lock().unwrap();
                    woken.push((deadline, Instant::now()));
                    if woken.len() == 200 {
                        stopper.shutdown();
                    }
                });
            }
            // Registered, then dropped long before its deadline: its entry
            // wakes a finished task once, which must change nothing.
            let mut dropped = sleep_until(base + Duration::from_millis(150));
            handle.spawn(std::future::poll_fn(move |cx| {
                assert!(Pin::new(&mut dropped).poll(cx).is_pending());
                Poll::Ready(())
            }));

            // Turn a hang into a failure.
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let watchdog_handle = handle.clone();
            let watchdog = std::thread::spawn(move || {
                if done_rx.recv_timeout(Duration::from_secs(10)).is_err() {
                    watchdog_handle.shutdown();
                }
            });
            executor.run();
            let _ = done_tx.send(());
            watchdog.join().unwrap();

            let woken = woken.lock().unwrap();
            assert_eq!(woken.len(), 200, "{backend:?}: a sleep never woke");
            for (deadline, at) in woken.iter() {
                assert!(at >= deadline, "{backend:?}: a sleep fired early");
            }
            assert!(
                woken.windows(2).all(|pair| pair[0].0 <= pair[1].0),
                "{backend:?}: sleeps woke out of deadline order"
            );
            // 100 distinct deadlines 3 ms apart take a few hundred blocking
            // waits; a loop that spins instead blocks tens of thousands of
            // times (or, on epoll, waits with timeout 0).
            let blocks = executor.shared.blocks.load(Ordering::Relaxed);
            assert!(
                blocks < 2_000,
                "{backend:?}: run loop blocked {blocks} times over ~320 ms"
            );
        }
    }

    #[test]
    fn pool_results_reenter_the_event_loop() {
        // The exact shape the transport uses: a blocking pool job completing a
        // oneshot that a task on the executor is awaiting.
        let pool = crate::ThreadPool::new(2);
        let executor = Executor::with_backend(ReactorBackend::Tick, Duration::from_micros(200));
        let handle = executor.handle();
        let total = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..8usize {
            let (tx, rx) = oneshot::channel::<usize>();
            pool.execute(move || {
                let _ = tx.send(i * i);
            });
            let total = Arc::clone(&total);
            let done = Arc::clone(&done);
            let stopper = handle.clone();
            handle.spawn(async move {
                let value = rx.await.expect("pool job completes");
                total.fetch_add(value, Ordering::SeqCst);
                if done.fetch_add(1, Ordering::SeqCst) + 1 == 8 {
                    stopper.shutdown();
                }
            });
        }
        executor.run();
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(total.load(Ordering::SeqCst), (0..8).map(|i| i * i).sum());
    }

    #[test]
    fn backend_resolution_prefers_epoll_where_available() {
        let resolved = ReactorBackend::Epoll.resolve();
        if crate::sys::readiness_available() {
            assert_eq!(resolved, ReactorBackend::Epoll);
            assert_eq!(
                Executor::with_backend(ReactorBackend::Epoll, Duration::from_micros(500)).backend(),
                ReactorBackend::Epoll
            );
        } else {
            assert_eq!(resolved, ReactorBackend::Tick);
        }
        assert_eq!(ReactorBackend::Tick.resolve(), ReactorBackend::Tick);
        assert_eq!(
            Executor::with_backend(ReactorBackend::Tick, Duration::from_micros(500)).backend(),
            ReactorBackend::Tick
        );
    }

    #[test]
    fn epoll_backend_runs_tasks_timers_and_oneshots() {
        // The full scheduling surface on the readiness backend: plain tasks,
        // heap-timer sleeps, and cross-thread oneshot completions.
        let executor = Executor::with_backend(ReactorBackend::Epoll, Duration::from_micros(500));
        if executor.backend() != ReactorBackend::Epoll {
            return; // no readiness syscalls on this target/kernel
        }
        let handle = executor.handle();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            handle.spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (tx, rx) = oneshot::channel::<usize>();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let _ = tx.send(100);
        });
        let counter_rx = Arc::clone(&counter);
        let sleeper = handle.clone();
        handle.spawn(async move {
            sleeper.sleep(Duration::from_millis(1)).await;
            let value = rx.await.expect("oneshot completes");
            counter_rx.fetch_add(value, Ordering::SeqCst);
            sleeper.shutdown();
        });
        executor.run();
        assert_eq!(counter.load(Ordering::SeqCst), 110);
    }

    #[test]
    fn epoll_backend_wakes_on_socket_readiness_not_on_a_tick() {
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        // A deliberately huge poll interval: if the reactor still relied on
        // the tick, the echo below would take ~2 s.  Readiness must deliver
        // it in milliseconds.
        let executor = Executor::with_backend(ReactorBackend::Epoll, Duration::from_secs(2));
        if executor.backend() != ReactorBackend::Epoll {
            return;
        }
        let handle = executor.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let echo = handle.clone();
        handle.spawn(std::future::poll_fn(move |cx| {
            let mut stream = &server;
            let mut buf = [0u8; 16];
            match stream.read(&mut buf) {
                Ok(n) if n > 0 => {
                    stream.write_all(&buf[..n]).unwrap();
                    echo.deregister_socket(server.as_raw_fd());
                    echo.shutdown();
                    Poll::Ready(())
                }
                Ok(_) => Poll::Ready(()),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    echo.park_socket(server.as_raw_fd(), true, false, cx.waker());
                    Poll::Pending
                }
                Err(e) => panic!("echo read failed: {e}"),
            }
        }));

        let reactor = std::thread::spawn(move || executor.run());
        // Let the reactor park on readiness first, then measure the wake.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        client.write_all(b"ping").unwrap();
        let mut reply = [0u8; 4];
        client.read_exact(&mut reply).unwrap();
        let elapsed = start.elapsed();
        reactor.join().unwrap();
        assert_eq!(&reply, b"ping");
        assert!(
            elapsed < Duration::from_millis(500),
            "readiness wake took {elapsed:?}; reactor fell back to the tick"
        );
    }

    #[test]
    fn io_parked_wakers_are_rewoken_each_tick() {
        let executor = Executor::with_backend(ReactorBackend::Tick, Duration::from_micros(200));
        let handle = executor.handle();
        let polls = Arc::new(AtomicUsize::new(0));
        let polls_in = Arc::clone(&polls);
        let parker = handle.clone();
        handle.spawn(std::future::poll_fn(move |cx| {
            let n = polls_in.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= 5 {
                parker.shutdown();
                Poll::Ready(())
            } else {
                parker.park_io(cx.waker());
                Poll::Pending
            }
        }));
        executor.run();
        assert!(polls.load(Ordering::SeqCst) >= 5);
    }

    #[test]
    fn epoll_backend_rewakes_futures_parked_on_the_io_poll_set() {
        use std::os::fd::AsRawFd;

        // A regular file cannot join an epoll set, so `park_socket` falls
        // back to `park_io`; the epoll run loop must still re-wake the future
        // or it would hang.
        let executor = Executor::with_backend(ReactorBackend::Epoll, Duration::from_micros(500));
        if executor.backend() != ReactorBackend::Epoll {
            return;
        }
        let file = std::fs::File::open(std::env::current_exe().unwrap()).unwrap();
        let fd = file.as_raw_fd();
        let handle = executor.handle();
        let polls = Arc::new(AtomicUsize::new(0));
        let polls_in = Arc::clone(&polls);
        let parker = handle.clone();
        handle.spawn(std::future::poll_fn(move |cx| {
            let n = polls_in.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= 5 {
                parker.shutdown();
                Poll::Ready(())
            } else {
                parker.park_socket(fd, true, false, cx.waker());
                Poll::Pending
            }
        }));
        // Turn a stranded future into a failure instead of a hang.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let watchdog_handle = handle.clone();
        let watchdog = std::thread::spawn(move || {
            if done_rx.recv_timeout(Duration::from_secs(10)).is_err() {
                watchdog_handle.shutdown();
            }
        });
        executor.run();
        let _ = done_tx.send(());
        watchdog.join().unwrap();
        assert!(
            polls.load(Ordering::SeqCst) >= 5,
            "io-parked future was not re-woken"
        );
        let poller = executor.shared.poller.as_ref().expect("epoll backend");
        assert!(
            !poller.waiters.lock().unwrap().contains_key(&fd),
            "a regular file must not be registered for readiness"
        );
    }
}
