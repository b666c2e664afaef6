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
//! * **Timer wheel** — a coarse hashed wheel ([`TimerWheel`]) backs the
//!   [`sleep_until`](Handle::sleep_until) future used for handshake and read
//!   timeouts; the run loop advances it from a monotonic clock.
//! * **Readiness backends** — the reactor blocks in one of two ways,
//!   selected by [`ReactorBackend`]:
//!   [`Epoll`](ReactorBackend::Epoll) parks the run loop in `epoll_pwait`
//!   (via the raw bindings in [`crate::sys`]) with per-fd interest registered
//!   through [`Handle::park_socket`], cross-thread wakes delivered over an
//!   eventfd and the timer wheel's next deadline as the wait timeout — idle
//!   connections cost nothing and a readable socket wakes its future in
//!   microseconds; [`Tick`](ReactorBackend::Tick) is the portable fallback
//!   where futures blocked on non-blocking sockets register their waker in a
//!   poll set ([`Handle::park_io`]) and the run loop re-wakes the whole set
//!   once per *tick* (the configured poll interval).
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
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
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
    /// [`Handle::park_socket`], cross-thread wakes via eventfd, timer-wheel
    /// deadlines as the wait timeout.  Linux x86-64/aarch64 only.
    Epoll,
    /// The portable timed re-poll: sleep at most one `io_poll_interval`, then
    /// re-wake every parked I/O future so it retries its socket.
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
    timer: TimerWheel,
    shutdown: AtomicBool,
    live_tasks: AtomicUsize,
    /// `Some` on the epoll backend, `None` on tick.
    poller: Option<Poller>,
    /// The thread currently inside [`Executor::run`], so same-thread wakes
    /// (a task polled on the reactor scheduling another) skip the eventfd
    /// write — the run loop re-checks the ready queue before blocking.
    reactor_thread: Mutex<Option<std::thread::ThreadId>>,
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
        self.shared.live_tasks.fetch_add(1, Ordering::AcqRel);
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

    /// A future that resolves once the monotonic clock reaches `deadline`.
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        Sleep {
            deadline,
            shared: Arc::clone(&self.shared),
            registered: false,
        }
    }

    /// A future that resolves after `duration` has elapsed.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
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

    /// Number of spawned tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.shared.live_tasks.load(Ordering::Acquire)
    }
}

/// The single-threaded future runner driving the serving reactor.
pub struct Executor {
    shared: Arc<Shared>,
    io_poll_interval: Duration,
}

impl Executor {
    /// Create a tick-backend executor whose I/O poll set is re-woken every
    /// `io_poll_interval` (the reactor *tick*).
    pub fn new(io_poll_interval: Duration) -> Self {
        Self::with_backend(ReactorBackend::Tick, io_poll_interval)
    }

    /// Create an executor on the given backend (after
    /// [`ReactorBackend::resolve`]-style fallback: an epoll request silently
    /// degrades to tick if the poll set cannot be created).  On epoll,
    /// `io_poll_interval` only bounds the wait while legacy
    /// [`park_io`](Handle::park_io) waiters exist.
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
                timer: TimerWheel::new(Duration::from_millis(1), 256),
                shutdown: AtomicBool::new(false),
                live_tasks: AtomicUsize::new(0),
                poller,
                reactor_thread: Mutex::new(None),
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
    /// Each iteration: expire due timers, poll every scheduled task to
    /// quiescence, then block until something can change — in `epoll_pwait`
    /// on fd readiness/eventfd with the next timer deadline as timeout
    /// (epoll backend), or on the condvar until the earliest of (next timer,
    /// next I/O tick, an external wake) and then re-wake the whole I/O poll
    /// set (tick backend).
    pub fn run(&self) {
        *self
            .shared
            .reactor_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(std::thread::current().id());
        match &self.shared.poller {
            Some(poller) => self.run_epoll(poller),
            None => self.run_inner(),
        }
        *self
            .shared
            .reactor_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        self.purge();
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
        self.shared.timer.clear();
        if let Some(poller) = &self.shared.poller {
            let waiters =
                std::mem::take(&mut *poller.waiters.lock().unwrap_or_else(|e| e.into_inner()));
            drop(waiters);
        }
    }

    /// The epoll run loop: identical task scheduling to the tick loop, but
    /// the idle wait is a real readiness wait instead of a timed re-poll.
    fn run_epoll(&self, poller: &Poller) {
        let mut events = vec![sys::EpollEvent::default(); 128];
        let wakeup_fd = poller.wakeup.as_raw_fd();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.shared.timer.advance(Instant::now());

            while let Some(task) = self.shared.pop_ready() {
                self.poll_task(&task);
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }

            // Nothing runnable: block on readiness.  A cross-thread push
            // landing after the drain above has already written the eventfd,
            // whose level-triggered readability makes the wait below return
            // immediately — same-thread pushes cannot happen here (the loop
            // above ran them to quiescence).
            let now = Instant::now();
            let has_legacy = !self
                .shared
                .io_parked
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
            let until_timer = self
                .shared
                .timer
                .next_deadline()
                .map(|d| d.saturating_duration_since(now));
            let wait = match (has_legacy, until_timer) {
                (true, Some(t)) => t.min(self.io_poll_interval),
                (true, None) => self.io_poll_interval,
                (false, Some(t)) => t,
                // Fully readiness-driven: the cap only bounds how long a
                // hypothetically missed eventfd write could ever stall us.
                (false, None) => Duration::from_millis(100),
            };
            // Ceil to whole milliseconds so a sub-ms timer wait does not
            // degenerate into a timeout-0 busy spin.
            let timeout_ms = wait.as_nanos().div_ceil(1_000_000).min(60_000) as i32;
            let n = poller.epoll.wait(&mut events, timeout_ms).unwrap_or(0);

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
                        // Disarm before waking: level-triggered readiness
                        // must not be re-delivered to a future that has
                        // stopped consuming it (backpressure, inflight cap);
                        // the future re-arms its current interest on its
                        // next park_socket.
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

            // Legacy park_io futures still get tick service (the wait above
            // was bounded by io_poll_interval whenever any were parked).
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
    }

    fn run_inner(&self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.shared.timer.advance(Instant::now());

            while let Some(task) = self.shared.pop_ready() {
                self.poll_task(&task);
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }

            // Nothing runnable: sleep until something can change.
            let now = Instant::now();
            let has_io = !self
                .shared
                .io_parked
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
            let until_timer = self
                .shared
                .timer
                .next_deadline()
                .map(|d| d.saturating_duration_since(now));
            let mut wait = match (has_io, until_timer) {
                (true, Some(t)) => t.min(self.io_poll_interval),
                (true, None) => self.io_poll_interval,
                (false, Some(t)) => t,
                // Fully quiescent: only an external wake (spawn, oneshot
                // completion, shutdown) can change anything; the cap just
                // bounds how long a missed notify could ever stall us.
                (false, None) => Duration::from_millis(100),
            };
            wait = wait.max(Duration::from_micros(10));
            {
                let ready = self.shared.ready.lock().unwrap_or_else(|e| e.into_inner());
                if ready.is_empty() && !self.shared.shutdown.load(Ordering::Acquire) {
                    let _ = self
                        .shared
                        .wakeup
                        .wait_timeout(ready, wait)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }

            // Tick: give every I/O-parked future another shot at its socket.
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
                self.shared.live_tasks.fetch_sub(1, Ordering::AcqRel);
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

/// Run a single future to completion on the calling thread, parking it between
/// polls.  Used by tests and small tools; the serving reactor uses
/// [`Executor::run`] instead.
pub fn block_on<F: Future>(future: F) -> F::Output {
    struct ThreadWaker {
        thread: std::thread::Thread,
        notified: AtomicBool,
    }
    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.notified.store(true, Ordering::Release);
            self.thread.unpark();
        }
    }

    let mut future = std::pin::pin!(future);
    let thread_waker = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&thread_waker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => {
                // Bounded park, then re-poll even without a wake: a `Sleep`
                // polled outside an `Executor` has no wheel-advancing run
                // loop, so only a periodic re-poll can observe its deadline.
                if !thread_waker.notified.swap(false, Ordering::AcqRel) {
                    std::thread::park_timeout(Duration::from_millis(1));
                    thread_waker.notified.store(false, Ordering::Release);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

struct TimerEntry {
    expires_tick: u64,
    waker: Waker,
}

struct WheelInner {
    slots: Vec<Vec<TimerEntry>>,
    current_tick: u64,
}

/// A coarse hashed timer wheel: deadlines are quantized to a tick granularity
/// and hashed into `slots.len()` buckets by tick index, so registering and
/// expiring timers is O(1) amortized regardless of how far out they are.
///
/// Firing is strictly *not early*: a waker registered for tick `t` is only
/// woken once the wheel has advanced past `t`, and at most `granularity` late
/// plus the run loop's sleep quantum.
pub struct TimerWheel {
    inner: Mutex<WheelInner>,
    granularity: Duration,
    epoch: Instant,
}

impl TimerWheel {
    fn new(granularity: Duration, slots: usize) -> Self {
        Self {
            inner: Mutex::new(WheelInner {
                slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
                current_tick: 0,
            }),
            granularity: granularity.max(Duration::from_micros(100)),
            epoch: Instant::now(),
        }
    }

    fn tick_of(&self, deadline: Instant) -> u64 {
        let since = deadline.saturating_duration_since(self.epoch);
        // Round up: never fire before the deadline.
        (since.as_nanos() / self.granularity.as_nanos()) as u64 + 1
    }

    fn register(&self, deadline: Instant, waker: Waker) {
        let expires_tick = self.tick_of(deadline);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let slot = (expires_tick % inner.slots.len() as u64) as usize;
        inner.slots[slot].push(TimerEntry {
            expires_tick,
            waker,
        });
    }

    /// Advance the wheel to `now`, waking every timer whose tick has passed.
    fn advance(&self, now: Instant) {
        let now_tick = (now.saturating_duration_since(self.epoch).as_nanos()
            / self.granularity.as_nanos()) as u64;
        // Due entries are *moved out* of the wheel and woken (and dropped)
        // only after the lock is released: waker destructors can run task
        // teardown code that takes other reactor locks.
        let mut fired: Vec<TimerEntry> = Vec::new();
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if now_tick <= inner.current_tick {
                return;
            }
            let span = now_tick - inner.current_tick;
            let slot_count = inner.slots.len() as u64;
            let expire_slot = |slot: &mut Vec<TimerEntry>, fired: &mut Vec<TimerEntry>| {
                let mut index = 0;
                while index < slot.len() {
                    if slot[index].expires_tick <= now_tick {
                        fired.push(slot.swap_remove(index));
                    } else {
                        index += 1;
                    }
                }
            };
            if span >= slot_count {
                // Swept the whole wheel: expire everything due, slot by slot.
                for slot in inner.slots.iter_mut() {
                    expire_slot(slot, &mut fired);
                }
            } else {
                for tick in (inner.current_tick + 1)..=now_tick {
                    let slot = (tick % slot_count) as usize;
                    expire_slot(&mut inner.slots[slot], &mut fired);
                }
            }
            inner.current_tick = now_tick;
        }
        for entry in fired {
            entry.waker.wake();
        }
    }

    /// Drop every registered entry (and the task wakers they hold).  Entries
    /// are moved out before dropping: waker destructors can run arbitrary
    /// task-teardown code and must not run under the wheel's lock.
    fn clear(&self) {
        let mut drained: Vec<Vec<TimerEntry>> = Vec::new();
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            for slot in inner.slots.iter_mut() {
                drained.push(std::mem::take(slot));
            }
        }
        drop(drained);
    }

    /// Earliest registered deadline, if any (used to size the run loop sleep).
    fn next_deadline(&self) -> Option<Instant> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let min_tick = inner.slots.iter().flatten().map(|e| e.expires_tick).min()?;
        // Full u64 tick math: a u32 cast would wrap after ~49 days of uptime
        // at the 1 ms granularity and park the run loop on a past deadline.
        let offset = Duration::from_nanos(
            u64::try_from(self.granularity.as_nanos())
                .unwrap_or(u64::MAX)
                .saturating_mul(min_tick),
        );
        Some(self.epoch + offset)
    }
}

/// Future returned by [`Handle::sleep_until`] / [`Handle::sleep`].
pub struct Sleep {
    deadline: Instant,
    shared: Arc<Shared>,
    registered: bool,
}

impl Sleep {
    /// The instant this sleep resolves at.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if Instant::now() >= this.deadline {
            Poll::Ready(())
        } else {
            // Register with the wheel once: a task re-polled for other
            // reasons (I/O ticks) must not pile up duplicate entries, and the
            // task's waker is stable so the original entry stays valid.
            if !this.registered {
                this.shared
                    .timer
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

    impl<T> Receiver<T> {
        /// Non-blocking probe: `Ok(Some(v))` once sent, `Ok(None)` while
        /// pending, `Err(Canceled)` after the sender dropped without sending.
        pub fn try_recv(&self) -> Result<Option<T>, Canceled> {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            match state.value.take() {
                Some(value) => Ok(Some(value)),
                None if state.closed => Err(Canceled),
                None => Ok(None),
            }
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

    #[test]
    fn block_on_runs_a_future_to_completion() {
        assert_eq!(block_on(async { 6 * 7 }), 42);
    }

    #[test]
    fn block_on_completes_timer_futures_without_a_run_loop() {
        // Regression: block_on used to park until a wake arrived, but a Sleep
        // polled outside Executor::run has no wheel-advancing loop to wake it
        // — only the periodic re-poll can observe the deadline.
        let executor = Executor::new(Duration::from_micros(200));
        let handle = executor.handle();
        let start = Instant::now();
        block_on(handle.sleep(Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn oneshot_delivers_across_threads() {
        let (tx, rx) = oneshot::channel::<u32>();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(99).unwrap();
        });
        assert_eq!(block_on(rx), Ok(99));
    }

    #[test]
    fn oneshot_sender_drop_cancels() {
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(block_on(rx), Err(oneshot::Canceled));
    }

    #[test]
    fn oneshot_try_recv_observes_all_states() {
        let (tx, rx) = oneshot::channel::<u32>();
        assert_eq!(rx.try_recv(), Ok(None));
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv(), Ok(Some(5)));
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(oneshot::Canceled));
    }

    #[test]
    fn executor_runs_spawned_tasks_and_shuts_down() {
        let executor = Executor::new(Duration::from_micros(200));
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
        assert_eq!(handle.live_tasks(), 0);
    }

    #[test]
    fn sleep_respects_its_deadline() {
        let executor = Executor::new(Duration::from_micros(200));
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
    fn pool_results_reenter_the_event_loop() {
        // The exact shape the transport uses: a blocking pool job completing a
        // oneshot that a task on the executor is awaiting.
        let pool = crate::ThreadPool::new(2);
        let executor = Executor::new(Duration::from_micros(200));
        let handle = executor.handle();
        let total = Arc::new(AtomicUsize::new(0));
        for i in 0..8usize {
            let (tx, rx) = oneshot::channel::<usize>();
            pool.execute(move || {
                let _ = tx.send(i * i);
            });
            let total = Arc::clone(&total);
            handle.spawn(async move {
                let value = rx.await.expect("pool job completes");
                total.fetch_add(value, Ordering::SeqCst);
            });
        }
        let stopper = handle.clone();
        handle.spawn(async move {
            while stopper.live_tasks() > 1 {
                stopper.sleep(Duration::from_millis(1)).await;
            }
            stopper.shutdown();
        });
        executor.run();
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
            Executor::new(Duration::from_micros(500)).backend(),
            ReactorBackend::Tick
        );
    }

    #[test]
    fn epoll_backend_runs_tasks_timers_and_oneshots() {
        // The full scheduling surface on the readiness backend: plain tasks,
        // timer-wheel sleeps, and cross-thread oneshot completions.
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
        let executor = Executor::new(Duration::from_micros(200));
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
