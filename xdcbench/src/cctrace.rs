//! The CC layer timed from outside: a [`CcFactory`] decorator that wraps
//! every per-flow [`SenderCc`] and [`ReceiverCc`] and times each hook
//! call with `Instant`.
//!
//! One [`TimedFactory`] serves one engine (one shard thread, since a
//! `Simulator` never crosses threads), so its counters are plain `Cell`s.
//! When the engine drops its factory, the totals are handed to a shared
//! sink; that is how a sharded run's per-shard numbers come back across
//! the thread boundary.
//!
//! The same hooks double as a host clock for simulated time: the first
//! hook call at or past each simulated-millisecond boundary stamps an
//! `Instant`, which yields host milliseconds per simulated millisecond
//! without touching the engine loop (the sharded engine drives its own).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::cc::{AckFields, AckView, CcEnv, CcFactory, ReceiverCc, SenderCc};
use netsim::int::IntStack;
use netsim::packet::Packet;
use netsim::units::Time;

/// The timed hooks, in report order.
pub const HOOKS: [&str; 8] = [
    "on_ack",
    "on_sent",
    "on_cnp",
    "on_switch_int",
    "on_timer",
    "rate_bps",
    "on_data",
    "create",
];

const ON_ACK: usize = 0;
const ON_SENT: usize = 1;
const ON_CNP: usize = 2;
const ON_SWITCH_INT: usize = 3;
const ON_TIMER: usize = 4;
const RATE_BPS: usize = 5;
const ON_DATA: usize = 6;
const CREATE: usize = 7;

/// Index of a hook in [`HOOKS`].
pub fn hook_index(name: &str) -> usize {
    HOOKS
        .iter()
        .position(|&h| h == name)
        .unwrap_or_else(|| panic!("unknown CC hook {name}"))
}

/// Call count and host time of one hook.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookStat {
    pub calls: u64,
    pub nanos: u64,
}

/// What one engine's CC layer did over a run.
#[derive(Clone, Debug, Default)]
pub struct CcTotals {
    /// Indexed like [`HOOKS`].
    pub hooks: [HookStat; 8],
    /// Host instant at which simulated time first reached each
    /// millisecond boundary of the slice window.
    pub marks: Vec<Instant>,
}

impl CcTotals {
    pub fn calls(&self) -> u64 {
        self.hooks.iter().map(|h| h.calls).sum()
    }

    pub fn seconds(&self) -> f64 {
        self.hooks.iter().map(|h| h.nanos).sum::<u64>() as f64 * 1e-9
    }
}

/// Per-engine recorder shared by the factory and every wrapper it made.
struct Recorder {
    hooks: [Cell<HookStat>; 8],
    marks: RefCell<Vec<Instant>>,
    next_mark: Cell<Time>,
    mark_step: Time,
    mark_end: Time,
}

impl Recorder {
    #[inline]
    fn time<R>(&self, hook: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_nanos() as u64;
        let c = &self.hooks[hook];
        let mut s = c.get();
        s.calls += 1;
        s.nanos += dt;
        c.set(s);
        r
    }

    #[inline]
    fn clock(&self, now: Time) {
        if now >= self.next_mark.get() {
            self.mark(now);
        }
    }

    #[cold]
    fn mark(&self, now: Time) {
        let at = Instant::now();
        let mut marks = self.marks.borrow_mut();
        let mut next = self.next_mark.get();
        while next <= now && next <= self.mark_end {
            marks.push(at);
            next += self.mark_step;
        }
        // Past the window: park the boundary where no hook reaches it.
        self.next_mark.set(if next > self.mark_end {
            Time::MAX
        } else {
            next
        });
    }

    fn totals(&self) -> CcTotals {
        CcTotals {
            hooks: std::array::from_fn(|i| self.hooks[i].get()),
            marks: self.marks.borrow().clone(),
        }
    }
}

/// Shared destination of the per-engine totals.
pub type CcSink = Arc<Mutex<Vec<CcTotals>>>;

/// [`CcFactory`] decorator: delegates to `inner` and times every hook.
pub struct TimedFactory {
    inner: Box<dyn CcFactory>,
    rec: Rc<Recorder>,
    sink: CcSink,
}

impl TimedFactory {
    /// Wrap `inner`; the simulated-time clock stamps every `step` of
    /// simulated time over `[from, to]`.
    pub fn new(inner: Box<dyn CcFactory>, sink: CcSink, from: Time, to: Time, step: Time) -> Self {
        TimedFactory {
            inner,
            rec: Rc::new(Recorder {
                hooks: Default::default(),
                marks: RefCell::new(Vec::new()),
                next_mark: Cell::new(from),
                mark_step: step,
                mark_end: to,
            }),
            sink,
        }
    }
}

impl Drop for TimedFactory {
    fn drop(&mut self) {
        // A poisoned sink means another shard panicked; that panic is
        // the one to report, so this one stays silent.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(self.rec.totals());
        }
    }
}

impl CcFactory for TimedFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        let inner = self.rec.time(CREATE, || self.inner.sender(env));
        Box::new(TimedSender {
            inner,
            rec: self.rec.clone(),
        })
    }

    fn receiver(&self, env: &CcEnv) -> Box<dyn ReceiverCc> {
        let inner = self.rec.time(CREATE, || self.inner.receiver(env));
        Box::new(TimedReceiver {
            inner,
            rec: self.rec.clone(),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedSender {
    inner: Box<dyn SenderCc>,
    rec: Rc<Recorder>,
}

impl SenderCc for TimedSender {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        self.rec.clock(ack.now);
        self.rec.time(ON_ACK, || self.inner.on_ack(ack));
    }

    fn on_sent(&mut self, bytes: u64, now: Time) {
        self.rec.clock(now);
        self.rec.time(ON_SENT, || self.inner.on_sent(bytes, now));
    }

    fn on_cnp(&mut self, now: Time) {
        self.rec.clock(now);
        self.rec.time(ON_CNP, || self.inner.on_cnp(now));
    }

    fn on_switch_int(&mut self, int: &IntStack, now: Time) {
        self.rec.clock(now);
        self.rec
            .time(ON_SWITCH_INT, || self.inner.on_switch_int(int, now));
    }

    fn on_timer(&mut self, now: Time) {
        self.rec.clock(now);
        self.rec.time(ON_TIMER, || self.inner.on_timer(now));
    }

    fn rate_bps(&self) -> f64 {
        self.rec.time(RATE_BPS, || self.inner.rate_bps())
    }

    // Plain getters the host reads after each hook: forwarded untimed,
    // so their cost stays in the engine's self time.
    fn window_bytes(&self) -> Option<u64> {
        self.inner.window_bytes()
    }

    fn next_timer(&self) -> Option<Time> {
        self.inner.next_timer()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedReceiver {
    inner: Box<dyn ReceiverCc>,
    rec: Rc<Recorder>,
}

impl ReceiverCc for TimedReceiver {
    fn on_data(&mut self, pkt: &Packet, now: Time) -> AckFields {
        self.rec.clock(now);
        self.rec.time(ON_DATA, || self.inner.on_data(pkt, now))
    }
}
