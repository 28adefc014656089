//! The [`Component`] trait and component addressing.

use core::any::Any;
use core::fmt;
use std::cell::Cell;
use std::rc::Rc;

use crate::engine::EdgeCtx;
use crate::json::{Json, JsonError};

/// Identifies a component registered with an [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The raw index of this component inside its engine.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// Discriminates event meanings within a component.
///
/// Keys are plain integers; each component defines its own local constants
/// (e.g. `const EV_DESCRIPTOR_DONE: EventKey = 1`). Richer payloads travel
/// through [`fifo`](crate::fifo) channels, not events.
pub type EventKey = u64;

/// A discrete event delivered to a component at a scheduled instant.
///
/// Events carry a [`EventKey`] and two untyped word arguments — enough to
/// convey "which timer fired" or "burst 17 completed with status 0" without
/// heap allocation in the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Event {
    /// Component-local event discriminator.
    pub key: EventKey,
    /// First argument word.
    pub a: u64,
    /// Second argument word.
    pub b: u64,
}

impl Event {
    /// Creates an event with both argument words zero.
    pub const fn new(key: EventKey) -> Self {
        Event { key, a: 0, b: 0 }
    }

    /// Creates an event with one argument word.
    pub const fn with_arg(key: EventKey, a: u64) -> Self {
        Event { key, a, b: 0 }
    }

    /// Creates an event with two argument words.
    pub const fn with_args(key: EventKey, a: u64, b: u64) -> Self {
        Event { key, a, b }
    }
}

/// A clocked component's declaration of its next interesting clock edge,
/// returned from [`Component::next_wake`].
///
/// The event-skipping engine uses these declarations to fast-forward a clock
/// domain across spans where every member is quiescent. See `docs/KERNEL.md`
/// for the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Dispatch this component on every edge (the tick-accurate default for
    /// unported components).
    EveryCycle,
    /// The next `n - 1` edges only advance internal countdowns that
    /// [`Component::catch_up`] can reproduce in closed form; the first edge
    /// with observable work is `n` cycles after `now_cycle`. `In(1)` is
    /// equivalent to [`NextWake::EveryCycle`]; `In(0)` is treated as `In(1)`.
    In(u64),
    /// Every future edge is a no-op (beyond what [`Component::catch_up`]
    /// folds) until some external input arrives — a FIFO push, a register
    /// write, a delivered event. The engine re-polls sleeping components
    /// whose declared inputs changed (see [`Component::wake_signals`]) after
    /// every dispatched action and at the start of every run, so new input
    /// always wakes them on the same edge the tick engine would act.
    Idle,
}

/// A shared change counter on one of a component's inputs.
///
/// FIFOs bump theirs on every push, pop, clear and restore; register files
/// on every write. A component lists the signals of every shared input its
/// [`Component::next_wake`] reads (see [`Component::wake_signals`]), and the
/// event-skipping engine re-polls it while it sleeps only when one of those
/// counters moved. Cloning yields another handle to the same counter.
#[derive(Clone, Default)]
pub struct WakeSignal(Rc<Cell<u64>>);

impl WakeSignal {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a change of the input this signal guards.
    pub fn bump(&self) {
        self.0.set(self.0.get().wrapping_add(1));
    }

    /// The number of changes recorded so far.
    pub fn value(&self) -> u64 {
        self.0.get()
    }
}

impl fmt::Debug for WakeSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WakeSignal({})", self.value())
    }
}

/// A simulated hardware block (or software agent) driven by the engine.
///
/// Components are registered with
/// [`Engine::add_component`](crate::Engine::add_component) and optionally
/// bound to a clock domain;
/// bound components receive [`Component::on_clock_edge`] on every rising edge.
/// Any component can receive discrete [`Event`]s scheduled via
/// [`EdgeCtx::schedule`](crate::EdgeCtx::schedule).
///
/// The supertrait bound on [`Any`] enables typed access to registered
/// components through [`Engine::component`](crate::Engine::component).
pub trait Component: Any {
    /// A short, stable, human-readable name used in traces and panics.
    fn name(&self) -> &str;

    /// Declares this component's next interesting edge, counted from
    /// `now_cycle` (the bound domain's lifetime edge count).
    ///
    /// Called by the event-skipping engine after every dispatch and at the
    /// start of every run. The answer must be *truthful for the component's
    /// current inputs*: declaring a wake later than the first edge with
    /// observable work diverges from the tick engine. Declaring it earlier
    /// is always safe — an early edge simply dispatches as the (no-op) edge
    /// the tick engine would also have processed. Implementations that track
    /// a synchronisation cycle must use `now_cycle` to account for skipped
    /// edges not yet folded by [`Component::catch_up`].
    ///
    /// The default keeps unported components tick-accurate.
    fn next_wake(&self, now_cycle: u64) -> NextWake {
        let _ = now_cycle;
        NextWake::EveryCycle
    }

    /// The change counters of every shared input [`Component::next_wake`]
    /// reads (FIFO endpoints, register files), or `None` to be re-polled
    /// after every dispatched action while asleep.
    ///
    /// Read by the event-skipping engine when the first run after
    /// registration starts, and again at the start of the run after any
    /// [`Engine::component_mut`](crate::Engine::component_mut) access.
    /// While the component sleeps, the engine re-polls it only when one of
    /// these counters moved, and skips it on edges where its wake is not
    /// due. Listing too few signals therefore diverges from the tick engine;
    /// state the component owns needs no signal (it changes only while the
    /// component is dispatched, or between runs, when every component is
    /// re-polled). The default `None` is always safe.
    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        None
    }

    /// Folds the effect of the quiescent edges up to and including `cycle`
    /// into this component's state, in closed form.
    ///
    /// The event-skipping engine guarantees every folded edge was covered by
    /// a [`Component::next_wake`] declaration, i.e. it would only have
    /// advanced internal countdowns or idle accounting. Implementations
    /// track their own synchronisation cycle and must be idempotent for
    /// `cycle` values at or before it. Called by ported components at the
    /// top of their own `on_clock_edge` (with `cycle - 1`) and by the engine
    /// at the end of every run so externally observed state is always
    /// tick-identical.
    fn catch_up(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Called on every rising edge of the bound clock domain.
    ///
    /// The default implementation does nothing, which suits purely
    /// event-driven components.
    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a scheduled [`Event`] addressed to this component fires.
    ///
    /// The default implementation panics: receiving an event you never
    /// scheduled indicates a wiring bug, and silently dropping it would turn
    /// that bug into a hang.
    fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
        let _ = ctx;
        panic!(
            "component {:?} received unexpected event {:?}",
            self.name(),
            event
        );
    }

    /// Serialises this component's mutable state for a whole-system
    /// checkpoint (see `docs/SNAPSHOT.md`).
    ///
    /// The contract: restoring the returned value into a freshly constructed
    /// component (same constructor arguments, same wiring) must make every
    /// future observable — FIFO traffic, trace events, counters — byte-
    /// identical to the component that was snapshotted. Construction-time
    /// structure (names, capacities, closures, port wiring) is *not*
    /// serialised; only state that evolves during simulation is.
    ///
    /// A component whose consumer-side FIFOs buffer data serialises those
    /// FIFO contents itself (each FIFO has exactly one consuming component,
    /// so ownership is unambiguous and nothing is written twice).
    ///
    /// The default returns [`Json::Null`], correct only for stateless
    /// components.
    fn snapshot_state(&self) -> Json {
        Json::Null
    }

    /// Restores state captured by [`Component::snapshot_state`] into this
    /// freshly constructed component.
    ///
    /// The default accepts only [`Json::Null`] (the stateless default) so a
    /// stateful component that forgot to implement the pair fails loudly at
    /// restore instead of silently resuming from reset state.
    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        match state {
            Json::Null => Ok(()),
            _ => Err(JsonError {
                msg: format!(
                    "component '{}' has snapshot state but no restore_state impl",
                    self.name()
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_constructors() {
        assert_eq!(Event::new(3), Event { key: 3, a: 0, b: 0 });
        assert_eq!(Event::with_arg(3, 9), Event { key: 3, a: 9, b: 0 });
        assert_eq!(Event::with_args(3, 9, 8), Event { key: 3, a: 9, b: 8 });
    }

    #[test]
    fn component_id_display_and_index() {
        let id = ComponentId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "component#7");
    }
}
