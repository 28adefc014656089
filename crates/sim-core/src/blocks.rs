//! Reusable generic components: sources, sinks, delay lines and rate
//! limiters.
//!
//! Test benches and models frequently need the same scaffolding — "produce
//! one item per cycle", "consume at a bounded rate and count", "delay a
//! stream by N cycles". These blocks implement them once, with statistics,
//! so device models and their tests stay focused on the device.

use std::collections::VecDeque;

use crate::component::{Component, NextWake, WakeSignal};
use crate::engine::EdgeCtx;
use crate::fifo::{Consumer, Producer};
use crate::json::{FromJson, Json, JsonError, ToJson};

/// Produces items from a generator closure, up to one per clock edge,
/// honouring back-pressure.
pub struct Source<T, F> {
    name: String,
    output: Producer<T>,
    generator: F,
    /// Items still to produce (`None` = unlimited).
    remaining: Option<u64>,
    produced: u64,
}

impl<T, F: FnMut(u64) -> T> Source<T, F> {
    /// Creates a source producing `count` items (or unlimited when `None`);
    /// the generator receives the item index.
    pub fn new(name: &str, output: Producer<T>, count: Option<u64>, generator: F) -> Self {
        Source {
            name: name.to_string(),
            output,
            generator,
            remaining: count,
            produced: 0,
        }
    }

    /// Items produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// True when a bounded source has emitted everything.
    pub fn is_done(&self) -> bool {
        self.remaining == Some(0)
    }
}

impl<T: 'static, F: FnMut(u64) -> T + 'static> Component for Source<T, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        if self.remaining == Some(0) || !self.output.can_push() {
            return;
        }
        let item = (self.generator)(self.produced);
        self.output.try_push(item).ok().expect("checked can_push");
        self.produced += 1;
        if let Some(r) = &mut self.remaining {
            *r -= 1;
        }
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Done or back-pressured edges are pure no-ops; a consumer pop
        // re-polls this source before its next edge can fire.
        if self.remaining == Some(0) || !self.output.can_push() {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        Some(vec![self.output.wake_signal()])
    }

    fn snapshot_state(&self) -> Json {
        // The generator closure is construction-time structure; `produced`
        // is the only input it receives, so progress alone replays exactly.
        // The output FIFO belongs to its consumer.
        Json::Obj(vec![
            ("remaining".to_string(), self.remaining.to_json()),
            ("produced".to_string(), self.produced.to_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.remaining = Option::<u64>::from_json(state.get("remaining").unwrap_or(&Json::Null))?;
        self.produced = u64::from_json(state.get("produced").unwrap_or(&Json::Null))?;
        Ok(())
    }
}

/// Consumes up to one item per clock edge, counting and optionally
/// inspecting them.
pub struct Sink<T, F> {
    name: String,
    input: Consumer<T>,
    inspector: F,
    consumed: u64,
    /// Consume only every `stride`-th edge (rate limiting); 1 = every edge.
    stride: u32,
    phase: u32,
    /// Domain cycle up to which `phase` is synchronised (event skipping).
    last_cycle: u64,
}

impl<T, F: FnMut(T)> Sink<T, F> {
    /// Creates a sink consuming one item per edge.
    pub fn new(name: &str, input: Consumer<T>, inspector: F) -> Self {
        Self::with_stride(name, input, 1, inspector)
    }

    /// Creates a sink consuming one item every `stride` edges.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn with_stride(name: &str, input: Consumer<T>, stride: u32, inspector: F) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        Sink {
            name: name.to_string(),
            input,
            inspector,
            consumed: 0,
            stride,
            phase: 0,
            last_cycle: 0,
        }
    }

    /// Items consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

impl<T: ToJson + FromJson + 'static, F: FnMut(T) + 'static> Component for Sink<T, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        self.phase += 1;
        if self.phase < self.stride {
            return;
        }
        self.phase = 0;
        if let Some(item) = self.input.pop() {
            (self.inspector)(item);
            self.consumed += 1;
        }
    }

    fn next_wake(&self, now_cycle: u64) -> NextWake {
        if self.input.is_empty() {
            // Skipped edges only cycle `phase`, which catch_up realigns.
            return NextWake::Idle;
        }
        // Virtual phase after the not-yet-folded skipped edges: the next pop
        // attempt is the edge that brings it up to `stride`.
        let elapsed = now_cycle - self.last_cycle;
        let phase = (self.phase as u64 + elapsed) % self.stride as u64;
        NextWake::In(self.stride as u64 - phase)
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        Some(vec![self.input.wake_signal()])
    }

    fn catch_up(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            let delta = cycle - self.last_cycle;
            // Each edge increments `phase` and resets it at `stride`, which
            // is exactly addition modulo `stride`.
            self.phase = ((self.phase as u64 + delta) % self.stride as u64) as u32;
            self.last_cycle = cycle;
        }
    }

    fn snapshot_state(&self) -> Json {
        // This sink is the input FIFO's unique consumer, so it serialises
        // the buffered elements. The inspector closure is structure.
        Json::Obj(vec![
            ("consumed".to_string(), self.consumed.to_json()),
            ("phase".to_string(), self.phase.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            ("input".to_string(), self.input.fifo().snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.consumed = u64::from_json(state.get("consumed").unwrap_or(&Json::Null))?;
        self.phase = u32::from_json(state.get("phase").unwrap_or(&Json::Null))?;
        self.last_cycle = u64::from_json(state.get("last_cycle").unwrap_or(&Json::Null))?;
        self.input
            .fifo()
            .restore_json(state.get("input").unwrap_or(&Json::Null))
    }
}

/// Forwards items with a fixed pipeline delay of `latency` edges,
/// sustaining one item per edge (a synchronous delay line / register
/// pipeline).
pub struct DelayLine<T> {
    name: String,
    input: Consumer<T>,
    output: Producer<T>,
    latency: u32,
    pipe: VecDeque<(T, u32)>,
    forwarded: u64,
}

impl<T> DelayLine<T> {
    /// Creates a delay line of `latency` edges.
    pub fn new(name: &str, input: Consumer<T>, output: Producer<T>, latency: u32) -> Self {
        DelayLine {
            name: name.to_string(),
            input,
            output,
            latency,
            pipe: VecDeque::new(),
            forwarded: 0,
        }
    }

    /// Items forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl<T: ToJson + FromJson + 'static> Component for DelayLine<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        for (_, age) in self.pipe.iter_mut() {
            *age = age.saturating_sub(1);
        }
        if self.pipe.front().is_some_and(|(_, age)| *age == 0) && self.output.can_push() {
            let (item, _) = self.pipe.pop_front().expect("checked front");
            self.output.try_push(item).ok().expect("checked can_push");
            self.forwarded += 1;
        }
        // Accept after delivering so a full pipe of `latency` items still
        // sustains one item per cycle.
        if (self.pipe.len() as u32) <= self.latency {
            if let Some(item) = self.input.pop() {
                self.pipe.push_back((item, self.latency));
            }
        }
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // With an empty pipe and empty input an edge touches nothing; any
        // producer push re-polls this component.
        if self.pipe.is_empty() && self.input.is_empty() {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        Some(vec![self.input.wake_signal(), self.output.wake_signal()])
    }

    fn snapshot_state(&self) -> Json {
        let pipe: Vec<Json> = self
            .pipe
            .iter()
            .map(|(item, age)| {
                Json::Obj(vec![
                    ("item".to_string(), item.to_json()),
                    ("age".to_string(), age.to_json()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("pipe".to_string(), Json::Arr(pipe)),
            ("forwarded".to_string(), self.forwarded.to_json()),
            ("input".to_string(), self.input.fifo().snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        let pipe_v = state
            .get("pipe")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError {
                msg: "delay line snapshot missing pipe".to_string(),
            })?;
        let mut pipe = VecDeque::with_capacity(pipe_v.len());
        for entry in pipe_v {
            pipe.push_back((
                T::from_json(entry.get("item").unwrap_or(&Json::Null))?,
                u32::from_json(entry.get("age").unwrap_or(&Json::Null))?,
            ));
        }
        self.pipe = pipe;
        self.forwarded = u64::from_json(state.get("forwarded").unwrap_or(&Json::Null))?;
        self.input
            .fifo()
            .restore_json(state.get("input").unwrap_or(&Json::Null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fifo::fifo_channel;
    use crate::time::{Frequency, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn source_produces_exactly_count_items() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let (tx, rx) = fifo_channel::<u64>("s", 64);
        fn double(i: u64) -> u64 {
            i * 2
        }
        let gen: fn(u64) -> u64 = double;
        let id = e.add_component(Source::new("src", tx, Some(10), gen), Some(clk));
        e.run_for(SimDuration::from_micros(1));
        let got: Vec<u64> = std::iter::from_fn(|| rx.pop()).collect();
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let src = e.component::<Source<u64, fn(u64) -> u64>>(id);
        assert_eq!(src.produced(), 10);
        assert!(src.is_done());
        assert_eq!(rx.stats().pushed, 10);
    }

    #[test]
    fn source_respects_backpressure() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let (tx, rx) = fifo_channel::<u64>("s", 2);
        e.add_component(Source::new("src", tx, None, |i| i), Some(clk));
        e.run_for(SimDuration::from_micros(1));
        assert_eq!(rx.len(), 2, "unbounded source must stall at capacity");
        assert_eq!(rx.pop(), Some(0));
        assert_eq!(rx.pop(), Some(1));
    }

    #[test]
    fn sink_with_stride_rate_limits() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let (tx, rx) = fifo_channel::<u32>("s", 256);
        for i in 0..100 {
            tx.try_push(i).unwrap();
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        e.add_component(
            Sink::with_stride("snk", rx, 4, move |v| seen2.borrow_mut().push(v)),
            Some(clk),
        );
        e.run_for(SimDuration::from_micros(1)); // 100 edges → 25 items
        assert_eq!(seen.borrow().len(), 25);
        assert_eq!(seen.borrow()[..3], [0, 1, 2]);
    }

    #[test]
    fn delay_line_delays_and_sustains_throughput() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let (in_tx, in_rx) = fifo_channel::<u64>("in", 256);
        let (out_tx, out_rx) = fifo_channel::<u64>("out", 256);
        e.add_component(Source::new("src", in_tx, Some(50), |i| i), Some(clk));
        e.add_component(DelayLine::new("dly", in_rx, out_tx, 5), Some(clk));
        // After 10 cycles, the head of the stream has crossed (latency ~6-7
        // cycles including handoffs) but the tail has not.
        e.run_for(SimDuration::from_nanos(100));
        let early = out_rx.len();
        assert!((1..10).contains(&early), "early={early}");
        e.run_for(SimDuration::from_micros(1));
        let got: Vec<u64> = std::iter::from_fn(|| out_rx.pop()).collect();
        assert_eq!(got.len(), 50, "everything crosses eventually");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved");
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        let (_, rx) = fifo_channel::<u8>("s", 1);
        let _ = Sink::with_stride("snk", rx, 0, |_| {});
    }
}
