//! The CRC Bitstream Read-Back block.
//!
//! "The CRC Bitstream Read-Back block reads back continuously in the
//! background the whole bitstream to check the CRC of the configuration
//! memory content. If a CRC error is detected an interrupt is asserted."
//! (paper, Sec. III.)
//!
//! The block scans registered regions of configuration memory round-robin at
//! read-back speed — one frame per 101 + 1 cycles of its clock (frame words
//! plus pipeline overhead) — computes a CRC-32 per region and compares it
//! against the golden value registered by software after each intended
//! reconfiguration. On mismatch it raises the CRC-error interrupt. The
//! block pauses while the ICAP is writing (a read-back during configuration
//! would see a half-written region).

use pdr_icap::SharedConfigMemory;
use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::{impl_json_struct, Component, EdgeCtx, IrqLine, NextWake, WakeSignal};

use pdr_bitstream::Crc32;

/// A verification region: a linear frame range with a golden CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Linear index of the first frame.
    pub start_idx: u32,
    /// Number of frames.
    pub frames: u32,
    /// Expected CRC-32 (IEEE) over the region's words in address order.
    pub golden: u32,
}

/// Per-region scan results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionResult {
    /// Completed scans of this region.
    pub scans: u64,
    /// Whether the most recent completed scan matched the golden CRC.
    pub last_ok: Option<bool>,
    /// Total mismatching scans.
    pub failures: u64,
}

impl_json_struct!(Region {
    start_idx,
    frames,
    golden,
});

impl_json_struct!(RegionResult {
    scans,
    last_ok,
    failures,
});

/// The read-back component. Bind it to the fabric clock domain (the block is
/// standard logic, not over-clocked).
#[derive(Debug)]
pub struct CrcReadback {
    name: String,
    mem: SharedConfigMemory,
    err_irq: IrqLine,
    regions: Vec<Region>,
    results: Vec<RegionResult>,
    enabled: bool,
    /// Scan cursor: region index, frame offset within region.
    cursor: (usize, u32),
    /// Cycles remaining before the current frame's words are absorbed.
    frame_countdown: u32,
    crc: Crc32,
    /// Total frames read back.
    frames_read: u64,
    /// Domain cycle up to which `frame_countdown` is synchronised (event
    /// skipping).
    last_cycle: u64,
}

/// Cycles to read one frame back through the ICAP's read port (101 words +
/// one overhead cycle).
pub const CYCLES_PER_FRAME: u32 = pdr_bitstream::FRAME_WORDS as u32 + 1;

impl CrcReadback {
    /// Creates a disabled read-back block over `mem`.
    pub fn new(name: &str, mem: SharedConfigMemory, err_irq: IrqLine) -> Self {
        CrcReadback {
            name: name.to_string(),
            mem,
            err_irq,
            regions: Vec::new(),
            results: Vec::new(),
            enabled: false,
            cursor: (0, 0),
            frame_countdown: CYCLES_PER_FRAME,
            crc: Crc32::ieee(),
            frames_read: 0,
            last_cycle: 0,
        }
    }

    /// Registers (or replaces) the region at `slot`, restarting the scan.
    pub fn set_region(&mut self, slot: usize, region: Region) {
        if slot >= self.regions.len() {
            self.regions.resize(
                slot + 1,
                Region {
                    start_idx: 0,
                    frames: 0,
                    golden: 0,
                },
            );
            self.results.resize(slot + 1, RegionResult::default());
        }
        self.regions[slot] = region;
        self.results[slot] = RegionResult::default();
        self.restart_scan();
    }

    /// Pauses (`false`) or resumes (`true`) scanning; resuming restarts the
    /// current region from its first frame.
    pub fn set_enabled(&mut self, enabled: bool) {
        if self.enabled != enabled {
            self.enabled = enabled;
            self.restart_scan();
        }
    }

    /// True while scanning.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Results for the region at `slot`.
    pub fn result(&self, slot: usize) -> RegionResult {
        self.results.get(slot).copied().unwrap_or_default()
    }

    /// Total frames read back over the block's lifetime.
    pub fn frames_read(&self) -> u64 {
        self.frames_read
    }

    fn restart_scan(&mut self) {
        self.cursor = (self.cursor.0.min(self.regions.len().saturating_sub(1)), 0);
        self.frame_countdown = CYCLES_PER_FRAME;
        self.crc = Crc32::ieee();
    }

    fn finish_region(&mut self, ctx: &mut EdgeCtx<'_>) {
        let (r, _) = self.cursor;
        let ok = self.crc.value() == self.regions[r].golden;
        let res = &mut self.results[r];
        res.scans += 1;
        res.last_ok = Some(ok);
        if !ok {
            res.failures += 1;
            self.err_irq.raise(ctx.now());
            ctx.trace("crc-readback-error", r as u64, 0);
        }
        // Advance to the next non-empty region.
        let n = self.regions.len();
        let mut next = (r + 1) % n;
        for _ in 0..n {
            if self.regions[next].frames > 0 {
                break;
            }
            next = (next + 1) % n;
        }
        self.cursor = (next, 0);
        self.crc = Crc32::ieee();
    }
}

impl Component for CrcReadback {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        if !self.enabled || self.regions.iter().all(|r| r.frames == 0) {
            return;
        }
        if self.frame_countdown > 1 {
            self.frame_countdown -= 1;
            return;
        }
        self.frame_countdown = CYCLES_PER_FRAME;
        let (r, f) = self.cursor;
        let region = &self.regions[r];
        if region.frames == 0 {
            self.finish_region(ctx);
            return;
        }
        {
            let mut mem = self.mem.borrow_mut();
            let frame = mem.read_frame_at(region.start_idx + f);
            for &w in frame.words() {
                self.crc.update_word(w);
            }
        }
        self.frames_read += 1;
        if f + 1 == region.frames {
            self.finish_region(ctx);
        } else {
            self.cursor = (r, f + 1);
        }
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Disabled or empty: edges are pure no-ops until software re-enables
        // scanning (run-end sync keeps `last_cycle` current across runs, so
        // a later set_enabled starts from a synchronised countdown).
        if !self.enabled || self.regions.iter().all(|r| r.frames == 0) {
            return NextWake::Idle;
        }
        // Edges with countdown > 1 only decrement it; the interesting edge
        // (frame absorb + CRC) is the one that sees countdown == 1.
        NextWake::In(self.frame_countdown as u64)
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        // The scan schedule is the block's own state.
        Some(Vec::new())
    }

    fn catch_up(&mut self, cycle: u64) {
        if cycle <= self.last_cycle {
            return;
        }
        let k = cycle - self.last_cycle;
        self.last_cycle = cycle;
        if !self.enabled || self.regions.iter().all(|r| r.frames == 0) {
            return;
        }
        // next_wake never sleeps past the countdown==1 work edge, so every
        // folded edge strictly decrements the countdown.
        debug_assert!(
            k < self.frame_countdown as u64,
            "folded past a read-back work edge"
        );
        self.frame_countdown -= k as u32;
    }

    fn snapshot_state(&self) -> Json {
        // The block owns the crc-error interrupt line (it is the raiser) and
        // its own scan engine; config memory is shared system state.
        Json::Obj(vec![
            (
                "regions".to_string(),
                Json::Arr(self.regions.iter().map(|r| r.to_json()).collect()),
            ),
            (
                "results".to_string(),
                Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
            ),
            ("enabled".to_string(), self.enabled.to_json()),
            ("cursor_region".to_string(), Json::U64(self.cursor.0 as u64)),
            ("cursor_frame".to_string(), self.cursor.1.to_json()),
            (
                "frame_countdown".to_string(),
                self.frame_countdown.to_json(),
            ),
            ("crc".to_string(), self.crc.raw_state().to_json()),
            ("frames_read".to_string(), self.frames_read.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            ("err_irq".to_string(), self.err_irq.snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        let regions = state
            .get("regions")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError {
                msg: "crc-readback snapshot missing `regions`".to_string(),
            })?
            .iter()
            .map(Region::from_json)
            .collect::<Result<Vec<Region>, JsonError>>()?;
        let results = state
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError {
                msg: "crc-readback snapshot missing `results`".to_string(),
            })?
            .iter()
            .map(RegionResult::from_json)
            .collect::<Result<Vec<RegionResult>, JsonError>>()?;
        if regions.len() != results.len() {
            return Err(JsonError {
                msg: "crc-readback snapshot region/result length mismatch".to_string(),
            });
        }
        let cursor_region =
            u64::from_json(state.get("cursor_region").unwrap_or(&Json::Null))? as usize;
        if cursor_region != 0 && cursor_region >= regions.len() {
            return Err(JsonError {
                msg: "crc-readback snapshot cursor out of range".to_string(),
            });
        }
        self.regions = regions;
        self.results = results;
        self.enabled = bool::from_json(state.get("enabled").unwrap_or(&Json::Null))?;
        self.cursor = (
            cursor_region,
            u32::from_json(state.get("cursor_frame").unwrap_or(&Json::Null))?,
        );
        self.frame_countdown = u32::from_json(state.get("frame_countdown").unwrap_or(&Json::Null))?;
        self.crc
            .set_raw_state(u32::from_json(state.get("crc").unwrap_or(&Json::Null))?);
        self.frames_read = u64::from_json(state.get("frames_read").unwrap_or(&Json::Null))?;
        self.last_cycle = u64::from_json(state.get("last_cycle").unwrap_or(&Json::Null))?;
        self.err_irq
            .restore_json(state.get("err_irq").unwrap_or(&Json::Null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_bitstream::{Frame, FrameAddress};
    use pdr_fabric::{ConfigMemory, Geometry};
    use pdr_icap::shared_config_memory;
    use pdr_sim_core::{Engine, Frequency, IrqBus, SimDuration};

    fn rig() -> (
        Engine,
        SharedConfigMemory,
        IrqLine,
        pdr_sim_core::ComponentId,
    ) {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("fabric", Frequency::from_mhz(100));
        let mem = shared_config_memory(ConfigMemory::new(Geometry::zynq7020()));
        let bus = IrqBus::new();
        let irq = bus.allocate("crc-err");
        let rb = CrcReadback::new("crc-rb", mem.clone(), irq.clone());
        let id = e.add_component(rb, Some(clk));
        (e, mem, irq, id)
    }

    fn golden_for(mem: &SharedConfigMemory, start: u32, frames: u32) -> u32 {
        mem.borrow().range_crc(start, frames)
    }

    #[test]
    fn matching_region_scans_clean() {
        let (mut e, mem, irq, id) = rig();
        mem.borrow_mut()
            .write_frame(FrameAddress::new(0, 0, 0, 0), Frame::filled(7));
        let golden = golden_for(&mem, 0, 10);
        {
            let rb = e.component_mut::<CrcReadback>(id);
            rb.set_region(
                0,
                Region {
                    start_idx: 0,
                    frames: 10,
                    golden,
                },
            );
            rb.set_enabled(true);
        }
        // 10 frames × 102 cycles at 100 MHz ≈ 10.2 us per scan.
        e.run_for(SimDuration::from_micros(25));
        let res = e.component::<CrcReadback>(id).result(0);
        assert!(res.scans >= 2, "scans={}", res.scans);
        assert_eq!(res.last_ok, Some(true));
        assert_eq!(res.failures, 0);
        assert!(!irq.is_raised());
    }

    #[test]
    fn corruption_raises_the_error_interrupt() {
        let (mut e, mem, irq, id) = rig();
        let golden = golden_for(&mem, 0, 10);
        {
            let rb = e.component_mut::<CrcReadback>(id);
            rb.set_region(
                0,
                Region {
                    start_idx: 0,
                    frames: 10,
                    golden,
                },
            );
            rb.set_enabled(true);
        }
        e.run_for(SimDuration::from_micros(15));
        assert!(!irq.is_raised());
        // Inject an SEU-like flip mid-region.
        mem.borrow_mut()
            .inject_bit_flip(FrameAddress::new(0, 0, 0, 5), 17, 3);
        e.run_for(SimDuration::from_micros(25));
        assert!(irq.is_raised(), "flip must be detected within two scans");
        assert!(e.component::<CrcReadback>(id).result(0).failures > 0);
    }

    #[test]
    fn disabled_block_reads_nothing() {
        let (mut e, mem, _irq, id) = rig();
        let golden = golden_for(&mem, 0, 4);
        e.component_mut::<CrcReadback>(id).set_region(
            0,
            Region {
                start_idx: 0,
                frames: 4,
                golden,
            },
        );
        e.run_for(SimDuration::from_micros(10));
        assert_eq!(e.component::<CrcReadback>(id).frames_read(), 0);
    }

    #[test]
    fn scan_rate_is_one_frame_per_102_cycles() {
        let (mut e, mem, _irq, id) = rig();
        let golden = golden_for(&mem, 0, 1000);
        {
            let rb = e.component_mut::<CrcReadback>(id);
            rb.set_region(
                0,
                Region {
                    start_idx: 0,
                    frames: 1000,
                    golden,
                },
            );
            rb.set_enabled(true);
        }
        e.run_for(SimDuration::from_micros(102)); // 10200 cycles
        let read = e.component::<CrcReadback>(id).frames_read();
        assert!((99..=100).contains(&read), "read={read}");
    }

    #[test]
    fn multiple_regions_round_robin() {
        let (mut e, mem, _irq, id) = rig();
        let g0 = golden_for(&mem, 0, 5);
        let g1 = golden_for(&mem, 100, 5);
        {
            let rb = e.component_mut::<CrcReadback>(id);
            rb.set_region(
                0,
                Region {
                    start_idx: 0,
                    frames: 5,
                    golden: g0,
                },
            );
            rb.set_region(
                1,
                Region {
                    start_idx: 100,
                    frames: 5,
                    golden: g1,
                },
            );
            rb.set_enabled(true);
        }
        e.run_for(SimDuration::from_micros(30));
        let r0 = e.component::<CrcReadback>(id).result(0);
        let r1 = e.component::<CrcReadback>(id).result(1);
        assert!(r0.scans >= 1 && r1.scans >= 1, "r0={r0:?} r1={r1:?}");
        assert_eq!(r0.last_ok, Some(true));
        assert_eq!(r1.last_ok, Some(true));
    }
}
