//! An AXI4-Lite register file.
//!
//! Control-plane state shared between the processor model (which programs
//! registers through the GP ports) and hardware blocks (which read their
//! control registers and update their status registers). Register access
//! latency is accounted for by the processor model's driver timing, not per
//! access, because control traffic is negligible next to bitstream
//! transfers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::WakeSignal;

#[derive(Debug, Default)]
struct Inner {
    regs: BTreeMap<u32, u32>,
    reads: u64,
    writes: u64,
    /// Bumped on every write and restore.
    signal: WakeSignal,
}

/// A shared word-addressed register file. Cloning yields another handle to
/// the same registers.
#[derive(Clone, Default)]
pub struct RegisterFile {
    inner: Rc<RefCell<Inner>>,
}

impl RegisterFile {
    /// Creates an empty register file (all registers read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the register at byte offset `addr` (unwritten registers read
    /// as zero, like reserved AXI-Lite space).
    pub fn read(&self, addr: u32) -> u32 {
        let mut inner = self.inner.borrow_mut();
        inner.reads += 1;
        inner.regs.get(&addr).copied().unwrap_or(0)
    }

    /// Reads the register at byte offset `addr` without counting the
    /// access: for the simulator's own inspection (wake polls, monitors),
    /// which must not change modelled state.
    pub fn peek(&self, addr: u32) -> u32 {
        self.inner.borrow().regs.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the register at byte offset `addr`.
    pub fn write(&self, addr: u32, value: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.writes += 1;
        inner.regs.insert(addr, value);
        inner.signal.bump();
    }

    /// The change counter bumped by every write and restore (see
    /// [`pdr_sim_core::Component::wake_signals`]).
    pub fn wake_signal(&self) -> WakeSignal {
        self.inner.borrow().signal.clone()
    }

    /// Sets bits of a register (read-modify-write OR).
    pub fn set_bits(&self, addr: u32, mask: u32) {
        let v = self.read(addr);
        self.write(addr, v | mask);
    }

    /// Clears bits of a register (read-modify-write AND-NOT).
    pub fn clear_bits(&self, addr: u32, mask: u32) {
        let v = self.read(addr);
        self.write(addr, v & !mask);
    }

    /// True when all `mask` bits are set in the register.
    pub fn bits_set(&self, addr: u32, mask: u32) -> bool {
        self.read(addr) & mask == mask
    }

    /// Lifetime `(reads, writes)` counters.
    pub fn access_counts(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.reads, inner.writes)
    }

    /// Serialises the register contents and access counters for a
    /// checkpoint.
    pub fn snapshot_json(&self) -> Json {
        let inner = self.inner.borrow();
        let regs: Vec<Json> = inner
            .regs
            .iter()
            .map(|(addr, value)| {
                Json::Obj(vec![
                    ("addr".to_string(), addr.to_json()),
                    ("value".to_string(), value.to_json()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("regs".to_string(), Json::Arr(regs)),
            ("reads".to_string(), inner.reads.to_json()),
            ("writes".to_string(), inner.writes.to_json()),
        ])
    }

    /// Restores contents captured by [`RegisterFile::snapshot_json`],
    /// replacing all current registers.
    pub fn restore_json(&self, v: &Json) -> Result<(), JsonError> {
        let regs_v = v
            .get("regs")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError {
                msg: "register file snapshot missing regs".to_string(),
            })?;
        let mut regs = BTreeMap::new();
        for entry in regs_v {
            regs.insert(
                u32::from_json(entry.get("addr").unwrap_or(&Json::Null))?,
                u32::from_json(entry.get("value").unwrap_or(&Json::Null))?,
            );
        }
        let reads = u64::from_json(v.get("reads").unwrap_or(&Json::Null))?;
        let writes = u64::from_json(v.get("writes").unwrap_or(&Json::Null))?;
        let mut inner = self.inner.borrow_mut();
        inner.regs = regs;
        inner.reads = reads;
        inner.writes = writes;
        inner.signal.bump();
        Ok(())
    }
}

impl fmt::Debug for RegisterFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("RegisterFile")
            .field("registers", &inner.regs.len())
            .field("reads", &inner.reads)
            .field("writes", &inner.writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_registers_read_zero() {
        let rf = RegisterFile::new();
        assert_eq!(rf.read(0x30), 0);
    }

    #[test]
    fn write_read_roundtrip_and_share() {
        let rf = RegisterFile::new();
        let other = rf.clone();
        rf.write(0x00, 0x1234_5678);
        assert_eq!(other.read(0x00), 0x1234_5678);
    }

    #[test]
    fn bit_ops() {
        let rf = RegisterFile::new();
        rf.write(0x04, 0b1010);
        rf.set_bits(0x04, 0b0001);
        assert_eq!(rf.read(0x04), 0b1011);
        rf.clear_bits(0x04, 0b0010);
        assert_eq!(rf.read(0x04), 0b1001);
        assert!(rf.bits_set(0x04, 0b1000));
        assert!(!rf.bits_set(0x04, 0b0110));
    }

    #[test]
    fn peek_is_not_an_access_and_writes_bump_the_signal() {
        let rf = RegisterFile::new();
        let sig = rf.wake_signal();
        rf.write(0x10, 7);
        assert_eq!(sig.value(), 1);
        assert_eq!(rf.peek(0x10), 7);
        assert_eq!(rf.peek(0x14), 0);
        assert_eq!(rf.access_counts(), (0, 1));
        let _ = rf.read(0x10);
        assert_eq!(sig.value(), 1, "reads leave the signal alone");
    }

    #[test]
    fn counters_track_traffic() {
        let rf = RegisterFile::new();
        rf.write(0, 1);
        let _ = rf.read(0);
        let _ = rf.read(4);
        let (r, w) = rf.access_counts();
        assert_eq!((r, w), (2, 1));
    }
}
