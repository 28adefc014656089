//! Clock domains: programmable periodic edge sources.
//!
//! Each domain keeps a *phase origin* and counts edges since that origin, and
//! the time of edge `n` is computed exactly as `origin + n·10¹²/f` in 128-bit
//! arithmetic (see [`Frequency::edge_offset`]). Re-programming the frequency
//! (what the paper does through the Xilinx Clock Wizard and the ZedBoard's
//! eight switches) resets the phase origin to "now", exactly like an MMCM
//! re-locking.

use crate::component::ComponentId;
use crate::time::{Frequency, SimTime};

/// Identifies a clock domain registered with an [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockDomainId(pub(crate) u32);

impl ClockDomainId {
    /// The raw index of this domain inside its engine.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Read-only snapshot of a clock domain's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDomainInfo {
    /// Domain name as given at registration.
    pub name: String,
    /// Current programmed frequency.
    pub frequency: Frequency,
    /// Rising edges delivered since the simulation started (across all
    /// re-programmings).
    pub total_edges: u64,
    /// Whether the domain is currently gated off.
    pub gated: bool,
}

/// Internal clock-domain state (owned by the engine).
#[derive(Debug)]
pub(crate) struct ClockDomain {
    pub(crate) name: String,
    pub(crate) frequency: Frequency,
    /// Instant from which edge offsets are measured.
    pub(crate) phase_origin: SimTime,
    /// Edges delivered since `phase_origin` (edge 0 fires *at* the origin
    /// only for the initial origin at t=0; after re-programming the first
    /// edge fires one period later).
    pub(crate) edges_since_origin: u64,
    /// Next edge index to fire (relative to origin).
    pub(crate) next_edge: u64,
    /// Time of edge `next_edge`, kept in step with the fields it derives
    /// from by [`ClockDomain::advance`] and the re-programming methods.
    next_edge_at: SimTime,
    /// Lifetime edge counter.
    pub(crate) total_edges: u64,
    /// Invalidates in-flight edge events after re-programming or gating.
    pub(crate) generation: u64,
    pub(crate) gated: bool,
    /// Components receiving `on_clock_edge`, in registration order.
    pub(crate) members: Vec<ComponentId>,
}

impl ClockDomain {
    pub(crate) fn new(name: String, frequency: Frequency) -> Self {
        let mut d = ClockDomain {
            name,
            frequency,
            phase_origin: SimTime::ZERO,
            edges_since_origin: 0,
            next_edge: 1, // first edge one period after t=0, like a real MMCM
            next_edge_at: SimTime::ZERO,
            total_edges: 0,
            generation: 0,
            gated: false,
            members: Vec::new(),
        };
        d.locate_next_edge();
        d
    }

    /// Time of the next pending edge.
    pub(crate) fn next_edge_time(&self) -> SimTime {
        self.next_edge_at
    }

    /// Recomputes the next edge's time after its index, the frequency or
    /// the phase origin changed.
    pub(crate) fn locate_next_edge(&mut self) {
        self.next_edge_at = self.phase_origin + self.frequency.edge_offset(self.next_edge);
    }

    /// Accounts the next `k` edges as fired.
    pub(crate) fn advance(&mut self, k: u64) {
        self.edges_since_origin = self.next_edge + k - 1;
        self.next_edge += k;
        self.total_edges += k;
        self.locate_next_edge();
    }

    /// Re-programs the frequency at instant `now`; the next edge fires one
    /// new-period after `now`.
    pub(crate) fn set_frequency(&mut self, now: SimTime, frequency: Frequency) {
        self.frequency = frequency;
        self.phase_origin = now;
        self.edges_since_origin = 0;
        self.next_edge = 1;
        self.generation += 1;
        self.locate_next_edge();
    }

    pub(crate) fn set_gated(&mut self, now: SimTime, gated: bool) {
        if self.gated == gated {
            return;
        }
        self.gated = gated;
        self.generation += 1;
        if !gated {
            // Re-start the phase from the un-gating instant.
            self.phase_origin = now;
            self.edges_since_origin = 0;
            self.next_edge = 1;
            self.locate_next_edge();
        }
    }

    pub(crate) fn info(&self) -> ClockDomainInfo {
        ClockDomainInfo {
            name: self.name.clone(),
            frequency: self.frequency,
            total_edges: self.total_edges,
            gated: self.gated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn first_edge_is_one_period_after_origin() {
        let d = ClockDomain::new("clk".into(), Frequency::from_mhz(100));
        assert_eq!(
            d.next_edge_time(),
            SimTime::ZERO + SimDuration::from_nanos(10)
        );
    }

    #[test]
    fn reprogram_resets_phase() {
        let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(100));
        let now = SimTime::from_ps(123_456);
        let gen_before = d.generation;
        d.set_frequency(now, Frequency::from_mhz(200));
        assert_eq!(d.generation, gen_before + 1);
        assert_eq!(d.next_edge_time(), now + SimDuration::from_nanos(5));
    }

    #[test]
    fn gating_toggles_and_restarts_phase() {
        let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(100));
        let t1 = SimTime::from_ps(1_000);
        d.set_gated(t1, true);
        assert!(d.gated);
        let gen = d.generation;
        d.set_gated(t1, true); // no-op
        assert_eq!(d.generation, gen);
        let t2 = SimTime::from_ps(5_000);
        d.set_gated(t2, false);
        assert_eq!(d.next_edge_time(), t2 + SimDuration::from_nanos(10));
    }
}
