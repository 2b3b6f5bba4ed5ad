//! The golden-trace recorder: one fault-free run per environment, archived
//! as a full per-cycle value matrix plus periodic full-state checkpoints.
//!
//! The matrix is what every campaign monitor compares against, and what a
//! PPSFP word starts from: one row holds every net's value at one cycle.
//! The checkpoints let a full simulator resume from the nearest checkpoint
//! at or before a cycle instead of re-simulating from power-on; none of the
//! campaign's kernels reads them.

use socfmea_netlist::{LevelizeError, Logic, NetId, Netlist};
use socfmea_sim::{SimSnapshot, Simulator, Workload};

/// The archived fault-free reference run: post-[`eval`] values of **every**
/// net at **every** workload cycle, plus [`SimSnapshot`] checkpoints taken
/// every `interval` cycles.
///
/// Checkpoint timing convention: the checkpoint for cycle `c` is captured at
/// the *start* of cycle `c`, before that cycle's stimulus is applied — so
/// restoring it and replaying the workload from cycle `c` reproduces the
/// golden run exactly.
///
/// [`eval`]: Simulator::eval
#[derive(Debug, Clone)]
pub struct GoldenTrace {
    cycles: usize,
    nets: usize,
    /// Row-major `[cycle][net]` values.
    matrix: Vec<Logic>,
    /// Snapshots at cycles `0, interval, 2*interval, …`.
    checkpoints: Vec<SimSnapshot>,
    interval: usize,
}

impl GoldenTrace {
    /// Runs `workload` fault-free over `netlist` and records the trace,
    /// checkpointing every `interval` cycles (`0` is treated as `1`).
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist contains a combinational
    /// cycle.
    pub fn record(
        netlist: &Netlist,
        workload: &Workload,
        interval: usize,
    ) -> Result<GoldenTrace, LevelizeError> {
        let mut sim = Simulator::new(netlist)?;
        Ok(Self::record_with(&mut sim, workload, interval))
    }

    /// Like [`record`](Self::record), but reuses an existing simulator
    /// (reset to power-on first), so callers that already paid the
    /// levelization keep it.
    pub fn record_with(
        sim: &mut Simulator<'_>,
        workload: &Workload,
        interval: usize,
    ) -> GoldenTrace {
        let interval = interval.max(1);
        let nets = sim.netlist().net_count();
        let cycles = workload.len();
        sim.reset_to_power_on();
        let mut trace = GoldenTrace {
            cycles,
            nets,
            matrix: Vec::with_capacity(cycles * nets),
            checkpoints: Vec::with_capacity(cycles / interval + 1),
            interval,
        };
        // Same cycle discipline as `Workload::run`: inputs, eval, observe,
        // tick — the matrix rows are exactly what a lockstep golden
        // simulation would expose to the campaign monitors.
        for (c, inputs) in workload.iter().enumerate() {
            if c % interval == 0 {
                trace.checkpoints.push(sim.snapshot());
            }
            for &(n, v) in inputs {
                sim.set(n, v);
            }
            sim.eval();
            trace.matrix.extend_from_slice(sim.values());
            sim.tick();
        }
        trace
    }

    /// The golden value of `net` at `cycle` (post-eval).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    #[inline]
    pub fn value(&self, cycle: usize, net: NetId) -> Logic {
        self.matrix[cycle * self.nets + net.index()]
    }

    /// All net values of one cycle (indexed by [`NetId::index`]).
    #[inline]
    pub fn row(&self, cycle: usize) -> &[Logic] {
        &self.matrix[cycle * self.nets..(cycle + 1) * self.nets]
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles
    }

    /// True when the workload had no cycles.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// The checkpoint interval the trace was recorded with.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Number of stored checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// The nearest checkpoint at or before `cycle`; `None` only when the
    /// trace is empty.
    pub fn checkpoint_at_or_before(&self, cycle: usize) -> Option<&SimSnapshot> {
        let idx = (cycle / self.interval).min(self.checkpoints.len().checked_sub(1)?);
        Some(&self.checkpoints[idx])
    }

    /// Total heap footprint of the checkpoint store, in bytes (grows as the
    /// checkpoint interval shrinks).
    pub fn checkpoint_bytes(&self) -> usize {
        self.checkpoints.iter().map(SimSnapshot::memory_bytes).sum()
    }

    /// Heap footprint of the per-cycle value matrix, in bytes.
    pub fn matrix_bytes(&self) -> usize {
        self.matrix.len() * std::mem::size_of::<Logic>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::assign_bus;

    fn fixture() -> (Netlist, Workload) {
        let mut r = RtlBuilder::new("d");
        let d = r.input_word("d", 4);
        let q = r.register("q", &d, None, None);
        r.output_word("o", &q);
        let nl = r.finish().unwrap();
        let dn: Vec<_> = (0..4)
            .map(|i| nl.net_by_name(&format!("d[{i}]")).unwrap())
            .collect();
        let mut w = Workload::new("count");
        for c in 0..10 {
            let mut v = Vec::new();
            assign_bus(&mut v, &dn, c);
            w.push_cycle(v);
        }
        (nl, w)
    }

    #[test]
    fn matrix_matches_a_plain_simulation() {
        let (nl, w) = fixture();
        let trace = GoldenTrace::record(&nl, &w, 4).unwrap();
        assert_eq!(trace.len(), 10);
        let mut sim = Simulator::new(&nl).unwrap();
        let mut cycle = 0usize;
        w.run(&mut sim, |_, s| {
            assert_eq!(trace.row(cycle), s.values(), "cycle {cycle}");
            cycle += 1;
        });
    }

    #[test]
    fn checkpoints_replay_to_the_same_trace() {
        let (nl, w) = fixture();
        let trace = GoldenTrace::record(&nl, &w, 3).unwrap();
        assert_eq!(trace.checkpoint_count(), 4); // cycles 0, 3, 6, 9
        let mut sim = Simulator::new(&nl).unwrap();
        for start in 0..w.len() {
            let cp = trace.checkpoint_at_or_before(start).unwrap();
            assert!(cp.cycle() as usize <= start);
            assert!(start - cp.cycle() as usize <= 3);
            sim.restore(cp);
            for (c, inputs) in w.iter().enumerate().skip(cp.cycle() as usize) {
                for &(n, v) in inputs {
                    sim.set(n, v);
                }
                sim.eval();
                assert_eq!(sim.values(), trace.row(c), "replay from {start} at {c}");
                sim.tick();
                if c >= start {
                    break;
                }
            }
        }
    }

    #[test]
    fn interval_one_checkpoints_every_cycle_and_zero_is_clamped() {
        let (nl, w) = fixture();
        let every = GoldenTrace::record(&nl, &w, 1).unwrap();
        assert_eq!(every.checkpoint_count(), 10);
        let clamped = GoldenTrace::record(&nl, &w, 0).unwrap();
        assert_eq!(clamped.checkpoint_count(), 10);
        assert!(every.checkpoint_bytes() > 0);
        assert!(every.matrix_bytes() >= 10 * nl.net_count());
    }

    #[test]
    fn empty_workload_yields_an_empty_trace() {
        let (nl, _) = fixture();
        let w = Workload::new("idle");
        let trace = GoldenTrace::record(&nl, &w, 8).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.checkpoint_count(), 0);
        assert!(trace.checkpoint_at_or_before(0).is_none());
    }
}
