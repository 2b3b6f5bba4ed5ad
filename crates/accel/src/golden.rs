//! The golden-trace recorder: one fault-free run per environment, archived
//! as a full per-cycle value matrix.
//!
//! The matrix is what every campaign monitor compares against, what a
//! PPSFP word starts from, and what the operational profile reads its zone
//! activity from: one row holds every net's value at one cycle.
//!
//! It is stored in blocks of rows of at most 256 KiB rather than in one
//! allocation. A process that builds and drops set-ups in turn (a campaign
//! server, a benchmark) then refills a freed trace's memory block by
//! block. One matrix-sized allocation needs a free hole of its own size, so
//! a single long-lived allocation placed in a freed trace's memory makes
//! the heap grow by a whole matrix.

use socfmea_netlist::{LevelizeError, Logic, NetId, Netlist};
use socfmea_sim::{Simulator, Workload};

/// The archived fault-free reference run: post-[`eval`] values of **every**
/// net at **every** workload cycle, recorded by the scalar [`Simulator`]
/// (the reference the word kernel is checked against).
///
/// [`eval`]: Simulator::eval
#[derive(Clone)]
pub struct GoldenTrace {
    cycles: usize,
    nets: usize,
    /// Each block holds `1 << block_shift` rows (the last one fewer).
    block_shift: u32,
    /// Row-major `[cycle][net]` values, in blocks of rows.
    blocks: Vec<Vec<Logic>>,
}

/// The most bytes a block of rows holds, unless a single row is larger.
const BLOCK_BYTES: usize = 1 << 18;

impl std::fmt::Debug for GoldenTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoldenTrace")
            .field("cycles", &self.cycles)
            .field("nets", &self.nets)
            .finish_non_exhaustive()
    }
}

impl GoldenTrace {
    /// Runs `workload` fault-free over `netlist` and records the trace.
    ///
    /// `_checkpoint_interval` is ignored: the trace keeps no checkpoints.
    /// The argument stays until the benchmark harness, which passes it,
    /// changes.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist contains a combinational
    /// cycle.
    pub fn record(
        netlist: &Netlist,
        workload: &Workload,
        _checkpoint_interval: usize,
    ) -> Result<GoldenTrace, LevelizeError> {
        let mut sim = Simulator::new(netlist)?;
        let (cycles, nets) = (workload.len(), netlist.net_count());
        // a power of two of rows per block, so a row lookup is a shift
        let block_shift = (BLOCK_BYTES / nets.max(1)).max(1).ilog2();
        let block_rows = 1 << block_shift;
        let mut blocks: Vec<Vec<Logic>> = Vec::with_capacity(cycles.div_ceil(block_rows));
        // the rows are exactly what a lockstep golden simulation exposes to
        // the campaign monitors, and what the operational profile reads
        workload.run(&mut sim, |cycle, s| {
            if cycle % block_rows == 0 {
                blocks.push(Vec::with_capacity(block_rows.min(cycles - cycle) * nets));
            }
            let block = blocks
                .last_mut()
                .expect("a block opens every block_rows cycles");
            block.extend_from_slice(s.values());
        });
        Ok(GoldenTrace {
            cycles,
            nets,
            block_shift,
            blocks,
        })
    }

    /// The golden value of `net` at `cycle` (post-eval).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    #[inline]
    pub fn value(&self, cycle: usize, net: NetId) -> Logic {
        self.row(cycle)[net.index()]
    }

    /// All net values of one cycle (indexed by [`NetId::index`]).
    #[inline]
    pub fn row(&self, cycle: usize) -> &[Logic] {
        let r = cycle & ((1 << self.block_shift) - 1);
        &self.blocks[cycle >> self.block_shift][r * self.nets..(r + 1) * self.nets]
    }

    /// Every recorded row, in cycle order.
    pub fn rows(&self) -> impl Iterator<Item = &[Logic]> {
        (0..self.cycles).map(|cycle| self.row(cycle))
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles
    }

    /// True when the workload had no cycles.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// Always 0: the trace keeps no checkpoints. Stays until the benchmark
    /// harness, which adds it to the golden bytes it reports, changes.
    pub fn checkpoint_bytes(&self) -> usize {
        0
    }

    /// Heap footprint of the per-cycle value matrix, in bytes.
    pub fn matrix_bytes(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<Logic>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socfmea_rtl::RtlBuilder;
    use socfmea_sim::assign_bus;

    /// `words` registers of `bits` bits, the first loaded with a count for
    /// `cycles` cycles.
    fn design(words: usize, bits: usize, cycles: u64) -> (Netlist, Workload) {
        let mut r = RtlBuilder::new("d");
        let mut dn = Vec::new();
        for k in 0..words {
            let d = r.input_word(&format!("d{k}"), bits);
            let q = r.register(&format!("q{k}"), &d, None, None);
            r.output_word(&format!("o{k}"), &q);
            dn.extend(d.bits().iter().take(8));
        }
        dn.truncate(8);
        let nl = r.finish().unwrap();
        let mut w = Workload::new("count");
        for c in 0..cycles {
            let mut v = Vec::new();
            assign_bus(&mut v, &dn, c);
            w.push_cycle(v);
        }
        (nl, w)
    }

    fn fixture() -> (Netlist, Workload) {
        design(1, 4, 10)
    }

    #[test]
    fn matrix_matches_a_plain_simulation() {
        // one block of rows, and rows spread over several blocks
        for (words, bits, cycles) in [(1, 4, 10), (32, 64, 100)] {
            let (nl, w) = design(words, bits, cycles);
            let trace = GoldenTrace::record(&nl, &w, 4).unwrap();
            assert_eq!(trace.len(), cycles as usize);
            assert_eq!(trace.blocks.len() > 1, words > 1, "{words} words");
            assert_eq!(trace.rows().count(), cycles as usize);
            assert_eq!(trace.matrix_bytes(), cycles as usize * nl.net_count());
            let mut sim = Simulator::new(&nl).unwrap();
            let mut rows = trace.rows();
            w.run(&mut sim, |cycle, s| {
                assert_eq!(trace.row(cycle), s.values(), "cycle {cycle}");
                assert_eq!(rows.next(), Some(s.values()), "cycle {cycle}");
                let last = NetId::from_index(nl.net_count() - 1);
                assert_eq!(trace.value(cycle, last), s.get(last), "cycle {cycle}");
            });
        }
    }

    #[test]
    fn the_interval_changes_nothing_and_no_checkpoints_are_kept() {
        let (nl, w) = fixture();
        let every = GoldenTrace::record(&nl, &w, 1).unwrap();
        let sparse = GoldenTrace::record(&nl, &w, 0).unwrap();
        assert_eq!(every.blocks, sparse.blocks);
        assert_eq!(every.checkpoint_bytes(), 0);
        assert_eq!(every.matrix_bytes(), 10 * nl.net_count());
    }

    #[test]
    fn empty_workload_yields_an_empty_trace() {
        let (nl, _) = fixture();
        let w = Workload::new("idle");
        let trace = GoldenTrace::record(&nl, &w, 8).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.rows().count(), 0);
        assert_eq!(trace.matrix_bytes(), 0);
    }
}
