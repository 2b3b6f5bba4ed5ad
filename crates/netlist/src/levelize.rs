//! Combinational levelization (topological ordering) with cycle detection.
//!
//! A cycle-based simulator evaluates all combinational gates once per clock
//! phase; this requires an order in which every gate is evaluated after all
//! gates driving its inputs. Flip-flop outputs, primary inputs and constants
//! are the sources of the order. A combinational cycle (a loop not broken by
//! a flip-flop) makes the design un-levelizable and is reported as an error —
//! exactly what a synthesis flow would reject.

use crate::ids::GateId;
use crate::netlist::{Driver, Netlist};
use crate::topo::Readers;
use std::error::Error;
use std::fmt;

/// A combinational loop was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelizeError {
    /// Gates participating in (or feeding) the loop, as instance names.
    pub cycle_members: Vec<String>,
}

impl fmt::Display for LevelizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "combinational cycle through {} gate(s): {}",
            self.cycle_members.len(),
            self.cycle_members.join(", ")
        )
    }
}

impl Error for LevelizeError {}

/// Computes a topological evaluation order over the combinational gates.
///
/// Kahn's algorithm over the gate graph; edges run from a gate to the gates
/// reading its output net. Flip-flop `q` nets, primary inputs and constants
/// have no combinational driver and therefore act as sources.
///
/// # Errors
///
/// Returns [`LevelizeError`] listing the gates left unordered when the
/// netlist contains a combinational cycle.
///
/// # Example
///
/// ```
/// use socfmea_netlist::{GateKind, NetlistBuilder, levelize};
///
/// let mut b = NetlistBuilder::new("chain");
/// let a = b.input("a");
/// let x = b.gate(GateKind::Not, &[a], "x");
/// let y = b.gate(GateKind::Not, &[x], "y");
/// b.output("out", y);
/// let nl = b.finish()?;
/// let order = levelize(&nl)?;
/// // `x` is evaluated before `y`
/// let pos = |n: &str| order.iter().position(|&g| nl.gate(g).name == n).unwrap();
/// assert!(pos("x") < pos("y"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn levelize(netlist: &Netlist) -> Result<Vec<GateId>, LevelizeError> {
    levelize_with(netlist, &Readers::gates(netlist))
}

/// [`levelize`] over the gate reader lists of `netlist`, already built.
pub(crate) fn levelize_with(
    netlist: &Netlist,
    readers: &Readers<GateId>,
) -> Result<Vec<GateId>, LevelizeError> {
    let n = netlist.gate_count();
    // indegree = number of inputs driven by combinational gates
    let mut indegree: Vec<u32> = netlist
        .gates()
        .iter()
        .map(|g| {
            g.inputs
                .iter()
                .filter(|&&i| matches!(netlist.net(i).driver, Driver::Gate(_)))
                .count() as u32
        })
        .collect();
    let mut queue: Vec<GateId> = indegree
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| GateId::from_index(i))
        .collect();
    queue.reserve(n - queue.len());
    let mut head = 0;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        for &reader in readers.of(netlist.gate(g).output.index()) {
            indegree[reader.index()] -= 1;
            if indegree[reader.index()] == 0 {
                queue.push(reader);
            }
        }
    }
    let order = queue;
    if order.len() != n {
        let cycle_members = netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|&(i, _)| indegree[i] > 0)
            .map(|(_, g)| g.name.clone())
            .collect();
        return Err(LevelizeError { cycle_members });
    }
    Ok(order)
}

/// Computes the logic depth (longest gate path from a source) of every gate.
///
/// Sources (gates fed only by inputs, constants and flip-flop outputs) are at
/// depth 1. Indexable by [`GateId::index`].
///
/// # Errors
///
/// Propagates [`LevelizeError`] for cyclic netlists.
pub fn gate_depths(netlist: &Netlist) -> Result<Vec<u32>, LevelizeError> {
    let order = levelize(netlist)?;
    let mut depth = vec![0u32; netlist.gate_count()];
    for g in order {
        let mut d = 0;
        for &i in &netlist.gate(g).inputs {
            if let Driver::Gate(src) = netlist.net(i).driver {
                d = d.max(depth[src.index()]);
            }
        }
        depth[g.index()] = d + 1;
    }
    Ok(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    #[test]
    fn diamond_orders_correctly() {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.input("a");
        let l = b.gate(GateKind::Not, &[a], "l");
        let r = b.gate(GateKind::Buf, &[a], "r");
        let y = b.gate(GateKind::And, &[l, r], "y");
        b.output("out", y);
        let nl = b.finish().unwrap();
        let order = levelize(&nl).unwrap();
        let pos = |n: &str| order.iter().position(|&g| nl.gate(g).name == n).unwrap();
        assert!(pos("l") < pos("y"));
        assert!(pos("r") < pos("y"));
        assert_eq!(order.len(), nl.gate_count());
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut b = NetlistBuilder::new("toggle");
        let q = b.dff_placeholder("q");
        let nq = b.gate(GateKind::Not, &[q], "nq");
        b.bind_dff("q", nq);
        let nl = b.finish().unwrap();
        assert!(levelize(&nl).is_ok());
    }

    #[test]
    fn combinational_rings_cannot_be_expressed() {
        // The builder makes combinational cycles structurally impossible
        // (every gate drives a fresh net and may only read existing nets);
        // the Verilog reader therefore rejects a ring as unresolvable
        // instead of producing a cyclic netlist. `levelize`'s cycle check is
        // defensive.
        let src = "
            module ring(a, out);
            input a; output out;
            wire y; wire z;
            and g1(y, a, z);
            buf g2(z, y);
            buf g3(out, y);
            endmodule";
        let err = crate::verilog::parse_verilog(src).unwrap_err();
        assert!(err.message.contains("undriven"), "{err}");
    }

    #[test]
    fn levelize_error_display() {
        let err = LevelizeError {
            cycle_members: vec!["g1".into(), "g2".into()],
        };
        assert!(err
            .to_string()
            .contains("combinational cycle through 2 gate(s)"));
    }

    #[test]
    fn depths_grow_along_chains() {
        let mut b = NetlistBuilder::new("chain");
        let mut n = b.input("a");
        for i in 0..5 {
            n = b.gate(GateKind::Not, &[n], format!("inv{i}"));
        }
        b.output("out", n);
        let nl = b.finish().unwrap();
        let depths = gate_depths(&nl).unwrap();
        assert_eq!(*depths.iter().max().unwrap(), 6); // 5 inverters + out buffer
    }
}
