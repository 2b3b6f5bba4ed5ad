//! Design resolution shared by the server and the `socfmea` CLI: bundled
//! example designs, submitted Verilog, the canonical design key, and the
//! deterministic random workload.
//!
//! Keeping these in one place is what makes the server's answers
//! comparable to `socfmea inject` byte for byte — both front ends build
//! the same netlist, the same stimulus, and the same fault list from the
//! same `(design, seed, cycles)`.

use crate::protocol::DesignRef;
use socfmea_core::extract::{extract_zones, ExtractConfig};
use socfmea_core::ZoneSet;
use socfmea_netlist::{parse_verilog, write_verilog, Logic, Netlist};
use socfmea_sim::Workload;

/// One of the bundled example designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Example {
    /// The hardened F-MEM memory subsystem (the paper's case study).
    Fmem,
    /// The F-MEM with every hardening mechanism disabled.
    FmemBaseline,
    /// The lockstep dual-core MCU.
    Mcu,
    /// The MCU with a single core (no lockstep comparator).
    McuSingle,
}

/// Every bundled example, in canonical order.
pub const EXAMPLES: [Example; 4] = [
    Example::Fmem,
    Example::FmemBaseline,
    Example::Mcu,
    Example::McuSingle,
];

impl Example {
    /// Parses the CLI/protocol name of an example.
    pub fn parse(name: &str) -> Option<Example> {
        Some(match name {
            "fmem" => Example::Fmem,
            "fmem-baseline" => Example::FmemBaseline,
            "mcu" => Example::Mcu,
            "mcu-single" => Example::McuSingle,
            _ => return None,
        })
    }

    /// The CLI/protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Example::Fmem => "fmem",
            Example::FmemBaseline => "fmem-baseline",
            Example::Mcu => "mcu",
            Example::McuSingle => "mcu-single",
        }
    }

    /// Builds the example's netlist together with its zone classification.
    ///
    /// # Errors
    ///
    /// A human-readable message when elaboration fails (a bug in the
    /// bundled design, not in the request).
    pub fn build(self) -> Result<(Netlist, ExtractConfig), String> {
        match self {
            Example::Fmem | Example::FmemBaseline => {
                use socfmea_memsys::{build_netlist, fmea, MemSysConfig};
                let cfg = if self == Example::Fmem {
                    MemSysConfig::hardened()
                } else {
                    MemSysConfig::baseline()
                };
                let netlist =
                    build_netlist(&cfg).map_err(|e| format!("building {}: {e}", self.name()))?;
                Ok((netlist, fmea::extract_config()))
            }
            Example::Mcu | Example::McuSingle => {
                use socfmea_mcu::{build_mcu, fmea, programs, McuConfig};
                let cfg = if self == Example::Mcu {
                    McuConfig::lockstep(programs::checksum_loop())
                } else {
                    McuConfig::single(programs::checksum_loop())
                };
                let netlist =
                    build_mcu(&cfg).map_err(|e| format!("building {}: {e}", self.name()))?;
                Ok((netlist, fmea::extract_config()))
            }
        }
    }
}

/// A resolved design: netlist, extracted zones, and the canonical key.
#[derive(Debug)]
pub struct ResolvedDesign {
    /// The elaborated netlist.
    pub netlist: Netlist,
    /// Its sensible zones.
    pub zones: ZoneSet,
    /// The design-identity key: FNV-1a 64 over the *re-serialized*
    /// Verilog of the resolved netlist, so formatting differences in
    /// submitted source do not fragment the artifact cache. (A bundled
    /// example and a textual dump of it resubmitted as Verilog may still
    /// key separately — net naming differs between the two front ends —
    /// which costs cache sharing, never correctness.)
    pub key: u64,
    /// The canonical (re-serialized) Verilog the key hashes. The cache
    /// compares it on a key match, so a hash collision never shares
    /// artifacts between two designs.
    pub canonical: String,
}

/// Resolves a design reference into netlist + zones + canonical key.
///
/// # Errors
///
/// Unknown example names and Verilog parse errors, phrased for the
/// submitter.
pub fn resolve(design: &DesignRef) -> Result<ResolvedDesign, String> {
    let (netlist, config) = match design {
        DesignRef::Example(name) => Example::parse(name)
            .ok_or_else(|| format!("unknown example design `{name}`"))?
            .build()?,
        DesignRef::Verilog(source) => {
            let netlist = parse_verilog(source).map_err(|e| format!("verilog: {e}"))?;
            (netlist, ExtractConfig::default())
        }
    };
    let canonical = write_verilog(&netlist);
    let zones = extract_zones(&netlist, &config);
    Ok(ResolvedDesign {
        key: fnv1a64(canonical.as_bytes()),
        canonical,
        netlist,
        zones,
    })
}

/// FNV-1a 64-bit — the design-key hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic random workload: every non-critical primary input gets
/// a fresh pseudo-random bit each cycle (SplitMix64, so the stimulus is a
/// pure function of the seed). This is the exact generator behind
/// `socfmea inject`.
pub fn random_workload(netlist: &Netlist, seed: u64, cycles: usize) -> Workload {
    let critical: std::collections::BTreeSet<_> =
        netlist.critical_nets().iter().map(|&(n, _)| n).collect();
    let driveable: Vec<_> = netlist
        .inputs()
        .iter()
        .copied()
        .filter(|n| !critical.contains(n))
        .collect();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next_bit = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 1 == 1
    };
    let mut w = Workload::new(format!("random-{seed:#x}"));
    for _ in 0..cycles {
        let cycle = driveable
            .iter()
            .map(|&n| (n, Logic::from_bool(next_bit())))
            .collect();
        w.push_cycle(cycle);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_names_round_trip() {
        for ex in EXAMPLES {
            assert_eq!(Example::parse(ex.name()), Some(ex));
        }
        assert_eq!(Example::parse("dsp"), None);
    }

    #[test]
    fn design_key_canonicalizes_formatting() {
        let (netlist, _) = Example::Fmem.build().unwrap();
        let canonical = write_verilog(&netlist);
        // a submitted source with different whitespace keys identically,
        // because the key hashes the *re-serialized* netlist
        let reformatted = canonical.replace('\n', "\n\n");
        let a = resolve(&DesignRef::Verilog(canonical)).unwrap();
        let b = resolve(&DesignRef::Verilog(reformatted)).unwrap();
        assert_eq!(a.key, b.key, "whitespace does not fragment the cache");
        let example = resolve(&DesignRef::Example("fmem".into())).unwrap();
        let other = resolve(&DesignRef::Example("fmem-baseline".into())).unwrap();
        assert_ne!(example.key, other.key, "different designs key differently");
        let again = resolve(&DesignRef::Example("fmem".into())).unwrap();
        assert_eq!(example.key, again.key, "example builds are deterministic");
    }

    #[test]
    fn unknown_designs_are_rejected_with_a_message() {
        assert!(resolve(&DesignRef::Example("dsp".into()))
            .unwrap_err()
            .contains("unknown example"));
        assert!(resolve(&DesignRef::Verilog("not verilog".into()))
            .unwrap_err()
            .contains("verilog"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
