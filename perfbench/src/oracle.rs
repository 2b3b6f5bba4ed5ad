//! The verdict oracle of the campaign workloads.
//!
//! A reference holds, for every fault of a workload's fault list, the
//! verdict of the scalar lockstep engine (`Engine::Lockstep`, collapse and
//! prune off): outcome class, first functional mismatch, first alarm, the
//! SENS flag and the deviated zones. References are compiled into the
//! binary from `reference/`; `perfbench --regen-reference` rewrites them
//! and the package's tests re-derive the smoke-size ones.

use socfmea_faultsim::{CampaignResult, Fault, FaultOutcome, Outcome};

/// One fault's expected verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub outcome: Outcome,
    pub first_mismatch: Option<usize>,
    pub alarm_cycle: Option<usize>,
    pub sens: bool,
    pub zones: Vec<usize>,
}

impl Verdict {
    pub fn of(o: &FaultOutcome) -> Verdict {
        Verdict {
            outcome: o.outcome,
            first_mismatch: o.first_mismatch,
            alarm_cycle: o.alarm_cycle,
            sens: o.sens_triggered,
            zones: o.deviated_zones.iter().map(|z| z.index()).collect(),
        }
    }
}

/// The lockstep verdicts of a whole fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// FNV-1a 64 over the fault labels: a list that drifted from the one
    /// the reference was made for fails every verdict.
    pub list_digest: u64,
    pub verdicts: Vec<Verdict>,
}

/// FNV-1a 64 over the fault labels, newline separated.
pub fn list_digest(faults: &[Fault]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in faults {
        for &b in f.label.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn outcome_code(o: Outcome) -> &'static str {
    match o {
        Outcome::NoEffect => "NE",
        Outcome::SafeDetected => "SD",
        Outcome::DangerousDetected => "DD",
        Outcome::DangerousUndetected => "DU",
    }
}

fn opt(v: Option<usize>) -> String {
    v.map_or("-".into(), |c| c.to_string())
}

impl Reference {
    /// The reference from a lockstep result over `faults`.
    pub fn from_result(faults: &[Fault], result: &CampaignResult) -> Reference {
        assert_eq!(result.outcomes.len(), faults.len(), "one verdict per fault");
        Reference {
            list_digest: list_digest(faults),
            verdicts: result.outcomes.iter().map(Verdict::of).collect(),
        }
    }

    /// The text form kept under `reference/`.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "# {title}: lockstep verdicts (outcome mismatch alarm sens zones)\nfaults {} {:016x}\n",
            self.verdicts.len(),
            self.list_digest
        );
        for (i, v) in self.verdicts.iter().enumerate() {
            let zones = if v.zones.is_empty() {
                "-".to_owned()
            } else {
                v.zones
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "{i} {} {} {} {} {zones}\n",
                outcome_code(v.outcome),
                opt(v.first_mismatch),
                opt(v.alarm_cycle),
                u8::from(v.sens)
            ));
        }
        out
    }

    /// Parses [`render`](Self::render)'s output.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let header = lines.next().ok_or("empty reference")?;
        let mut h = header.split_whitespace();
        let (Some("faults"), Some(len), Some(digest)) = (h.next(), h.next(), h.next()) else {
            return Err(format!("bad reference header `{header}`"));
        };
        let len: usize = len.parse().map_err(|_| "bad fault count")?;
        let list_digest = u64::from_str_radix(digest, 16).map_err(|_| "bad list digest")?;
        let num = |s: &str| -> Result<Option<usize>, String> {
            if s == "-" {
                Ok(None)
            } else {
                s.parse().map(Some).map_err(|_| format!("bad cycle `{s}`"))
            }
        };
        let mut verdicts = Vec::with_capacity(len);
        for (i, line) in lines.enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 6 || f[0] != i.to_string() {
                return Err(format!("bad reference line `{line}`"));
            }
            let outcome = match f[1] {
                "NE" => Outcome::NoEffect,
                "SD" => Outcome::SafeDetected,
                "DD" => Outcome::DangerousDetected,
                "DU" => Outcome::DangerousUndetected,
                other => return Err(format!("bad outcome `{other}`")),
            };
            let zones = if f[5] == "-" {
                Vec::new()
            } else {
                f[5].split(',')
                    .map(|z| z.parse().map_err(|_| format!("bad zone `{z}`")))
                    .collect::<Result<_, _>>()?
            };
            verdicts.push(Verdict {
                outcome,
                first_mismatch: num(f[2])?,
                alarm_cycle: num(f[3])?,
                sens: f[4] == "1",
                zones,
            });
        }
        if verdicts.len() != len {
            return Err(format!(
                "reference lists {} of {len} faults",
                verdicts.len()
            ));
        }
        Ok(Reference {
            list_digest,
            verdicts,
        })
    }

    /// Checks a campaign over `faults` against the reference: returns the
    /// number of failed checks, one per mismatching verdict plus one each
    /// for a wrong DC and a wrong SFF.
    pub fn check(&self, faults: &[Fault], result: &CampaignResult) -> usize {
        if list_digest(faults) != self.list_digest || result.outcomes.len() != faults.len() {
            return faults.len() + 2;
        }
        let mut failed = result
            .outcomes
            .iter()
            .zip(&self.verdicts)
            .filter(|(o, v)| Verdict::of(o) != **v)
            .count();
        let expected = CampaignResult {
            outcomes: self
                .verdicts
                .iter()
                .enumerate()
                .map(|(i, v)| FaultOutcome {
                    fault_index: i,
                    outcome: v.outcome,
                    first_mismatch: v.first_mismatch,
                    alarm_cycle: v.alarm_cycle,
                    sens_triggered: v.sens,
                    deviated_zones: Default::default(),
                })
                .collect(),
            coverage: Default::default(),
        };
        failed += usize::from(expected.measured_dc() != result.measured_dc());
        failed += usize::from(expected.measured_sff() != result.measured_sff());
        failed
    }
}
