//! The lint driver: configuration, per-rule severity overrides, and the
//! report the two rule packs feed into.

use crate::diag::{Diagnostic, Severity};
use crate::registry::{rule_info, RULES};
use crate::structural::check_structural;
use crate::testability::check_testability;
use crate::worksheet::check_worksheet;
use socfmea_core::worksheet::Worksheet;
use socfmea_core::ZoneSet;
use socfmea_iec61508::Sil;
use socfmea_netlist::{Netlist, Topology};
use socfmea_static::TestabilityAnalysis;

/// What to do with a rule's findings — the clippy `allow`/`warn`/`deny`
/// triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleLevel {
    /// Drop the rule's findings entirely.
    Allow,
    /// Force the rule's findings to [`Severity::Warning`].
    Warn,
    /// Force the rule's findings to [`Severity::Error`].
    Deny,
}

/// Tunables and policy for one lint run.
///
/// All fields are public so callers can use functional-record-update syntax
/// (`LintConfig { target_sil: Some(sil), ..LintConfig::default() }`).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Minimum shared-cone gate count for a zone pair to count as a
    /// wide-fault hotspot (`SL0004`).
    pub wide_hotspot_threshold: usize,
    /// Minimum number of distinct zones a flip-flop enable/reset net must
    /// steer before `SL0005` flags it as an undeclared global net.
    pub global_fanout_threshold: usize,
    /// Substrings identifying alarm nets for the monitor-facing
    /// testability rules (`SL0203`, `SL0204`), matched against output-net
    /// names.
    pub alarm_patterns: Vec<String>,
    /// The SIL the design is meant to reach; enables `SL0103`.
    pub target_sil: Option<Sil>,
    /// Promote every surviving warning to an error (`--deny warnings`).
    pub deny_warnings: bool,
    /// Per-rule level overrides, applied in order: the *last* entry naming a
    /// code wins, mirroring command-line flag semantics.
    pub overrides: Vec<(String, RuleLevel)>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            wide_hotspot_threshold: 8,
            global_fanout_threshold: 4,
            alarm_patterns: vec!["alarm".to_owned()],
            target_sil: None,
            deny_warnings: false,
            overrides: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Appends an `allow` override for `code`.
    pub fn allow(mut self, code: impl Into<String>) -> LintConfig {
        self.overrides.push((code.into(), RuleLevel::Allow));
        self
    }

    /// Appends a `warn` override for `code`.
    pub fn warn(mut self, code: impl Into<String>) -> LintConfig {
        self.overrides.push((code.into(), RuleLevel::Warn));
        self
    }

    /// Appends a `deny` override for `code`.
    pub fn deny(mut self, code: impl Into<String>) -> LintConfig {
        self.overrides.push((code.into(), RuleLevel::Deny));
        self
    }

    /// The severity a finding of `code` ends up with, or `None` if the rule
    /// is allowed away. `emitted` is the severity the rule itself chose
    /// (rules may emit below their registry default — e.g. the aggregate
    /// variants — so the override works on what was actually produced).
    pub fn effective_severity(&self, code: &str, emitted: Severity) -> Option<Severity> {
        let mut severity = emitted;
        for (c, level) in &self.overrides {
            if c == code {
                match level {
                    RuleLevel::Allow => return None,
                    RuleLevel::Warn => severity = Severity::Warning,
                    RuleLevel::Deny => severity = Severity::Error,
                }
            }
        }
        if self.deny_warnings && severity == Severity::Warning {
            severity = Severity::Error;
        }
        Some(severity)
    }
}

/// Runs the registered rule packs over a design and its FMEA artefacts.
pub struct LintRunner {
    config: LintConfig,
}

impl LintRunner {
    /// Creates a runner with the given policy.
    pub fn new(config: LintConfig) -> LintRunner {
        LintRunner { config }
    }

    /// A runner with [`LintConfig::default`] policy.
    pub fn with_defaults() -> LintRunner {
        LintRunner::new(LintConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Lints a design. The structural pack always runs; the worksheet pack
    /// runs when a worksheet is supplied (a netlist alone has no FMEA
    /// assumptions to check).
    pub fn run(
        &self,
        netlist: &Netlist,
        zones: &ZoneSet,
        worksheet: Option<&Worksheet<'_>>,
    ) -> LintReport {
        self.run_inner(netlist, zones, worksheet, None)
    }

    /// [`run`](Self::run) with each rule pack timed as an observed phase
    /// (`lint-structural`, `lint-testability`, `lint-worksheet`) and the report's finding
    /// counts recorded into the observer's metrics registry. The report is
    /// identical to the unobserved call.
    pub fn run_observed(
        &self,
        netlist: &Netlist,
        zones: &ZoneSet,
        worksheet: Option<&Worksheet<'_>>,
        obs: &socfmea_obs::Observer,
    ) -> LintReport {
        let report = self.run_inner(netlist, zones, worksheet, Some(obs));
        let reg = obs.registry();
        reg.counter("lint.diagnostics")
            .add(report.diagnostics.len() as u64);
        reg.counter("lint.errors").add(report.errors() as u64);
        reg.counter("lint.warnings").add(report.warnings() as u64);
        report
    }

    fn run_inner(
        &self,
        netlist: &Netlist,
        zones: &ZoneSet,
        worksheet: Option<&Worksheet<'_>>,
        obs: Option<&socfmea_obs::Observer>,
    ) -> LintReport {
        let phase = |name: &str, f: &mut dyn FnMut()| match obs {
            Some(o) => o.phase(name, f),
            None => f(),
        };
        // One static testability result shared by the structural
        // observability rule and the whole testability pack. `None` only
        // for un-levelizable netlists, which SL0001 reports anyway.
        let statics = Topology::build(netlist)
            .ok()
            .map(|topo| TestabilityAnalysis::analyze(netlist, &topo, netlist.outputs()));
        let mut raw = Vec::new();
        phase("lint-structural", &mut || {
            check_structural(netlist, zones, statics.as_ref(), &self.config, &mut raw)
        });
        if let Some(statics) = &statics {
            phase("lint-testability", &mut || {
                check_testability(netlist, zones, worksheet, statics, &self.config, &mut raw)
            });
        }
        if let Some(ws) = worksheet {
            phase("lint-worksheet", &mut || {
                check_worksheet(netlist.name(), ws, &self.config, &mut raw)
            });
        }

        let mut diagnostics: Vec<Diagnostic> = raw
            .into_iter()
            .filter_map(|mut d| {
                let severity = self.config.effective_severity(d.code, d.severity)?;
                d.severity = severity;
                Some(d)
            })
            .collect();
        // Highest severity first, then code order, then anchor for a stable
        // deterministic report.
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.anchor.location().cmp(&b.anchor.location()))
        });
        LintReport {
            design: netlist.name().to_owned(),
            diagnostics,
        }
    }
}

/// The outcome of one lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Name of the linted design.
    pub design: String,
    /// Findings, sorted by severity (errors first), then rule code.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-level findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// True when the run should fail a gating flow.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Findings carrying a given rule code.
    pub fn by_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// One-line run summary, e.g.
    /// `socfmea-lint: mcu: 0 errors, 2 warnings, 5 infos`.
    pub fn summary_line(&self) -> String {
        format!(
            "socfmea-lint: {}: {} error(s), {} warning(s), {} info(s)",
            self.design,
            self.errors(),
            self.warnings(),
            self.infos()
        )
    }

    /// Renders the whole report rustc-style, one blank line between
    /// findings, summary last.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.render_text());
            s.push('\n');
        }
        s.push_str(&self.summary_line());
        s.push('\n');
        s
    }

    /// Renders the whole report as one JSON document.
    pub fn render_json(&self) -> String {
        let body: Vec<String> = self.diagnostics.iter().map(|d| d.render_json()).collect();
        format!(
            "{{\"design\":{},\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[{}]}}",
            socfmea_obs::json::quote(&self.design),
            self.errors(),
            self.warnings(),
            self.infos(),
            body.join(",")
        )
    }
}

/// All registered rule codes — convenience for CLI validation and docs.
pub fn known_codes() -> Vec<&'static str> {
    RULES.iter().map(|r| r.code).collect()
}

/// True when `code` names a registered rule.
pub fn is_known_code(code: &str) -> bool {
    rule_info(code).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Anchor;

    #[test]
    fn overrides_apply_last_wins_then_deny_warnings() {
        let cfg = LintConfig::default().deny("SL0004").warn("SL0004");
        assert_eq!(
            cfg.effective_severity("SL0004", Severity::Info),
            Some(Severity::Warning)
        );
        let cfg = LintConfig {
            deny_warnings: true,
            ..cfg
        };
        assert_eq!(
            cfg.effective_severity("SL0004", Severity::Info),
            Some(Severity::Error)
        );
        assert_eq!(
            cfg.effective_severity("SL0002", Severity::Warning),
            Some(Severity::Error)
        );
        let cfg = cfg.allow("SL0002");
        assert_eq!(cfg.effective_severity("SL0002", Severity::Warning), None);
    }

    #[test]
    fn deny_warnings_leaves_info_alone() {
        let cfg = LintConfig {
            deny_warnings: true,
            ..LintConfig::default()
        };
        assert_eq!(
            cfg.effective_severity("SL0004", Severity::Info),
            Some(Severity::Info)
        );
    }

    #[test]
    fn report_counts_and_summary() {
        let report = LintReport {
            design: "demo".into(),
            diagnostics: vec![
                Diagnostic::new(
                    "SL0001",
                    Severity::Error,
                    Anchor::Design("demo".into()),
                    "a",
                ),
                Diagnostic::new("SL0002", Severity::Warning, Anchor::Net("n".into()), "b"),
                Diagnostic::new("SL0004", Severity::Info, Anchor::Zone("z".into()), "c"),
            ],
        };
        assert_eq!(
            (report.errors(), report.warnings(), report.infos()),
            (1, 1, 1)
        );
        assert!(report.has_errors());
        assert_eq!(report.by_code("SL0002").len(), 1);
        assert!(report.summary_line().contains("1 error(s), 1 warning(s)"));
        let json = report.render_json();
        assert!(json.starts_with("{\"design\":\"demo\""));
        assert!(json.contains("\"errors\":1"));
        let text = report.render_text();
        assert!(text.contains("error[SL0001]"));
        assert!(text.ends_with("info(s)\n"));
    }

    #[test]
    fn known_code_validation() {
        assert!(is_known_code("SL0101"));
        assert!(!is_known_code("SL0042"));
        assert_eq!(known_codes().len(), RULES.len());
    }
}
