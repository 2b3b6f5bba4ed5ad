//! The diagnostic data model: severities, anchors, and renderers.
//!
//! A [`Diagnostic`] is one finding of one rule: a stable code (`SL0003`),
//! a severity, a message, an *anchor* naming the design object the finding
//! points at (the lint's equivalent of a source span), and an optional help
//! note. Diagnostics render two ways: rustc-style text for humans and a
//! line-oriented JSON document for tools, whose strings go through the
//! workspace's one JSON escaper in `socfmea_obs::json`.

use socfmea_obs::json::{quote, quote_into};
use std::fmt;

/// How serious a finding is.
///
/// Ordered so that comparisons read naturally: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth a look, never gates a flow.
    Info,
    /// Suspicious: gates the flow under `--deny warnings`.
    Warning,
    /// A defect: the artefact is inconsistent or structurally unsafe.
    Error,
}

impl Severity {
    /// Lower-case label used in both render formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a finding points at — the lint's span.
///
/// The FMEA artefacts have no source text, so anchors name design objects
/// instead of byte ranges: a gate, a net, a sensible zone, one worksheet
/// row, or the design as a whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// The whole design (aggregate findings).
    Design(String),
    /// A combinational gate, by instance name.
    Gate(String),
    /// A net, by name.
    Net(String),
    /// A sensible zone, by name.
    Zone(String),
    /// One worksheet row: zone × failure mode × persistence.
    Row {
        /// Zone name.
        zone: String,
        /// Failure-mode key (`soft_error`, `addressing`, ...).
        mode: String,
        /// `transient` or `permanent`.
        persistence: String,
    },
}

impl Anchor {
    /// The anchor kind tag used in the JSON rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            Anchor::Design(_) => "design",
            Anchor::Gate(_) => "gate",
            Anchor::Net(_) => "net",
            Anchor::Zone(_) => "zone",
            Anchor::Row { .. } => "row",
        }
    }

    /// Human-readable location, used after `-->` in the text rendering.
    pub fn location(&self) -> String {
        match self {
            Anchor::Design(n) => format!("design `{n}`"),
            Anchor::Gate(n) => format!("gate `{n}`"),
            Anchor::Net(n) => format!("net `{n}`"),
            Anchor::Zone(n) => format!("zone `{n}`"),
            Anchor::Row {
                zone,
                mode,
                persistence,
            } => format!("worksheet row `{zone}` / `{mode}` ({persistence})"),
        }
    }
}

/// One finding of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule code (`SL0001`...). Codes never change meaning across
    /// releases; retired rules leave their code unused.
    pub code: &'static str,
    /// Effective severity (after any per-rule overrides).
    pub severity: Severity,
    /// What the finding points at.
    pub anchor: Anchor,
    /// One-line statement of the problem.
    pub message: String,
    /// Optional remediation note.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a help note.
    pub fn new(
        code: &'static str,
        severity: Severity,
        anchor: Anchor,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            anchor,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help note.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Renders the finding rustc-style:
    ///
    /// ```text
    /// warning[SL0003]: 3 gates belong to no sensible-zone cone
    ///   --> design `mcu`
    ///    = help: un-zoned gates contribute FIT the worksheet never sees
    /// ```
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "{}[{}]: {}\n  --> {}\n",
            self.severity,
            self.code,
            self.message,
            self.anchor.location()
        );
        if let Some(help) = &self.help {
            s.push_str(&format!("   = help: {help}\n"));
        }
        s
    }

    /// Renders the finding as one JSON object.
    pub fn render_json(&self) -> String {
        let mut s = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"anchor\":{{\"kind\":\"{}\",\"name\":{}}},\"message\":{}",
            self.code,
            self.severity,
            self.anchor.kind(),
            quote(&self.anchor.location()),
            quote(&self.message),
        );
        if let Some(help) = &self.help {
            s.push_str(",\"help\":");
            quote_into(&mut s, help);
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_order_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.label(), "warning");
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let d = Diagnostic::new(
            "SL0003",
            Severity::Warning,
            Anchor::Design("mcu".into()),
            "3 gates belong to no sensible-zone cone",
        )
        .with_help("zone them or mark their blocks opaque");
        let text = d.render_text();
        assert!(text.starts_with("warning[SL0003]: 3 gates"));
        assert!(text.contains("--> design `mcu`"));
        assert!(text.contains("= help: zone them"));
    }

    #[test]
    fn json_rendering_escapes_and_tags() {
        let d = Diagnostic::new(
            "SL0102",
            Severity::Error,
            Anchor::Zone("mem/\"w0\"".into()),
            "bad\nclaim",
        );
        let json = d.render_json();
        assert!(json.contains("\"code\":\"SL0102\""));
        assert!(json.contains("\"kind\":\"zone\""));
        assert!(json.contains("\\\"w0\\\""));
        assert!(json.contains("bad\\nclaim"));
        assert!(!json.contains("\"help\""));
        // the exact bytes, help escaped too
        let json = d.with_help("tab\there\u{1}").render_json();
        assert_eq!(
            json,
            r#"{"code":"SL0102","severity":"error","anchor":{"kind":"zone","name":"zone `mem/\"w0\"`"},"message":"bad\nclaim","help":"tab\there\u0001"}"#
        );
    }

    #[test]
    fn row_anchor_names_all_three_coordinates() {
        let a = Anchor::Row {
            zone: "ctrl/state".into(),
            mode: "soft_error".into(),
            persistence: "transient".into(),
        };
        assert_eq!(a.kind(), "row");
        let loc = a.location();
        assert!(loc.contains("ctrl/state") && loc.contains("soft_error"));
    }
}
