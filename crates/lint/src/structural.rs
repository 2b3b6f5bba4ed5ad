//! The structural rule pack: netlist, zone extraction, cone correlation and
//! monitor observability (`SL00xx`).
//!
//! These rules re-read the artefacts the paper's extraction tool produces
//! and flag the structural safety problems the methodology exists to catch
//! *before* simulation: logic the FMEA never accounts for, shared-cone
//! hotspots where one physical fault fails several zones at once
//! (paper §3, Figure 2), undeclared global nets, and zones no monitor can
//! ever observe.

use crate::diag::{Anchor, Diagnostic, Severity};
use crate::runner::LintConfig;
use socfmea_core::ZoneSet;
use socfmea_netlist::{levelize, Driver, GateId, Netlist};
use socfmea_static::TestabilityAnalysis;

/// Cap on individually-anchored findings per rule; the remainder is folded
/// into one aggregate diagnostic so a degenerate design cannot flood the
/// report.
pub(crate) const MAX_PER_RULE: usize = 12;

/// Runs every structural rule, appending raw findings (default severities;
/// the runner applies per-rule overrides afterwards). `statics` is the
/// shared static testability result (`None` when the netlist is not
/// levelizable — then only `SL0001` has anything to say anyway).
pub(crate) fn check_structural(
    netlist: &Netlist,
    zones: &ZoneSet,
    statics: Option<&TestabilityAnalysis>,
    cfg: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    check_combinational_loops(netlist, out);
    check_dangling_nets(netlist, out);
    check_unzoned_gates(netlist, zones, out);
    check_wide_hotspots(zones, cfg, out);
    check_undeclared_global_nets(netlist, zones, cfg, out);
    if let Some(statics) = statics {
        check_unobservable_zones(netlist, zones, statics, out);
    }
}

/// SL0001: a combinational cycle (defensive — the builder rejects them, but
/// imported netlists could regress).
fn check_combinational_loops(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    if let Err(e) = levelize(netlist) {
        let mut names = e.cycle_members.clone();
        let extra = names.len().saturating_sub(5);
        names.truncate(5);
        let mut list = names.join(", ");
        if extra > 0 {
            list.push_str(&format!(", ... ({extra} more)"));
        }
        out.push(
            Diagnostic::new(
                "SL0001",
                Severity::Error,
                Anchor::Design(netlist.name().to_owned()),
                format!(
                    "combinational cycle through {} gate(s): {list}",
                    e.cycle_members.len()
                ),
            )
            .with_help(
                "break the loop with a flip-flop; cyclic logic cannot be levelized or simulated",
            ),
        );
    }
}

/// SL0002: a gate- or flip-flop-driven net that nothing reads and that is
/// not a primary output — dead logic whose failures go nowhere.
fn check_dangling_nets(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut read = vec![false; netlist.net_count()];
    for g in netlist.gates() {
        for &n in &g.inputs {
            read[n.index()] = true;
        }
    }
    for ff in netlist.dffs() {
        read[ff.d.index()] = true;
        if let Some(e) = ff.enable {
            read[e.index()] = true;
        }
        if let Some(r) = ff.reset {
            read[r.index()] = true;
        }
    }
    for &o in netlist.outputs() {
        read[o.index()] = true;
    }
    let dangling: Vec<&str> = netlist
        .nets()
        .iter()
        .enumerate()
        .filter(|(i, n)| matches!(n.driver, Driver::Gate(_) | Driver::Dff(_)) && !read[*i])
        .map(|(_, n)| n.name.as_str())
        .collect();
    emit_capped(out, dangling.len(), dangling.iter().map(|name| {
        Diagnostic::new(
            "SL0002",
            Severity::Warning,
            Anchor::Net((*name).to_owned()),
            "driven but never read and not a primary output",
        )
        .with_help("dead logic: remove it, or route it to a port/monitor so its faults are accountable")
    }), |more| {
        Diagnostic::new(
            "SL0002",
            Severity::Warning,
            Anchor::Design(netlist.name().to_owned()),
            format!("{more} more dangling net(s) not listed individually"),
        )
    });
}

/// SL0003: gates belonging to no sensible-zone cone — their FIT simply
/// vanishes from the worksheet.
fn check_unzoned_gates(netlist: &Netlist, zones: &ZoneSet, out: &mut Vec<Diagnostic>) {
    let membership = zones.membership();
    let (unassigned, _, _) = membership.census();
    if unassigned == 0 {
        return;
    }
    let examples: Vec<&str> = netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(i, _)| membership.cones_of(GateId::from_index(*i)).is_empty())
        .map(|(_, g)| g.name.as_str())
        .take(3)
        .collect();
    out.push(
        Diagnostic::new(
            "SL0003",
            Severity::Warning,
            Anchor::Design(netlist.name().to_owned()),
            format!(
                "{unassigned} gate(s) belong to no sensible-zone cone (e.g. {})",
                examples.join(", ")
            ),
        )
        .with_help(
            "un-zoned gates contribute failure rate the worksheet never sees; \
             zone them (register/output/entity/opaque block) or prune them",
        ),
    );
}

/// SL0004: zone pairs sharing at least `wide_hotspot_threshold` cone gates —
/// each shared gate is a *wide* fault site (one physical fault, several zone
/// failures), so a large overlap concentrates common-cause risk.
fn check_wide_hotspots(zones: &ZoneSet, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let hot: Vec<(usize, usize, usize)> = zones
        .correlation()
        .correlated_pairs()
        .into_iter()
        .filter(|&(_, _, s)| s >= cfg.wide_hotspot_threshold)
        .collect();
    emit_capped(
        out,
        hot.len(),
        hot.iter().map(|&(i, j, s)| {
            let a = &zones.zones()[i].name;
            let b = &zones.zones()[j].name;
            Diagnostic::new(
                "SL0004",
                Severity::Info,
                Anchor::Zone(a.clone()),
                format!(
                    "shares {s} cone gate(s) with zone `{b}` (threshold {})",
                    cfg.wide_hotspot_threshold
                ),
            )
            .with_help(
                "a single fault in the shared logic fails both zones at once; \
                 consider a common-cause entry or a dedicated diagnostic for the shared cone",
            )
        }),
        |more| {
            Diagnostic::new(
                "SL0004",
                Severity::Info,
                Anchor::Design("correlation matrix".to_owned()),
                format!("{more} more wide-fault hotspot pair(s) not listed individually"),
            )
        },
    );
}

/// SL0005: nets that behave like global-fault roots but are not declared
/// critical — clock/reset-named primary inputs (Warning) and control nets
/// whose enable/reset fanout spans many zones (Info).
fn check_undeclared_global_nets(
    netlist: &Netlist,
    zones: &ZoneSet,
    cfg: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    let is_critical =
        |n: socfmea_netlist::NetId| netlist.critical_nets().iter().any(|&(c, _)| c == n);

    // (a) an input *named* like a clock or reset that is not declared
    // critical gets no global-fault zone: the FMEA misses the paper's
    // "global" physical faults entirely.
    for &n in netlist.inputs() {
        let name = netlist.net(n).name.to_ascii_lowercase();
        let clockish = ["clk", "clock", "rst", "reset"]
            .iter()
            .any(|k| name.contains(k));
        if clockish && !is_critical(n) {
            out.push(
                Diagnostic::new(
                    "SL0005",
                    Severity::Warning,
                    Anchor::Net(netlist.net(n).name.clone()),
                    "named like a clock/reset but not declared a critical net",
                )
                .with_help(
                    "declare it critical (clock_input/mark_critical) so extraction creates \
                     a global-fault zone for it",
                ),
            );
        }
    }

    // (b) a net steering the enable/reset pins of flip-flops across many
    // zones is a shared control tree: one fault perturbs all of them.
    let mut span: std::collections::BTreeMap<
        socfmea_netlist::NetId,
        std::collections::BTreeSet<_>,
    > = std::collections::BTreeMap::new();
    for (fi, ff) in netlist.dffs().iter().enumerate() {
        if let Some(zone) = zones.zone_of_dff(socfmea_netlist::DffId::from_index(fi)) {
            for pin in [ff.enable, ff.reset].into_iter().flatten() {
                span.entry(pin).or_default().insert(zone);
            }
        }
    }
    for (net, touched) in span {
        if touched.len() >= cfg.global_fanout_threshold
            && !is_critical(net)
            && !matches!(netlist.net(net).driver, Driver::Const(_))
        {
            out.push(
                Diagnostic::new(
                    "SL0005",
                    Severity::Info,
                    Anchor::Net(netlist.net(net).name.clone()),
                    format!(
                        "steers flip-flop enables/resets across {} zones but is not a \
                         declared global-fault zone",
                        touched.len()
                    ),
                )
                .with_help("a fault here disturbs every zone it controls; consider mark_critical"),
            );
        }
    }
}

/// SL0006: zones none of whose anchors can influence a primary output
/// (functional or alarm) — no monitor of the injection environment can ever
/// witness their failures. Reads the static backward-reachability result
/// instead of spinning up a faultsim environment: same verdict, no
/// simulator in the loop.
fn check_unobservable_zones(
    netlist: &Netlist,
    zones: &ZoneSet,
    statics: &TestabilityAnalysis,
    out: &mut Vec<Diagnostic>,
) {
    // Critical-net (clock/reset) zones are exempt: their faults perturb
    // every register out-of-band, not through the structural net graph.
    let unobservable: Vec<&str> = zones
        .zones()
        .iter()
        .filter(|z| !matches!(z.kind, socfmea_core::ZoneKind::CriticalNet { .. }))
        .filter(|z| !z.anchors.is_empty() && z.anchors.iter().all(|&a| !statics.observable(a)))
        .map(|z| z.name.as_str())
        .collect();
    emit_capped(
        out,
        unobservable.len(),
        unobservable.iter().map(|name| {
            Diagnostic::new(
                "SL0006",
                Severity::Warning,
                Anchor::Zone((*name).to_owned()),
                "no observation point: anchors reach no functional output or alarm net",
            )
            .with_help(
                "faults here are invisible to every monitor; route the state towards an \
                 output/alarm or drop the zone from the safety concept explicitly",
            )
        }),
        |more| {
            Diagnostic::new(
                "SL0006",
                Severity::Warning,
                Anchor::Design(netlist.name().to_owned()),
                format!("{more} more unobservable zone(s) not listed individually"),
            )
        },
    );
}

/// Pushes up to [`MAX_PER_RULE`] diagnostics from `iter`, then one aggregate
/// produced by `summary` for the remainder.
pub(crate) fn emit_capped<I, F>(out: &mut Vec<Diagnostic>, total: usize, iter: I, summary: F)
where
    I: Iterator<Item = Diagnostic>,
    F: FnOnce(usize) -> Diagnostic,
{
    out.extend(iter.take(MAX_PER_RULE));
    if total > MAX_PER_RULE {
        out.push(summary(total - MAX_PER_RULE));
    }
}
