//! Pins the campaign set-up products of every bundled example design: the
//! operational profile, the generated fault list (labels, kinds, zones and
//! inject cycles), the collapsed stuck-at universe and the structural
//! collapse classes, at the `socfmea inject` defaults and two seeds.
//!
//! The differential suites cannot catch a changed list or profile: every
//! engine runs the same one. These digests were taken before the profile
//! moved onto the shared golden trace and before stuck-at
//! canonicalisation counted its fan-out facts once per netlist, so any
//! change to what the set-up produces fails here.

use soc_fmea::faultsim::{
    fault_universe, generate_fault_list, Environment, EnvironmentBuilder, Fault, FaultCollapser,
    FaultListConfig, OperationalProfile,
};
use soc_fmea::fmea::{extract_zones, ZoneSet};
use soc_fmea::netlist::Netlist;
use soc_fmea::serve::design::fnv1a64;
use soc_fmea::serve::{random_workload, Example};
use soc_fmea::sim::Workload;

/// `socfmea inject`'s default workload length.
const CYCLES: usize = 48;

/// The default seed of `socfmea inject`, and a second one.
const SEEDS: [u64; 2] = [0x5eed, 0x2f1];

/// One example's digests: per seed the profile and the fault list, then
/// the stuck-at universe and the collapse classes.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    profiles: [u64; 2],
    lists: [(usize, u64); 2],
    universe: (usize, u64),
    classes: (usize, u64),
}

fn profile_digest(profile: &OperationalProfile) -> u64 {
    let mut text = format!("{} cycles\n", profile.cycles);
    for a in &profile.zones {
        text += &format!(
            "{} {} {}\n",
            a.active_cycles, a.total_cycles, a.known_cycles
        );
    }
    fnv1a64(text.as_bytes())
}

fn list_digest(faults: &[Fault]) -> (usize, u64) {
    let mut text = String::new();
    for f in faults {
        text += &format!("{:?} {:?} {} {}\n", f.kind, f.zone, f.inject_cycle, f.label);
    }
    (faults.len(), fnv1a64(text.as_bytes()))
}

/// The environment `socfmea inject` builds.
fn environment<'a>(
    netlist: &'a Netlist,
    zones: &'a ZoneSet,
    workload: &'a Workload,
) -> Environment<'a> {
    EnvironmentBuilder::new(netlist, zones, workload)
        .alarms_matching("alarm")
        .build()
}

fn digests(name: &str) -> Digests {
    let example = Example::parse(name).expect("bundled example");
    let (netlist, config) = example.build().expect("example builds");
    let zones = extract_zones(&netlist, &config);
    let mut profiles = [0; 2];
    let mut lists = [(0, 0); 2];
    for (i, seed) in SEEDS.into_iter().enumerate() {
        let workload = random_workload(&netlist, seed, CYCLES);
        let env = environment(&netlist, &zones, &workload);
        let profile = OperationalProfile::collect(&env);
        let faults = generate_fault_list(
            &env,
            &profile,
            &FaultListConfig {
                seed,
                ..FaultListConfig::default()
            },
        );
        profiles[i] = profile_digest(&profile);
        lists[i] = list_digest(&faults);
    }
    let universe = fault_universe(&netlist);
    let universe_text: String = universe
        .iter()
        .map(|f| format!("{} {}\n", f.net, f.stuck_high))
        .collect();
    let workload = random_workload(&netlist, SEEDS[0], CYCLES);
    let env = environment(&netlist, &zones, &workload);
    let collapser = FaultCollapser::build(&env);
    let classes_text = format!("{:?}", collapser.classes());
    Digests {
        profiles,
        lists,
        universe: (universe.len(), fnv1a64(universe_text.as_bytes())),
        classes: (collapser.classes().len(), fnv1a64(classes_text.as_bytes())),
    }
}

fn check(name: &str, pinned: Digests) {
    let got = digests(name);
    assert_eq!(got, pinned, "{name}: the set-up products changed");
}

#[test]
fn fmem_set_up_is_pinned() {
    check(
        "fmem",
        Digests {
            profiles: [17259105720401954445, 3632670921395867332],
            lists: [(91, 2718731217181776354), (91, 13799376220582456531)],
            universe: (6886, 10332902663558016378),
            classes: (97, 10617069405681511653),
        },
    );
}

#[test]
fn fmem_baseline_set_up_is_pinned() {
    check(
        "fmem-baseline",
        Digests {
            profiles: [11644500424549545345, 14833374898684241357],
            lists: [(91, 12477776591478136650), (91, 7233258209346920944)],
            universe: (6510, 1556075246849927612),
            classes: (88, 6102400146446833182),
        },
    );
}

#[test]
fn mcu_set_up_is_pinned() {
    check(
        "mcu",
        Digests {
            profiles: [13943973476882110492, 13943973476882110492],
            lists: [(33, 8826289581381880926), (33, 9157706130076777923)],
            universe: (2118, 7668612227413783578),
            classes: (35, 14709789125068663771),
        },
    );
}

#[test]
fn mcu_single_set_up_is_pinned() {
    check(
        "mcu-single",
        Digests {
            profiles: [10300251491907640009, 10300251491907640009],
            lists: [(33, 1488815108171113428), (33, 15530048484118925193)],
            universe: (1020, 11873509401145870757),
            classes: (17, 10944194835640942416),
        },
    );
}
