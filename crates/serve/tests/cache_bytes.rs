//! The artifact cache's byte budget is counted in honest bytes: for every
//! bundled example and for the lockstep MCU's Verilog dump, an entry's
//! `DesignEntry::approx_bytes` stays within 1.5× either way of the live
//! heap that resolving the design, admitting it and building its spec
//! bundles retain. The test holds it to 5%, which it meets (0.99×): the
//! netlist, the zones, the source and the artifacts are each 9% or more
//! of an entry at 16 cycles, so leaving one of them out shows. A counting
//! global allocator measures that heap, so this file is a test binary of
//! its own with one test in it (no other thread allocates while it
//! measures).

use socfmea_obs::metrics::Registry;
use socfmea_serve::{resolve, ArtifactCache, DesignRef, Example, JobSpec, EXAMPLES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// The system allocator, keeping a running total of live requested bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes of successful calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

fn spec(design: &DesignRef, flags: &str) -> JobSpec {
    let mut spec = JobSpec::parse(&format!(
        r#"{{"example":"fmem","cycles":16,"seed":7{flags}}}"#
    ))
    .expect("a valid spec");
    spec.design = design.clone();
    spec
}

#[test]
fn entry_estimates_are_within_five_percent_of_the_live_heap() {
    let (mcu, _) = Example::Mcu.build().expect("the MCU elaborates");
    let designs: Vec<(String, DesignRef)> = EXAMPLES
        .iter()
        .map(|ex| (ex.name().to_owned(), DesignRef::Example(ex.name().into())))
        .chain([(
            "mcu dump".to_owned(),
            DesignRef::Verilog(socfmea_netlist::write_verilog(&mcu)),
        )])
        .collect();
    let cache = ArtifactCache::new(usize::MAX, Arc::new(Registry::new()));
    let mut report = Vec::new();
    for (name, design) in &designs {
        let plain = spec(design, "");
        let planned = spec(design, r#","seed":8,"collapse":true,"prune":true"#);
        let before = live();
        let entry = cache.design(resolve(design).expect("the design resolves"));
        let _bundle = cache.bundle(&entry, &plain).expect("a plain bundle");
        let one = (live() - before) as f64;
        let first = entry.approx_bytes() as f64 / one;
        let _planned = cache.bundle(&entry, &planned).expect("a planned bundle");
        let two = (live() - before) as f64;
        let both = entry.approx_bytes() as f64 / two;
        report.push(format!(
            "{name}: estimate/heap {first:.3} of {one:.0} B with one bundle, \
             {both:.3} of {two:.0} B with a second, collapsed and pruned"
        ));
        for ratio in [first, both] {
            assert!(
                (0.95..=1.05).contains(&ratio),
                "{name}: estimate/heap {ratio:.3}\n{}",
                report.join("\n")
            );
        }
    }
    eprintln!("{}", report.join("\n"));
}
