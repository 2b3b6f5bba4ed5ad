//! The design-keyed artifact cache: build campaign artifacts once per
//! `(design, spec)`, share them across every job that submits the same
//! netlist.
//!
//! Two levels, both keyed deterministically:
//!
//! 1. **Design entries**, keyed by the FNV-1a 64 hash of the canonical
//!    (re-serialized) Verilog — netlist + extracted zones. The entry keeps
//!    that canonical text, and a lookup hits only when the text matches
//!    too: a design whose hash collides with a cached one gets an entry of
//!    its own that is never cached, and counts as a miss.
//! 2. **Spec bundles** inside each entry, keyed by
//!    `(seed, cycles, engine, collapse, prune)` — workload, operational
//!    profile, fault list, and the shared [`CampaignArtifacts`] (golden
//!    trace, monitor lookups, collapse dictionary, static prune plan). A
//!    cold build runs the workload fault-free once: the profile records the
//!    golden trace and the artifacts share it. Worker threads are
//!    deliberately **not** in the key: results are thread-count invariant,
//!    so a 1-thread probe warms the cache for an 8-thread run, and neither
//!    is the ignored `checkpoint_interval`.
//!
//! A warm bundle makes `Campaign::artifacts` skip every build phase — the
//! invariant test asserts warm runs are bit-identical to cold ones.
//!
//! The byte budget counts everything an entry holds: the netlist, the
//! zones and the canonical source, and each bundle's workload, fault list,
//! artifacts and shared trace ([`DesignEntry::approx_bytes`], within 5% of
//! the live heap for every bundled example). Eviction runs in two
//! passes after each admission and each new bundle:
//!
//! 1. **One-off designs first.** Designs that no later submission has hit
//!    — a renamed netlist submitted once, say — are evicted least recently
//!    used first for as long as they hold more than a tenth of the budget
//!    (the probationary queue of S3-FIFO, Yang et al., SOSP 2023). A hit
//!    promotes a design out of that share for good.
//! 2. **Then least recently used** over every design, while the total is
//!    over the budget.
//!
//! The newest admission is never evicted. Running jobs keep evicted
//! artifacts alive through their `Arc`s; the entry just stops being
//! findable. Counters land in the server registry:
//! `serve.cache.{design,spec}.{hit,miss}`, `serve.cache.evict`,
//! `serve.cache.bytes`, and `serve.build.{workload,faults,artifacts}` —
//! the last trio is how tests prove a warm resubmission rebuilds nothing.

use crate::design::ResolvedDesign;
use crate::protocol::JobSpec;
use socfmea_core::ZoneSet;
use socfmea_faultsim::{
    generate_fault_list, CampaignArtifacts, Collapse, Engine, EnvironmentBuilder, Fault,
    FaultListConfig, OperationalProfile, Prune, ZoneActivity,
};
use socfmea_netlist::Netlist;
use socfmea_obs::metrics::Registry;
use socfmea_obs::{Observer, StreamBuffer};
use socfmea_sim::Workload;
use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Designs no later submission has hit may hold at most
/// `1 / ONE_OFF_SHARE` of the budget.
const ONE_OFF_SHARE: usize = 10;

/// The cached half of a design: everything derivable from the netlist
/// alone, plus the per-spec bundles.
#[derive(Debug)]
pub struct DesignEntry {
    /// The elaborated netlist.
    pub netlist: Netlist,
    /// Its sensible zones.
    pub zones: ZoneSet,
    /// The canonical design key.
    pub key: u64,
    canonical: String,
    specs: Mutex<BTreeMap<SpecKey, Arc<SpecBundle>>>,
    bytes: AtomicUsize,
}

/// The cached artifacts of one `(design, spec)` pair — everything a
/// campaign needs besides worker threads and the cancel token.
#[derive(Debug)]
pub struct SpecBundle {
    /// The deterministic stimulus.
    pub workload: Workload,
    /// Fault-free per-zone activity (feeds the result analyzer).
    pub profile: OperationalProfile,
    /// The generated fault list.
    pub faults: Vec<Fault>,
    /// The shared build products `Campaign::artifacts` consumes.
    pub artifacts: Arc<CampaignArtifacts>,
    /// The normalized `/trace` bytes of the first job on this bundle that
    /// ended `done`; see [`DesignEntry::share_trace`].
    first_trace: Mutex<Option<Arc<[u8]>>>,
}

impl SpecBundle {
    /// Heap bytes of the bundle, its shared trace aside.
    fn approx_bytes(&self) -> usize {
        size_of::<SpecBundle>()
            + self.workload.heap_bytes()
            + self.profile.zones.capacity() * size_of::<ZoneActivity>()
            + self.faults.capacity() * size_of::<Fault>()
            + self
                .faults
                .iter()
                .map(|f| f.label.capacity())
                .sum::<usize>()
            + size_of::<CampaignArtifacts>()
            + self.artifacts.approx_bytes()
    }
}

/// Spec key: every submission field that changes campaign *results or
/// artifacts* — and nothing else.
type SpecKey = (u64, u64, u8, u8, u8);

fn spec_key(spec: &JobSpec) -> SpecKey {
    (
        spec.seed,
        spec.cycles as u64,
        match spec.engine {
            Engine::Auto => 0,
            Engine::Lockstep => 1,
            Engine::Ppsfp => 2,
        },
        u8::from(spec.collapse == Collapse::Dictionary),
        u8::from(spec.prune == Prune::Static),
    )
}

struct CachedDesign {
    entry: Arc<DesignEntry>,
    last_used: u64,
    /// A submission after the admitting one found this design.
    hit: bool,
}

struct Inner {
    designs: BTreeMap<u64, CachedDesign>,
    tick: u64,
    /// The key of the newest admission, which is never evicted.
    newest: Option<u64>,
}

impl Inner {
    /// The least recently used design `pick` accepts, the newest
    /// admission aside.
    fn lru(&self, pick: impl Fn(&CachedDesign) -> bool) -> Option<u64> {
        self.designs
            .iter()
            .filter(|&(k, d)| Some(*k) != self.newest && pick(d))
            .min_by_key(|(_, d)| d.last_used)
            .map(|(&k, _)| k)
    }

    /// Bytes of the designs `pick` accepts.
    fn bytes(&self, pick: impl Fn(&CachedDesign) -> bool) -> usize {
        self.designs
            .values()
            .filter(|d| pick(d))
            .map(|d| d.entry.approx_bytes())
            .sum()
    }
}

/// The server-wide artifact cache; see the module docs.
pub struct ArtifactCache {
    budget: usize,
    registry: Arc<Registry>,
    inner: Mutex<Inner>,
}

impl ArtifactCache {
    /// A cache holding at most ~`budget_bytes` of entries (see
    /// [`DesignEntry::approx_bytes`]), counting into `registry`.
    pub fn new(budget_bytes: usize, registry: Arc<Registry>) -> ArtifactCache {
        ArtifactCache {
            budget: budget_bytes,
            registry,
            inner: Mutex::new(Inner {
                designs: BTreeMap::new(),
                tick: 0,
                newest: None,
            }),
        }
    }

    /// Looks up (or admits) the design entry for a resolved submission.
    /// A cached entry is returned only when its canonical Verilog equals
    /// the submission's; a design whose key collides with a different
    /// cached one gets a fresh entry that is not cached.
    pub fn design(&self, resolved: ResolvedDesign) -> Arc<DesignEntry> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let key = resolved.key;
        match inner.designs.get_mut(&key) {
            Some(cached) if cached.entry.canonical == resolved.canonical => {
                cached.last_used = tick;
                cached.hit = true;
                self.registry.counter("serve.cache.design.hit").incr();
                return Arc::clone(&cached.entry);
            }
            Some(_) => {
                // a different design under the same key: serve it uncached
                self.registry.counter("serve.cache.design.miss").incr();
                return Arc::new(DesignEntry::new(resolved));
            }
            None => {}
        }
        self.registry.counter("serve.cache.design.miss").incr();
        let entry = Arc::new(DesignEntry::new(resolved));
        inner.designs.insert(
            key,
            CachedDesign {
                entry: Arc::clone(&entry),
                last_used: tick,
                hit: false,
            },
        );
        inner.newest = Some(key);
        self.evict_over_budget(&mut inner);
        entry
    }

    /// Looks up (or builds) the spec bundle for a job. Building holds the
    /// entry's spec table locked, so concurrent submissions of the same
    /// `(design, spec)` build once and share — the rest wait and hit.
    ///
    /// # Errors
    ///
    /// A design with no injectable faults under this spec.
    pub fn bundle(
        &self,
        entry: &Arc<DesignEntry>,
        spec: &JobSpec,
    ) -> Result<Arc<SpecBundle>, String> {
        self.bundle_observed(entry, spec, None)
    }

    /// [`bundle`](Self::bundle), with cold builds timed under `obs` —
    /// the server passes the job's observer so build phases land on the
    /// job's telemetry channel with its correlation labels.
    ///
    /// # Errors
    ///
    /// A design with no injectable faults under this spec.
    pub fn bundle_observed(
        &self,
        entry: &Arc<DesignEntry>,
        spec: &JobSpec,
        obs: Option<&Observer>,
    ) -> Result<Arc<SpecBundle>, String> {
        let key = spec_key(spec);
        let mut specs = entry.specs.lock().expect("spec lock");
        if let Some(bundle) = specs.get(&key) {
            self.registry.counter("serve.cache.spec.hit").incr();
            return Ok(Arc::clone(bundle));
        }
        self.registry.counter("serve.cache.spec.miss").incr();
        let bundle = Arc::new(self.build_bundle(entry, spec, obs)?);
        entry
            .bytes
            .fetch_add(bundle.approx_bytes(), Ordering::Relaxed);
        specs.insert(key, Arc::clone(&bundle));
        drop(specs);
        let mut inner = self.inner.lock().expect("cache lock");
        self.evict_over_budget(&mut inner);
        Ok(bundle)
    }

    fn build_bundle(
        &self,
        entry: &DesignEntry,
        spec: &JobSpec,
        obs: Option<&Observer>,
    ) -> Result<SpecBundle, String> {
        // times `f` as an observed phase when a job observer is attached
        let phased = |name: &str, f: &mut dyn FnMut()| match obs {
            Some(o) => o.phase(name, f),
            None => f(),
        };
        let reg = &self.registry;
        reg.counter("serve.build.workload").incr();
        let mut workload = None;
        phased("build-workload", &mut || {
            workload = Some(crate::design::random_workload(
                &entry.netlist,
                spec.seed,
                spec.cycles,
            ));
        });
        let workload = workload.expect("workload built");
        let env = EnvironmentBuilder::new(&entry.netlist, &entry.zones, &workload)
            .alarms_matching("alarm")
            .build();
        // records the golden trace the artifacts share below
        let mut profile = None;
        phased("build-profile", &mut || {
            profile = Some(OperationalProfile::collect(&env));
        });
        let profile = profile.expect("profile collected");
        reg.counter("serve.build.faults").incr();
        let mut faults = Vec::new();
        phased("build-faults", &mut || {
            faults = generate_fault_list(
                &env,
                &profile,
                &FaultListConfig {
                    seed: spec.seed,
                    ..FaultListConfig::default()
                },
            );
        });
        if faults.is_empty() {
            return Err("no injectable faults (does the design have sensible zones?)".into());
        }
        reg.counter("serve.build.artifacts").incr();
        let artifacts = Arc::new(CampaignArtifacts::prepare_observed(
            &env,
            &faults,
            spec.engine,
            spec.collapse,
            spec.prune,
            obs,
        ));
        Ok(SpecBundle {
            workload,
            profile,
            faults,
            artifacts,
            first_trace: Mutex::new(None),
        })
    }

    fn evict_over_budget(&self, inner: &mut Inner) {
        let one_off = |d: &CachedDesign| !d.hit;
        while inner.bytes(one_off) > self.budget / ONE_OFF_SHARE {
            let Some(key) = inner.lru(one_off) else { break };
            self.evict(inner, key);
        }
        while inner.bytes(|_| true) > self.budget {
            let Some(key) = inner.lru(|_| true) else {
                break;
            };
            self.evict(inner, key);
        }
        self.registry
            .gauge("serve.cache.bytes")
            .set(inner.bytes(|_| true) as f64);
    }

    fn evict(&self, inner: &mut Inner, key: u64) {
        inner.designs.remove(&key);
        self.registry.counter("serve.cache.evict").incr();
    }

    /// Designs currently cached.
    pub fn designs_cached(&self) -> usize {
        self.inner.lock().expect("cache lock").designs.len()
    }
}

impl DesignEntry {
    fn new(resolved: ResolvedDesign) -> DesignEntry {
        let bytes = size_of::<DesignEntry>()
            + resolved.netlist.heap_bytes()
            + resolved.zones.heap_bytes()
            + resolved.canonical.capacity();
        DesignEntry {
            netlist: resolved.netlist,
            zones: resolved.zones,
            key: resolved.key,
            canonical: resolved.canonical,
            specs: Mutex::new(BTreeMap::new()),
            bytes: AtomicUsize::new(bytes),
        }
    }

    /// The entry's byte estimate, the currency of the cache budget: the
    /// netlist, the zones and the canonical source, plus each spec
    /// bundle's workload, profile, fault list and artifacts and its shared
    /// trace.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Lets the finished jobs of `bundle` (one of this entry's) share one
    /// copy of their trace. Call it only for a job that ended `done`, with
    /// its closed `/trace` stream: the first such stream becomes the
    /// shared copy, and counts in [`approx_bytes`](Self::approx_bytes); a
    /// later one that equals it byte for byte drops its own buffer and
    /// reads from that copy. A differing stream keeps its own bytes.
    pub fn share_trace(&self, bundle: &SpecBundle, stream: &StreamBuffer) {
        let mut first = bundle.first_trace.lock().expect("trace lock");
        match &*first {
            Some(bytes) => {
                stream.share(bytes);
            }
            None => {
                *first = stream.freeze();
                let held = first.as_ref().map_or(0, |bytes| bytes.len());
                self.bytes.fetch_add(held, Ordering::Relaxed);
            }
        }
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("budget", &self.budget)
            .field("designs", &self.designs_cached())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::resolve;
    use crate::protocol::DesignRef;

    fn spec(example: &str, seed: u64) -> JobSpec {
        JobSpec::parse(&format!(
            r#"{{"example":"{example}","seed":{seed},"cycles":8}}"#
        ))
        .unwrap()
    }

    fn count(reg: &Registry, name: &str) -> u64 {
        reg.counter(name).get()
    }

    #[test]
    fn warm_lookups_hit_and_rebuild_nothing() {
        let reg = Arc::new(Registry::new());
        let cache = ArtifactCache::new(usize::MAX, Arc::clone(&reg));
        let s = spec("fmem", 7);
        let entry = cache.design(resolve(&s.design).unwrap());
        let cold = cache.bundle(&entry, &s).unwrap();
        assert_eq!(count(&reg, "serve.cache.design.miss"), 1);
        assert_eq!(count(&reg, "serve.cache.spec.miss"), 1);
        assert_eq!(count(&reg, "serve.build.artifacts"), 1);

        // same design, same spec: hits all the way down, zero builds
        let entry2 = cache.design(resolve(&s.design).unwrap());
        let warm = cache.bundle(&entry2, &s).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "warm bundle is the shared Arc");
        assert!(Arc::ptr_eq(&cold.artifacts, &warm.artifacts));
        assert_eq!(count(&reg, "serve.cache.design.hit"), 1);
        assert_eq!(count(&reg, "serve.cache.spec.hit"), 1);
        assert_eq!(count(&reg, "serve.build.workload"), 1);
        assert_eq!(count(&reg, "serve.build.faults"), 1);
        assert_eq!(count(&reg, "serve.build.artifacts"), 1);

        // same design, different seed: design hit, spec miss
        let s2 = spec("fmem", 8);
        let bundle2 = cache
            .bundle(&cache.design(resolve(&s2.design).unwrap()), &s2)
            .unwrap();
        assert!(!Arc::ptr_eq(&cold, &bundle2));
        assert_eq!(count(&reg, "serve.cache.design.hit"), 2);
        assert_eq!(count(&reg, "serve.cache.spec.miss"), 2);
        assert_eq!(count(&reg, "serve.build.artifacts"), 2);
    }

    #[test]
    fn threads_are_not_part_of_the_spec_key() {
        let a = JobSpec::parse(r#"{"example":"fmem","cycles":8,"threads":1}"#).unwrap();
        let b =
            JobSpec::parse(r#"{"example":"fmem","cycles":8,"threads":7,"tenant":"x"}"#).unwrap();
        assert_eq!(spec_key(&a), spec_key(&b));
    }

    /// A one-gate design named `name`: a cheap, distinct cache entry
    /// (names of one length give entries of one size).
    fn tiny(name: &str) -> ResolvedDesign {
        resolve(&DesignRef::Verilog(format!(
            "module {name}(a, y); input a; output y; buf g0(y, a); endmodule"
        )))
        .unwrap()
    }

    /// A cache whose budget holds `tenths` / 10 entries of [`tiny`]'s
    /// size, so its one-off share holds `tenths` / 100 of them.
    fn cache_of(tenths: usize) -> (ArtifactCache, Arc<Registry>) {
        let unit = ArtifactCache::new(usize::MAX, Arc::new(Registry::new()))
            .design(tiny("unit"))
            .approx_bytes();
        let reg = Arc::new(Registry::new());
        (
            ArtifactCache::new(unit * tenths / 10, Arc::clone(&reg)),
            reg,
        )
    }

    /// Names of the cached designs, sorted.
    fn cached(cache: &ArtifactCache) -> Vec<String> {
        let inner = cache.inner.lock().unwrap();
        let mut names: Vec<String> = inner
            .designs
            .values()
            .map(|d| d.entry.netlist.name().to_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn one_off_designs_are_evicted_least_recently_used_first_while_a_hit_design_stays() {
        // a budget of 25 entries: the one-off share holds 2.5 of them
        let (cache, reg) = cache_of(250);
        cache.design(tiny("hot0"));
        cache.design(tiny("hot0"));
        cache.design(tiny("d001"));
        cache.design(tiny("d002"));
        assert_eq!(count(&reg, "serve.cache.evict"), 0);
        cache.design(tiny("d003"));
        assert_eq!(cached(&cache), ["d002", "d003", "hot0"]);
        cache.design(tiny("d004"));
        assert_eq!(cached(&cache), ["d003", "d004", "hot0"]);
        assert_eq!(count(&reg, "serve.cache.evict"), 2);
        assert_eq!(count(&reg, "serve.cache.design.hit"), 1);
    }

    #[test]
    fn a_hit_promotes_a_design_out_of_the_one_off_share() {
        let (cache, _) = cache_of(250);
        cache.design(tiny("b000"));
        cache.design(tiny("c000"));
        cache.design(tiny("b000"));
        for name in ["d000", "e000", "f000"] {
            cache.design(tiny(name));
        }
        // b is now the least recently used design of all, yet it stays:
        // only one-offs compete for the share while the budget has room
        assert_eq!(cached(&cache), ["b000", "e000", "f000"]);
    }

    #[test]
    fn the_newest_admission_stays_even_when_it_alone_is_over_the_share() {
        // a budget of 5 entries: the one-off share holds half of one
        let (cache, reg) = cache_of(50);
        cache.design(tiny("a000"));
        assert_eq!(cached(&cache), ["a000"]);
        cache.design(tiny("b000"));
        assert_eq!(cached(&cache), ["b000"]);
        cache.design(tiny("b000"));
        cache.design(tiny("c000"));
        assert_eq!(cached(&cache), ["b000", "c000"]);
        assert_eq!(count(&reg, "serve.cache.evict"), 1);
    }

    #[test]
    fn a_key_collision_gets_its_own_uncached_entry_and_counts_as_a_miss() {
        let reg = Arc::new(Registry::new());
        let cache = ArtifactCache::new(usize::MAX, Arc::clone(&reg));
        let left = cache.design(tiny("left"));
        let forced = |name: &str| ResolvedDesign {
            key: left.key,
            ..tiny(name)
        };
        let right = cache.design(forced("rght"));
        assert!(!Arc::ptr_eq(&left, &right));
        assert_eq!(right.netlist.name(), "rght");
        assert_eq!(right.key, left.key);
        assert_eq!(count(&reg, "serve.cache.design.miss"), 2);
        assert_eq!(cache.designs_cached(), 1);
        // the cached design still hits; the colliding one never does
        assert!(Arc::ptr_eq(&left, &cache.design(tiny("left"))));
        assert!(!Arc::ptr_eq(&right, &cache.design(forced("rght"))));
        assert_eq!(count(&reg, "serve.cache.design.hit"), 1);
        assert_eq!(count(&reg, "serve.cache.design.miss"), 3);
        // the canonical text the lookup compares counts in the entry
        assert!(
            left.approx_bytes()
                >= left.canonical.len() + left.netlist.heap_bytes() + left.zones.heap_bytes()
        );
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let reg = Arc::new(Registry::new());
        // a tiny budget: admitting a second design must evict the first
        let cache = ArtifactCache::new(1, Arc::clone(&reg));
        let fmem = spec("fmem", 7);
        let baseline = spec("fmem-baseline", 7);
        let e1 = cache.design(resolve(&fmem.design).unwrap());
        cache.bundle(&e1, &fmem).unwrap();
        assert_eq!(cache.designs_cached(), 1, "the newest entry always stays");
        let e2 = cache.design(resolve(&baseline.design).unwrap());
        assert_eq!(cache.designs_cached(), 1);
        assert_eq!(count(&reg, "serve.cache.evict"), 1);
        // the evicted design resolves again as a miss...
        let e1b = cache.design(resolve(&fmem.design).unwrap());
        assert!(!Arc::ptr_eq(&e1, &e1b));
        assert_eq!(count(&reg, "serve.cache.design.miss"), 3);
        // ...while the running job's Arc kept the old entry usable
        assert_eq!(e1.key, e1b.key);
        drop(e2);
    }
}
