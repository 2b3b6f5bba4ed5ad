//! The design-keyed artifact cache: build campaign artifacts once per
//! `(design, spec)`, share them across every job that submits the same
//! netlist.
//!
//! Two levels, both keyed deterministically:
//!
//! 1. **Design entries**, keyed by the FNV-1a 64 hash of the canonical
//!    (re-serialized) Verilog — netlist + extracted zones.
//! 2. **Spec bundles** inside each entry, keyed by
//!    `(seed, cycles, checkpoint_interval, engine, collapse, prune)` —
//!    workload, operational profile, fault list, and the shared
//!    [`CampaignArtifacts`] (levelized topology, golden trace +
//!    checkpoints, collapse dictionary, static prune plan). Worker threads
//!    are deliberately **not** in the key: results are thread-count
//!    invariant, so a 1-thread probe warms the cache for an 8-thread run.
//!
//! A warm bundle makes `Campaign::artifacts` skip every build phase — the
//! invariant test asserts warm runs are bit-identical to cold ones.
//! Entries are evicted least-recently-used once the byte budget
//! (estimated via [`CampaignArtifacts::approx_bytes`]) is exceeded;
//! running jobs keep evicted artifacts alive through their `Arc`s, the
//! entry just stops being findable. Counters land in the server registry:
//! `serve.cache.{design,spec}.{hit,miss}`, `serve.cache.evict`,
//! `serve.cache.bytes`, and `serve.build.{workload,faults,artifacts}` —
//! the last trio is how tests prove a warm resubmission rebuilds nothing.

use crate::design::ResolvedDesign;
use crate::protocol::JobSpec;
use socfmea_core::ZoneSet;
use socfmea_faultsim::{
    generate_fault_list, CampaignArtifacts, Collapse, Engine, EnvironmentBuilder, Fault,
    FaultListConfig, OperationalProfile, Prune,
};
use socfmea_netlist::Netlist;
use socfmea_obs::metrics::Registry;
use socfmea_obs::{Observer, StreamBuffer};
use socfmea_sim::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    source_bytes: usize,
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
    /// ended `done`; see [`share_trace`](Self::share_trace).
    first_trace: Mutex<Option<Arc<[u8]>>>,
}

impl SpecBundle {
    /// Lets the finished jobs of this bundle share one copy of their
    /// trace. Call it only for a job that ended `done`, with its closed
    /// `/trace` stream: the first such stream becomes the shared copy, and
    /// a later one that equals it byte for byte drops its own buffer and
    /// reads from that copy. A differing stream keeps its own bytes.
    pub fn share_trace(&self, stream: &StreamBuffer) {
        let mut first = self.first_trace.lock().expect("trace lock");
        match &*first {
            Some(bytes) => {
                stream.share(bytes);
            }
            None => *first = stream.freeze(),
        }
    }
}

/// Spec key: every submission field that changes campaign *results or
/// artifacts* — and nothing else.
type SpecKey = (u64, u64, u64, u8, u8, u8);

fn spec_key(spec: &JobSpec) -> SpecKey {
    (
        spec.seed,
        spec.cycles as u64,
        spec.checkpoint_interval as u64,
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
}

struct Inner {
    designs: BTreeMap<u64, CachedDesign>,
    tick: u64,
}

/// The server-wide artifact cache; see the module docs.
pub struct ArtifactCache {
    budget: usize,
    registry: Arc<Registry>,
    inner: Mutex<Inner>,
}

impl ArtifactCache {
    /// A cache holding at most ~`budget_bytes` of artifact estimates,
    /// counting into `registry`.
    pub fn new(budget_bytes: usize, registry: Arc<Registry>) -> ArtifactCache {
        ArtifactCache {
            budget: budget_bytes,
            registry,
            inner: Mutex::new(Inner {
                designs: BTreeMap::new(),
                tick: 0,
            }),
        }
    }

    /// Looks up (or admits) the design entry for a resolved submission.
    pub fn design(&self, resolved: ResolvedDesign) -> Arc<DesignEntry> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(cached) = inner.designs.get_mut(&resolved.key) {
            cached.last_used = tick;
            self.registry.counter("serve.cache.design.hit").incr();
            return Arc::clone(&cached.entry);
        }
        self.registry.counter("serve.cache.design.miss").incr();
        let entry = Arc::new(DesignEntry {
            bytes: AtomicUsize::new(resolved.source_bytes),
            source_bytes: resolved.source_bytes,
            netlist: resolved.netlist,
            zones: resolved.zones,
            key: resolved.key,
            specs: Mutex::new(BTreeMap::new()),
        });
        inner.designs.insert(
            resolved.key,
            CachedDesign {
                entry: Arc::clone(&entry),
                last_used: tick,
            },
        );
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
            .fetch_add(bundle.artifacts.approx_bytes(), Ordering::Relaxed);
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
        let profile = OperationalProfile::collect(&env);
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
            spec.checkpoint_interval,
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
        loop {
            let total: usize = inner
                .designs
                .values()
                .map(|d| d.entry.bytes.load(Ordering::Relaxed))
                .sum();
            self.registry.gauge("serve.cache.bytes").set(total as f64);
            if total <= self.budget || inner.designs.len() <= 1 {
                return;
            }
            let newest = inner.designs.values().map(|d| d.last_used).max();
            let lru = inner
                .designs
                .iter()
                .filter(|(_, d)| Some(d.last_used) != newest)
                .min_by_key(|(_, d)| d.last_used)
                .map(|(&k, _)| k);
            let Some(key) = lru else { return };
            inner.designs.remove(&key);
            self.registry.counter("serve.cache.evict").incr();
        }
    }

    /// Designs currently cached.
    pub fn designs_cached(&self) -> usize {
        self.inner.lock().expect("cache lock").designs.len()
    }
}

impl DesignEntry {
    /// The entry's current byte estimate (canonical source + artifacts).
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Bytes of the canonical Verilog alone.
    pub fn source_bytes(&self) -> usize {
        self.source_bytes
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
