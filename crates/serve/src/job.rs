//! Job records: identity, lifecycle state, cancel token, live stream, and
//! the table the HTTP routes look jobs up in.

use crate::cache::DesignEntry;
use crate::protocol::{DesignRef, JobSpec};
use socfmea_faultsim::CampaignStats;
use socfmea_obs::json::Value;
use socfmea_obs::StreamBuffer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the scheduler.
    Queued,
    /// A worker is running the campaign.
    Running,
    /// Finished; carries the result summary.
    Done(JobSummary),
    /// Cancelled (queued jobs never start; running jobs stop at the next
    /// cycle boundary and keep their committed prefix).
    Cancelled(Option<JobSummary>),
    /// The campaign could not run.
    Failed(String),
}

/// The result figures a finished campaign reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSummary {
    /// Outcomes committed (the full fault list unless cancelled).
    pub faults: u64,
    /// Measured diagnostic coverage, when defined.
    pub dc: Option<f64>,
    /// Measured safe failure fraction, when defined.
    pub sff: Option<f64>,
}

/// One submitted campaign.
#[derive(Debug)]
pub struct Job {
    /// Job id (`j-000001`).
    pub id: String,
    /// The parsed submission. A `verilog` design's source text is dropped
    /// once the design resolved: the job keeps
    /// [`design_key`](Self::design_key) instead.
    pub spec: JobSpec,
    /// The canonical key of the design this job runs against.
    pub design_key: u64,
    /// The cached design, until the worker that runs the job takes it
    /// ([`take_design`](Self::take_design)).
    design: Mutex<Option<Arc<DesignEntry>>>,
    /// Cooperative cancel token, observed per simulated cycle.
    pub cancel: Arc<AtomicBool>,
    /// The live normalized JSONL trace.
    pub stream: Arc<StreamBuffer>,
    /// The live telemetry/progress event stream
    /// (`GET /v1/jobs/<id>/events`): lifecycle transitions, span/phase
    /// records with real wall-clock, and periodic progress samples.
    /// Unlike [`stream`](Self::stream), its contents are timing-dependent
    /// by design.
    pub events: Arc<StreamBuffer>,
    state: Mutex<JobState>,
    stats: Mutex<Option<Arc<CampaignStats>>>,
}

impl Job {
    fn new(id: String, mut spec: JobSpec, design: Arc<DesignEntry>) -> Job {
        if let DesignRef::Verilog(source) = &mut spec.design {
            *source = String::new();
        }
        Job {
            id,
            spec,
            design_key: design.key,
            design: Mutex::new(Some(design)),
            cancel: Arc::new(AtomicBool::new(false)),
            stream: Arc::new(StreamBuffer::new()),
            events: Arc::new(StreamBuffer::new()),
            state: Mutex::new(JobState::Queued),
            stats: Mutex::new(None),
        }
    }

    /// Hands the job's design to the worker that runs it; `None` once
    /// taken. A finished job pins no design, so an entry the cache evicts
    /// is freed as soon as no running job holds it.
    pub fn take_design(&self) -> Option<Arc<DesignEntry>> {
        self.design.lock().expect("job lock").take()
    }

    /// Appends one event line (`{"ev":...}\n`) to the job's events
    /// stream; no-op once the stream is closed.
    pub fn push_event(&self, doc: &Value) {
        if !self.events.is_closed() {
            self.events.append(format!("{doc}\n").as_bytes());
        }
    }

    /// The live progress sample from the attached campaign stats, when
    /// the job has started running.
    pub fn progress(&self) -> Option<Arc<CampaignStats>> {
        self.stats.lock().expect("job lock").clone()
    }

    /// The current lifecycle state.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job lock").clone()
    }

    /// Moves the job to `Running` (workers call this when they pick it
    /// up); refuses when already cancelled, returning false.
    pub fn start(&self) -> bool {
        let mut state = self.state.lock().expect("job lock");
        if matches!(*state, JobState::Queued) {
            *state = JobState::Running;
            true
        } else {
            false
        }
    }

    /// Publishes the live campaign stats for the status endpoint.
    pub fn attach_stats(&self, stats: Arc<CampaignStats>) {
        *self.stats.lock().expect("job lock") = Some(stats);
    }

    /// Records the terminal state.
    pub fn finish(&self, state: JobState) {
        *self.state.lock().expect("job lock") = state;
    }

    /// Fires the cancel token. Queued jobs flip straight to `Cancelled`;
    /// running jobs stop cooperatively and record their own terminal
    /// state. Returns false when the job already reached a terminal state.
    pub fn request_cancel(&self) -> bool {
        let mut state = self.state.lock().expect("job lock");
        match &*state {
            JobState::Queued => {
                self.cancel.store(true, Ordering::Relaxed);
                *state = JobState::Cancelled(None);
                true
            }
            JobState::Running => {
                self.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The status document served at `GET /v1/jobs/<id>`.
    pub fn status_doc(&self) -> Value {
        let state = self.state();
        let (label, summary, error) = match &state {
            JobState::Queued => ("queued", None, None),
            JobState::Running => ("running", None, None),
            JobState::Done(s) => ("done", Some(*s), None),
            JobState::Cancelled(s) => ("cancelled", *s, None),
            JobState::Failed(e) => ("failed", None, Some(e.clone())),
        };
        let (done, scheduled) = match &*self.stats.lock().expect("job lock") {
            Some(stats) => (stats.faults_done() as u64, stats.scheduled() as u64),
            None => (0, 0),
        };
        Value::obj(vec![
            ("job", Value::Str(self.id.clone())),
            ("tenant", Value::Str(self.spec.tenant.clone())),
            (
                "design_key",
                Value::Str(format!("{:016x}", self.design_key)),
            ),
            ("state", Value::Str(label.into())),
            ("faults_done", Value::uint(done)),
            ("faults_scheduled", Value::uint(scheduled)),
            ("faults", Value::opt(summary.map(|s| s.faults), Value::uint)),
            ("dc", Value::opt(summary.and_then(|s| s.dc), Value::Float)),
            ("sff", Value::opt(summary.and_then(|s| s.sff), Value::Float)),
            ("error", Value::opt(error, Value::Str)),
        ])
    }
}

/// The server's job registry.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Mutex<std::collections::BTreeMap<String, Arc<Job>>>,
    next: AtomicU64,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Admits a new job and returns it.
    pub fn create(&self, spec: JobSpec, design: Arc<DesignEntry>) -> Arc<Job> {
        let id = format!("j-{:06}", self.next.fetch_add(1, Ordering::Relaxed) + 1);
        let job = Arc::new(Job::new(id.clone(), spec, design));
        self.jobs
            .lock()
            .expect("job table lock")
            .insert(id, Arc::clone(&job));
        job
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().expect("job table lock").get(id).cloned()
    }

    /// Total jobs ever admitted (the table never forgets — job history is
    /// part of the protocol until the server shuts down).
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("job table lock").len()
    }

    /// True when no job was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all jobs (for `/v1/healthz` aggregates).
    pub fn all(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job table lock")
            .values()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;
    use crate::design::resolve;
    use socfmea_obs::metrics::Registry;

    fn job() -> Arc<Job> {
        let spec = JobSpec::parse(r#"{"example":"fmem","cycles":8}"#).unwrap();
        let cache = ArtifactCache::new(usize::MAX, Arc::new(Registry::new()));
        let design = cache.design(resolve(&spec.design).unwrap());
        JobTable::new().create(spec, design)
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let j = job();
        assert_eq!(j.state(), JobState::Queued);
        assert!(j.start());
        assert_eq!(j.state(), JobState::Running);
        let summary = JobSummary {
            faults: 10,
            dc: Some(0.5),
            sff: Some(0.9),
        };
        j.finish(JobState::Done(summary));
        assert_eq!(j.state(), JobState::Done(summary));
        assert!(!j.request_cancel(), "terminal jobs cannot be cancelled");
    }

    #[test]
    fn cancelling_a_queued_job_prevents_it_from_starting() {
        let j = job();
        assert!(j.request_cancel());
        assert_eq!(j.state(), JobState::Cancelled(None));
        assert!(j.cancel.load(Ordering::Relaxed));
        assert!(!j.start(), "workers skip cancelled jobs");
    }

    #[test]
    fn status_doc_carries_identity_and_state() {
        let j = job();
        let doc = j.status_doc();
        assert_eq!(doc.get("job").unwrap().as_str(), Some(j.id.as_str()));
        assert_eq!(doc.get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(
            doc.get("design_key").unwrap().as_str().unwrap().len(),
            16,
            "design key renders as 16 hex digits"
        );
        assert!(doc.get("dc").unwrap().is_null());
    }

    #[test]
    fn a_job_keeps_only_its_design_key_once_a_worker_takes_the_design() {
        let (netlist, _) = crate::design::Example::McuSingle.build().unwrap();
        let source = Value::Str(socfmea_netlist::write_verilog(&netlist));
        let spec = JobSpec::parse(&format!(r#"{{"verilog":{source},"cycles":8}}"#)).unwrap();
        // a one-byte budget: the next design admitted evicts this one
        let cache = ArtifactCache::new(1, Arc::new(Registry::new()));
        let design = cache.design(resolve(&spec.design).unwrap());
        let (key, entry) = (design.key, Arc::downgrade(&design));
        let job = JobTable::new().create(spec, design);
        assert_eq!(job.spec.design, DesignRef::Verilog(String::new()));
        assert_eq!(job.design_key, key);

        let taken = job.take_design().expect("the worker gets the design");
        assert!(job.take_design().is_none(), "handed out once");
        cache.design(resolve(&DesignRef::Example("fmem".into())).unwrap());
        assert_eq!(cache.designs_cached(), 1);
        assert!(entry.upgrade().is_some(), "the running job holds it");
        drop(taken);
        assert!(entry.upgrade().is_none(), "evicted and no longer pinned");
        let status = job.status_doc();
        assert_eq!(
            status.get("design_key").unwrap().as_str(),
            Some(format!("{key:016x}").as_str())
        );
    }

    #[test]
    fn table_assigns_sequential_ids() {
        let spec = JobSpec::parse(r#"{"example":"fmem","cycles":8}"#).unwrap();
        let cache = ArtifactCache::new(usize::MAX, Arc::new(Registry::new()));
        let design = cache.design(resolve(&spec.design).unwrap());
        let table = JobTable::new();
        let a = table.create(spec.clone(), Arc::clone(&design));
        let b = table.create(spec, design);
        assert_eq!(a.id, "j-000001");
        assert_eq!(b.id, "j-000002");
        assert_eq!(table.len(), 2);
        assert!(table.get("j-000002").is_some());
        assert!(table.get("j-999999").is_none());
    }
}
