//! socfmea-serve: the multi-tenant campaign server.
//!
//! `socfmea serve` turns the fault-injection pipeline into a daemon:
//! clients POST a campaign spec (a bundled example name or a structural
//! Verilog netlist, plus engine/collapse/prune/seed/cycles/threads), the
//! server schedules it on a bounded worker pool — FIFO per tenant,
//! round-robin between tenants, `429 Too Many Requests` with a
//! `Retry-After` hint once the queue is full — and streams the per-fault
//! trace live as chunked JSONL.
//!
//! The core leverage is the **artifact cache** ([`cache::ArtifactCache`]):
//! everything expensive and reusable about a design — netlist and zones,
//! golden trace, collapse plan, static prune plans — is
//! built once, keyed by the design hash (FNV-1a over the *re-serialized*
//! netlist, so formatting differences do not fragment the cache, with the
//! canonical text compared on a hit so a collision never shares), and
//! shared via `Arc` across every job that targets the same netlist.
//! Cache hits and misses are counted in the metrics registry. A byte
//! budget that counts everything an entry holds bounds residency: designs
//! no later submission has hit are evicted first once they hold a tenth
//! of it, then least recently used. A warm run is bit-identical to a
//! cold one — also to `socfmea inject` with the same spec — because all
//! cached artifacts are pure functions of `(design, spec)` and the
//! campaign core is deterministic for any thread count.
//!
//! Every job also feeds a **correlated telemetry channel**: a
//! [`TraceCtx`](socfmea_obs::TraceCtx) minted at submission stamps the
//! job id and tenant onto span/phase records and labeled metric series,
//! `GET /v1/jobs/<id>/events` streams the job's lifecycle transitions,
//! live progress samples, and per-phase spans as chunked JSONL, and
//! `GET /v1/metrics` renders the shared registry as Prometheus text
//! (`?format=json` for the JSON snapshot). Telemetry rides a channel
//! separate from the result stream, so the normalized `/trace` bytes
//! stay a pure function of `(design, spec)` with telemetry on or off.
//!
//! Module map:
//!
//! | module | role |
//! |---|---|
//! | [`http`] | minimal std-only HTTP/1.1 (requests, responses, chunked streaming, client) |
//! | [`protocol`] | the job-spec JSON dialect and error documents |
//! | [`design`] | bundled examples, Verilog resolution, design keys, the deterministic workload |
//! | [`cache`] | the design-keyed artifact cache: honest byte budget, one-off designs evicted first, then LRU |
//! | [`scheduler`] | the bounded tenant-fair queue |
//! | [`job`] | job lifecycle, live stream + events buffers, the job table |
//! | [`server`] | accept loop, routes, worker pool, the campaign runner |
//! | [`client`] | the thin client behind `socfmea submit/status/watch/cancel` |

pub mod cache;
pub mod client;
pub mod design;
pub mod http;
pub mod job;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use cache::ArtifactCache;
pub use client::Client;
pub use design::{random_workload, resolve, Example, ResolvedDesign, EXAMPLES};
pub use job::{Job, JobState, JobSummary};
pub use protocol::{DesignRef, JobSpec};
pub use scheduler::Scheduler;
pub use server::{Server, ServerConfig};
