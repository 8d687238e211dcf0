//! # critter-obs
//!
//! A structured, **deterministic** tracing and metrics layer for the
//! critter-rs stack — the observability counterpart of the paper's online
//! critical-path analysis (Hutter & Solomonik, IPDPS 2021). Where
//! `critter-core` *acts* on execution paths (skipping kernels once their
//! confidence intervals meet ε, §III), this crate makes those actions
//! *inspectable*: every interception point in the simulator emits an
//! [`Event`] into a per-rank buffer stamped with the rank's **virtual
//! clock**, and the buffers drain into one globally ordered [`Timeline`].
//!
//! ## Determinism contract
//!
//! The simulator's promise — counter-based noise keyed by operation
//! identity, never by thread schedule — extends to everything this crate
//! records. Events carry only virtual quantities (virtual timestamps,
//! charged path times, CI widths), per-rank buffers are appended in each
//! rank's program order, and all cross-rank aggregation happens in a fixed
//! `(run, rank, sequence)` order. With a fixed seed, an exported trace is
//! therefore **byte-identical** across reruns, across `--jobs` levels, and
//! under `critter-testkit`'s schedule-perturbation fuzzing (asserted by
//! `testkit/tests/trace_determinism.rs`).
//!
//! ## Export formats
//!
//! * [`Timeline::to_chrome_string`] — Chrome/Perfetto trace-event JSON
//!   (open in `ui.perfetto.dev` or `chrome://tracing`);
//! * [`Timeline::to_folded`] — folded-stack output for flamegraph tools,
//!   weighted by each event's charged critical-path time;
//! * [`MetricsRegistry::to_json`] — counters, sums, and log2-bucket
//!   histograms (samples taken/skipped, CI widths, per-channel propagation
//!   counts) rendered through the canonical sorted-key JSON writer.
//!
//! See `docs/OBSERVABILITY.md` for the event taxonomy and the ordering
//! guarantee in detail.
//!
//! ## The JSON reader
//!
//! This is the lowest crate that links `serde_json`, so it also hosts
//! [`json`]: the path-tracking [`json::Reader`] every persisted-document
//! decoder of the workspace is written on, its one error type, and
//! [`json::canonical_text`], the one way a document becomes text.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod timeline;

pub use event::{Event, EventKind};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{RankRecorder, RankTrace};
pub use timeline::{ObsReport, Timeline, TimelineRun};
