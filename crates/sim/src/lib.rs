//! # critter-sim
//!
//! A deterministic discrete-event simulator of a distributed-memory machine,
//! standing in for the MPI runtime (the `PMPI_*` layer of the paper's Fig. 2)
//! that the original Critter intercepts on Stampede2.
//!
//! ## Execution model
//!
//! Each simulated rank runs the user's `'static` program on an OS thread
//! leased from one process-wide free list of idle rank threads, and sends its
//! result back on a channel. Ranks are scheduled in one of two [`BackendKind`]
//! modes — thread-per-rank (`threads`, the default) or cooperatively scheduled
//! over a small worker-permit budget (`tasks`, which lets 10k+ ranks fit in
//! one process) — and each carries a **virtual clock**.
//! Computation advances only the local clock
//! (by a cost sampled from [`critter_machine::MachineModel`]); communication
//! operations couple clocks through a central matching core:
//!
//! * a blocking point-to-point pair completes at
//!   `max(sender post, receiver post) + α + β·words` (rendezvous) or lets the
//!   sender run ahead (eager) below a configurable message-size threshold;
//! * a collective completes for all participants at
//!   `max(arrival times) + cost(op, words, p)` — the BSP view of a collective,
//!   which is also exactly the quantity Critter's critical-path reduction
//!   needs to observe;
//! * a nonblocking send records its post time; `wait` applies the
//!   completion rule with the *post* time, so the sender's
//!   communication-computation overlap is modeled.
//!
//! Deadlock detection is exact: once no rank is left that could release a
//! parked one, each parked rank raises a typed [`SimError::Stuck`] for its
//! own operation — at once, with no wall-clock timeout.
//!
//! ## Determinism
//!
//! Every stochastic cost draw is counter-based: it depends on the identity of
//! the operation (channel id, per-channel sequence number), never on thread
//! scheduling. Two runs of the same program with the same machine seed produce
//! bit-identical virtual times — across backends and across matching-core
//! shard counts, which the testkit's `backend_equivalence` oracles pin
//! byte-for-byte at the artifact level. Communicator ids are likewise pure functions
//! of (parent id, split sequence, color, members) so that independent splits
//! racing on different threads cannot perturb them.
//!
//! ## What this substrate deliberately models
//!
//! The paper's framework consumes *per-kernel times along execution paths* and
//! their *variability*. Both are first-class here; cache effects and real
//! network contention are summarized by the machine's noise model instead of
//! being simulated microscopically (see DESIGN.md, substitution table).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
pub mod comm;
mod core;
mod counters;
mod ctx;
mod error;
mod pool;
mod request;
mod runner;

pub use backend::BackendKind;
pub use comm::{ChannelMeta, Communicator};
pub use counters::RankCounters;
pub use ctx::{RankCtx, ReduceOp};
pub use error::{sim_error_of, SimError, StuckOp};
pub use request::Request;
pub use runner::{run_simulation, FaultPlan, PerturbParams, SimConfig, SimReport};

/// Re-export of the machine-model crate the simulator is parameterized by.
pub use critter_machine as machine;
