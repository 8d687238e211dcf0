//! # critter-machine
//!
//! Machine performance model for the `critter-rs` distributed-memory simulator.
//!
//! The paper's evaluation ran on Stampede2 (Intel KNL nodes, Omni-Path fat-tree).
//! We do not have that machine, so every cost a simulated program pays is produced
//! by this crate: an α-β(-γ) communication model, a kernel compute model built
//! from flop counts and size-dependent efficiency curves, and a stochastic noise
//! model that reproduces the *variability* the paper observes on a shared cluster
//! (per-node contention, per-invocation jitter).
//!
//! Determinism is a hard requirement: the simulator runs ranks on OS threads, so
//! any draw taken from a shared stateful RNG would depend on scheduling order.
//! All stochastic draws here are **counter-based** ([`CounterRng`]): a draw is a
//! pure function of `(seed, stream, counter)`, so simulations are bit-reproducible
//! regardless of thread interleaving.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod comm_cost;
mod compute_cost;
mod model;
mod noise;
mod params;
pub mod rng;
mod topology;

pub use comm_cost::{CommCostModel, CommOp};
pub use compute_cost::{ComputeCostModel, KernelClass};
pub use model::MachineModel;
pub use noise::{ComputeSampler, NoiseModel, NoiseParams};
pub use params::MachineParams;
pub use rng::CounterRng;
pub use topology::Topology;
