//! `critter-store`: an embedded, crash-safe, content-addressed profile
//! database pooling kernel-model statistics across sweeps, processes, and
//! machines.
//!
//! The paper's speedup comes from reusing kernel-execution statistics so
//! later configurations skip work; a single sweep's profile file
//! (`critter-session::profile`) already carries them across sessions on
//! one machine. This crate generalizes that file into a fleet-wide
//! database:
//!
//! * **Content-addressed blobs** — every published profile is an
//!   immutable envelope named by the 52-bit FNV hash of its canonical
//!   JSON payload (the exact payload a profile file carries, which is
//!   what makes store and file warm starts byte-identical).
//! * **Versioned index generations** — a complete entry listing per
//!   generation, published by `hard_link` CAS so any number of
//!   concurrent writers (threads, processes, daemons sharing a
//!   directory) commit atomically without locks held across I/O, and a
//!   `kill -9` anywhere recovers by pure re-listing.
//! * **Keyed reads with staleness** — entries are keyed by
//!   `(machine fingerprint, algorithm, ranks)`; kernel-signature-level
//!   merging happens inside the blobs, most-recent-first, through the
//!   session [`StalenessPolicy`](critter_session::StalenessPolicy).
//! * **Cross-machine priors** — where this machine has no samples, the
//!   nearest recorded machine's models are rescaled through the α-β-γ
//!   cost model and discounted with distance-calibrated variance
//!   inflation (a performance-model prior in the spirit of Peise &
//!   Bientinesi), so a brand-new machine's first tune still starts warm.
//!
//! See `docs/STORE.md` for the on-disk layout and commit protocol, and
//! the `critter-store` binary for the `ls`/`show`/`verify`/`gc`
//! maintenance surface.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod index;
mod machine;
mod merge;
mod store;

pub use index::{Index, StoreEntry, INDEX_KIND};
pub use machine::MachineSpec;
pub use merge::WarmStartSource;
pub use store::{Census, GcReport, Store, VerifyReport, BLOB_KIND};
