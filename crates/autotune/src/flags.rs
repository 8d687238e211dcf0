//! The command-line flag groups every sweep-running binary shares
//! (`critter-tune`, the figure drivers, the sweep bench), and the one
//! mapping from the session group's values onto
//! `(TuningOptions, SessionConfig)`.

use std::fs;
use std::path::PathBuf;

use critter_session::cli::{Error, Flag, Parsed};
use critter_session::SessionConfig;
use critter_sim::FaultPlan;

use crate::TuningOptions;

/// Session flags: repetitions, checkpoint/resume, warm start, profile
/// output, profile store, fault injection.
pub const SESSION: &[Flag] = &[
    Flag("--reps N", "repetitions per configuration (default 1)"),
    Flag(
        "--checkpoint-dir DIR",
        "checkpoint after every committed unit: `checkpoint.json`, plus `timeline.jsonl` when the \
         sweep is observed (figure drivers: one subdirectory per sweep); without `--resume` only \
         a stale `checkpoint.json`, `timeline.jsonl` and `session.log` are removed",
    ),
    Flag("--resume", "resume from the checkpoint in `--checkpoint-dir`"),
    Flag("--warm-start FILE", "seed kernel models from a saved profile"),
    Flag(
        "--profile-out PATH",
        "save the tuned kernel models (figure drivers: a directory, one file per sweep)",
    ),
    Flag(
        "--store DIR",
        "warm-start from and publish into a shared profile store (`docs/STORE.md`)",
    ),
    Flag("--faults P", "deterministic rank-panic probability per fault point"),
    Flag("--retries N", "retry budget per run when faults are armed (default 2)"),
];

/// Simulator flags.
pub const SIM: &[Flag] =
    &[Flag("--backend KIND", "communicator backend: `threads` (default) or `tasks`")];

/// Parsed values of the [`SESSION`] group (`--reps` goes straight into
/// [`TuningOptions::reps`]); the default is an ephemeral, fault-free session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionFlags {
    /// `--checkpoint-dir`.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--resume`: keep and continue an existing checkpoint.
    pub resume: bool,
    /// `--warm-start`.
    pub warm_start: Option<PathBuf>,
    /// `--profile-out`.
    pub profile_out: Option<PathBuf>,
    /// `--store`.
    pub store: Option<PathBuf>,
    /// `--faults`: rank-panic probability per fault point.
    pub faults: Option<f64>,
    /// Seed of the fault stream, where the binary has a `--fault-seed`
    /// (default 0xFA17).
    pub fault_seed: Option<u64>,
    /// `--retries` (default: [`TuningOptions::max_retries`], 2).
    pub retries: Option<usize>,
}

impl SessionFlags {
    /// Read the [`SESSION`] group from a parsed command line.
    pub fn from_parsed(p: &Parsed) -> Result<Self, Error> {
        Ok(SessionFlags {
            checkpoint_dir: p.get("--checkpoint-dir")?,
            resume: p.switch("--resume"),
            warm_start: p.get("--warm-start")?,
            profile_out: p.get("--profile-out")?,
            store: p.get("--store")?,
            faults: p.get("--faults")?,
            fault_seed: if p.declares("--fault-seed") { p.get("--fault-seed")? } else { None },
            retries: p.get("--retries")?,
        })
    }

    /// Arm `opts` and build the session these flags describe.
    ///
    /// With `sweep: None` the paths are used as given (`critter-tune`: one
    /// sweep per process). With `Some(slug)` the process runs many sweeps
    /// (figure drivers): each checkpoints into `DIR/<slug>/` and saves its
    /// profile as `PATH/<slug>.json`, and a sweep that resets its models
    /// per configuration skips `--warm-start`/`--store` with a note instead
    /// of being refused by the engine.
    ///
    /// Without `--resume`, a stale checkpoint must not be picked up: the
    /// session's own three files are removed, and nothing else in the
    /// directory the user named is touched.
    pub fn session(
        &self,
        mut opts: TuningOptions,
        sweep: Option<&str>,
    ) -> (TuningOptions, SessionConfig) {
        if let Some(p) = self.faults {
            let retries = self.retries.unwrap_or(opts.max_retries);
            let plan = FaultPlan::new(self.fault_seed.unwrap_or(0xFA17)).with_rank_panics(p);
            opts = opts.with_faults(plan).with_retries(retries);
        }
        let mut session = SessionConfig::new();
        session.checkpoint_dir = self.checkpoint_dir.clone();
        session.profile_out = self.profile_out.clone();
        session.warm_start = self.warm_start.clone();
        session.store = self.store.clone();
        if let Some(slug) = sweep {
            session.checkpoint_dir = session.checkpoint_dir.map(|dir| dir.join(slug));
            if let Some(dir) = session.profile_out.take() {
                fs::create_dir_all(&dir).expect("create profile output dir");
                session.profile_out = Some(dir.join(format!("{slug}.json")));
            }
            // Seeding models before the sweep needs the persist-models protocol.
            let seeds =
                [("--warm-start", &mut session.warm_start), ("--store", &mut session.store)];
            for (flag, seed) in seeds {
                if opts.reset_between_configs && seed.take().is_some() {
                    eprintln!("note: {slug} resets models per config; ignoring {flag}");
                }
            }
        }
        if !self.resume {
            let own = [session.checkpoint_path(), session.timeline_path(), session.log_path()];
            for stale in own.into_iter().flatten() {
                let _ = fs::remove_file(stale);
            }
        }
        (opts, session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::ExecutionPolicy;
    use critter_session::cli::Cli;

    const CLI: Cli = Cli::new("t", &[SESSION, SIM]);

    fn flags(args: &[&str]) -> SessionFlags {
        let parsed = CLI.parse(args.iter().map(|s| s.to_string())).expect("valid command line");
        SessionFlags::from_parsed(&parsed).expect("valid values")
    }

    fn opts() -> TuningOptions {
        TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
    }

    #[test]
    fn no_flags_is_an_ephemeral_fault_free_session() {
        assert_eq!(flags(&[]), SessionFlags::default());
        let (o, s) = flags(&[]).session(opts(), None);
        assert_eq!(s, SessionConfig::new());
        assert!(o.faults.is_none());
        assert_eq!(o.max_retries, 2);
        // Armed with no seed or budget given: the documented defaults.
        let (o, _) = flags(&["--faults", "0.5"]).session(opts(), None);
        assert_eq!(o.faults, Some(FaultPlan::new(0xFA17).with_rank_panics(0.5)));
        assert_eq!(o.max_retries, 2);
    }

    #[test]
    fn fresh_run_clears_only_the_sessions_own_files() {
        let dir = std::env::temp_dir().join(format!("critter-flags-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for name in ["checkpoint.json", "timeline.jsonl", "session.log", "thesis.tex"] {
            fs::write(dir.join(name), "precious").unwrap();
        }
        let dir_arg = dir.to_str().unwrap();

        let (_, session) = flags(&["--checkpoint-dir", dir_arg, "--resume"]).session(opts(), None);
        assert_eq!(session.checkpoint_dir.as_deref(), Some(dir.as_path()));
        assert!(dir.join("checkpoint.json").exists(), "--resume keeps the checkpoint");
        assert!(dir.join("timeline.jsonl").exists(), "--resume keeps the checkpoint's timeline");

        flags(&["--checkpoint-dir", dir_arg]).session(opts(), None);
        assert!(!dir.join("checkpoint.json").exists(), "a stale checkpoint must not be resumed");
        assert!(!dir.join("timeline.jsonl").exists(), "nor a stale timeline appended to");
        assert!(!dir.join("session.log").exists());
        assert_eq!(fs::read_to_string(dir.join("thesis.tex")).unwrap(), "precious");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweeps_get_their_own_paths_and_skip_seeding_when_models_reset() {
        let base = std::env::temp_dir().join(format!("critter-flags-sweep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let (ck, prof) = (base.join("ck"), base.join("prof"));
        let f = flags(&[
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--profile-out",
            prof.to_str().unwrap(),
            "--warm-start",
            "w.json",
            "--store",
            "st",
            "--faults",
            "0.5",
            "--retries",
            "7",
        ]);
        let (o, s) = f.session(opts().with_persist_models(true), Some("slug"));
        assert_eq!(s.checkpoint_dir, Some(ck.join("slug")));
        assert_eq!(s.profile_out, Some(prof.join("slug.json")));
        assert!(prof.is_dir());
        assert_eq!(s.warm_start, Some(PathBuf::from("w.json")));
        assert_eq!(s.store, Some(PathBuf::from("st")));
        assert_eq!(o.faults, Some(FaultPlan::new(0xFA17).with_rank_panics(0.5)));
        assert_eq!(o.max_retries, 7);

        let (_, s) = f.session(opts().with_persist_models(false), Some("slug"));
        assert_eq!((s.warm_start, s.store), (None, None), "reset protocol skips model seeding");
        // One sweep per process: paths as given, refusal left to the engine.
        let (_, s) = f.session(opts().with_persist_models(false), None);
        assert_eq!(s.checkpoint_dir, Some(ck));
        assert_eq!(s.profile_out, Some(prof));
        assert_eq!(s.warm_start, Some(PathBuf::from("w.json")));
        fs::remove_dir_all(&base).unwrap();
    }
}
