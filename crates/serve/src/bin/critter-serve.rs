//! Tuning-as-a-service daemon. See `docs/SERVICE.md` for the API.
//!
//! ```text
//! critter-serve --addr 127.0.0.1:8787 --data-dir critter-serve-data
//! curl -s -X POST localhost:8787/v1/jobs \
//!      -d '{"space": "slate-cholesky", "policy": "local", "smoke": true}'
//! ```

use std::path::PathBuf;

use critter_serve::{Server, ServerConfig};
use critter_session::cli::{Cli, Flag};

const FLAGS: &[Flag] = &[
    Flag(
        "--addr HOST:PORT",
        "bind address (default `127.0.0.1:8787`; port 0 = ephemeral, written to `DIR/addr`)",
    ),
    Flag("--data-dir DIR", "job-directory root (default `critter-serve-data`)"),
    Flag("--job-workers N", "concurrent tuning sweeps (default 2)"),
    Flag("--http-workers N", "concurrent HTTP connections (default 4)"),
    Flag(
        "--queue-capacity N",
        "bounded job-queue depth; beyond it submissions get 429 (default 64)",
    ),
    Flag("--tenant-max-queued N", "per-tenant cap on queued jobs (default 16, 0 = unlimited)"),
    Flag("--tenant-max-running N", "per-tenant cap on running jobs (default 2, 0 = unlimited)"),
    Flag(
        "--tenant-max-ranks N",
        "per-tenant cap on leased simulated rank threads (default 0 = unlimited)",
    ),
    Flag(
        "--store DIR",
        "profile store for jobs submitted with `\"store\": true` (`docs/STORE.md`)",
    ),
];

const CLI: Cli = Cli {
    about: "Tuning-as-a-service daemon over the critter session engine. Keeps one directory\n\
            per job under the data directory; on restart it recovers every job found there\n\
            and resumes unfinished sweeps from their checkpoints.\n\
            \n\
            Jobs are scheduled by priority (spec field \"priority\", 0..=9, higher first); a\n\
            higher-priority submission preempts a running lower-priority sweep at its next\n\
            checkpointed unit boundary. Submissions over a tenant cap get a typed 429\n\
            `quota_exceeded`. API reference: docs/SERVICE.md.",
    ..Cli::new("critter-serve", &[FLAGS])
};

fn main() {
    let config = CLI.parse_env(|p| {
        let data_dir: Option<PathBuf> = p.get("--data-dir")?;
        let mut config = ServerConfig::new(data_dir.unwrap_or_else(|| "critter-serve-data".into()));
        config.addr = p.get("--addr")?.unwrap_or(config.addr);
        config.job_workers = p.get("--job-workers")?.unwrap_or(config.job_workers);
        config.http_workers = p.get("--http-workers")?.unwrap_or(config.http_workers);
        config.queue_capacity = p.get("--queue-capacity")?.unwrap_or(config.queue_capacity);
        config.tenant_max_queued =
            p.get("--tenant-max-queued")?.unwrap_or(config.tenant_max_queued);
        config.tenant_max_running =
            p.get("--tenant-max-running")?.unwrap_or(config.tenant_max_running);
        config.tenant_max_ranks = p.get("--tenant-max-ranks")?.unwrap_or(config.tenant_max_ranks);
        config.store = p.get("--store")?;
        Ok(config)
    });

    let data_dir = config.data_dir.clone();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("critter-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "critter-serve listening on http://{} (data dir: {})",
        server.addr(),
        data_dir.display()
    );

    // Crash-only daemon: no signal choreography, just park forever. The
    // durable state is the data directory; recovery on the next start is
    // the shutdown path.
    loop {
        std::thread::park();
    }
}
