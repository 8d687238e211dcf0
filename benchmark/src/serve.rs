//! `serve-small-jobs`: the real `critter-serve` binary as a child process,
//! driven over its documented HTTP API by two closed-loop clients. One
//! operation is one job: submit, follow `/events` until `done`, fetch the
//! report.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use critter_autotune::{Autotuner, SessionConfig, TuningOptions, TuningSpace};
use critter_core::ExecutionPolicy;

use crate::harness::{dir_bytes, ms_since as ms, proc_cpu_s, proc_status_kib, Rng, Run};
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};

/// Closed-loop clients, each waiting for its job before sending the next.
pub const CLIENTS: usize = 2;
/// Jobs per round: warm-up (inside set-up) and timed.
pub const WARMUP_JOBS: usize = 30;
pub const JOBS_PER_ROUND: usize = 160;
/// How long a `409 … is running` on `/report` is retried after `done`.
const REPORT_RETRY: Duration = Duration::from_secs(1);
/// Pause between those retries. The race is lost on nearly every smoke job;
/// a client that retries at once answers it with about ten requests a job,
/// each a connection of its own, and the daemon then serves the client's spin
/// more than its jobs.
const RETRY_PAUSE: Duration = Duration::from_micros(250);

/// The policy names of the HTTP API, in `ExecutionPolicy::ALL_SELECTIVE` order.
const POLICY_NAMES: [&str; 5] = ["conditional", "local", "online", "apriori", "eager"];

/// The daemon child. Killed and reaped on drop, so a panic or an early return
/// leaves no process and no port behind; its pid file lets `run.sh` do the
/// same if this process is killed outright.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pid_file: PathBuf,
}

impl Daemon {
    /// Spawn the daemon with default flags on an ephemeral port and wait until
    /// `/v1/healthz` answers.
    pub fn spawn(bin: &Path, data_dir: &Path, tmp: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(data_dir.join("addr"));
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid_file = tmp.join(format!("daemon-{}.pid", child.id()));
        let _ = std::fs::write(&pid_file, child.id().to_string());
        let mut daemon = Daemon { child, addr: String::new(), pid_file };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(addr) = std::fs::read_to_string(data_dir.join("addr")) {
                daemon.addr = addr.trim().to_string();
                if matches!(http(&daemon.addr, "GET", "/v1/healthz", b""), Ok((200, _))) {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("critter-serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("critter-serve did not answer /v1/healthz within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `kill -9`, as the crash-only daemon expects, and reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pid_file);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One HTTP/1.1 exchange (`Connection: close`, as the daemon speaks it).
pub fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(io)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response without a header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: unreadable status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// One job of the mix: the spec the daemon receives and the report bytes an
/// in-process `tune_session` renders for the same spec and seed.
pub struct Job {
    pub spec: String,
    pub expect: String,
    /// Host milliseconds the in-process sweep took.
    pub inproc_ms: f64,
}

pub fn job(space: TuningSpace, policy_idx: usize, smoke: bool, seed: u64) -> Job {
    let policy: ExecutionPolicy = ExecutionPolicy::ALL_SELECTIVE[policy_idx];
    let spec = serde_json::json!({
        "space": space.name(),
        "policy": POLICY_NAMES[policy_idx],
        "smoke": smoke,
        "seed": seed,
    });
    let configs = if smoke { space.smoke() } else { space.bench() };
    // ε = 0.25 is the spec's default; the spec above leaves it out.
    let opts = TuningOptions::new(policy, 0.25)
        .with_seed(seed)
        .with_persist_models(!space.resets_between_configs());
    let started = Instant::now();
    let report = Autotuner::new(opts)
        .tune_session(&configs, &SessionConfig::new())
        .expect("an ephemeral fault-free sweep cannot fail");
    Job {
        spec: serde_json::to_string(&spec).expect("json writer is total"),
        expect: report.to_json_string(),
        inproc_ms: ms(started),
    }
}

/// A seeded shuffle of smoke jobs over the five spaces × five selective
/// policies, every job with a noise seed of its own. The reference reports
/// are computed here, on as many threads as there are clients.
pub fn job_mix(rng: &mut Rng, n: usize) -> Vec<Job> {
    let mut combos: Vec<(TuningSpace, usize)> =
        TuningSpace::ALL.iter().flat_map(|&s| (0..5).map(move |p| (s, p))).collect();
    let mut picks = Vec::with_capacity(n);
    while picks.len() < n {
        rng.shuffle(&mut combos);
        for &(space, policy) in combos.iter().take(n - picks.len()) {
            picks.push((space, policy, rng.below(1 << 31)));
        }
    }
    std::thread::scope(|scope| {
        let halves: Vec<_> = picks
            .chunks(n.div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk.iter().map(|&(s, p, seed)| job(s, p, true, seed)).collect::<Vec<_>>()
                })
            })
            .collect();
        halves.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
    })
}

/// What one job cost its client.
#[derive(Default)]
pub struct JobOut {
    pub ok: bool,
    pub why: String,
    pub latency_ms: f64,
    pub submit_ms: f64,
    pub first_progress_ms: f64,
    pub report_fetch_ms: f64,
    pub requests: u64,
    pub non2xx: u64,
    pub events_polls: u64,
    pub conflict_retries: u64,
}

/// Submit one job and follow it to its report.
pub fn run_job(addr: &str, job: &Job, tracer: &Tracer, parent: SpanId) -> JobOut {
    let mut out = JobOut::default();
    let root = tracer.begin("serve.job", parent);
    let result = drive_job(addr, job, tracer, root, &mut out);
    tracer.end(root);
    match result {
        Ok(()) => out.ok = true,
        Err(why) => out.why = why,
    }
    out
}

fn drive_job(
    addr: &str,
    job: &Job,
    tracer: &Tracer,
    root: SpanId,
    out: &mut JobOut,
) -> Result<(), String> {
    let started = Instant::now();
    let call = |out: &mut JobOut, span: &str, method: &str, path: &str, body: &[u8]| {
        let got = tracer.span(span, root, |_| http(addr, method, path, body));
        out.requests += 1;
        if !matches!(got, Ok((200..=299, _))) {
            out.non2xx += 1;
        }
        got
    };
    let parse = |body: &[u8]| {
        std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    };

    let (status, body) = call(out, "serve.submit", "POST", "/v1/jobs", job.spec.as_bytes())?;
    out.submit_ms = ms(started);
    if status != 202 {
        return Err(format!("submit answered {status}: {}", String::from_utf8_lossy(&body)));
    }
    let id = parse(&body)?
        .get("id")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or("submit response without an id")?;

    let mut since = 0u64;
    let state = 'follow: loop {
        let path = format!("/v1/jobs/{id}/events?since={since}&wait_ms=8000");
        let (status, body) = call(out, "serve.events_poll", "GET", &path, b"")?;
        out.events_polls += 1;
        if status != 200 {
            return Err(format!("events answered {status}"));
        }
        let doc = parse(&body)?;
        since = doc.get("next").and_then(|v| v.as_u64()).ok_or("events without next")?;
        for event in doc.get("events").and_then(|v| v.as_array()).ok_or("events without list")? {
            let kind = event.get("kind").and_then(|v| v.as_str());
            let done = event.get("units_done").and_then(|v| v.as_u64()).unwrap_or(0);
            if kind == Some("progress") && done >= 1 && out.first_progress_ms == 0.0 {
                out.first_progress_ms = ms(started);
            }
            if let (Some("state"), Some(state)) =
                (kind, event.get("state").and_then(|v| v.as_str()))
            {
                if matches!(state, "done" | "failed" | "cancelled") {
                    break 'follow state.to_string();
                }
            }
        }
        if started.elapsed() > Duration::from_secs(60) {
            return Err("job not terminal after 60 s".into());
        }
    };
    if state != "done" {
        return Err(format!("job ended {state}"));
    }

    // `GET /report` can still answer `409 conflict … is running` right after
    // the `done` event; the retries stay inside the job's latency.
    let fetch_started = Instant::now();
    let report = loop {
        let (status, body) =
            call(out, "serve.report_fetch", "GET", &format!("/v1/jobs/{id}/report"), b"")?;
        match status {
            200 => break body,
            409 if fetch_started.elapsed() < REPORT_RETRY => {
                out.conflict_retries += 1;
                std::thread::sleep(RETRY_PAUSE);
            }
            _ => return Err(format!("report answered {status}")),
        }
    };
    out.report_fetch_ms = ms(fetch_started);
    out.latency_ms = ms(started);
    if report != job.expect.as_bytes() {
        return Err("served report differs from the in-process tune_session bytes".into());
    }
    Ok(())
}

/// Drive `jobs` through the daemon from `clients` closed-loop threads.
pub fn run_jobs(
    addr: &str,
    jobs: &[Job],
    clients: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Vec<JobOut> {
    let next = AtomicUsize::new(0);
    let mut outs: Vec<(usize, JobOut)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break mine };
                        mine.push((i, run_job(addr, job, tracer, parent)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    outs.sort_by_key(|&(i, _)| i);
    outs.into_iter().map(|(_, out)| out).collect()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let mut all: Vec<JobOut> = Vec::new();
    let mut job_dir_kib = 0.0;
    // The job mix and its reference reports, outside every clock. Every round
    // replays it against a fresh daemon and data directory, so nothing a
    // round leaves behind can serve the next.
    let mut rng = Rng::new(run.cfg.seed);
    let warmup = job_mix(&mut rng, WARMUP_JOBS);
    let jobs = job_mix(&mut rng, JOBS_PER_ROUND);
    while let Some(traced) = run.next_round() {
        let data_dir = run.cfg.tmp.join(format!("serve-{}", run.round));

        let setup_started = Instant::now();
        let daemon = Daemon::spawn(&run.cfg.serve_bin, &data_dir, &run.cfg.tmp)?;
        let warm = run_jobs(&daemon.addr, &warmup, 1, run.tracer_for(false), None);
        run.record_setup(setup_started);

        let (segment, cpu0) = (Instant::now(), proc_cpu_s(&daemon.pid()));
        let outs = run_jobs(&daemon.addr, &jobs, CLIENTS, run.tracer_for(traced), None);
        let cpu = proc_cpu_s(&daemon.pid()) - cpu0;
        run.record_segment(traced, segment, cpu, outs.len() as u64);

        run.child_rss_kib = run.child_rss_kib.max(proc_status_kib(&daemon.pid(), "VmHWM"));
        job_dir_kib = dir_bytes(&data_dir) as f64 / 1024.0 / (warmup.len() + jobs.len()) as f64;
        daemon.kill();
        let _ = std::fs::remove_dir_all(&data_dir);

        for out in warm.iter().chain(&outs) {
            run.check(out.ok, || out.why.clone());
        }
        for out in &outs {
            if out.ok {
                run.record_op(traced, out.latency_ms);
            }
        }
        all.extend(outs);
    }

    let per_job =
        |f: fn(&JobOut) -> u64| all.iter().map(f).sum::<u64>() as f64 / all.len().max(1) as f64;
    let latency: Vec<f64> = all.iter().filter(|o| o.ok).map(|o| o.latency_ms).collect();
    let first: Vec<f64> = all.iter().filter(|o| o.ok).map(|o| o.first_progress_ms).collect();
    run.set("serve.http_requests_per_job", per_job(|o| o.requests));
    run.set("serve.events_polls_per_job", per_job(|o| o.events_polls));
    run.set("serve.http_non2xx_per_job", per_job(|o| o.non2xx));
    run.set("serve.report_conflict_retries_per_job", per_job(|o| o.conflict_retries));
    run.set("serve.job_dir_kib", job_dir_kib);
    // The share of a job's latency that the sweep itself takes in process,
    // computed as the jobs were: two at a time.
    let inproc: Vec<f64> = jobs.iter().map(|j| j.inproc_ms).collect();
    run.set("serve.engine_share", median(&inproc) / median(&latency));
    run.set("serve.first_progress_share", median(&first) / median(&latency));
    run.set("serve.latency_tail_ratio", tail(&latency, 900).0 / median(&latency));
    Ok(())
}
