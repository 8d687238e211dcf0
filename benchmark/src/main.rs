//! The repo benchmark. See `benchmark/README.md`; run through `benchmark/run.sh`.
//!
//! With `--workload W` this process *is* the workload: it sets up, measures
//! for `--seconds`, checks every output and prints one JSON result line. With
//! no workload it runs each workload as a child process of its own (so peak
//! RSS is per workload), prints every metric by name and writes `--out`.

mod circuit;
mod compare;
mod harness;
mod metrics;
mod probes;
mod serve;
mod stats;
mod store;
mod sweeps;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Value};

use harness::{proc_status_kib, Config, Run};
use metrics::{DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{median, quartiles};
use trace::Tracer;

const USAGE: &str =
    "usage: benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                        [--runs N] [--out FILE]
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --manifest

Without --workload every workload runs in a child process of its own and all
metrics are printed by name with their unit; --trace adds the traced run with
the per-layer metrics, --runs N repeats each workload on seeds S..S+N-1 and
records quartiles, --out writes the result file that --compare reads.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    tmp_dir: Option<PathBuf>,
    serve_bin: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        tmp_dir: None,
        serve_bin: PathBuf::from("critter-serve"),
        compare: None,
        manifest: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i).ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: `{s}` is not a number"))
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i)?.clone()),
            "--seed" => args.seed = number("--seed", value(&mut i)?)?,
            "--seconds" => args.seconds = number("--seconds", value(&mut i)?)?,
            "--runs" => args.runs = number::<u64>("--runs", value(&mut i)?)?.max(1),
            "--out" => args.out = Some(PathBuf::from(value(&mut i)?)),
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut i)?),
            "--tmp-dir" => args.tmp_dir = Some(PathBuf::from(value(&mut i)?)),
            "--serve-bin" => args.serve_bin = PathBuf::from(value(&mut i)?),
            "--manifest" => args.manifest = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut i)?);
                args.compare = Some((a, PathBuf::from(value(&mut i)?)));
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    args.trace = v == "1";
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("benchmark: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.manifest {
        print!("{}", metrics::manifest_string());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        read_json(a).and_then(|a| Ok(compare::compare(&a, &read_json(b)?)))
    } else if let Some(workload) = &args.workload {
        run_workload(&args, workload)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

fn read_json(path: &PathBuf) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where this invocation keeps scratch data: `run.sh` names a directory it
/// removes on exit (killing any daemon whose pid file is left in it).
fn scratch_root(args: &Args) -> PathBuf {
    args.tmp_dir.clone().unwrap_or_else(|| args.out_dir.join("tmp"))
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Be the workload: measure, check, print the result line.
fn run_workload(args: &Args, workload: &str) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown workload `{workload}`; one of {}", names.join(", ")));
    }
    let tmp = scratch_root(args).join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _scratch = Scratch(tmp.clone());
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp,
        serve_bin: args.serve_bin.clone(),
    };
    let (tracer, off) = (Tracer::new(cfg.trace), Tracer::new(false));
    let mut run = Run::new(&cfg, &tracer, &off);
    match workload {
        "serve-small-jobs" => serve::run(&mut run)?,
        "store-churn" => store::run(&mut run)?,
        sweep => sweeps::run(sweep, &mut run)?,
    }
    // Peak memory of the process under test, before the probes add theirs.
    let rss_kib = match run.child_rss_kib {
        0 => proc_status_kib("self", "VmHWM"),
        child => child,
    };

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if cfg.trace {
        for m in &PER_LAYER {
            metrics.insert(m.name, 0.0);
        }
        let mut set = |name: &'static str, value: f64| {
            let known = metrics.insert(name, value).is_some();
            assert!(known, "metric `{name}` is not in the per-layer table");
        };
        for (&name, &value) in &run.layer {
            set(name, value);
        }
        set("bench.op_wall_ms_p50", median(&run.op_ms));
        set("bench.traced_op_wall_ms_p50", median(&run.traced_op_ms));
        set("bench.trace_overhead_ratio", median(&run.traced_op_ms) / median(&run.op_ms));
        set("bench.rounds", run.round as f64);
        circuit::run(&cfg, &tracer, &mut set)?;
        probes::run(cfg.seed, &tracer, &mut set);
        let path = args.out_dir.join(format!("trace-{workload}.json"));
        let doc = serde_json::to_string(&tracer.to_json(workload)).expect("json writer is total");
        std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        print_self_times(&tracer);
    } else {
        let ops = run.window_ops.max(1) as f64;
        metrics.insert("setup_s", median(&run.setup_s));
        metrics.insert("op_wall_ms_p50", median(&run.op_ms));
        metrics.insert("ops_per_s", run.window_ops as f64 / run.window_s);
        metrics.insert("cpu_ms_per_op", run.window_cpu_s * 1e3 / ops);
        metrics.insert("peak_rss_mib", rss_kib as f64 / 1024.0);
    }

    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect();
    for why in &run.failures {
        eprintln!("benchmark: {workload}: FAILED CHECK: {why}");
    }
    println!(
        "{workload}: seed {} · {} rounds · {} timed operations · {} checks, {} failed",
        cfg.seed,
        run.round,
        run.op_ms.len() + run.traced_op_ms.len(),
        run.attempted,
        run.failed
    );
    let mut doc = serde_json::Map::new();
    for (name, value) in &metrics {
        println!("  {name:<34} {value:>18.6} {}", units[name]);
        doc.insert(name.to_string(), json!({ "value": *value, "unit": units[name] }));
    }
    let result = json!({
        "correct": run.failed == 0,
        "attempted": run.attempted.max(1),
        "failed": run.failed,
        "metrics": Value::Object(doc),
    });
    println!("{}", serde_json::to_string(&result).expect("json writer is total"));
    Ok(run.failed == 0)
}

/// Self time per span family of the traced run, largest first.
fn print_self_times(tracer: &Tracer) {
    let mut rows: Vec<(String, f64)> =
        trace::self_ms_by_family(&tracer.spans()).into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("self time by span family:");
    for (family, ms) in rows {
        println!("  {family:<34} {ms:>18.3} ms");
    }
}

/// Run one workload in a child process and parse its result line.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .arg("--tmp-dir")
        .arg(scratch_root(args))
        .arg("--serve-bin")
        .arg(&args.serve_bin)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match serde_json::from_str(last) {
        Ok(doc) => {
            if !output.status.success() {
                // Failed checks: keep the numbers, the caller reports `correct`.
                eprintln!("benchmark: {workload} (seed {seed}) exited {}", output.status);
            }
            Ok(doc)
        }
        Err(_) => Err(format!("{workload} (seed {seed}) printed no result: {}", output.status)),
    }
}

/// Every workload, each in a child of its own; print and record all metrics.
fn run_all(args: &Args) -> Result<bool, String> {
    println!(
        "seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) · {} s per run · {} run(s) per workload",
        args.seed, args.seconds, args.runs
    );
    let mut workloads = serde_json::Map::new();
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        let mut entry = serde_json::Map::new();
        let (mut attempted, mut failed) = (0, 0);
        for (group, trace) in [("end_to_end", false), ("per_layer", true)] {
            if trace && !args.trace {
                continue;
            }
            // Metric name to its unit and its value in every run.
            let mut samples: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
            for run in 0..args.runs {
                let doc = run_child(args, workload, args.seed + run, trace)?;
                attempted += doc.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                failed += doc.get("failed").and_then(Value::as_u64).unwrap_or(0);
                clean &= doc.get("correct").and_then(Value::as_bool) == Some(true);
                let metrics = doc.get("metrics").and_then(Value::as_object);
                for (name, m) in metrics.into_iter().flat_map(|m| m.iter()) {
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
                    let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    samples.entry(name.clone()).or_insert((unit, Vec::new())).1.push(value);
                }
            }
            println!("{workload} · {group}");
            let mut doc = serde_json::Map::new();
            for (name, (unit, values)) in samples {
                let (q1, q3) = quartiles(&values).unwrap_or((values[0], values[0]));
                print!("  {name:<34} {:>18.6} {unit:<8}", median(&values));
                if values.len() > 1 {
                    print!(" (q1 {q1:.6}, q3 {q3:.6}, {} runs)", values.len());
                }
                println!();
                doc.insert(
                    name,
                    json!({ "unit": unit, "median": median(&values), "q1": q1, "q3": q3, "values": values }),
                );
            }
            entry.insert(group.into(), Value::Object(doc));
        }
        println!(
            "{workload} · fail_share {failed}/{attempted} = {}",
            failed as f64 / attempted.max(1) as f64
        );
        entry.insert("attempted".into(), json!(attempted));
        entry.insert("failed".into(), json!(failed));
        workloads.insert(workload.to_string(), Value::Object(entry));
    }
    let doc = json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "workloads": Value::Object(workloads),
    });
    if let Some(path) = &args.out {
        let mut text = serde_json::to_string_pretty(&doc).expect("json writer is total");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(clean)
}
