//! One corruption oracle for every persisted document kind.
//!
//! Every decoder of a persisted document is written on the one JSON reader
//! (`critter_obs::json`), whose contract is that a damaged document is
//! refused with an error naming the exact path of the damage — never a
//! panic, never a silently wrong value. This suite checks that contract
//! against *real* instances of each kind — tuning report, observed and
//! fault-armed checkpoint head, a line of its `timeline.jsonl` sidecar,
//! profile, store index generation, one `session.log` line, and the
//! envelope that seals three of them — by walking every node of the
//! document and, one node at a time:
//!
//! * replacing it with a value of another JSON type: the decode must fail
//!   at exactly that node's path (leaves *and* interior nodes);
//! * deleting it: for an object member the decode must fail at that
//!   member's path; for a scalar array element the result is either a
//!   well-formed shorter list or an error at the array (a fixed-arity row);
//!   a whole record leaves a well-formed shorter list, unless another field
//!   counts the list's records: then the decode must fail at the list.
//!
//! The few nodes that legitimately behave otherwise are listed per document
//! as [`Except`]ions. The bit-exact round-trip tests stay where they are,
//! next to each codec.

use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::Arc;

use critter_algs::{Workload, WorkloadOutput};
use critter_autotune::{Autotuner, ProgressVerdict, SessionConfig, TuningOptions, TuningReport};
use critter_core::fnv::FnvHasher;
use critter_core::json::{canonical_text, read_value};
use critter_core::{snapshot, CritterEnv, CritterError, ExecutionPolicy, KernelStore};
use critter_machine::{MachineParams, NoiseParams};
use critter_obs::{Event, EventKind};
use critter_session::{durable, envelope, profile, SessionLog};
use critter_sim::{FaultPlan, ReduceOp};
use critter_store::{Index, MachineSpec, Store, INDEX_KIND};
use serde_json::{Tape, TapeNode, Value};

// ---------------------------------------------------------------------------
// The walker.

/// One step from a node to a child.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Key(String),
    Index(usize),
}

/// Why a node is exempt from the default expectation.
enum Except {
    /// The key is optional: deleting it reads back as a default.
    Optional,
    /// The key holds an open name → value map (metric registries): deleting
    /// one of its entries leaves a well-formed map.
    Entries,
    /// The key is optional in the format but this reader needs it: deleting
    /// it is refused as a mismatch with the live sweep, not as a schema error.
    Needed,
    /// Nothing under this key is decoded: no damage there is an error.
    Unread,
    /// The subtree is guarded by another field: damage anywhere under this
    /// key is reported at that field's path instead.
    ReportedAt(&'static str),
    /// Another field fixes how many records the list under this key holds:
    /// deleting one of them is refused at the list.
    Counted,
    /// The key is a flag that excuses its counted sibling list from the
    /// count: deleting it is refused at that sibling.
    Excuses(&'static str),
}

/// Every node below the root of `v` with its path, parents before children.
fn nodes<'a>(v: &'a Value, here: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, &'a Value)>) {
    let children: Vec<(Step, &Value)> = match v {
        Value::Object(m) => m.iter().map(|(k, c)| (Step::Key(k.clone()), c)).collect(),
        Value::Array(a) => a.iter().enumerate().map(|(i, c)| (Step::Index(i), c)).collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        here.push(step);
        out.push((here.clone(), child));
        nodes(child, here, out);
        here.pop();
    }
}

/// The path in the syntax the reader's errors print: `a.b[2].c`.
fn render(path: &[Step]) -> String {
    let mut s = String::new();
    for step in path {
        match step {
            Step::Key(k) if s.is_empty() => s.push_str(k),
            Step::Key(k) => s.extend([".", k]),
            Step::Index(i) => s.push_str(&format!("[{i}]")),
        }
    }
    s
}

fn node_mut<'a>(doc: &'a mut Value, path: &[Step]) -> &'a mut Value {
    path.iter().fold(doc, |node, step| match step {
        Step::Key(k) => node.get_mut(k).expect("walked key"),
        Step::Index(i) => &mut node.as_array_mut().expect("walked array")[*i],
    })
}

/// Damage every node of `doc`, one at a time, and check what `decode` makes
/// of it. `decode` returns the located error's text (`path: detail`).
fn assert_every_damage_is_located(
    kind: &str,
    doc: &Value,
    exceptions: &[(&str, Except)],
    decode: &dyn Fn(&Value) -> Result<(), String>,
) {
    decode(doc).unwrap_or_else(|e| panic!("{kind}: the undamaged document must decode: {e}"));
    let mut all = Vec::new();
    nodes(doc, &mut Vec::new(), &mut all);
    assert!(all.len() >= 5, "{kind}: suspiciously small document ({} nodes)", all.len());

    let refused_at = |result: Result<(), String>, expect: &str, what: &str| match result {
        Ok(()) => panic!("{kind}: {what} was accepted"),
        Err(e) => {
            let at_path = e.strip_prefix(expect).is_some_and(|rest| rest.starts_with(": "));
            assert!(at_path, "{kind}: {what} must be reported at `{expect}`, got: {e}");
            e
        }
    };
    let is_key = |step: &Step, key: &str| matches!(step, Step::Key(k) if k == key);
    for (path, original) in &all {
        let here = render(path);
        let (last, parent) = path.split_last().expect("paths are non-empty");
        let except = exceptions.iter().find(|(key, ex)| match ex {
            Except::Optional | Except::Needed | Except::Excuses(_) => is_key(last, key),
            Except::Entries | Except::Counted => parent.last().is_some_and(|p| is_key(p, key)),
            Except::Unread | Except::ReportedAt(_) => path.iter().any(|s| is_key(s, key)),
        });

        // 1. Another JSON type in its place.
        let mut damaged = doc.clone();
        *node_mut(&mut damaged, path) = match original {
            Value::String(_) => Value::Number(7.0),
            _ => Value::String("damaged".into()),
        };
        let what = format!("`{here}` retyped");
        match except {
            Some((_, Except::Unread)) => decode(&damaged).expect("unread subtrees are not decoded"),
            Some((_, Except::ReportedAt(guard))) => {
                drop(refused_at(decode(&damaged), guard, &what))
            }
            _ => {
                let e = refused_at(decode(&damaged), &here, &what);
                assert!(e.contains("expected") && e.contains("got"), "{kind}: {what}: vague: {e}");
            }
        }

        // 2. Gone.
        let mut damaged = doc.clone();
        let what = format!("`{here}` deleted");
        match (last, node_mut(&mut damaged, parent)) {
            (Step::Key(k), Value::Object(members)) => {
                members.remove(k);
                match except {
                    Some((_, Except::Optional | Except::Entries | Except::Unread)) => {
                        decode(&damaged).expect("deleting an optional or unread key is legal")
                    }
                    Some((_, Except::Needed)) => {
                        drop(refused_at(decode(&damaged), "mismatch", &what))
                    }
                    Some((_, Except::Excuses(sibling))) => {
                        let sibling = render(&[parent, &[Step::Key(sibling.to_string())]].concat());
                        refused_at(decode(&damaged), &sibling, &what);
                    }
                    // Below the guarded key the guard fires; the guarded
                    // key itself is simply missing.
                    Some((key, Except::ReportedAt(guard))) if !is_key(last, key) => {
                        refused_at(decode(&damaged), guard, &what);
                    }
                    _ => {
                        let e = refused_at(decode(&damaged), &here, &what);
                        assert!(e.contains("missing (expected"), "{kind}: {what}: vague: {e}");
                    }
                }
            }
            // A whole record removed from a list leaves a well-formed
            // shorter list, unless the list is counted; only a scalar element
            // can break a row, and then the row (or its guard) is what is
            // reported.
            (Step::Index(i), Value::Array(items))
                if matches!(except, Some((_, Except::Counted))) =>
            {
                items.remove(*i);
                refused_at(decode(&damaged), &render(parent), &what);
            }
            (Step::Index(_), Value::Array(_)) if !is_scalar(original) => {}
            (Step::Index(i), Value::Array(items)) => {
                items.remove(*i);
                let row = match except {
                    Some((_, Except::ReportedAt(guard))) => guard.to_string(),
                    _ => render(parent),
                };
                if let Err(e) = decode(&damaged) {
                    refused_at(Err(e), &row, &what);
                }
            }
            _ => unreachable!("a step matches its parent's kind"),
        }
    }
}

fn is_scalar(v: &Value) -> bool {
    !matches!(v, Value::Object(_) | Value::Array(_))
}

// ---------------------------------------------------------------------------
// Real documents.

const CHECKPOINT_EXCEPTIONS: &[(&str, Except)] = &[
    // `units_done` fixes how many configurations were begun and how many
    // repetitions each committed; an abandoned one (only ever written
    // `quarantined: true`) committed fewer.
    ("configs", Except::Counted),
    ("pairs", Except::Counted),
    ("quarantined", Except::Excuses("pairs")),
    // An unobserved head has none; the oracle's sweep observes.
    ("timeline", Except::Needed),
    ("counters", Except::Entries),
    ("sums", Except::Entries),
    ("histograms", Except::Entries),
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("critter-testkit-corruption-oracle")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The `path: detail` text of a located decode failure.
fn located(e: CritterError) -> String {
    match e {
        CritterError::Schema { detail, .. } => detail,
        other => panic!("a damaged document must be a Schema error, got: {other}"),
    }
}

/// The payload of the sealed document at `path`, verified, as a tree.
fn sealed_payload(path: &std::path::Path, kind: &str, fingerprint: u64) -> Value {
    let text = std::fs::read_to_string(path).unwrap();
    let tape = Tape::parse(&text).unwrap();
    let payload = envelope::open(&tape, kind, Some(fingerprint)).unwrap();
    serde_json::from_str(payload.text()).unwrap()
}

/// Decode `doc` the way a sealed load does: from the tape of its canonical
/// text.
fn taped<T>(
    doc: &Value,
    decode: impl Fn(TapeNode<'_>) -> critter_core::Result<T>,
) -> Result<(), String> {
    let text = canonical_text(doc);
    decode(Tape::parse(&text).unwrap().root()).map(drop).map_err(located)
}

/// A two-rank workload small enough that every node of its observed
/// checkpoint can be damaged in turn: one BLAS kernel whose size varies by
/// configuration, one user-annotated region and one collective.
struct Tiny(usize);

impl Workload for Tiny {
    fn name(&self) -> String {
        format!("tiny{}", self.0)
    }

    fn ranks(&self) -> usize {
        2
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        let world = env.world();
        let n = 8 * self.0;
        env.kernel(critter_core::ComputeOp::Gemm, n, n, n, 2.0 * (n * n * n) as f64, || {});
        env.custom_kernel(3, 8, 8.0, || {});
        env.allreduce(&world, ReduceOp::Sum, &[env.rank() as f64]);
        WorkloadOutput::default()
    }
}

fn tiny_workloads() -> Vec<Arc<dyn Workload>> {
    (1..=3).map(|i| Arc::new(Tiny(i)) as Arc<dyn Workload>).collect()
}

/// Observed, a-priori (offline records), extrapolating, and fault-armed so
/// that one configuration is quarantined: every optional part of a report
/// and a checkpoint is present.
fn tiny_options() -> TuningOptions {
    let mut opts = TuningOptions::new(ExecutionPolicy::APrioriPropagation, 0.5)
        .with_test_machine()
        .with_observe()
        .with_faults(FaultPlan::new(7).with_rank_panics(0.008))
        .with_retries(0);
    opts.extrapolate = true;
    opts.reset_between_configs = false;
    opts
}

#[test]
fn tuning_report_damage_is_located() {
    let report = Autotuner::new(tiny_options())
        .tune_session(&tiny_workloads(), &SessionConfig::new())
        .expect("the tiny sweep completes");
    let quarantined = report.configs.iter().filter(|c| c.quarantined).count();
    assert!(
        quarantined >= 1 && quarantined < report.configs.len(),
        "the pinned fault plan must quarantine some but not all configurations ({quarantined})"
    );
    assert!(report.configs.iter().any(|c| !c.offline.is_empty()));
    assert_every_damage_is_located(
        "tuning report",
        &report.to_json(),
        &[("quarantined", Except::Optional), ("obs_metrics", Except::Unread)],
        &|doc| TuningReport::from_json(doc).map(drop).map_err(located),
    );
}

/// An observed, fault-armed session of the tiny sweep stopped after its
/// second unit: the checkpoint then holds results, the kernel stores, session
/// events and, in the sidecar, observed runs. Returns the session, the sweep's
/// fingerprint and the head's payload.
fn stopped_tiny_session(name: &str) -> (SessionConfig, u64, Value) {
    let session = SessionConfig::new().with_checkpoint_dir(scratch(name));
    let workloads = tiny_workloads();
    let stopper = Autotuner::new(tiny_options()).with_progress(|p| match p.units_done {
        0 | 1 => ProgressVerdict::Continue,
        _ => ProgressVerdict::Preempt,
    });
    let stopped = stopper.tune_session(&workloads, &session).expect_err("preempted mid-sweep");
    assert!(stopped.is_preempted(), "got: {stopped}");
    let fingerprint = stopper.fingerprint(&workloads);
    let payload = sealed_payload(&session.checkpoint_path().unwrap(), "checkpoint", fingerprint);
    for key in ["session_events", "configs"] {
        let filled = payload.get(key).and_then(Value::as_array).is_some_and(|a| !a.is_empty());
        assert!(filled, "the checkpoint must carry `{key}`");
    }
    let committed = payload.get("timeline").and_then(|t| t.get("runs")?.as_u64());
    assert!(committed.is_some_and(|runs| runs >= 2), "the checkpoint must count observed runs");
    (session, fingerprint, payload)
}

/// Restore goes through `tune_session` itself: `payload` is sealed (so the
/// envelope is valid and the payload decoder is what refuses it) and resumed.
/// A checkpoint that still decodes reaches the progress hook, which cancels
/// before anything runs; one that does not must be a `Schema` error of
/// `document` (a `Mismatch` is passed on as `mismatch: …`).
fn resume_sealed(
    session: &SessionConfig,
    fingerprint: u64,
    payload: &Value,
    document: &str,
) -> Result<(), String> {
    let head = session.checkpoint_path().unwrap();
    durable::write_atomic(&head, envelope::seal("checkpoint", fingerprint, payload).as_bytes())
        .unwrap();
    let resumer = Autotuner::new(tiny_options()).with_progress(|_| ProgressVerdict::Cancel);
    match resumer.tune_session(&tiny_workloads(), session) {
        Ok(_) => panic!("the progress hook cancels every resumed sweep"),
        Err(e) if e.is_cancelled() => Ok(()),
        Err(CritterError::Mismatch { detail }) => Err(format!("mismatch: {detail}")),
        Err(e) => {
            let named = format!("schema error in {document}: ");
            assert!(e.to_string().starts_with(&named), "got: {e}");
            Err(located(e))
        }
    }
}

#[test]
fn checkpoint_damage_is_located_by_the_real_restore_path() {
    let (session, fingerprint, payload) = stopped_tiny_session("checkpoint");
    assert_every_damage_is_located("checkpoint", &payload, CHECKPOINT_EXCEPTIONS, &|doc| {
        resume_sealed(&session, fingerprint, doc, "checkpoint")
    });
    // A count past the sweep's units is refused at the count.
    let mut past = payload.clone();
    *past.get_mut("units_done").unwrap() = Value::Number(99.0);
    let e = resume_sealed(&session, fingerprint, &past, "checkpoint").unwrap_err();
    assert!(e.starts_with("units_done: "), "got: {e}");
    std::fs::remove_dir_all(session.checkpoint_dir.unwrap()).unwrap();
}

/// The sidecar is guarded twice: the head states how long its committed
/// prefix is and what it hashes to, and every line goes through the one
/// reader. Damage is a `Schema` error naming the sidecar file — for damage
/// inside a line, at `[line]` and the path within it.
#[test]
fn timeline_sidecar_damage_is_located_by_the_real_restore_path() {
    let (session, fingerprint, payload) = stopped_tiny_session("sidecar");
    let sidecar = session.timeline_path().unwrap();
    let document = sidecar.display().to_string();
    let original = std::fs::read_to_string(&sidecar).unwrap();
    let resume = |payload: &Value| resume_sealed(&session, fingerprint, payload, &document);
    // Write `text` as the sidecar under a head that commits all of it, so
    // that the line decoder, not the prefix hash, is what sees the damage.
    let resume_committing = |text: &str| {
        std::fs::write(&sidecar, text).unwrap();
        let mut hasher = FnvHasher::default();
        hasher.write(text.as_bytes());
        let mut payload = payload.clone();
        *payload.get_mut("timeline").unwrap() = serde_json::json!({
            "bytes": text.len(),
            "hash": hasher.finish() & ((1 << 52) - 1),
            "runs": text.lines().count(),
        });
        resume(&payload)
    };
    resume_committing(&original).expect("the oracle's own head is accepted");

    // Every node of a real line, the second (a selective run with metrics).
    let lines: Vec<&str> = original.lines().collect();
    let run: Value = serde_json::from_str(lines[1]).unwrap();
    assert_every_damage_is_located("timeline.jsonl line", &run, CHECKPOINT_EXCEPTIONS, &|doc| {
        let mut lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        lines[1] = serde_json::to_string(doc).unwrap();
        let refusal = resume_committing(&(lines.join("\n") + "\n")).err();
        refusal.map_or(Ok(()), |e| Err(e.strip_prefix("[1].").expect(&e).to_string()))
    });
    // A line that is not JSON at all, committed all the same.
    let garbled = original.replacen(lines[1], &lines[1][..lines[1].len() / 2], 1);
    let e = resume_committing(&garbled).unwrap_err();
    assert!(e.starts_with("[1]: malformed line: "), "got: {e}");

    // Under the real head: a file shorter than the committed prefix …
    std::fs::write(&sidecar, &original[..original.len() - 1]).unwrap();
    let e = resume(&payload).unwrap_err();
    assert!(e.contains("truncated"), "got: {e}");
    std::fs::remove_file(&sidecar).unwrap();
    assert!(resume(&payload).unwrap_err().contains("holds 0 bytes"));
    // … one byte flipped inside it, the length unchanged …
    let mut flipped = original.clone().into_bytes();
    flipped[original.len() / 2] ^= 0x01;
    std::fs::write(&sidecar, &flipped).unwrap();
    let e = resume(&payload).unwrap_err();
    assert!(e.contains("do not hash to the checkpoint's `timeline.hash`"), "got: {e}");
    // … and a head that counts more runs than the prefix holds.
    std::fs::write(&sidecar, &original).unwrap();
    let mut miscounted = payload.clone();
    *miscounted.get_mut("timeline").unwrap().get_mut("runs").unwrap() = serde_json::json!(99);
    let e = resume(&miscounted).unwrap_err();
    assert!(e.contains("but the checkpoint committed 99 runs"), "got: {e}");
    // Bytes past the committed prefix are no damage: they are cut off.
    std::fs::write(&sidecar, format!("{original}{{\"id\":7,\"lab")).unwrap();
    resume(&payload).expect("an uncommitted tail is not an error");
    assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), original);
    std::fs::remove_dir_all(session.checkpoint_dir.unwrap()).unwrap();
}

/// Kernel stores with every table populated (models, path counts, a-priori
/// counts, compute and communication fits): the tiny sweep's own profile.
fn tiny_stores(dir: &std::path::Path) -> Vec<KernelStore> {
    let out = dir.join("profile.json");
    let session = SessionConfig::new().with_profile_out(&out);
    Autotuner::new(tiny_options()).tune_session(&tiny_workloads(), &session).unwrap();
    profile::load(&out, None).unwrap()
}

#[test]
fn profile_and_envelope_damage_is_located() {
    let dir = scratch("profile");
    let stores = tiny_stores(&dir);
    let path = dir.join("saved.json");
    profile::save(&path, 7, &stores).unwrap();
    let sealed: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let payload = &sealed_payload(&path, "profile", 7);
    let store0 = &payload.as_array().unwrap()[0];
    for table in ["apriori", "local", "path"] {
        assert!(!store0.get(table).unwrap().as_array().unwrap().is_empty(), "`{table}` is empty");
    }
    let fits = store0.get("extrapolation").unwrap();
    assert!(!fits.get("compute").unwrap().as_array().unwrap().is_empty(), "no compute fits");

    assert_every_damage_is_located("profile", payload, &[], &|doc| {
        taped(doc, snapshot::stores_from_json)
    });
    // The envelope around it: its own fields are located; the payload is
    // guarded by the content hash, so damage there is a hash mismatch.
    assert_every_damage_is_located(
        "envelope",
        &sealed,
        &[("payload", Except::ReportedAt("hash"))],
        &|doc| {
            let text = canonical_text(doc);
            let tape = Tape::parse(&text).unwrap();
            envelope::open(&tape, "profile", Some(7)).map(drop).map_err(located)
        },
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_index_generation_damage_is_located() {
    let dir = scratch("store");
    let store = Store::open(dir.join("store")).unwrap();
    let machine = MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster());
    let stores = tiny_stores(&dir);
    store.publish(&machine, "tiny1;tiny2;tiny3", &stores).unwrap();
    store.publish(&machine, "tiny1;tiny2;tiny3", &stores[..1]).unwrap();
    let file = dir.join("store").join("index").join(format!("gen-{:020}.json", 2));
    let payload = &sealed_payload(&file, INDEX_KIND, 2);
    assert_every_damage_is_located("store index", payload, &[], &|doc| {
        taped(doc, |node| Index::from_json(node, 2))
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn session_log_damage_is_located() {
    let dir = scratch("log");
    let path = dir.join("session.log");
    let log = SessionLog::open(&path).unwrap();
    log.record(EventKind::Checkpoint, "unit 3", 3.0).unwrap();
    let line = std::fs::read_to_string(&path).unwrap();
    let event = serde_json::from_str(line.lines().next().expect("one line")).unwrap();
    assert_every_damage_is_located("session.log line", &event, &[], &|doc| {
        read_value("event", doc, Event::read).map(drop).map_err(|e| e.to_string())
    });
    // Through the log's own reader the error also names the file.
    std::fs::write(&path, line.replace("\"arg\":3", "\"arg\":\"three\"")).unwrap();
    let err = log.read().unwrap_err().to_string();
    assert!(
        err.contains("session.log") && err.contains("arg: expected a number, got a string"),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
