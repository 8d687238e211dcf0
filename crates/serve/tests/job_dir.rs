//! What a finished job leaves in its directory: the served artifacts and
//! the record of how it ran, but no resume state. A `done` job never
//! resumes, so its checkpoint head and observed-run timeline are removed
//! once the report is written — and `/report` and `/metrics` still serve
//! the bytes an in-process sweep of the same spec produces.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use critter_serve::http::client;
use critter_serve::{JobSpec, Server, ServerConfig};

const OBSERVED_JOB: &str = r#"{
    "space": "slate-cholesky", "policy": "online", "epsilon": 0.25,
    "smoke": true, "machine": "test", "seed": 3, "observe": true
}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("critter-serve-jobdir-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_done_job_keeps_its_artifacts_and_drops_its_resume_state() {
    let spec = JobSpec::from_json(OBSERVED_JOB).expect("test spec parses");
    let truth = critter_autotune::Autotuner::new(spec.options()).tune(&spec.workloads());
    let expected_report = truth.to_json_string();
    let expected_metrics =
        truth.obs.as_ref().expect("observed sweeps carry a trace").metrics_string();

    let data_dir = temp_dir("done");
    let mut config = ServerConfig::new(&data_dir);
    config.addr = "127.0.0.1:0".into();
    config.job_workers = 1;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();

    let (s, doc) = client::request_json(addr, "POST", "/v1/jobs", Some(OBSERVED_JOB)).unwrap();
    assert_eq!(s, 202, "submit failed: {doc:?}");
    let id = doc.get("id").unwrap().as_str().unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, doc) = client::request_json(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        match doc.get("state").unwrap().as_str().unwrap() {
            "done" => break,
            state => assert_ne!(state, "failed", "{doc:?}"),
        }
        assert!(Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }

    let dir = data_dir.join(&id);
    for gone in ["checkpoint.json", "timeline.jsonl"] {
        assert!(!dir.join(gone).exists(), "a done job still holds {gone}");
    }
    for kept in ["spec.json", "events.jsonl", "session.log", "report.json", "metrics.txt"] {
        assert!(dir.join(kept).is_file(), "a done job lost {kept}");
    }
    let (s, report) = client::request(addr, "GET", &format!("/v1/jobs/{id}/report"), None).unwrap();
    assert_eq!(s, 200);
    assert_eq!(report, expected_report);
    let (s, metrics) =
        client::request(addr, "GET", &format!("/v1/jobs/{id}/metrics"), None).unwrap();
    assert_eq!(s, 200);
    assert_eq!(metrics, expected_metrics);

    server.shutdown();
    std::fs::remove_dir_all(&data_dir).unwrap();
}
