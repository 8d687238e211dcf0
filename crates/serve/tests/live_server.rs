//! In-process daemon tests: backpressure, per-tenant quotas, and
//! checkpoint-consistent cancellation against a live ephemeral-port
//! server.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use critter_serve::http::client;
use critter_serve::{Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("critter-serve-live-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const LONG_JOB: &str = r#"{
    "space": "slate-cholesky", "policy": "local",
    "smoke": true, "machine": "test", "reps": 500
}"#;

#[test]
fn full_queue_rejects_with_429_and_delete_cancels_at_a_unit_boundary() {
    let data_dir = temp_dir("backpressure");
    let mut config = ServerConfig::new(&data_dir);
    config.addr = "127.0.0.1:0".into();
    config.job_workers = 1;
    config.queue_capacity = 1;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();

    // Worker busy on the first job, queue slot held by the second: every
    // further submission must bounce with a typed 429 and leave no job
    // directory behind.
    let (s1, doc1) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s1, 202);
    let id1 = doc1.get("id").unwrap().as_str().unwrap().to_string();
    // Wait until the worker has dequeued job 1 before submitting job 2:
    // until then job 1 holds the single queue slot and job 2 could bounce.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, doc) = client::request_json(addr, "GET", &format!("/v1/jobs/{id1}"), None).unwrap();
        if doc.get("state").unwrap().as_str() == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Job 2 now holds the queue slot for the rest of job 1's (long) sweep.
    let (s2, _) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s2, 202);
    let (s3, doc3) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s3, 429, "beyond capacity the daemon applies backpressure");
    assert_eq!(doc3.get("error").unwrap().get("code").unwrap().as_str(), Some("backpressure"));

    // The rejected submission is fully rolled back: its directory is gone
    // and the daemon still lists exactly two jobs.
    let (_, list) = client::request_json(addr, "GET", "/v1/jobs", None).unwrap();
    assert_eq!(list.get("jobs").unwrap().as_array().unwrap().len(), 2);

    // Cancel everything: the running job stops at its next committed unit
    // boundary, queued jobs never start.
    for job in list.get("jobs").unwrap().as_array().unwrap() {
        let id = job.get("id").unwrap().as_str().unwrap();
        let (s, _) = client::request_json(addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(s, 202);
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, list) = client::request_json(addr, "GET", "/v1/jobs", None).unwrap();
        let cancelled = list
            .get("jobs")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .all(|j| j.get("state").unwrap().as_str() == Some("cancelled"));
        if cancelled {
            break;
        }
        assert!(Instant::now() < deadline, "cancellation never completed: {list:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Cancelling a cancelled job is a 409, and its report is a 409 too.
    let (s, doc) = client::request_json(addr, "DELETE", &format!("/v1/jobs/{id1}"), None).unwrap();
    assert_eq!(s, 409);
    assert_eq!(doc.get("error").unwrap().get("code").unwrap().as_str(), Some("conflict"));
    let (s, _) =
        client::request_json(addr, "GET", &format!("/v1/jobs/{id1}/report"), None).unwrap();
    assert_eq!(s, 409);

    // Health reflects the final census and states the API version.
    let (s, health) = client::request_json(addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(s, 200);
    assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(health.get("jobs").unwrap().get("cancelled").unwrap().as_u64(), Some(2));
    assert_eq!(
        health.get("api").unwrap().get("version").unwrap().as_u64(),
        Some(critter_serve::API_VERSION)
    );

    server.shutdown();
    std::fs::remove_dir_all(&data_dir).unwrap();
}

/// Regression: cancelling a still-queued job must fully roll back its
/// tenant's queued-quota slot. A tenant at quota that cancels a queued job
/// can submit again immediately — the rejected→cancel→resubmit cycle that
/// used to wedge when cancellation left the quota slot occupied.
#[test]
fn cancelling_a_queued_job_frees_its_tenant_quota_slot() {
    let data_dir = temp_dir("quota");
    let mut config = ServerConfig::new(&data_dir);
    config.addr = "127.0.0.1:0".into();
    config.job_workers = 1;
    config.tenant_max_queued = 1;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();

    // Job A on the single worker; wait until it is running so it no
    // longer occupies the tenant's one queued slot.
    let (s, doc_a) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s, 202);
    let id_a = doc_a.get("id").unwrap().as_str().unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, doc) =
            client::request_json(addr, "GET", &format!("/v1/jobs/{id_a}"), None).unwrap();
        if doc.get("state").unwrap().as_str() == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job A never started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Job B takes the tenant's only queued slot; job C must bounce with a
    // typed `quota_exceeded` — and leave no trace behind.
    let (s, doc_b) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s, 202);
    let id_b = doc_b.get("id").unwrap().as_str().unwrap().to_string();
    let (s, doc_c) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s, 429, "tenant at max_queued must be rejected: {doc_c:?}");
    assert_eq!(doc_c.get("error").unwrap().get("code").unwrap().as_str(), Some("quota_exceeded"));
    let (_, list) = client::request_json(addr, "GET", "/v1/jobs", None).unwrap();
    assert_eq!(list.get("jobs").unwrap().as_array().unwrap().len(), 2);

    // The tenants document shows the quota in force and the live usage.
    let (s, tenants) = client::request_json(addr, "GET", "/v1/tenants", None).unwrap();
    assert_eq!(s, 200);
    assert_eq!(tenants.get("quotas").unwrap().get("max_queued").unwrap().as_u64(), Some(1));
    let usage = tenants.get("tenants").unwrap().get("default").unwrap();
    assert_eq!(usage.get("queued").unwrap().as_u64(), Some(1));
    assert_eq!(usage.get("running").unwrap().as_u64(), Some(1));

    // Cancel queued job B: it finalizes immediately (no unit boundary to
    // wait for) and releases the quota slot.
    let (s, doc) = client::request_json(addr, "DELETE", &format!("/v1/jobs/{id_b}"), None).unwrap();
    assert_eq!(s, 202);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("cancelled"), "queued cancel is immediate");

    // The regression assertion: the tenant can submit again right away.
    let (s, doc_d) = client::request_json(addr, "POST", "/v1/jobs", Some(LONG_JOB)).unwrap();
    assert_eq!(s, 202, "quota slot must be free after cancelling a queued job: {doc_d:?}");
    let id_d = doc_d.get("id").unwrap().as_str().unwrap().to_string();

    for id in [&id_a, &id_d] {
        let (s, _) = client::request_json(addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(s, 202);
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, list) = client::request_json(addr, "GET", "/v1/jobs", None).unwrap();
        let settled = list
            .get("jobs")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .all(|j| j.get("state").unwrap().as_str() == Some("cancelled"));
        if settled {
            break;
        }
        assert!(Instant::now() < deadline, "cancellation never completed: {list:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    std::fs::remove_dir_all(&data_dir).unwrap();
}

/// Regression: `Registry::set_state` used to append the `done` event —
/// waking every `/events` long-poll — before it flipped the job's state, so
/// a client that read `done` and fetched `/report` at once was told
/// `409 … is running; artifacts exist once it is done`. Two closed-loop
/// clients on two job workers (the `serve-small-jobs` benchmark shape) keep
/// the cores busy enough that the old window was hit on 1–7 of these 20
/// jobs in every one of 24 runs.
#[test]
fn report_answers_200_the_moment_the_done_event_is_visible() {
    const SMOKE_JOB: &str =
        r#"{"space": "slate-cholesky", "policy": "local", "smoke": true, "machine": "test"}"#;
    let data_dir = temp_dir("done-race");
    let mut config = ServerConfig::new(&data_dir);
    config.addr = "127.0.0.1:0".into();
    config.job_workers = 2;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();

    let one_client = || {
        let mut refused = Vec::new();
        for _ in 0..10 {
            let (s, doc) = client::request_json(addr, "POST", "/v1/jobs", Some(SMOKE_JOB)).unwrap();
            assert_eq!(s, 202);
            let id = doc.get("id").unwrap().as_str().unwrap().to_string();
            let mut since = 0;
            'follow: loop {
                let path = format!("/v1/jobs/{id}/events?since={since}&wait_ms=5000");
                let (s, doc) = client::request_json(addr, "GET", &path, None).unwrap();
                assert_eq!(s, 200);
                for event in doc.get("events").unwrap().as_array().unwrap() {
                    match event.get("state").and_then(|s| s.as_str()) {
                        Some("done") => break 'follow,
                        Some(state) => assert_ne!(state, "failed", "{id} failed"),
                        None => {}
                    }
                }
                since = doc.get("next").unwrap().as_u64().unwrap();
            }
            let report = format!("/v1/jobs/{id}/report");
            let (s, body) = client::request(addr, "GET", &report, None).unwrap();
            if s != 200 {
                refused.push(format!("{id}: {s} {body}"));
            }
        }
        refused
    };
    let refused: Vec<String> = std::thread::scope(|scope| {
        let clients = [scope.spawn(one_client), scope.spawn(one_client)];
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    assert!(refused.is_empty(), "`done` was visible before the report was: {refused:#?}");

    server.shutdown();
    std::fs::remove_dir_all(&data_dir).unwrap();
}
