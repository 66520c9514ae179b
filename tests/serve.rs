//! Loopback integration tests for the pf-serve TCP front end: a real
//! `Server` bound to 127.0.0.1, driven over JSON lines exactly like an
//! external client.

use parafactor::serve::json::parse;
use parafactor::serve::{request_lines, Json, Server, ServiceConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn start(cfg: ServiceConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: SocketAddr) -> Json {
    let responses =
        request_lines(addr, &[r#"{"op":"shutdown"}"#.to_string()]).expect("shutdown round-trip");
    parse(&responses[0]).expect("shutdown response is json")
}

fn assert_balanced(metrics: &Json) {
    let get = |k: &str| {
        metrics
            .get(k)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics missing {k}: {metrics}"))
    };
    assert_eq!(
        get("submitted"),
        get("accepted")
            + get("rejected_full")
            + get("rejected_shutdown")
            + get("rejected_invalid")
            + get("quarantined"),
        "submission side out of balance: {metrics}"
    );
    assert_eq!(
        get("accepted"),
        get("completed") + get("timed_out") + get("failed") + get("drained"),
        "outcome side out of balance: {metrics}"
    );
}

#[test]
fn burst_of_32_jobs_spanning_all_algorithms() {
    let (addr, handle) = start(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    let algorithms = ["seq", "replicated", "independent", "lshaped"];
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let alg = algorithms[i % algorithms.len()];
                s.spawn(move || {
                    let line = format!(
                        r#"{{"op":"submit","algorithm":"{alg}","workload":"gen:misex3@0.05","procs":2}}"#
                    );
                    let r = request_lines(addr, &[line]).expect("submit round-trip");
                    parse(&r[0]).expect("response is json")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &responses {
        assert_eq!(
            r.get("status").and_then(Json::as_str),
            Some("completed"),
            "{r}"
        );
        // Every response carries per-job metrics: queue wait, run time,
        // literal savings.
        let m = r
            .get("metrics")
            .unwrap_or_else(|| panic!("no metrics: {r}"));
        assert!(
            m.get("queue_wait_us").and_then(Json::as_u64).is_some(),
            "{r}"
        );
        assert!(m.get("run_us").and_then(Json::as_u64).unwrap() > 0, "{r}");
        assert!(m.get("saved").and_then(Json::as_f64).is_some(), "{r}");
        assert!(
            m.get("lc_before").and_then(Json::as_u64).unwrap() > 0,
            "{r}"
        );
    }
    let final_snapshot = shutdown(addr);
    let metrics = final_snapshot.get("metrics").expect("final metrics");
    assert_eq!(metrics.get("submitted").and_then(Json::as_u64), Some(32));
    assert_eq!(metrics.get("completed").and_then(Json::as_u64), Some(32));
    assert_balanced(metrics);
    // All four algorithms actually ran.
    let algs = metrics.get("algorithms").expect("per-algorithm metrics");
    for alg in algorithms {
        assert_eq!(
            algs.get(alg)
                .and_then(|a| a.get("runs"))
                .and_then(Json::as_u64),
            Some(8),
            "{alg}: {metrics}"
        );
    }
    handle.join().unwrap();
}

#[test]
fn deadline_expiry_is_a_structured_timeout_and_the_pool_survives() {
    let (addr, handle) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    // Both requests ride one connection, so the follow-up job runs on the
    // same (sole) worker that just serviced the timed-out job.
    let responses = request_lines(
        addr,
        &[
            r#"{"op":"submit","algorithm":"lshaped","workload":"gen:dalu@0.3","procs":2,"deadline_ms":1}"#
                .to_string(),
            r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05"}"#.to_string(),
        ],
    )
    .expect("protocol round-trip");
    let timed_out = parse(&responses[0]).unwrap();
    assert_eq!(
        timed_out.get("status").and_then(Json::as_str),
        Some("timed_out"),
        "{timed_out}"
    );
    assert!(timed_out.get("error").and_then(Json::as_str).is_some());
    // Partial metrics still come back with a timeout.
    assert!(timed_out.get("metrics").is_some(), "{timed_out}");
    let next = parse(&responses[1]).unwrap();
    assert_eq!(
        next.get("status").and_then(Json::as_str),
        Some("completed"),
        "pool poisoned by the timeout: {next}"
    );
    let metrics = shutdown(addr);
    let metrics = metrics.get("metrics").unwrap();
    assert_eq!(metrics.get("timed_out").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("completed").and_then(Json::as_u64), Some(1));
    assert_balanced(metrics);
    handle.join().unwrap();
}

#[test]
fn oversized_tile_width_is_rejected_and_the_service_survives() {
    let (addr, handle) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    // A tile width of 2^40 words would ask the search for a panel of
    // terabytes; one such request must not take the process down.
    let responses = request_lines(
        addr,
        &[
            r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05","tile_width":1099511627776}"#
                .to_string(),
            r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05"}"#.to_string(),
        ],
    )
    .expect("protocol round-trip");
    let rejected = parse(&responses[0]).unwrap();
    assert_eq!(
        rejected.get("status").and_then(Json::as_str),
        Some("rejected"),
        "{rejected}"
    );
    assert_eq!(
        rejected.get("reason").and_then(Json::as_str),
        Some("invalid")
    );
    let next = parse(&responses[1]).unwrap();
    assert_eq!(
        next.get("status").and_then(Json::as_str),
        Some("completed"),
        "{next}"
    );
    let metrics = shutdown(addr);
    let metrics = metrics.get("metrics").unwrap();
    assert_eq!(
        metrics.get("rejected_invalid").and_then(Json::as_u64),
        Some(1)
    );
    assert_balanced(metrics);
    handle.join().unwrap();
}

/// A line nested 10 000 levels deep (10 kB, far under the line cap)
/// overflowed the parser's stack on the connection thread and aborted
/// the process. It must get an error line, and the server must go on
/// answering new connections.
#[test]
fn deeply_nested_json_gets_an_error_and_the_service_survives() {
    let (addr, handle) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let responses = request_lines(addr, &["[".repeat(10_000)]).expect("protocol round-trip");
    let refused = parse(&responses[0]).unwrap();
    assert_eq!(
        refused.get("status").and_then(Json::as_str),
        Some("error"),
        "{refused}"
    );
    let pong = request_lines(addr, &[r#"{"op":"ping"}"#.to_string()]).expect("ping round-trip");
    let pong = parse(&pong[0]).unwrap();
    assert_eq!(
        pong.get("status").and_then(Json::as_str),
        Some("ok"),
        "{pong}"
    );
    assert_balanced(shutdown(addr).get("metrics").unwrap());
    handle.join().unwrap();
}

#[test]
fn queue_full_burst_gets_backpressure_rejections() {
    let (addr, handle) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                s.spawn(move || {
                    let line = r#"{"op":"submit","algorithm":"seq","workload":"gen:dalu@0.25"}"#
                        .to_string();
                    let r = request_lines(addr, &[line]).expect("submit round-trip");
                    parse(&r[0]).expect("response is json")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut completed = 0;
    let mut rejected_full = 0;
    for r in &responses {
        match r.get("status").and_then(Json::as_str) {
            Some("completed") => completed += 1,
            Some("rejected") => {
                assert_eq!(
                    r.get("reason").and_then(Json::as_str),
                    Some("queue_full"),
                    "{r}"
                );
                assert_eq!(r.get("capacity").and_then(Json::as_u64), Some(1), "{r}");
                rejected_full += 1;
            }
            other => panic!("unexpected status {other:?}: {r}"),
        }
    }
    assert!(completed >= 1, "no job got through the burst");
    assert!(
        rejected_full >= 1,
        "burst of 12 against capacity 1 never hit backpressure"
    );
    let metrics = shutdown(addr);
    let metrics = metrics.get("metrics").unwrap();
    assert_eq!(metrics.get("submitted").and_then(Json::as_u64), Some(12));
    assert_eq!(
        metrics.get("rejected_full").and_then(Json::as_u64),
        Some(rejected_full)
    );
    assert_balanced(metrics);
    handle.join().unwrap();
}

#[test]
fn two_racing_shutdowns_both_get_a_final_snapshot() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    // Open both connections before firing either request so the two
    // shutdown ops genuinely race inside the server.
    let mut a = std::net::TcpStream::connect(addr).expect("connect a");
    let mut b = std::net::TcpStream::connect(addr).expect("connect b");
    a.write_all(b"{\"op\":\"shutdown\"}\n").expect("send a");
    b.write_all(b"{\"op\":\"shutdown\"}\n").expect("send b");
    for stream in [a, b] {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("read");
        let r = parse(&line).expect("shutdown response is json");
        // Shutdown is idempotent: the loser of the race still gets a
        // well-formed ok + snapshot, never an error or a dropped line.
        assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"), "{r}");
        assert_balanced(r.get("metrics").expect("snapshot"));
    }
    handle.join().unwrap();
}

#[test]
fn deaf_client_pipelining_submits_without_reading_does_not_wedge_the_server() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // Fire a pipeline of submits without draining a single response; a
    // server that answers synchronously into a small socket buffer must
    // not deadlock against a client that is not reading yet.
    for _ in 0..8 {
        stream
            .write_all(
                b"{\"op\":\"submit\",\"algorithm\":\"seq\",\"workload\":\"gen:misex3@0.05\"}\n",
            )
            .expect("pipelined submit");
    }
    let mut reader = BufReader::new(stream);
    for i in 0..8 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let r = parse(&line).unwrap_or_else(|e| panic!("response {i} not json ({e}): {line:?}"));
        assert_eq!(
            r.get("status").and_then(Json::as_str),
            Some("completed"),
            "{r}"
        );
    }
    drop(reader);
    let metrics = shutdown(addr);
    let metrics = metrics.get("metrics").unwrap();
    assert_eq!(metrics.get("completed").and_then(Json::as_u64), Some(8));
    assert_balanced(metrics);
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_jobs_and_the_final_snapshot_balances() {
    let (addr, handle) = start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    std::thread::scope(|s| {
        let submitters: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let line =
                        r#"{"op":"submit","algorithm":"independent","workload":"gen:dalu@0.2","procs":2}"#
                            .to_string();
                    let r = request_lines(addr, &[line]).expect("submit round-trip");
                    parse(&r[0]).expect("response is json")
                })
            })
            .collect();
        // Let the submissions land, then ask for a graceful shutdown
        // while some of them are still queued or running.
        std::thread::sleep(Duration::from_millis(50));
        let final_snapshot = shutdown(addr);
        let metrics = final_snapshot.get("metrics").expect("final metrics");
        // Graceful drain: every accepted job ran to an outcome; nothing
        // is left queued or in flight when the snapshot is taken.
        assert_eq!(metrics.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(metrics.get("in_flight").and_then(Json::as_f64), Some(0.0));
        assert_balanced(metrics);
        let mut completed = 0;
        for sub in submitters {
            let r = sub.join().unwrap();
            // A submitter that raced past the close gets a structured
            // shutting_down rejection; every accepted job must complete
            // (drained-not-dropped), never be abandoned.
            match r.get("status").and_then(Json::as_str) {
                Some("completed") => completed += 1,
                Some("rejected") => assert_eq!(
                    r.get("reason").and_then(Json::as_str),
                    Some("shutting_down"),
                    "{r}"
                ),
                other => panic!("unexpected status {other:?}: {r}"),
            }
        }
        assert!(completed >= 1, "no job was accepted before shutdown");
    });
    handle.join().unwrap();
}

/// The service side of the rare `serve_mix` verification failure. The
/// cache admits a miss's result before the worker writes that job's
/// response, so while connection A has not yet read its miss answer,
/// connection B can submit the same job and receive a hit. The hit
/// carries A's `lc_after` and A's network. A verifier that walks answers
/// in client-receive order and accepts a hit only after a matching miss
/// would fail this pair, though the service answered both correctly.
#[test]
fn a_hit_can_reach_its_client_before_the_miss_it_replays() {
    use parafactor::core::{extract_kernels, ExtractConfig};
    use parafactor::kcmatrix::network_digest;
    use parafactor::network::io::write_network;
    use parafactor::serve::job::resolve_workload;
    use parafactor::serve::{Algorithm, JobSpec};
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    const WORKLOAD: &str = "gen:misex3@0.1";
    let submit = format!(r#"{{"op":"submit","algorithm":"seq","workload":"{WORKLOAD}"}}"#);
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let client = server.client();
    let handle = std::thread::spawn(move || server.run());

    // Connection A submits and leaves its answer unread until the
    // cache holds A's result.
    let mut conn_a = std::net::TcpStream::connect(addr).expect("connect A");
    writeln!(conn_a, "{submit}").expect("send A");
    let cache = client.cache().expect("cache on by default");
    let deadline = Instant::now() + Duration::from_secs(60);
    while cache.is_empty() {
        assert!(Instant::now() < deadline, "A's miss was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Connection B submits the same job and reads its answer first.
    let b = request_lines(addr, std::slice::from_ref(&submit)).expect("B round-trip");
    let b = parse(&b[0]).expect("B's answer is json");
    let mut line = String::new();
    BufReader::new(&conn_a)
        .read_line(&mut line)
        .expect("read A");
    drop(conn_a);
    let a = parse(line.trim_end()).expect("A's answer is json");

    let metrics = |r: &Json| r.get("metrics").cloned().unwrap_or_else(|| panic!("{r}"));
    let (ma, mb) = (metrics(&a), metrics(&b));
    let phases = |m: &Json| match m.get("phases") {
        Some(Json::Obj(p)) => p.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("phases: {other:?}"),
    };
    assert!(!phases(&ma).contains(&"cache".to_string()), "A ran: {a}");
    assert_eq!(phases(&mb), ["cache"], "B is a hit: {b}");
    for key in ["lc_before", "lc_after", "extractions"] {
        assert_eq!(ma.get(key), mb.get(key), "{key}: A {a}, B {b}");
    }

    // B replayed the one resident entry, and that entry is A's network:
    // byte-identical to a cold in-process run of the same job.
    let spec = JobSpec::new(Algorithm::Seq, WORKLOAD);
    let mut cold = resolve_workload(WORKLOAD).expect("workload");
    let key = spec.cache_param_digest().combine(network_digest(&cold));
    let entry = cache.lookup(&key).expect("A's entry is resident");
    let report = extract_kernels(&mut cold, &[], &ExtractConfig::default());
    assert_eq!(write_network(&entry.network.unpack()), write_network(&cold));
    assert_eq!(
        ma.get("lc_after").and_then(Json::as_u64),
        Some(report.lc_after as u64)
    );
    assert_eq!(entry.lc_after, report.lc_after);

    let snapshot = shutdown(addr);
    let m = snapshot.get("metrics").expect("final metrics");
    assert_eq!(m.get("cache_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(m.get("cache_hits").and_then(Json::as_u64), Some(1));
    // A generated the circuit; B found it in the input memo.
    assert_eq!(m.get("cache_memo_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(m.get("cache_memo_hits").and_then(Json::as_u64), Some(1));
    assert_balanced(m);
    handle.join().unwrap();
}
