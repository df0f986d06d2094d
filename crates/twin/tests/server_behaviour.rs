//! The server contract under concurrency: pinned queries are
//! deterministic however many clients race, misbehaving clients
//! (mid-query disconnects, slow readers) never stall the live twin,
//! fork resources do not leak, and the bounded queue answers
//! `overloaded` instead of queueing unboundedly.

use disktwin::{query_line, ServerConfig, Twin, TwinConfig, TwinServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_twin() -> Twin {
    let preset = workloads::oltp();
    Twin::new(TwinConfig::preset(preset, 2)).expect("twin builds")
}

fn start_server(cfg: ServerConfig) -> TwinServer {
    TwinServer::start(test_twin(), cfg).expect("server starts")
}

fn wait_for_epoch(server: &TwinServer, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.epoch() < epoch {
        assert!(Instant::now() < deadline, "twin never reached epoch {epoch}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

const QUERY_TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn pinned_queries_return_byte_identical_answers_across_racing_clients() {
    let server = start_server(ServerConfig {
        epoch_interval_ms: 1,
        ..ServerConfig::default()
    });
    wait_for_epoch(&server, 2);
    let addr = server.addr().to_string();
    let line = r#"{"cmd":"whatif","inlet_delta_c":5.0,"horizon_epochs":2,"at_epoch":2}"#;

    let answers: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || query_line(&addr, line, QUERY_TIMEOUT).expect("query answers"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });

    assert!(
        answers[0].contains("\"from_epoch\":2"),
        "the answer is pinned to the requested epoch: {}",
        &answers[0][..answers[0].len().min(200)]
    );
    assert_eq!(answers[0], answers[1], "racing clients agree byte-for-byte");
    assert_eq!(answers[1], answers[2], "racing clients agree byte-for-byte");

    // The same pinned query later — after the live twin has moved on —
    // still returns the same bytes.
    wait_for_epoch(&server, 6);
    let again = query_line(&addr, line, QUERY_TIMEOUT).expect("late query answers");
    assert_eq!(answers[0], again, "pinned answers are stable over time");
    server.stop();
}

#[test]
fn disconnects_and_slow_readers_do_not_stall_the_twin_or_leak() {
    let server = start_server(ServerConfig {
        epoch_interval_ms: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    wait_for_epoch(&server, 1);

    // A client that fires a long query and vanishes mid-flight.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"{\"cmd\":\"whatif\",\"traffic_scale\":1.3,\"horizon_epochs\":40}\n")
            .expect("send");
        // Drop without reading the response.
    }

    // A slow reader: sends a query, then sits on the open socket
    // without reading for a while.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"{\"cmd\":\"whatif\",\"inlet_delta_c\":2.0,\"horizon_epochs\":2}\n")
        .expect("send");

    // Meanwhile the live twin must keep advancing.
    let before = server.epoch();
    wait_for_epoch(&server, before + 5);

    // The slow reader eventually reads its complete answer.
    let mut reader = BufReader::new(slow.try_clone().expect("clone"));
    let mut line = String::new();
    slow.set_read_timeout(Some(QUERY_TIMEOUT)).expect("timeout");
    reader.read_line(&mut line).expect("slow reader still gets its answer");
    assert!(line.contains("\"perturbed\""), "got a real report: {line}");
    drop(reader);
    drop(slow);

    // Handler threads drain back to zero: no leaked connections.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.connection_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "connection handlers leaked: {} still alive",
            server.connection_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Forks come in baseline+perturbed pairs; an abandoned query leaks
    // nothing (its forks are plain values dropped with the handler).
    assert_eq!(server.forks() % 2, 0, "forks are created in pairs");
    server.stop();
}

#[test]
fn bounded_queue_answers_overloaded_instead_of_queueing() {
    let server = start_server(ServerConfig {
        epoch_interval_ms: 1,
        max_inflight: 1,
        ..ServerConfig::default()
    });
    wait_for_epoch(&server, 1);
    let addr = server.addr().to_string();
    // Long-horizon queries so the one admitted query occupies the slot
    // while the rest arrive.
    let line = r#"{"cmd":"whatif","traffic_scale":1.1,"horizon_epochs":60}"#;

    let answers: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || query_line(&addr, line, QUERY_TIMEOUT).expect("query answers"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });

    let ok = answers.iter().filter(|a| a.contains("\"perturbed\"")).count();
    let overloaded = answers.iter().filter(|a| a.contains("\"overloaded\"")).count();
    assert_eq!(ok + overloaded, answers.len(), "every answer is typed: {answers:?}");
    assert!(ok >= 1, "at least one query is admitted");
    assert!(overloaded >= 1, "back-pressure must reject past the bound");
    server.stop();
}

#[test]
fn malformed_requests_get_typed_errors_and_shutdown_checkpoints() {
    let dir = std::env::temp_dir().join(format!("disktwin-srv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("final.ckpt");
    let server = start_server(ServerConfig {
        epoch_interval_ms: 1,
        checkpoint_path: Some(ckpt.clone()),
        ..ServerConfig::default()
    });
    wait_for_epoch(&server, 1);
    let addr = server.addr().to_string();

    let bad = query_line(&addr, r#"{"cmd":"frobnicate"}"#, QUERY_TIMEOUT).expect("answers");
    assert!(bad.contains("\"bad_query\""), "unknown command is typed: {bad}");
    let garbled = query_line(&addr, "this is not json", QUERY_TIMEOUT).expect("answers");
    assert!(garbled.contains("\"bad_query\""), "parse failure is typed: {garbled}");
    let status = query_line(&addr, r#"{"cmd":"status"}"#, QUERY_TIMEOUT).expect("answers");
    assert!(status.contains("\"enclosures\":2"), "status reports the fleet: {status}");
    let metrics = query_line(&addr, r#"{"cmd":"metrics"}"#, QUERY_TIMEOUT).expect("answers");
    assert!(metrics.contains("\"counters\""), "metrics export the registry: {metrics}");

    // An on-demand checkpoint, then a client-driven shutdown that
    // flushes a final one.
    let ck = query_line(&addr, r#"{"cmd":"checkpoint"}"#, QUERY_TIMEOUT).expect("answers");
    assert!(ck.contains("\"bytes\""), "checkpoint reports its size: {ck}");
    let bye = query_line(&addr, r#"{"cmd":"shutdown"}"#, QUERY_TIMEOUT).expect("answers");
    assert!(bye.contains("\"ok\":true"), "shutdown acknowledges: {bye}");
    server.join();

    let final_state = disktwin::read_checkpoint(&ckpt).expect("final checkpoint readable");
    assert!(final_state.epoch() >= 1, "the final checkpoint is warm");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sequential_round_trips_on_one_connection_do_not_stall() {
    // A reply written as the line and then its newline holds the
    // newline until the client's delayed ACK: about 40 ms a round trip,
    // 2 s for these 50. Each reply must leave as one no-delay write.
    let server = start_server(ServerConfig::default());
    wait_for_epoch(&server, 1);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("no delay");
    stream.set_read_timeout(Some(QUERY_TIMEOUT)).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let started = Instant::now();
    for round in 0..50 {
        // Alternate the two commands that answer without a fork.
        let (query, expect) = if round % 2 == 0 {
            ("{\"cmd\":\"status\"}\n", "\"epoch\"")
        } else {
            ("{\"cmd\":\"metrics\"}\n", "\"counters\"")
        };
        writer.write_all(query.as_bytes()).expect("send");
        line.clear();
        reader.read_line(&mut line).expect("answer");
        assert!(line.contains(expect), "round {round} answered {line}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 round trips took {elapsed:?}; replies are stalling"
    );
    server.stop();
}
