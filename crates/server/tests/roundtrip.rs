//! End-to-end round trips against a live `tempo-server` over TCP:
//! spawn on an ephemeral port, drive the line protocol from real client
//! sockets (including concurrently), and shut down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tempo_server::{spawn, ServerConfig};

/// A tiny blocking client for the `OK <n>` / `ERR …` line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Sends one request and returns `(status_line, payload_lines)`. The
    /// status line is `OK <n> [epoch=<e>]` or `ERR <message>`; the payload
    /// count is the second whitespace-separated token.
    fn request(&mut self, line: &str) -> (String, Vec<String>) {
        writeln!(self.writer, "{line}").expect("write request");
        self.writer.flush().expect("flush request");
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("read status");
        let status = status.trim_end().to_owned();
        let mut payload = Vec::new();
        if let Some(rest) = status.strip_prefix("OK ") {
            let n: usize = rest
                .split_whitespace()
                .next()
                .unwrap_or("")
                .parse()
                .unwrap_or_else(|_| panic!("bad count: {status}"));
            for _ in 0..n {
                let mut l = String::new();
                self.reader.read_line(&mut l).expect("read payload line");
                payload.push(l.trim_end().to_owned());
            }
        }
        (status, payload)
    }

    /// The `epoch=<e>` token of an `OK` status line, if present.
    fn epoch_of(status: &str) -> Option<u64> {
        status
            .split_whitespace()
            .find_map(|t| t.strip_prefix("epoch="))
            .map(|e| e.parse().expect("epoch parses"))
    }
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    }
}

#[test]
fn protocol_roundtrip_and_graceful_shutdown() {
    let server = spawn(test_config()).expect("spawn server");
    let addr = server.addr();
    let mut c = Client::connect(addr);

    let (status, payload) = c.request("ping");
    assert_eq!(status, "OK 1");
    assert_eq!(payload, vec!["pong"]);

    let (status, payload) = c.request("generate g school seed=7");
    assert!(status.starts_with("OK "), "generate failed: {status}");
    assert_eq!(payload[0], "snapshot g registered");
    assert_eq!(Client::epoch_of(&status), Some(1));

    let (status, payload) = c.request("snapshots");
    assert_eq!(status, "OK 1");
    assert!(payload[0].starts_with("g  nodes="), "got {payload:?}");
    assert!(payload[0].ends_with("epoch=1"), "got {payload:?}");

    let (status, payload) = c.request("stats g");
    assert!(status.starts_with("OK "), "got {status}");
    assert_eq!(Client::epoch_of(&status), Some(1));
    assert!(
        payload.iter().any(|l| l.contains("odes")),
        "stats payload: {payload:?}"
    );

    let explore = "explore g event=growth semantics=union extend=new k=2 attrs=grade";
    let (status, explore_payload) = c.request(explore);
    assert!(status.starts_with("OK "), "explore failed: {status}");

    // request-scoped timeout: a zero budget must error, not hang
    let (status, _) = c.request(&format!("{explore} timeout_ms=0"));
    assert!(status.starts_with("ERR timeout:"), "got {status}");

    // compat pin: `shards=` selected an evaluator that no longer exists;
    // an old client that still sends it gets the plain answer
    let (status, payload) = c.request(&format!("{explore} shards=4"));
    assert!(status.starts_with("OK "), "got {status}");
    assert_eq!(payload, explore_payload);

    // request-scoped row limit: payload truncated with a marker line
    let (status, payload) = c.request("stats g limit=1");
    assert_eq!(status, "OK 2 epoch=1", "got {status}");
    assert!(
        payload[1].contains("more rows (limit 1)"),
        "got {payload:?}"
    );

    let (status, payload) = c.request("metrics");
    assert!(status.starts_with("OK "), "got {status}");
    let text = payload.join("\n");
    assert!(
        text.contains("graphtempo_server_requests_total"),
        "metrics missing counter:\n{text}"
    );
    assert!(
        text.contains("graphtempo_server_timeouts_total"),
        "metrics missing timeouts:\n{text}"
    );

    let (status, _) = c.request("bogus-command g");
    assert!(status.starts_with("ERR "), "got {status}");

    // a second connection sees the same registry
    let mut c2 = Client::connect(addr);
    let (status, _) = c2.request("stats g");
    assert!(status.starts_with("OK "), "second client: {status}");

    let (status, _) = c.request("drop g");
    assert_eq!(status, "OK 1");
    let (status, _) = c.request("stats g");
    assert!(status.starts_with("ERR "), "dropped snapshot still served");

    let (status, _) = c.request("shutdown");
    assert_eq!(status, "OK 1");
    // join returns only when the accept loop and workers have wound down
    server.join();
}

/// A newline-free flood must not grow server memory with the line: past
/// `MAX_REQUEST_BYTES` the bytes are dropped as they arrive, the line is
/// refused once its newline comes, and the next request is served.
#[test]
fn oversized_request_line_is_refused_and_the_connection_survives() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());

    let flood = "x".repeat(4 << 20);
    assert!(flood.len() > tempo_server::MAX_REQUEST_BYTES);
    let (status, payload) = c.request(&flood);
    assert!(status.starts_with("ERR too_long"), "got {status}");
    assert!(payload.is_empty());

    let (status, payload) = c.request("ping");
    assert_eq!(
        (status.as_str(), payload),
        ("OK 1", vec!["pong".to_owned()])
    );

    server.shutdown();
}

/// A quoted argument is one token however much whitespace it holds: the
/// server hands the session the tokens it split, not a rebuilt line to
/// split again (a tab inside the quotes used to cut the path in two).
#[test]
fn quoted_argument_with_a_tab_stays_one_token() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let dir = std::env::temp_dir().join(format!("tempo_server_tab\tdir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("utf-8 temp dir");

    let (status, _) = c.request("generate g school seed=7");
    assert!(status.starts_with("OK "), "got {status}");
    let (status, payload) = c.request(&format!("save g \"{path}\""));
    assert!(status.starts_with("OK "), "got {status} {payload:?}");
    assert!(dir.is_dir(), "saved somewhere other than {path:?}");
    let (status, payload) = c.request(&format!("load h \"{path}\""));
    assert!(status.starts_with("OK "), "got {status} {payload:?}");
    let (_, g_stats) = c.request("stats g");
    let (_, h_stats) = c.request("stats h");
    assert_eq!(g_stats, h_stats);

    std::fs::remove_dir_all(&dir).expect("remove the saved snapshot");
    server.shutdown();
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let server = spawn(test_config()).expect("spawn server");
    let addr = server.addr();

    let mut setup = Client::connect(addr);
    let (status, _) = setup.request("generate g school seed=11");
    assert!(status.starts_with("OK "), "generate failed: {status}");

    let queries = [
        "stats g",
        "schema g",
        "agg g dist attrs=grade",
        "explore g event=growth semantics=union extend=new k=2 attrs=grade",
        "suggest g event=stability semantics=intersect extend=old attrs=grade",
    ];
    let reference: Vec<(String, Vec<String>)> = queries.iter().map(|q| setup.request(q)).collect();

    let results: Vec<Vec<(String, Vec<String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::connect(addr);
                    let mut out = Vec::new();
                    for _ in 0..4 {
                        for q in &queries {
                            out.push(c.request(q));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (i, per_client) in results.iter().enumerate() {
        for (j, got) in per_client.iter().enumerate() {
            let want = &reference[j % queries.len()];
            assert_eq!(got, want, "client {i} request {j} diverged");
        }
    }

    server.shutdown();
}

/// The tentpole's live-ingest contract: `append` swaps the registry entry
/// atomically while other clients keep querying — every concurrent query
/// succeeds against *some* published epoch, the epochs each client observes
/// are monotone, and afterwards the snapshot has all appended timepoints.
#[test]
fn append_roundtrip_while_queries_continue() {
    const APPENDS: usize = 6;
    let server = spawn(test_config()).expect("spawn server");
    let addr = server.addr();

    let mut setup = Client::connect(addr);
    let (status, _) = setup.request("generate g school seed=5");
    assert!(status.starts_with("OK "), "generate failed: {status}");
    let (_, payload) = setup.request("snapshots");
    let timepoints_of = |line: &str| -> usize {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix("timepoints="))
            .expect("snapshots line has timepoints=")
            .parse()
            .expect("timepoints parses")
    };
    let base_points = timepoints_of(&payload[0]);

    std::thread::scope(|s| {
        // writer: append new timepoints one by one, each bumping the epoch
        let writer = s.spawn(move || {
            let mut w = Client::connect(addr);
            for i in 0..APPENDS {
                let line =
                    format!("append g live{i} node=ing{i}a node=ing{i}b edge=ing{i}a,ing{i}b");
                let (status, payload) = w.request(&line);
                assert!(status.starts_with("OK "), "append {i} failed: {status}");
                assert_eq!(Client::epoch_of(&status), Some(2 + i as u64));
                assert!(payload[0].contains(&format!("appended live{i}")));
            }
        });
        // readers: hammer queries the whole time; every answer must come
        // from a published epoch, observed in monotone order per client
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut last_epoch = 0;
                    for _ in 0..30 {
                        let (status, payload) = c.request("stats g");
                        assert!(status.starts_with("OK "), "query failed: {status}");
                        assert!(!payload.is_empty());
                        let e = Client::epoch_of(&status).expect("query carries epoch");
                        assert!(e >= last_epoch, "epoch went backwards: {e} < {last_epoch}");
                        last_epoch = e;
                    }
                })
            })
            .collect();
        writer.join().expect("writer thread");
        for r in readers {
            r.join().expect("reader thread");
        }
    });

    // all appended points landed, exactly once each
    let (status, payload) = setup.request("snapshots");
    assert_eq!(status, "OK 1");
    assert_eq!(timepoints_of(&payload[0]), base_points + APPENDS);
    assert!(
        payload[0].ends_with(&format!("epoch={}", 1 + APPENDS)),
        "got {payload:?}"
    );
    let (status, payload) = setup.request("stats g");
    assert_eq!(Client::epoch_of(&status), Some(1 + APPENDS as u64));
    let text = payload.join("\n");
    for i in 0..APPENDS {
        assert!(
            text.contains(&format!("live{i}")),
            "missing live{i}:\n{text}"
        );
    }

    server.shutdown();
}
