//! The process-wide metrics registry only ever grows, so a client must not
//! be able to name its entries. This is the only test in its binary: the
//! metric count it compares is the whole process's.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tempo_server::{spawn, ServerConfig};

fn metric_names() -> Vec<String> {
    let snap = tempo_instrument::global().snapshot();
    let mut names: Vec<String> = snap.counters.iter().map(|(n, _)| n.clone()).collect();
    names.extend(snap.gauges.iter().map(|(n, _)| n.clone()));
    names.extend(snap.histograms.iter().map(|(n, _)| n.clone()));
    names
}

#[test]
fn junk_commands_do_not_grow_the_metric_registry() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let stream = TcpStream::connect(server.addr()).expect("connect to test server");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut status_of = |line: &str| {
        // one write per request: a line and its newline sent apart wait
        // out a delayed ACK each
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut status = String::new();
        reader.read_line(&mut status).expect("read status");
        status
    };

    // one unknown command registers everything the error path records
    assert!(status_of("junk-warmup g").starts_with("ERR "));
    let before = metric_names();
    assert!(before.iter().any(|n| n == "server.cmd.unknown_ns"));

    for i in 0..1000 {
        let status = status_of(&format!("junk{i} g attrs=x"));
        assert!(status.starts_with("ERR "), "junk{i}: {status}");
    }

    let after = metric_names();
    assert_eq!(after.len(), before.len(), "new metrics: {after:?}");
    for name in &after {
        assert!(
            tempo_instrument::names::is_registered(name),
            "{name} is not in names::ALL"
        );
    }
    server.shutdown();
}
