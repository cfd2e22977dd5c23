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
fn client_tokens_do_not_grow_the_metric_registry() {
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
        // drain the payload of an `OK <n> …` reply
        let n: usize = status
            .strip_prefix("OK ")
            .and_then(|rest| rest.split_whitespace().next())
            .map_or(0, |n| n.parse().expect("payload count"));
        for _ in 0..n {
            reader.read_line(&mut String::new()).expect("read payload");
        }
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

    // Nor may an argument: `cube` used to label a build histogram with the
    // client's attribute list, and the list may repeat names, so every
    // request could add an entry. A miss and a hit on a static and on a
    // time-varying level register everything the query path records.
    assert!(status_of("generate g school seed=3").starts_with("OK "));
    for level in ["grade", "grade", "intensity", "intensity"] {
        let status = status_of(&format!("cube g attrs=grade,intensity level={level}"));
        assert!(status.starts_with("OK "), "warm-up {level}: {status}");
    }
    let before = metric_names();
    let names = ["grade", "class", "intensity"];
    for i in 0..200 {
        // 200 distinct lists: a rotation of the three names, then `i`
        // repeats of one of them
        let mut attrs: Vec<&str> = (0..3).map(|k| names[(i + k) % 3]).collect();
        attrs.extend(vec![names[i % 3]; i]);
        let request = format!("cube g attrs={} level={}", attrs.join(","), names[i % 3]);
        let status = status_of(&request);
        assert!(status.starts_with("OK "), "{request}: {status}");
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
