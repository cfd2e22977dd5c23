//! End-to-end round trips against a live `tempo-server` over TCP:
//! spawn on an ephemeral port, drive the line protocol from real client
//! sockets (including concurrently), and shut down cleanly.

use graphtempo_cli::command::{Front, COMMANDS};
use graphtempo_cli::{CliError, Session};
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

/// The series a `metrics` payload names: each sample line up to its labels
/// or value. (Which `le=` buckets a histogram shows moves with its samples;
/// which series exist must not move at all.)
fn series_names(payload: &[String]) -> std::collections::BTreeSet<String> {
    payload
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split(['{', ' ']).next())
        .map(str::to_owned)
        .collect()
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

    // the whole table from the first request on: every declared metric and
    // one histogram per served verb, touched or not
    let (status, payload) = c.request("metrics");
    assert!(status.starts_with("OK "), "got {status}");
    let series = series_names(&payload);
    for name in [
        "graphtempo_explore_match_cols_hits_total",
        "graphtempo_server_request_ns_count",
        "graphtempo_server_cmd_cube_ns_count",
        "graphtempo_server_cmd_unknown_ns_count",
    ] {
        assert!(series.contains(name), "{name} missing: {series:?}");
    }

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
    let (status, _) = c.request(explore);
    assert!(status.starts_with("OK "), "explore failed: {status}");

    // request-scoped timeout: a zero budget must error, not hang
    let (status, _) = c.request(&format!("{explore} timeout_ms=0"));
    assert!(status.starts_with("ERR timeout:"), "got {status}");

    // neither a client's verb nor its arguments name a series: 100 junk
    // verbs and all 15 ordered attribute lists later the table is the same
    for i in 0..100 {
        let (status, _) = c.request(&format!("junk{i} g attrs=x"));
        assert!(status.starts_with("ERR "), "junk{i}: {status}");
    }
    let names = ["grade", "class", "intensity"];
    let others = |used: &[&str]| {
        names
            .into_iter()
            .filter(|n| !used.contains(n))
            .collect::<Vec<_>>()
    };
    let mut lists: Vec<Vec<&str>> = Vec::new();
    for a in names {
        lists.push(vec![a]);
        for b in others(&[a]) {
            lists.push(vec![a, b]);
            lists.extend(others(&[a, b]).into_iter().map(|c| vec![a, b, c]));
        }
    }
    assert_eq!(lists.len(), 15);
    for attrs in &lists {
        let request = format!("cube g attrs={} level={}", attrs.join(","), attrs[0]);
        let (status, _) = c.request(&request);
        assert!(status.starts_with("OK "), "{request}: {status}");
    }
    let (status, payload) = c.request("metrics");
    assert!(status.starts_with("OK "), "got {status}");
    assert_eq!(series_names(&payload), series);
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
/// split again (a tab inside the quotes used to cut the path in two). Nor
/// does a `=` make a path a keyed argument: only a key the verb reads does.
#[test]
fn quoted_argument_with_a_tab_stays_one_token() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let dir = std::env::temp_dir().join(format!("tempo_server_tab\tdir=a_{}", std::process::id()));
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

    // the shell reads the same grammar
    let mut shell = Session::new();
    shell
        .exec(&format!("load \"{path}\""))
        .expect("shell load of a path with a tab and a `=`");
    assert_eq!(shell.exec("stats").expect("stats"), g_stats.join("\n"));
    std::fs::remove_dir_all(&dir).expect("remove the saved snapshot");
    shell
        .exec(&format!("save \"{path}\""))
        .expect("shell save to a path with a tab and a `=`");
    assert!(dir.is_dir(), "saved somewhere other than {path:?}");

    std::fs::remove_dir_all(&dir).expect("remove the saved snapshot");
    server.shutdown();
}

/// The row limit applies once, to a reply's rows: the summary line stays,
/// exactly `limit` rows follow, one note says how many went, and
/// `server.rows_truncated` advances by that many. (The session used to
/// truncate the pairs and append its note, then the server truncated the
/// *lines* again: `limit=3` answered two pairs and "2 more rows".) This is
/// the only test of this binary that trips a limit, so the counter deltas
/// are exact.
#[test]
fn row_limit_applies_once_to_the_rows() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let (status, _) = c.request("generate g school seed=5");
    assert!(status.starts_with("OK "), "generate failed: {status}");
    let truncated = || {
        tempo_instrument::global()
            .snapshot()
            .counter("server.rows_truncated")
    };

    let explore = "explore g event=growth semantics=union extend=new k=2 attrs=grade";
    let (status, full) = c.request(explore);
    assert_eq!(status, "OK 10 epoch=1");
    assert!(full[0].starts_with("9 qualifying"), "got {full:?}");

    let before = truncated();
    let (status, payload) = c.request(&format!("{explore} limit=3"));
    assert_eq!(status, "OK 5 epoch=1");
    assert_eq!(payload[..4], full[..4]);
    assert_eq!(payload[4], "… 6 more rows (limit 3)");
    assert_eq!(truncated(), before + 6);

    let (status, payload) = c.request(&format!("{explore} limit=0"));
    assert_eq!(status, "OK 2 epoch=1");
    assert_eq!(payload, [full[0].as_str(), "… 9 more rows (limit 0)"]);
    assert_eq!(truncated(), before + 15);

    // `stats` has no summary line: all four of its lines are rows
    let (status, payload) = c.request("stats g limit=1");
    assert_eq!(status, "OK 2 epoch=1", "got {status}");
    assert!(payload[0].starts_with("#TP"), "got {payload:?}");
    assert_eq!(payload[1], "… 3 more rows (limit 1)");
    assert_eq!(truncated(), before + 18);

    // a limit nothing trips changes nothing
    let (status, payload) = c.request(&format!("{explore} limit=9"));
    assert_eq!((status.as_str(), &payload), ("OK 10 epoch=1", &full));
    assert_eq!(truncated(), before + 18);

    server.shutdown();
}

/// An argument nobody reads is a usage error naming the verb — in the
/// shell and on the wire, which read one grammar — not an `OK` computed
/// from the default. Each case is `(verb, shell arguments, wire arguments)`.
#[test]
fn arguments_nobody_reads_are_usage_errors() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let mut shell = Session::new();
    let (status, _) = c.request("generate g school seed=5");
    assert!(status.starts_with("OK "), "generate failed: {status}");
    shell
        .exec("generate school seed=5")
        .expect("shell generate");

    let explore = "event=growth semantics=union extend=new k=2 attrs=grade";
    let cases: Vec<(&str, String)> = vec![
        // a key the verb does not list
        ("explore", format!("{explore} frob=1")),
        ("explore", format!("{explore} shards=4")),
        ("agg", "dist attrs=grade tpo=2".into()),
        ("measure", "group=grade nod=avg:intensity".into()),
        ("suggest", explore.to_owned()), // `k=` is explore's
        ("stats", "limt=1".into()),
        // a value outside the choices (a default used to step in for `extend=`)
        ("solve", "k=2 attrs=grade extend=odl".into()),
        ("measure", "group=grade edge=cnt".into()),
        // a categorical attribute read as a number (the filter used to
        // compare category codes and `sum` / `avg` answered 0 or nothing)
        ("evolution", "t1=#0 t2=#1 attrs=grade filter=grade<1".into()),
        ("evolution", "t1=#0 t2=#1 attrs=grade filter=class>0".into()),
        ("measure", "group=grade node=sum:grade".into()),
        ("measure", "group=grade node=avg:class".into()),
        // keys that exclude each other, or that only mean something together
        (
            "cube",
            "attrs=grade,intensity level=grade t=#1 scope=#2..#3".into(),
        ),
        ("explore", format!("{explore} edge=G1->G2 node=G1")),
        ("agg", "dist attrs=grade t1=#0".into()),
        ("agg", "dist attrs=grade op=union t1=#0".into()),
        // a key given twice (the first used to win, silently)
        ("agg", "dist attrs=grade attrs=intensity".into()),
        ("explore", format!("{explore} k=3")),
        ("stats", "limit=1 limit=2".into()),
        // surplus and missing positionals
        ("stats", "extra".into()),
        ("project", "#0 #1 #2".into()),
        ("union", "#0 #1 #2".into()),
        ("union", "#0".into()),
        ("save", "".into()),
        ("append", "".into()),
        ("append", "w1 frob=1".into()),
    ];
    for (verb, args) in &cases {
        let line = format!("{verb} {args}");
        match shell.exec(&line) {
            Err(CliError::Usage(usage)) => {
                assert!(usage.starts_with(verb), "shell `{line}`: usage: {usage}");
            }
            other => panic!("shell `{line}`: {other:?}"),
        }
        let line = format!("{verb} g {args}");
        let (status, _) = c.request(&line);
        assert!(
            status.starts_with(&format!("ERR usage: {verb} <snapshot>")),
            "wire `{line}`: {status}"
        );
    }
    // the verbs whose wire form differs from the shell's by more than the
    // snapshot, and the server's own
    for (verb, shell_line, wire_line) in [
        (
            "generate",
            "generate random sede=3",
            "generate h random sede=3",
        ),
        (
            "generate",
            "generate school scale=0.5",
            "generate h school scale=0.5",
        ),
        ("load", "load", "load h"),
        (
            "zoom",
            "zoom window=2 semantics=al",
            "zoom g as=z window=2 semantics=al",
        ),
        ("zoom", "zoom window=2 as=z", "zoom g window=2"),
        (
            "zoom",
            "zoom window=2 window=3",
            "zoom g as=z as=y window=2",
        ),
        ("metrics", "metrics g", "metrics g"),
        ("help", "help me", "help me"),
        ("ping", "", "ping g"),
        ("snapshots", "", "snapshots all"),
        ("drop", "", "drop"),
        ("drop", "", "drop g h"),
        ("shutdown", "", "shutdown now"),
    ] {
        if !shell_line.is_empty() {
            assert!(
                matches!(shell.exec(shell_line), Err(CliError::Usage(ref u)) if u.starts_with(verb)),
                "shell `{shell_line}`"
            );
        }
        let (status, _) = c.request(wire_line);
        assert!(
            status.starts_with(&format!("ERR usage: {verb}")),
            "wire `{wire_line}`: {status}"
        );
    }
    // `window=0` is well-formed and covers nothing: one sentence, both fronts
    let empty = "interval argument window of 0 points over a domain of 10 points is empty";
    let shell_err = shell.exec("zoom window=0").expect_err("an empty window");
    assert_eq!(shell_err.to_string(), empty);
    let (status, _) = c.request("zoom g as=z window=0");
    assert_eq!(status, format!("ERR {empty}"));
    // a limit that does not parse is refused by every verb that takes it,
    // not only by the one that polls it
    for (line, usage) in [
        (
            "agg g dist attrs=grade timeout_ms=soon",
            "timeout_ms=<number>",
        ),
        ("stats g limit=few", "limit=<number>"),
    ] {
        let (status, _) = c.request(line);
        assert_eq!(status, format!("ERR usage: {usage}"), "wire `{line}`");
    }
    // nothing above registered, replaced or dropped a snapshot, and
    // `export` is not a wire verb: it reads state no request leaves behind
    let (_, payload) = c.request("snapshots");
    assert_eq!(payload.len(), 1, "got {payload:?}");
    assert!(payload[0].starts_with("g  ") && payload[0].ends_with("epoch=1"));
    let (status, _) = c.request("export g dot /tmp/never-written.dot");
    assert!(status.starts_with("ERR unknown command"), "got {status}");

    server.shutdown();
}

/// A `filter=` comparison lets no appearance without a value through: the
/// appended `za` and `zb` have no `intensity`, so `<=` counts them no more
/// than `>=` does (a missing cell used to read as `i64::MIN` and pass `<`
/// and `<=`), in the shell and on the wire.
#[test]
fn a_filter_passes_no_appearance_without_a_value() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let mut shell = Session::new();
    let append = "live node=za node=zb edge=za,zb static=za,grade,G1 static=zb,grade,G1";
    for (shell_line, wire_line) in [
        (
            "generate school seed=5".to_owned(),
            "generate g school seed=5".to_owned(),
        ),
        (format!("append {append}"), format!("append g {append}")),
    ] {
        shell.exec(&shell_line).expect("shell set-up");
        let (status, _) = c.request(&wire_line);
        assert!(status.starts_with("OK "), "`{wire_line}`: {status}");
    }
    for filter in ["intensity<=-1000", "intensity<-1000"] {
        let args = format!("t1=#9 t2=#10 attrs=grade filter={filter}");
        let want = "  edges total: St=0 Gr=0 Shr=0";
        let (status, payload) = c.request(&format!("evolution g {args}"));
        assert_eq!(
            (status.as_str(), &payload[..]),
            ("OK 1 epoch=2", &[want.to_owned()][..])
        );
        let got = shell
            .exec(&format!("evolution {args}"))
            .expect("shell evolution");
        assert_eq!(got, want);
    }
    server.shutdown();
}

/// An attribute named twice in one list is refused in the shell and on the
/// wire, not answered as a tuple that repeats it (`attrs=grade,grade` used
/// to answer `(G1,G1)`-style tuples and take a group-cache slot).
#[test]
fn a_repeated_attribute_is_refused() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let mut shell = Session::new();
    shell
        .exec("generate school seed=5")
        .expect("shell generate");
    let (status, _) = c.request("generate g school seed=5");
    assert!(status.starts_with("OK "), "generate failed: {status}");
    let refused = "duplicate attribute \"grade\"";
    let shell_err = shell
        .exec("agg dist attrs=grade,grade")
        .expect_err("a repeated attribute");
    assert_eq!(shell_err.to_string(), refused);
    for args in [
        "agg g dist attrs=grade,grade",
        "measure g group=grade,intensity,grade",
        "cube g attrs=grade,intensity level=grade,grade",
    ] {
        let (status, _) = c.request(args);
        assert_eq!(status, format!("ERR {refused}"), "wire `{args}`");
    }
    server.shutdown();
}

/// `help` lists every verb its front serves exactly once, as the usage
/// text a `usage:` error for that verb shows.
#[test]
fn help_and_usage_errors_read_one_table() {
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    // the verb lines of a help text are the indented ones
    fn verb_lines(help: &[String]) -> Vec<&str> {
        help.iter().filter_map(|l| l.strip_prefix("  ")).collect()
    }
    // four positionals are more than any verb takes
    let surplus = "a b c d";

    let mut shell = Session::new();
    let help: Vec<String> = shell
        .exec("help")
        .expect("help")
        .lines()
        .map(str::to_owned)
        .collect();
    let listed = verb_lines(&help);
    assert_eq!(
        listed
            .iter()
            .map(|l| l.split(' ').next().unwrap_or(""))
            .collect::<Vec<_>>(),
        COMMANDS.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    for (spec, shown) in COMMANDS.iter().zip(&listed) {
        assert_eq!(*shown, spec.usage(Front::Shell));
        match shell.exec(&format!("{} {surplus}", spec.name)) {
            Err(CliError::Usage(usage)) => assert_eq!(usage, *shown),
            other => panic!("{}: {other:?}", spec.name),
        }
    }

    let (status, help) = c.request("help");
    assert!(status.starts_with("OK "), "got {status}");
    let listed = verb_lines(&help);
    let own = ["ping", "help", "snapshots", "drop", "metrics", "shutdown"];
    let served = COMMANDS.iter().filter(|s| s.served_on(Front::Wire));
    assert_eq!(
        listed
            .iter()
            .map(|l| l.split(' ').next().unwrap_or(""))
            .collect::<Vec<_>>(),
        own.into_iter()
            .chain(served.map(|s| s.name))
            .collect::<Vec<_>>()
    );
    for shown in listed {
        let verb = shown.split(' ').next().unwrap_or("");
        let (status, _) = c.request(&format!("{verb} {surplus}"));
        assert_eq!(status, format!("ERR usage: {shown}"));
    }

    server.shutdown();
}

/// README's "query server" and "Streaming ingest" transcripts, so they
/// cannot rot: every request line and every pinned answer line below is
/// in README.md, and the server answers the one with the other.
#[test]
fn readme_transcript_is_what_the_server_answers() {
    const README: &str = include_str!("../../../README.md");
    let server = spawn(test_config()).expect("spawn server");
    let mut c = Client::connect(server.addr());
    let transcript: [(&str, &[&str]); 6] = [
        (
            "generate g dblp scale=0.05 seed=1",
            &[
                "OK 2 epoch=1",
                "snapshot g registered",
                "generated dblp: 1634 nodes, 9396 edges, 21 time points",
            ],
        ),
        ("stats g", &["OK 4 epoch=1"]),
        (
            "explore g event=growth semantics=union extend=new k=2 attrs=gender timeout_ms=500 limit=100",
            &["OK 21 epoch=1", "20 qualifying minimal interval pairs (20 evaluations):"],
        ),
        ("metrics", &[]),
        (
            "append g 2024w07 node=alice edge=alice,bob static=alice,gender,f tv=alice,publications,2 edgeval=alice,bob,3",
            &[
                "OK 1 epoch=2",
                "snapshot g appended 2024w07: nodes=1636 edges=9397 timepoints=22",
            ],
        ),
        ("shutdown", &["OK 1"]),
    ];
    for (request, pinned) in transcript {
        assert!(README.contains(request), "README lost `{request}`");
        let (status, payload) = c.request(request);
        assert!(status.starts_with("OK "), "`{request}`: {status}");
        let answer: Vec<&str> = std::iter::once(status.as_str())
            .chain(payload.iter().map(String::as_str))
            .collect();
        for (line, got) in pinned.iter().zip(answer) {
            assert!(README.contains(line), "README lost `{line}`");
            assert_eq!(got, *line, "`{request}`");
        }
    }
    server.join();
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
                // one epoch per answer: the registry's, on the status line
                assert_eq!(status, format!("OK 1 epoch={}", 2 + i));
                assert!(payload[0].contains(&format!("appended live{i}")));
                assert!(!payload[0].contains("epoch"), "got {payload:?}");
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
