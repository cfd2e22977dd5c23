//! `tempo-server` — a long-running, zero-framework GraphTempo query service.
//!
//! The server keeps a [`SnapshotRegistry`] of immutable `Arc<TemporalGraph>`
//! snapshots and serves concurrent clients over a plain TCP line protocol.
//! The verbs are the shell's: a request's first token is looked up in
//! [`graphtempo_cli::command::COMMANDS`], its arguments are checked once
//! against that table ([`graphtempo_cli::command::Args`]), and one function
//! runs it in a short-lived [`graphtempo_cli::Session`] built around the
//! shared snapshot and registers the graph the reply yields, if any. There
//! is no second implementation and no process-global state: the request
//! limits travel explicitly with each session.
//!
//! ## Protocol
//!
//! Requests are single lines, `\n`-terminated, of at most
//! [`MAX_REQUEST_BYTES`] bytes: a longer line is discarded up to its newline
//! and answered `ERR too_long`, and the connection stays usable. Responses
//! are
//!
//! ```text
//! OK <n> [epoch=<e>]\n   followed by exactly n payload lines, or
//! ERR <message>\n
//! ```
//!
//! Snapshot-scoped responses append an `epoch=<e>` token to the status
//! line: every snapshot name carries a monotonically increasing epoch id
//! (starting at 1, bumped on every `load`/`generate` replacement and every
//! `append`), so a client can always tell which version of the graph
//! answered. Clients should split the status line on whitespace — the
//! payload count is the second token.
//!
//! The server's own verbs concern the registry or the process: `ping`,
//! `help`, `snapshots`, `drop <name>`, `metrics`, `shutdown`. Every other
//! verb is one of the table's and leads with the snapshot it addresses:
//! `<verb> <snapshot> [args…]`, e.g. `stats g` or
//! `explore g event=growth k=5 attrs=gender timeout_ms=500 limit=100`
//! (`generate <name> …` and `load <name> <dir>` name the snapshot they
//! register, `zoom <src> as=<dst> …` registers its result under `as=`). An
//! argument the verb does not read is `ERR usage: …`. `timeout_ms=` and
//! `limit=` are request-scoped limits every verb that reads a snapshot
//! takes; they override the configured defaults. The row limit applies once,
//! to a reply's detail rows — a summary line is never dropped; only `explore`
//! polls the timeout.
//!
//! `append <name> <label> [node=N]… [edge=U,V]… [tv=N,ATTR,VAL]…
//! [static=N,ATTR,VAL]… [edgeval=U,V,VAL]…` appends one timepoint to a
//! registered snapshot copy-on-write ([`tempo_graph::GraphVersions`]): the
//! new epoch is assembled **outside** the registry lock while in-flight
//! queries keep reading the old epoch, then swapped in atomically (a
//! concurrent replacement of the same name loses the race and errors
//! rather than clobbering).

#![warn(missing_docs)]
// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod registry;

pub use registry::SnapshotRegistry;

use graphtempo_cli::command::{self, Args, Front, Scope, Spec};
use graphtempo_cli::error::CliError;
use graphtempo_cli::parser::tokenize;
use graphtempo_cli::{QueryLimits, Session};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tempo_graph::GraphError;
use tempo_instrument::{metrics, Histogram};

/// How long a blocked read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// Longest request line the server buffers, newline excluded. The longest
/// line a well-behaved client sends is an `append` patch — a few hundred
/// `edge=`/`tv=` tokens, under 16 KiB in the benchmark's ingest workload —
/// so 1 MiB leaves two orders of magnitude of headroom while bounding what
/// one newline-free client can make the server hold.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7341`. Port 0 picks a free port.
    pub addr: String,
    /// Default per-request timeout; `None` disables the default deadline.
    pub default_timeout_ms: Option<u64>,
    /// Default cap on listing rows in a response.
    pub default_max_rows: usize,
    /// Maximum concurrently served connections; extra clients get `ERR busy`.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            default_timeout_ms: Some(30_000),
            default_max_rows: 10_000,
            max_connections: 64,
        }
    }
}

/// Shared state behind every connection handler.
#[derive(Debug)]
struct ServiceState {
    cfg: ServerConfig,
    addr: std::net::SocketAddr,
    registry: SnapshotRegistry,
    shutdown: AtomicBool,
    verb_ns: Vec<VerbLatency>,
}

/// The latency histogram of one verb, under the name `metrics` shows it by.
#[derive(Debug)]
struct VerbLatency {
    verb: &'static str,
    name: String,
    hist: Histogram,
}

impl ServiceState {
    fn new(cfg: ServerConfig, addr: std::net::SocketAddr) -> Self {
        // One `server.cmd.<verb>_ns` histogram per verb the server answers
        // and one last for everything else: the family is the two verb
        // tables, so no request — least of all a client's junk token — names
        // or adds a series.
        let verb_ns = SERVER_VERBS
            .iter()
            .filter_map(|usage| usage.split(' ').next())
            .chain(
                command::COMMANDS
                    .iter()
                    .filter(|s| s.served_on(Front::Wire))
                    .map(|s| s.name),
            )
            .chain(["unknown"])
            .map(|verb| VerbLatency {
                verb,
                name: format!("server.cmd.{verb}_ns"),
                hist: Histogram::new(),
            })
            .collect();
        ServiceState {
            cfg,
            addr,
            registry: SnapshotRegistry::new(),
            shutdown: AtomicBool::new(false),
            verb_ns,
        }
    }

    /// Raises the shutdown flag and pokes the accept loop awake.
    fn request_shutdown(&self) {
        // ordering: the flag is purely advisory — it guards no other data,
        // and the wake-up connection below synchronizes through the socket.
        self.shutdown.store(true, Ordering::Relaxed);
        // The accept loop blocks in accept(); a throw-away connection to
        // ourselves unblocks it so the flag is observed promptly.
        let _ = TcpStream::connect(self.addr);
    }

    fn shutting_down(&self) -> bool {
        // ordering: advisory flag, no data published under it (see store).
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A running server. Dropping it requests shutdown and joins the accept loop.
#[derive(Debug)]
pub struct Server {
    addr: std::net::SocketAddr,
    state: Arc<ServiceState>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Registers a snapshot directly (useful for embedding and tests).
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.state.registry
    }

    /// Asks the server to stop accepting and finish in-flight connections.
    pub fn request_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Blocks until the server shuts down (via the `shutdown` command or
    /// [`Server::request_shutdown`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Requests shutdown and waits for the server to wind down.
    pub fn shutdown(self) {
        self.state.request_shutdown();
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.state.request_shutdown();
            let _ = h.join();
        }
    }
}

/// Binds the listener and spawns the accept loop. Returns once the socket
/// is bound; the returned [`Server`] owns the background thread.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServiceState::new(cfg, addr));
    let loop_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || accept_loop(&listener, &loop_state));
    Ok(Server {
        addr,
        state,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServiceState>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for incoming in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let Ok(stream) = incoming else { continue };
        workers.retain(|h| !h.is_finished());
        if workers.len() >= state.cfg.max_connections {
            let mut stream = stream;
            let _ = stream.write_all(b"ERR busy: connection limit reached\n");
            continue;
        }
        let conn_state = Arc::clone(state);
        workers.push(std::thread::spawn(move || {
            handle_connection(stream, &conn_state)
        }));
    }
    for h in workers {
        let _ = h.join();
    }
}

/// What [`RequestLines::next`] found on the wire.
#[derive(Debug, PartialEq, Eq)]
enum Incoming {
    /// A complete line (or the unterminated tail before end of stream) is
    /// in [`RequestLines::line`].
    Line,
    /// A line longer than [`MAX_REQUEST_BYTES`] ended; its bytes were
    /// dropped as they arrived.
    TooLong,
    /// The client closed the connection.
    Closed,
}

/// Splits a byte stream into request lines while buffering at most
/// [`MAX_REQUEST_BYTES`] of any one line. State lives across calls, so a
/// read that times out mid-line (the shutdown poll) resumes where it
/// stopped instead of losing the bytes already received.
#[derive(Debug, Default)]
struct RequestLines {
    line: Vec<u8>,
    /// Inside an over-long line: drop bytes until its newline.
    discarding: bool,
}

impl RequestLines {
    /// Reads up to and including the next `\n`. The caller clears `line`
    /// once it has handled it.
    fn next(&mut self, reader: &mut impl BufRead) -> io::Result<Incoming> {
        loop {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(if self.discarding || self.line.is_empty() {
                    Incoming::Closed
                } else {
                    Incoming::Line
                });
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let chunk = &available[..newline.unwrap_or(available.len())];
            if !self.discarding {
                if self.line.len() + chunk.len() > MAX_REQUEST_BYTES {
                    self.discarding = true;
                    self.line = Vec::new();
                } else {
                    self.line.extend_from_slice(chunk);
                }
            }
            let consumed = chunk.len() + usize::from(newline.is_some());
            reader.consume(consumed);
            if newline.is_some() {
                return Ok(if std::mem::take(&mut self.discarding) {
                    Incoming::TooLong
                } else {
                    Incoming::Line
                });
            }
        }
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<ServiceState>) {
    // A short read timeout turns the blocking read loop into a poll so the
    // handler notices shutdown even while a client sits idle.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut lines = RequestLines::default();
    loop {
        if state.shutting_down() {
            break;
        }
        let (response, shutdown_after) = match lines.next(&mut reader) {
            Ok(Incoming::Closed) => break,
            Ok(Incoming::TooLong) => {
                metrics::SERVER_ERRORS.inc();
                let msg = format!("too_long: request line exceeds {MAX_REQUEST_BYTES} bytes");
                (err(&msg), false)
            }
            Ok(Incoming::Line) => {
                let answered = {
                    let text = String::from_utf8_lossy(&lines.line);
                    let request = text.trim();
                    (!request.is_empty()).then(|| handle_request(state, request))
                };
                lines.line.clear();
                match answered {
                    Some(out) => out,
                    None => continue,
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
        let _ = writer.flush();
        if shutdown_after {
            state.request_shutdown();
            break;
        }
    }
}

/// Wire encoding of a successful response. Snapshot-scoped responses carry
/// the answering epoch as a trailing `epoch=<e>` token on the status line.
fn ok(lines: &[String], epoch: Option<u64>) -> String {
    let mut out = match epoch {
        Some(e) => format!("OK {} epoch={e}\n", lines.len()),
        None => format!("OK {}\n", lines.len()),
    };
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Wire encoding of an error. The message is flattened to one line.
fn err(msg: &str) -> String {
    let flat: String = msg
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {flat}\n")
}

/// The verbs that concern the registry or the process, each as its usage
/// text (the verb is the first word); every other verb the server answers
/// is one of the shell's [`command::COMMANDS`].
const SERVER_VERBS: &[&str] = &[
    "ping",
    "help",
    "snapshots",
    "drop <name>",
    "metrics",
    "shutdown",
];

/// Dispatches one request line; returns the wire response and whether the
/// server should shut down after sending it.
fn handle_request(state: &Arc<ServiceState>, request: &str) -> (String, bool) {
    metrics::SERVER_REQUESTS.inc();
    let _span = metrics::SERVER_REQUEST_NS.span();
    let tokens = tokenize(request);
    let Some((verb, rest)) = tokens.split_first() else {
        return (err("empty request"), false);
    };
    let own = SERVER_VERBS
        .iter()
        .find(|usage| usage.split(' ').next() == Some(verb));
    let served = command::spec(verb).filter(|s| s.served_on(Front::Wire));
    // The first token is the client's: a verb of neither table is timed
    // under `unknown`, the family's last member.
    let _verb_span = state
        .verb_ns
        .iter()
        .find(|v| v.verb == verb)
        .or(state.verb_ns.last())
        .map(|v| v.hist.span());
    let result = match (own, served) {
        (Some(usage), _) => server_verb(state, usage, rest).map(|lines| (lines, None)),
        (None, Some(spec)) => run_verb(state, spec, rest).map(|(lines, e)| (lines, Some(e))),
        (None, None) => Err(CliError::Unknown(format!("command {verb:?} (try `help`)"))),
    };
    match result {
        Ok((lines, epoch)) => (ok(&lines, epoch), verb == "shutdown"),
        Err(CliError::Graph(GraphError::Cancelled(m))) => {
            metrics::SERVER_TIMEOUTS.inc();
            (err(&format!("timeout: {m}")), false)
        }
        Err(e) => {
            metrics::SERVER_ERRORS.inc();
            (err(&e.to_string()), false)
        }
    }
}

/// Answers one of [`SERVER_VERBS`], given as its usage text.
fn server_verb(
    state: &Arc<ServiceState>,
    usage: &str,
    rest: &[String],
) -> Result<Vec<String>, CliError> {
    let mut words = usage.split(' ');
    let verb = words.next().unwrap_or_default();
    if rest.len() != words.count() {
        return Err(CliError::Usage(usage.to_owned()));
    }
    Ok(match (verb, rest) {
        ("ping", _) => vec!["pong".to_owned()],
        ("help", _) => {
            let mut lines = vec![
                "tempo-server — requests lead with the snapshot they address; its answers carry \
                 `epoch=<e>` on the OK line:"
                    .to_owned(),
            ];
            lines.extend(SERVER_VERBS.iter().map(|usage| format!("  {usage}")));
            command::help(Front::Wire, &mut lines);
            lines
        }
        ("snapshots", _) => list_snapshots(state),
        ("drop", [name]) => {
            if !state.registry.remove(name) {
                return Err(CliError::Unknown(format!("snapshot {name:?}")));
            }
            vec![format!("snapshot {name} dropped")]
        }
        ("metrics", _) => {
            let mut snap = tempo_instrument::global().snapshot();
            let per_verb = state.verb_ns.iter();
            snap.histograms
                .extend(per_verb.map(|v| (v.name.clone(), v.hist.snapshot())));
            snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
            snap.render_prometheus()
                .lines()
                .map(str::to_owned)
                .collect()
        }
        // `shutdown`: the caller raises the flag once the answer is sent
        _ => vec!["shutting down".to_owned()],
    })
}

fn list_snapshots(state: &Arc<ServiceState>) -> Vec<String> {
    let snaps = state.registry.list();
    if snaps.is_empty() {
        return vec!["(no snapshots)".to_owned()];
    }
    snaps
        .into_iter()
        .map(|(name, g, epoch)| {
            format!(
                "{name}  nodes={} edges={} timepoints={} epoch={epoch}",
                g.n_nodes(),
                g.n_edges(),
                g.domain().len()
            )
        })
        .collect()
}

/// Runs one verb of the shell's table against the registry: looks up the
/// snapshot the request addresses (a [`Scope::Creates`] verb names a new one
/// instead), runs the request in a session of its own, and registers the
/// graph the reply yields, if any — assembled by then, so the registry lock
/// covers only the insert or, for [`Scope::Extends`], the compare-and-swap
/// that refuses to clobber a concurrent replacement of the same name.
fn run_verb(
    state: &Arc<ServiceState>,
    spec: &'static Spec,
    rest: &[String],
) -> Result<(Vec<String>, u64), CliError> {
    let args = Args::parse(spec, rest, Front::Wire)?;
    let name = args.target();
    // the name a yielded graph is registered under, checked before any work
    let dst = match spec.scope {
        Scope::Creates => Some(name),
        Scope::Derives => Some(args.req("as")?),
        _ => None,
    };
    if let Some(dst) = dst {
        validate_name(dst)?;
    }
    let mut session = Session::new();
    let mut read = None;
    if spec.scope != Scope::Creates {
        let (graph, epoch) = state
            .registry
            .get(name)
            .ok_or_else(|| CliError::Unknown(format!("snapshot {name:?}")))?;
        let limits = QueryLimits {
            timeout_ms: state.cfg.default_timeout_ms,
            max_rows: Some(state.cfg.default_max_rows),
            ..QueryLimits::default()
        };
        session = Session::for_snapshot(Arc::clone(&graph), limits);
        read = Some((graph, epoch));
    }
    let mut reply = session.run(&args)?;
    match (reply.graph.take(), dst, read) {
        (Some(graph), Some(dst), _) => {
            let epoch = state.registry.insert(dst, graph);
            let mut lines = vec![format!("snapshot {dst} registered")];
            lines.extend(reply.into_lines());
            Ok((lines, epoch))
        }
        (Some(next), None, Some((graph, _))) => {
            let epoch = state
                .registry
                .replace_if_current(name, &graph, Arc::clone(&next))
                .ok_or_else(|| {
                    CliError::Unknown(format!(
                        "snapshot {name:?} was replaced or dropped during {} — retry against \
                         the current epoch",
                        spec.name
                    ))
                })?;
            // the status line carries the epoch; the payload names none
            let line = format!(
                "snapshot {name} appended {}: nodes={} edges={} timepoints={}",
                args.pos(0)?,
                next.n_nodes(),
                next.n_edges(),
                next.domain().len()
            );
            Ok((vec![line], epoch))
        }
        (None, _, Some((_, epoch))) => Ok((reply.into_lines(), epoch)),
        _ => Err(CliError::Unknown(format!(
            "{} produced no graph",
            spec.name
        ))),
    }
}

/// Snapshot names keep the protocol unambiguous: word characters only.
fn validate_name(name: &str) -> Result<(), CliError> {
    if !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
    {
        Ok(())
    } else {
        Err(CliError::Usage(format!(
            "snapshot name {name:?} (use letters, digits, `_`, `-`, `.`)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_encoding_shapes() {
        assert_eq!(ok(&[], None), "OK 0\n");
        assert_eq!(ok(&["a".into(), "b".into()], None), "OK 2\na\nb\n");
        assert_eq!(ok(&["a".into()], Some(3)), "OK 1 epoch=3\na\n");
        assert_eq!(err("boom\nsecond"), "ERR boom second\n");
    }

    #[test]
    fn request_lines_bound_what_they_buffer() {
        let mut wire = b"ping\r\n".to_vec();
        wire.extend(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES + 1));
        wire.extend(b"\nstats g\n");
        wire.extend(std::iter::repeat_n(b'y', MAX_REQUEST_BYTES));
        wire.extend(b"\ntail");
        // a small BufReader forces every line across many fill_buf calls
        let mut reader = BufReader::with_capacity(64, io::Cursor::new(wire));
        let mut lines = RequestLines::default();
        let mut next = |lines: &mut RequestLines| lines.next(&mut reader).expect("cursor reads");

        assert_eq!(next(&mut lines), Incoming::Line);
        assert_eq!(lines.line, b"ping\r");
        lines.line.clear();
        // one byte over the cap: dropped, and nothing of it is retained
        assert_eq!(next(&mut lines), Incoming::TooLong);
        assert!(lines.line.is_empty() && lines.line.capacity() == 0);
        // the stream stays in frame
        assert_eq!(next(&mut lines), Incoming::Line);
        assert_eq!(lines.line, b"stats g");
        lines.line.clear();
        // exactly the cap is still a line
        assert_eq!(next(&mut lines), Incoming::Line);
        assert_eq!(lines.line.len(), MAX_REQUEST_BYTES);
        lines.line.clear();
        // an unterminated tail is served before the close
        assert_eq!(next(&mut lines), Incoming::Line);
        assert_eq!(lines.line, b"tail");
        lines.line.clear();
        assert_eq!(next(&mut lines), Incoming::Closed);
    }

    #[test]
    fn snapshot_names_are_validated() {
        assert!(validate_name("g1.zoom-out_x").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("a b").is_err());
        assert!(validate_name("a/b").is_err());
    }

    #[test]
    fn request_dispatch_without_network() {
        let state = Arc::new(ServiceState::new(
            ServerConfig::default(),
            "127.0.0.1:1".parse().expect("invariant: literal addr"),
        ));
        let (resp, stop) = handle_request(&state, "ping");
        assert_eq!(resp, "OK 1\npong\n");
        assert!(!stop);

        let (resp, _) = handle_request(&state, "generate g school seed=3");
        assert!(resp.starts_with("OK "), "unexpected: {resp}");
        assert!(
            resp.lines()
                .next()
                .expect("status line")
                .ends_with("epoch=1"),
            "missing epoch: {resp}"
        );
        let (resp, _) = handle_request(&state, "snapshots");
        assert!(resp.contains("g  nodes="), "unexpected: {resp}");
        assert!(resp.contains("epoch=1"), "unexpected: {resp}");
        let (resp, _) = handle_request(&state, "stats g");
        assert!(resp.starts_with("OK "), "unexpected: {resp}");
        assert!(
            resp.lines()
                .next()
                .expect("status line")
                .ends_with("epoch=1"),
            "missing epoch: {resp}"
        );

        // append a timepoint copy-on-write: the epoch bumps and the new
        // point is visible to subsequent queries
        let (resp, _) = handle_request(&state, "append g extra node=za node=zb edge=za,zb");
        assert!(resp.starts_with("OK 1 epoch=2"), "append failed: {resp}");
        assert!(resp.contains("appended extra"), "unexpected: {resp}");
        let (resp, _) = handle_request(&state, "snapshots");
        assert!(resp.contains("epoch=2"), "unexpected: {resp}");
        let (resp, _) = handle_request(&state, "stats g");
        assert!(
            resp.lines()
                .next()
                .expect("status line")
                .ends_with("epoch=2"),
            "missing epoch: {resp}"
        );
        assert!(resp.contains("extra"), "new timepoint missing: {resp}");
        // regenerating over the same name keeps the epoch line monotone
        let (resp, _) = handle_request(&state, "generate g school seed=3");
        assert!(
            resp.lines()
                .next()
                .expect("status line")
                .ends_with("epoch=3"),
            "unexpected: {resp}"
        );
        // append argument errors surface as ERR, not panics
        let (resp, _) = handle_request(&state, "append missing t9 node=x");
        assert!(resp.starts_with("ERR "), "unexpected: {resp}");
        let (resp, _) = handle_request(&state, "append g t9 frob=1");
        assert!(resp.starts_with("ERR "), "unexpected: {resp}");
        let (resp, _) = handle_request(&state, "append g");
        assert!(resp.starts_with("ERR usage"), "unexpected: {resp}");

        // a zero budget must surface as a timeout error, not a hang
        let (resp, _) = handle_request(
            &state,
            "explore g event=growth semantics=union extend=new k=2 attrs=grade timeout_ms=0",
        );
        assert!(resp.starts_with("ERR timeout:"), "unexpected: {resp}");

        let (resp, _) = handle_request(&state, "nonsense g");
        assert!(resp.starts_with("ERR "), "unexpected: {resp}");

        let (resp, stop) = handle_request(&state, "shutdown");
        assert!(resp.starts_with("OK "), "unexpected: {resp}");
        assert!(stop);
    }
}
