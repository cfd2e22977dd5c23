//! The command table: which verbs exist, what each takes, what it needs and
//! what it yields. The shell and `tempo-server` read their vocabulary,
//! argument grammar, `help` and `usage:` text off [`COMMANDS`]; a request's
//! tokens are checked against it once, by [`Args::parse`], and a command
//! answers a [`Reply`].

use crate::error::CliError;
use std::str::FromStr;
use std::sync::Arc;
use tempo_graph::TemporalGraph;

/// What a verb needs and what it yields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Yields a graph from nothing; the wire registers it under the name given.
    Creates,
    /// Reads the graph; also takes `timeout_ms=` and `limit=`.
    Reads,
    /// Yields a different graph from the one it reads; the wire registers
    /// it under `as=<name>`.
    Derives,
    /// Yields the next version of the graph it reads; the wire swaps it in.
    Extends,
    /// Works on state a per-request session does not have: not on the wire.
    ShellOnly,
}

/// Who is asking: the wire leads every request with the snapshot it
/// addresses, the shell has one working graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// `graphtempo`: `<verb> <args…>`.
    Shell,
    /// `tempo-server`: `<verb> <snapshot> <args…>`.
    Wire,
}

/// One verb of the table.
#[derive(Debug)]
pub struct Spec {
    /// The verb.
    pub name: &'static str,
    /// What it needs and yields.
    pub scope: Scope,
    /// Fewest and most positional arguments.
    pub pos: (usize, usize),
    /// The `key=` names it reads.
    pub keys: &'static [&'static str],
    /// Argument text, as `help` and every `usage:` error show it.
    pub args: &'static str,
}

use Scope::{Creates, Derives, Extends, Reads, ShellOnly};

/// Every verb, in `help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Spec] = &[
    Spec { name: "generate", scope: Creates, pos: (1, 1), keys: &["scale", "seed"],
           args: "<dblp|movielens|school|random> [seed=N] [scale=0.05 (dblp, movielens)]" },
    Spec { name: "load", scope: Creates, pos: (1, 1), keys: &[], args: "<dir>" },
    Spec { name: "save", scope: Reads, pos: (1, 1), keys: &[], args: "<dir>" },
    Spec { name: "stats", scope: Reads, pos: (0, 0), keys: &[], args: "" },
    Spec { name: "schema", scope: Reads, pos: (0, 0), keys: &[], args: "" },
    Spec { name: "project", scope: Reads, pos: (1, 1), keys: &[], args: "<iv>" },
    Spec { name: "union", scope: Reads, pos: (2, 2), keys: &[], args: "<iv> <iv>" },
    Spec { name: "intersect", scope: Reads, pos: (2, 2), keys: &[], args: "<iv> <iv>" },
    Spec { name: "diff", scope: Reads, pos: (2, 2), keys: &[], args: "<iv> <iv>" },
    Spec { name: "agg", scope: Reads, pos: (1, 1), keys: &["attrs", "op", "t1", "t2", "top"],
           args: "<dist|all> attrs=<a,b,..> [op=<union|intersect|diff> t1=<iv> t2=<iv>] [top=10]" },
    Spec { name: "evolution", scope: Reads, pos: (0, 0), keys: &["t1", "t2", "attrs", "filter"],
           args: "t1=<iv> t2=<iv> attrs=<a,..> [filter=<attr><op><int>]  (op: > >= < <= =)" },
    Spec { name: "explore", scope: Reads, pos: (0, 0),
           keys: &["event", "semantics", "extend", "k", "attrs", "edge", "node"],
           args: "event=<stability|growth|shrinkage> semantics=<union|intersect> extend=<old|new> \
                  k=<n> attrs=<a> [edge=<v>-><v> | node=<v>]" },
    Spec { name: "suggest", scope: Reads, pos: (0, 0),
           keys: &["event", "semantics", "extend", "attrs", "edge", "node"],
           args: "event=<stability|growth|shrinkage> semantics=<union|intersect> extend=<old|new> \
                  attrs=<a> [edge=<v>-><v> | node=<v>]  (a starting k for explore: w_th, §3.5)" },
    Spec { name: "zoom", scope: Derives, pos: (0, 0), keys: &["window", "semantics"],
           args: "window=<n> [semantics=<any|all>]" },
    Spec { name: "append", scope: Extends, pos: (1, 1),
           keys: &["node", "edge", "tv", "static", "edgeval"],
           args: "<label> [node=N]… [edge=U,V]… [tv=N,ATTR,VAL]… [static=N,ATTR,VAL]… \
                  [edgeval=U,V,VAL]…" },
    Spec { name: "cube", scope: Reads, pos: (0, 0), keys: &["attrs", "level", "t", "scope"],
           args: "attrs=<a,b,..> level=<a,..> [t=<point> | scope=<iv>]" },
    Spec { name: "measure", scope: Reads, pos: (0, 0), keys: &["group", "node", "edge"],
           args: "group=<a,..> [node=<count|sum:attr|min:attr|max:attr|avg:attr>] \
                  [edge=<count|sum|min|max|avg>]" },
    Spec { name: "solve", scope: Reads, pos: (0, 0), keys: &["k", "attrs", "extend", "edge"],
           args: "k=<n> attrs=<a> [extend=<old|new>] [edge=<v>-><v>]  (Definition 3.6 report)" },
    Spec { name: "metrics", scope: ShellOnly, pos: (0, 2), keys: &[], args: "[--json <path>]" },
    Spec { name: "export", scope: ShellOnly, pos: (2, 2), keys: &[],
           args: "<dot|nodes|edges> <path>  (the last agg or cube result)" },
    Spec { name: "help", scope: ShellOnly, pos: (0, 0), keys: &[], args: "" },
];

/// The table entry of `verb`.
pub fn spec(verb: &str) -> Option<&'static Spec> {
    COMMANDS.iter().find(|s| s.name == verb)
}

impl Spec {
    /// Whether `front` serves the verb: the wire has no [`ShellOnly`].
    pub fn served_on(&self, front: Front) -> bool {
        front == Front::Shell || self.scope != ShellOnly
    }

    /// The verb with its argument text; the wire form leads with the
    /// snapshot the request addresses.
    pub fn usage(&self, front: Front) -> String {
        let target = match (front, self.scope) {
            (Front::Shell, _) => "",
            (Front::Wire, Creates) => "<name> ",
            (Front::Wire, Derives) => "<snapshot> as=<name> ",
            (Front::Wire, _) => "<snapshot> ",
        };
        format!("{} {target}{}", self.name, self.args)
            .trim_end()
            .to_owned()
    }

    /// Beside its own keys a [`Reads`] verb takes the request-scoped limits
    /// (only `explore` polls the timeout) and the wire's [`Derives`] `as=`.
    fn accepts(&self, key: &str, front: Front) -> bool {
        self.keys.contains(&key)
            || (self.scope == Reads && ["timeout_ms", "limit"].contains(&key))
            || (self.scope == Derives && front == Front::Wire && key == "as")
    }
}

/// Adds the `help` lines of every verb `front` serves, and what they share.
pub fn help(front: Front, lines: &mut Vec<String>) {
    let served = COMMANDS.iter().filter(|s| s.served_on(front));
    lines.extend(served.map(|s| format!("  {}", s.usage(front))));
    lines.extend(
        [
            "Intervals: a label (2005, May), an index (#3), or a range (2001..2005).",
            "A verb that only reads the graph (stats, agg, explore, …) also takes limit=<rows> \
             and timeout_ms=<ms>; only explore polls the timeout.",
        ]
        .map(str::to_owned),
    );
}

/// One request's arguments, checked against the verb's [`Spec`]: a token
/// `key=value` whose key the verb reads is a keyed argument, every other
/// token is positional (so a path may hold a `=`), and a positional count
/// outside the verb's range — which is where a key it does not read ends
/// up — is a usage error. So is a key given twice, except to an
/// [`Extends`] verb: `append` lists its nodes and edges by repeating
/// `node=` / `edge=`.
#[derive(Debug)]
pub struct Args<'a> {
    spec: &'static Spec,
    front: Front,
    target: &'a str,
    tokens: &'a [String],
    pos: Vec<&'a str>,
    keyed: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Checks the tokens after the verb against `spec`; what does not fit
    /// is [`CliError::Usage`] with the verb's usage text.
    pub fn parse(
        spec: &'static Spec,
        tokens: &'a [String],
        front: Front,
    ) -> Result<Self, CliError> {
        let mut args = Args {
            spec,
            front,
            target: "",
            tokens,
            pos: Vec::new(),
            keyed: Vec::new(),
        };
        if front == Front::Wire {
            let (target, rest) = tokens.split_first().ok_or_else(|| args.usage())?;
            (args.target, args.tokens) = (target, rest);
        }
        for token in args.tokens {
            match token.split_once('=') {
                Some((key, value)) if spec.accepts(key, front) => {
                    if spec.scope != Extends && args.get(key).is_some() {
                        return Err(args.usage());
                    }
                    args.keyed.push((key, value));
                }
                _ => args.pos.push(token),
            }
        }
        let (min, max) = spec.pos;
        if args.pos.len() < min || args.pos.len() > max {
            return Err(args.usage());
        }
        Ok(args)
    }

    /// The verb.
    pub fn verb(&self) -> &'static str {
        self.spec.name
    }

    /// The snapshot a wire request addresses (the shell addresses none: `""`).
    pub fn target(&self) -> &'a str {
        self.target
    }

    /// The tokens after the verb (and, on the wire, the snapshot), as sent.
    pub fn tokens(&self) -> &'a [String] {
        self.tokens
    }

    /// The verb's usage text as an error.
    pub fn usage(&self) -> CliError {
        CliError::Usage(self.spec.usage(self.front))
    }

    /// The `i`-th positional argument, or the verb's usage if there is none.
    pub fn pos(&self, i: usize) -> Result<&'a str, CliError> {
        self.pos.get(i).copied().ok_or_else(|| self.usage())
    }

    /// The value of `key=`, if given. Only an [`Extends`] verb may repeat a
    /// key, and `append` reads its tokens in order off [`Args::tokens`].
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.keyed.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The value of `key=`, or the verb's usage if it is missing.
    pub fn req(&self, key: &str) -> Result<&'a str, CliError> {
        self.get(key).ok_or_else(|| self.usage())
    }

    /// The value of `key=` as a number, if given; `usage: key=<number>` if
    /// it does not parse.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let parsed = self.get(key).map(str::parse).transpose();
        parsed.map_err(|_| CliError::Usage(format!("{key}=<number>")))
    }

    /// What `value` selects among `choices`, or the verb's usage if nothing.
    pub fn one_of<T: Copy>(&self, value: &str, choices: &[(&str, T)]) -> Result<T, CliError> {
        let found = choices.iter().find(|(name, _)| *name == value);
        found.map(|&(_, choice)| choice).ok_or_else(|| self.usage())
    }
}

/// What a command answers. `head` is never dropped: a row limit applies to
/// `rows` alone, once, in [`Reply::limit_rows`].
#[derive(Debug, Default)]
pub struct Reply {
    /// The summary line, for commands that have one.
    pub head: Option<String>,
    /// The detail lines.
    pub rows: Vec<String>,
    /// The graph a [`Scope::Creates`], [`Scope::Derives`] or
    /// [`Scope::Extends`] verb yields: the session moves to it, the wire
    /// registers it.
    pub graph: Option<Arc<TemporalGraph>>,
}

impl Reply {
    /// A one-line answer.
    pub fn line(head: String) -> Reply {
        Reply {
            head: Some(head),
            ..Reply::default()
        }
    }

    /// Every line of `text` as a row.
    pub fn rows(text: &str) -> Reply {
        Reply {
            rows: text.lines().map(str::to_owned).collect(),
            ..Reply::default()
        }
    }

    /// Keeps the first `cap` rows and says how many went, in one trailing
    /// note and on the `server.rows_truncated` counter.
    pub fn limit_rows(&mut self, cap: usize) {
        if self.rows.len() > cap {
            let dropped = self.rows.len() - cap;
            self.rows.truncate(cap);
            self.rows
                .push(format!("… {dropped} more rows (limit {cap})"));
            tempo_instrument::metrics::SERVER_ROWS_TRUNCATED.add(dropped as u64);
        }
    }

    /// Head, then rows: the protocol's payload lines.
    pub fn into_lines(mut self) -> Vec<String> {
        if let Some(head) = self.head {
            self.rows.insert(0, head);
        }
        self.rows
    }

    /// The lines joined, as the shell prints them.
    pub fn text(self) -> String {
        self.into_lines().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_owned).collect()
    }

    #[test]
    fn a_token_is_keyed_only_by_a_key_the_verb_reads() {
        let agg = spec("agg").unwrap();
        let t = tokens("attrs=a,b dist top=x");
        let args = Args::parse(agg, &t, Front::Shell).unwrap();
        assert_eq!(args.pos(0).unwrap(), "dist");
        assert_eq!(args.get("attrs"), Some("a,b"));
        assert_eq!(args.get("op"), None);
        assert!(matches!(args.req("op"), Err(CliError::Usage(u)) if u == agg.usage(Front::Shell)));
        assert!(matches!(args.num::<usize>("top"), Err(CliError::Usage(u)) if u == "top=<number>"));
        assert_eq!(args.one_of("b", &[("a", 1), ("b", 2)]).unwrap(), 2);
        assert!(args.one_of("c", &[("a", 1), ("b", 2)]).is_err());
        // a key agg does not read is a positional too many
        assert!(Args::parse(agg, &tokens("dist attrs=a tpo=2"), Front::Shell).is_err());
        // a key given twice names no one value; `append` lists by repeating
        let t = tokens("dist attrs=a attrs=b");
        let twice = Args::parse(agg, &t, Front::Shell);
        assert!(matches!(twice, Err(CliError::Usage(u)) if u == agg.usage(Front::Shell)));
        let append = spec("append").unwrap();
        assert!(Args::parse(append, &tokens("w1 node=a node=b"), Front::Shell).is_ok());
        // … but a path is a path, whatever it holds
        let load = spec("load").unwrap();
        let t = tokens("/tmp/a=b");
        assert_eq!(
            Args::parse(load, &t, Front::Shell).unwrap().pos(0).unwrap(),
            "/tmp/a=b"
        );
        assert!(Args::parse(load, &[], Front::Shell).is_err());
    }

    #[test]
    fn the_wire_leads_with_the_snapshot_and_the_limits_belong_to_reads() {
        let zoom = spec("zoom").unwrap();
        let t = tokens("g as=z window=2");
        let args = Args::parse(zoom, &t, Front::Wire).unwrap();
        assert_eq!((args.target(), args.get("as")), ("g", Some("z")));
        assert_eq!(args.tokens(), &t[1..]);
        assert!(Args::parse(zoom, &[], Front::Wire).is_err());
        // the shell has one graph: `as=` names nothing there
        assert!(Args::parse(zoom, &t[1..], Front::Shell).is_err());
        for (verb, takes_limits) in [("stats", true), ("zoom", false), ("generate", false)] {
            let t = tokens("limit=1");
            let parsed = Args::parse(spec(verb).unwrap(), &t, Front::Shell);
            assert_eq!(
                parsed.is_ok_and(|a| a.get("limit") == Some("1")),
                takes_limits
            );
        }
    }

    #[test]
    fn verbs_are_unique_and_every_front_shows_its_usage() {
        for (i, s) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|other| other.name != s.name));
            assert!(s.pos.0 <= s.pos.1);
            assert!(s.usage(Front::Wire).starts_with(s.name));
        }
        assert_eq!(spec("stats").unwrap().usage(Front::Shell), "stats");
        assert_eq!(
            spec("stats").unwrap().usage(Front::Wire),
            "stats <snapshot>"
        );
        assert!(spec("export").is_some_and(|s| !s.served_on(Front::Wire)));
    }
}
