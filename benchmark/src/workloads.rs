//! The four workloads: which snapshots the server holds, which request
//! templates the reader connections cycle through, and what the writer
//! connection appends. Plain data — nothing here calls into the program.
//!
//! The datasets, the templates and their order are fixed; the seed picks
//! where in the cycle the connections start and fills the patches, so two
//! seeds do the same work from a different starting point on different
//! patch contents.

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `agg` and `evolution` over one connection.
    OlapSerial,
    /// `explore` and `suggest` over one connection, on a 4x larger graph.
    ExploreSerial,
    /// A whole analyst session mix over two connections and two datasets.
    MixedConcurrent,
    /// Appends to the snapshot the reader is querying.
    IngestMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::OlapSerial,
        Workload::ExploreSerial,
        Workload::MixedConcurrent,
        Workload::IngestMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapSerial => "olap_serial",
            Workload::ExploreSerial => "explore_serial",
            Workload::MixedConcurrent => "mixed_concurrent",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OlapSerial => {
                "agg and evolution on DBLP at the paper's size: core.ops, core.aggregate and \
                 core.evolution do the work and core.explore none"
            }
            Workload::ExploreSerial => {
                "explore and suggest on 4x DBLP: core.explore and columnar do the work, \
                 hash aggregation none; 1 ms requests show server and cli overhead"
            }
            Workload::MixedConcurrent => {
                "a session mix of every query class on DBLP and MovieLens from two connections: \
                 every layer at session proportions under allocator and memory contention"
            }
            Workload::IngestMixed => {
                "open-loop appends at 8/s to the snapshot a reader is querying: COW append, CAS \
                 swap and epoch-stamped caches beside reads while history grows"
            }
        }
    }
}

/// A synthetic dataset generator of `tempo-datagen`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dataset {
    /// Co-authorship, 21 yearly points, static `gender`, time-varying
    /// `publications`.
    Dblp,
    /// Ratings, 6 monthly points, edges far outnumber nodes; static
    /// `gender`, `age`, `occupation`, time-varying `rating`.
    MovieLens,
}

impl Dataset {
    /// The name `generate` takes.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Dblp => "dblp",
            Dataset::MovieLens => "movielens",
        }
    }
}

/// A snapshot the server holds during a run.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotSpec {
    /// Registry name.
    pub name: &'static str,
    /// Generator.
    pub dataset: Dataset,
    /// Generator scale (1.0 is the paper's size).
    pub scale: f64,
}

/// Generator seed of every snapshot. The datasets are the program's data
/// and stay the same from run to run, as the paper's DBLP and MovieLens
/// do; the run's seed draws the requests and the patches.
pub const DATA_SEED: u64 = 1;

/// Main snapshot of every workload.
pub const MAIN: &str = "g";
/// MovieLens snapshot of `mixed_concurrent`.
pub const ML: &str = "ml";

/// Request class: the command word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// `stats`
    Stats,
    /// `schema`
    Schema,
    /// `agg`
    Agg,
    /// `evolution`
    Evolution,
    /// `explore`
    Explore,
    /// `suggest`
    Suggest,
    /// `measure`
    Measure,
    /// `cube`
    Cube,
}

impl Class {
    /// The command word.
    pub fn name(self) -> &'static str {
        match self {
            Class::Stats => "stats",
            Class::Schema => "schema",
            Class::Agg => "agg",
            Class::Evolution => "evolution",
            Class::Explore => "explore",
            Class::Suggest => "suggest",
            Class::Measure => "measure",
            Class::Cube => "cube",
        }
    }
}

/// A run of time points, by index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// Points `lo..=hi`.
    Fixed(usize, usize),
    /// The single point `back` steps before the newest, which moves as the
    /// writer appends.
    FromEnd(usize),
}

impl Span {
    /// Inclusive index bounds in a domain of `n_points`.
    pub fn bounds(self, n_points: usize) -> (usize, usize) {
        match self {
            Span::Fixed(lo, hi) => (lo, hi),
            Span::FromEnd(back) => (n_points - 1 - back, n_points - 1 - back),
        }
    }

    fn render(self, n_points: usize) -> String {
        let (lo, hi) = self.bounds(n_points);
        if lo == hi {
            format!("#{lo}")
        } else {
            format!("#{lo}..#{hi}")
        }
    }
}

/// `dist` or `all` weights.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Each (entity, tuple) once.
    Dist,
    /// Every appearance.
    All,
}

/// Temporal operator of an `agg op=`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SetOp {
    /// `op=union`
    Union,
    /// `op=intersect`
    Intersect,
    /// `op=diff`
    Diff,
}

/// Event of an exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// `event=stability`
    Stability,
    /// `event=growth`
    Growth,
    /// `event=shrinkage`
    Shrinkage,
}

/// Semantics on the extended side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Semantics {
    /// `semantics=union`
    Union,
    /// `semantics=intersect`
    Intersect,
}

/// Which side is extended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Extend {
    /// `extend=old`
    Old,
    /// `extend=new`
    New,
}

/// Which aggregate entities count as events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Selector {
    /// Every aggregate edge (the shell's default).
    AllEdges,
    /// `node=<v>`
    Node(String),
    /// `edge=<v>-><v>`
    Edge(String, String),
}

/// The twelve rows of the paper's Table 1.
pub const TABLE1: [(Event, Semantics, Extend); 12] = [
    (Event::Stability, Semantics::Union, Extend::Old),
    (Event::Stability, Semantics::Union, Extend::New),
    (Event::Stability, Semantics::Intersect, Extend::Old),
    (Event::Stability, Semantics::Intersect, Extend::New),
    (Event::Growth, Semantics::Union, Extend::New),
    (Event::Growth, Semantics::Union, Extend::Old),
    (Event::Growth, Semantics::Intersect, Extend::New),
    (Event::Growth, Semantics::Intersect, Extend::Old),
    (Event::Shrinkage, Semantics::Union, Extend::Old),
    (Event::Shrinkage, Semantics::Union, Extend::New),
    (Event::Shrinkage, Semantics::Intersect, Extend::Old),
    (Event::Shrinkage, Semantics::Intersect, Extend::New),
];

/// An exploration problem, as `explore` and `suggest` take it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Exploration {
    /// Event counted.
    pub event: Event,
    /// Semantics on the extended side.
    pub semantics: Semantics,
    /// Extended side.
    pub extend: Extend,
    /// The one aggregation attribute.
    pub attr: &'static str,
    /// Entities counted.
    pub selector: Selector,
    /// `k` is `w_th / k_divisor`, with `w_th` from `suggest` during set-up.
    pub k_divisor: u64,
    /// The threshold, filled in by set-up (at least 1).
    pub k: u64,
}

/// A typed request, so the same template can be sent as a line, run
/// through a `Session`, and run as direct calls into `core`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// `stats`
    Stats,
    /// `schema`
    Schema,
    /// `agg <mode> attrs= [op= t1= t2=]`
    Agg {
        /// Weight semantics.
        mode: Mode,
        /// Comma-separated attribute names.
        attrs: &'static str,
        /// Operator and operands; `None` aggregates the whole graph.
        op: Option<(SetOp, Span, Span)>,
    },
    /// `evolution t1= t2= attrs= [filter=<attr>><n>]`
    Evolution {
        /// Earlier interval.
        t1: Span,
        /// Later interval.
        t2: Span,
        /// Comma-separated attribute names.
        attrs: &'static str,
        /// `filter=<attr>><n>`.
        filter_gt: Option<(&'static str, i64)>,
    },
    /// `explore …`
    Explore(Exploration),
    /// `suggest …`
    Suggest(Exploration),
    /// `measure group= node=avg:<attr>`
    Measure {
        /// Comma-separated grouping attributes.
        group: &'static str,
        /// Attribute averaged per group.
        avg: &'static str,
    },
    /// `cube attrs= level=`
    Cube {
        /// Comma-separated cube attributes.
        attrs: &'static str,
        /// Comma-separated query level.
        level: &'static str,
    },
}

/// A request template: a query addressed to a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Template {
    /// Snapshot name.
    pub snapshot: &'static str,
    /// The request.
    pub query: Query,
}

impl Template {
    /// The request class.
    pub fn class(&self) -> Class {
        match self.query {
            Query::Stats => Class::Stats,
            Query::Schema => Class::Schema,
            Query::Agg { .. } => Class::Agg,
            Query::Evolution { .. } => Class::Evolution,
            Query::Explore(_) => Class::Explore,
            Query::Suggest(_) => Class::Suggest,
            Query::Measure { .. } => Class::Measure,
            Query::Cube { .. } => Class::Cube,
        }
    }

    /// True if the answer depends on how many points the snapshot has,
    /// given which snapshot the writer appends to.
    pub fn follows_appends(&self, appended_snapshot: Option<&str>) -> bool {
        if appended_snapshot != Some(self.snapshot) {
            return false;
        }
        match &self.query {
            // fixed spans select entities and timestamps inside old points
            // only, which an append never touches
            Query::Agg {
                op: Some((_, a, b)),
                ..
            }
            | Query::Evolution { t1: a, t2: b, .. } => {
                matches!(a, Span::FromEnd(_)) || matches!(b, Span::FromEnd(_))
            }
            _ => true,
        }
    }

    /// The wire request (`<cmd> <snapshot> args…`).
    pub fn wire_line(&self, n_points: usize) -> String {
        self.render(Some(self.snapshot), n_points)
    }

    /// The same request as a shell session takes it (`<cmd> args…`).
    pub fn session_line(&self, n_points: usize) -> String {
        self.render(None, n_points)
    }

    fn render(&self, snapshot: Option<&str>, n_points: usize) -> String {
        let mut line = self.class().name().to_owned();
        if let Some(s) = snapshot {
            line.push(' ');
            line.push_str(s);
        }
        let mut arg = |a: String| {
            line.push(' ');
            line.push_str(&a);
        };
        match &self.query {
            Query::Stats | Query::Schema => {}
            Query::Agg { mode, attrs, op } => {
                arg(match mode {
                    Mode::Dist => "dist".to_owned(),
                    Mode::All => "all".to_owned(),
                });
                arg(format!("attrs={attrs}"));
                if let Some((op, t1, t2)) = op {
                    arg(format!(
                        "op={}",
                        match op {
                            SetOp::Union => "union",
                            SetOp::Intersect => "intersect",
                            SetOp::Diff => "diff",
                        }
                    ));
                    arg(format!("t1={}", t1.render(n_points)));
                    arg(format!("t2={}", t2.render(n_points)));
                }
            }
            Query::Evolution {
                t1,
                t2,
                attrs,
                filter_gt,
            } => {
                arg(format!("t1={}", t1.render(n_points)));
                arg(format!("t2={}", t2.render(n_points)));
                arg(format!("attrs={attrs}"));
                if let Some((attr, n)) = filter_gt {
                    arg(format!("filter={attr}>{n}"));
                }
            }
            Query::Explore(x) | Query::Suggest(x) => {
                arg(format!(
                    "event={}",
                    match x.event {
                        Event::Stability => "stability",
                        Event::Growth => "growth",
                        Event::Shrinkage => "shrinkage",
                    }
                ));
                arg(format!(
                    "semantics={}",
                    match x.semantics {
                        Semantics::Union => "union",
                        Semantics::Intersect => "intersect",
                    }
                ));
                arg(format!(
                    "extend={}",
                    match x.extend {
                        Extend::Old => "old",
                        Extend::New => "new",
                    }
                ));
                if matches!(self.query, Query::Explore(_)) {
                    arg(format!("k={}", x.k));
                }
                arg(format!("attrs={}", x.attr));
                match &x.selector {
                    Selector::AllEdges => {}
                    Selector::Node(v) => arg(format!("node={v}")),
                    Selector::Edge(s, d) => arg(format!("edge={s}->{d}")),
                }
            }
            Query::Measure { group, avg } => {
                arg(format!("group={group}"));
                arg(format!("node=avg:{avg}"));
            }
            Query::Cube { attrs, level } => {
                arg(format!("attrs={attrs}"));
                arg(format!("level={level}"));
            }
        }
        line
    }
}

/// What the writer connection appends, open loop.
#[derive(Clone, Copy, Debug)]
pub struct WriterSpec {
    /// Snapshot appended to.
    pub snapshot: &'static str,
    /// Appends per second, whatever the length of the window: 8/s over the
    /// contract's 15 s gives 120 samples, so p90 has twelve beyond it.
    pub rate_hz: f64,
    /// Edges per patch, among `edges / 2` existing authors who each get a
    /// `publications` update; every patch also adds one new author.
    pub edges: usize,
}

impl WriterSpec {
    /// Appends due in a window of `seconds` (at least one, so that even
    /// the shortest window has an epoch to replay).
    pub fn appends_in(&self, seconds: f64) -> usize {
        ((self.rate_hz * seconds).round() as usize).max(1)
    }
}

/// Everything a run needs to know about its workload.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The run's seed: it drew `offsets`, and draws the patches and the
    /// replay samples.
    pub seed: u64,
    /// Snapshots to generate, main one first.
    pub snapshots: Vec<SnapshotSpec>,
    /// The reader cycle.
    pub templates: Vec<Template>,
    /// Where in the cycle each reader connection starts; its length is the
    /// number of reader connections.
    pub offsets: Vec<usize>,
    /// The writer connection, on the one workload that ingests.
    pub writer: Option<WriterSpec>,
}

impl Plan {
    /// The snapshot the writer appends to, if there is a writer.
    pub fn appended_snapshot(&self) -> Option<&'static str> {
        self.writer.map(|w| w.snapshot)
    }
}

/// splitmix64: all the randomness the benchmark needs, with no dependency.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.bits();
        r
    }

    /// The next 64 random bits.
    pub fn bits(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.bits() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn exploration(
    case: (Event, Semantics, Extend),
    attr: &'static str,
    selector: Selector,
    k_divisor: u64,
) -> Exploration {
    Exploration {
        event: case.0,
        semantics: case.1,
        extend: case.2,
        attr,
        selector,
        k_divisor,
        k: 0,
    }
}

fn on(snapshot: &'static str, query: Query) -> Template {
    Template { snapshot, query }
}

fn node(v: &str) -> Selector {
    Selector::Node(v.to_owned())
}

fn edge(s: &str, d: &str) -> Selector {
    Selector::Edge(s.to_owned(), d.to_owned())
}

fn agg(
    snapshot: &'static str,
    mode: Mode,
    attrs: &'static str,
    op: Option<(SetOp, Span, Span)>,
) -> Template {
    on(snapshot, Query::Agg { mode, attrs, op })
}

fn evolution(
    snapshot: &'static str,
    t1: Span,
    t2: Span,
    attrs: &'static str,
    filter_gt: Option<(&'static str, i64)>,
) -> Template {
    on(
        snapshot,
        Query::Evolution {
            t1,
            t2,
            attrs,
            filter_gt,
        },
    )
}

/// The attribute sets `agg` and `evolution` templates rotate through.
const DBLP_ATTRS: [&str; 3] = ["gender", "publications", "gender,publications"];

/// Builds the plan of `workload` for `seed`. `scale` multiplies every
/// snapshot's size: 1.0 for measurements, 0.05 for `--check` and the
/// smoke test.
///
/// The templates and their order are fixed. A template's cost depends on
/// its intervals, selector and threshold, so drawing those from the seed
/// made two seeds of one commit differ by more than two commits of one
/// seed. The seed picks where in the cycle the connections start, and
/// fills the patches.
pub fn plan(workload: Workload, seed: u64, scale: f64) -> Plan {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let dblp = |name, s: f64| SnapshotSpec {
        name,
        dataset: Dataset::Dblp,
        scale: s * scale,
    };
    let (snapshots, mut templates, readers, writer) = match workload {
        Workload::OlapSerial => (vec![dblp(MAIN, 1.0)], olap_templates(), 1, None),
        Workload::ExploreSerial => (vec![dblp(MAIN, 4.0)], explore_templates(), 1, None),
        Workload::MixedConcurrent => (
            vec![
                dblp(MAIN, 1.0),
                SnapshotSpec {
                    name: ML,
                    dataset: Dataset::MovieLens,
                    scale: 0.5 * scale,
                },
            ],
            mixed_templates(),
            2,
            None,
        ),
        Workload::IngestMixed => (
            vec![dblp(MAIN, 1.0)],
            ingest_templates(),
            1,
            Some(WriterSpec {
                snapshot: MAIN,
                rate_hz: 8.0,
                edges: 200,
            }),
        ),
    };
    // One fixed interleaving of the classes, the same for every seed: the
    // order of allocations decides how much freed memory the allocator can
    // reuse, and a seeded order made the process's peak memory bimodal
    // (165 or 212 MB on `olap_serial`).
    Rng::new(0, workload as u64 + 1).shuffle(&mut templates);
    // the seed picks where in the cycle the window opens; connections are
    // evenly spaced from there
    let n = templates.len();
    let first = rng.below(n);
    let offsets = (0..readers)
        .map(|c| (first + c * n / readers) % n)
        .collect();
    Plan {
        workload,
        seed,
        snapshots,
        templates,
        offsets,
        writer,
    }
}

/// 16 `agg` and 8 `evolution` templates.
fn olap_templates() -> Vec<Template> {
    let mut out = Vec::new();
    let mut rot = 0usize;
    let mut next_attrs_mode = || {
        rot += 1;
        (
            DBLP_ATTRS[(rot - 1) % 3],
            if rot % 2 == 1 { Mode::Dist } else { Mode::All },
        )
    };
    // whole-graph aggregation: four attribute/mode picks
    for _ in 0..4 {
        let (attrs, mode) = next_attrs_mode();
        out.push(agg(MAIN, mode, attrs, None));
    }
    // per operator: two pairs of single points, two pairs of 5–10 points
    for op in [SetOp::Union, SetOp::Intersect, SetOp::Diff] {
        for (p, t1, t2) in [
            (12, Span::Fixed(1, 8), Span::Fixed(10, 18)),
            (16, Span::Fixed(5, 9), Span::Fixed(10, 19)),
        ] {
            let (attrs, mode) = next_attrs_mode();
            let points = (op, Span::Fixed(p, p), Span::Fixed(p + 1, p + 1));
            out.push(agg(MAIN, mode, attrs, Some(points)));
            let (attrs, mode) = next_attrs_mode();
            out.push(agg(MAIN, mode, attrs, Some((op, t1, t2))));
        }
    }
    // evolution: short/long span x two attribute sets x with/without filter
    for (t1, t2) in [
        (Span::Fixed(15, 15), Span::Fixed(16, 16)),
        (Span::Fixed(2, 9), Span::Fixed(10, 19)),
    ] {
        for attrs in ["gender", "gender,publications"] {
            for filter_gt in [None, Some(("publications", 4))] {
                out.push(evolution(MAIN, t1, t2, attrs, filter_gt));
            }
        }
    }
    out
}

/// 36 `explore` and 6 `suggest` templates.
fn explore_templates() -> Vec<Template> {
    let mut out = Vec::new();
    // one of each case's three explorations selects a single aggregate
    // node or edge: a third of the 36, spread over all three variants
    let gender_selectors = [node("f"), edge("f", "m"), node("m"), edge("m", "m")];
    let pubs_selectors = [edge("1", "2"), node("2"), edge("1", "1"), node("3")];
    for (c, case) in TABLE1.into_iter().enumerate() {
        let selector = |variant: usize, from: &[Selector; 4]| {
            if variant == c % 3 {
                from[(c / 3) % 4].clone()
            } else {
                Selector::AllEdges
            }
        };
        // static attribute at w_th and w_th/2, time-varying one at w_th
        for (variant, attr, from, k_divisor) in [
            (0, "gender", &gender_selectors, 1),
            (1, "gender", &gender_selectors, 2),
            (2, "publications", &pubs_selectors, 1),
        ] {
            out.push(on(
                MAIN,
                Query::Explore(exploration(case, attr, selector(variant, from), k_divisor)),
            ));
        }
    }
    for (case, attr, selector) in [
        (TABLE1[0], "gender", node("f")),
        (TABLE1[3], "publications", Selector::AllEdges),
        (TABLE1[4], "gender", Selector::AllEdges),
        (TABLE1[7], "publications", edge("1", "2")),
        (TABLE1[8], "gender", Selector::AllEdges),
        (TABLE1[11], "publications", Selector::AllEdges),
    ] {
        out.push(on(
            MAIN,
            Query::Suggest(exploration(case, attr, selector, 1)),
        ));
    }
    out
}

/// The 24-template analyst session: stats, schema, 6 agg, 3 evolution,
/// 8 explore, 2 suggest, 2 measure, 1 cube, across DBLP and MovieLens.
fn mixed_templates() -> Vec<Template> {
    let explore = |snapshot, case, attr, selector, k_divisor| {
        on(
            snapshot,
            Query::Explore(exploration(case, attr, selector, k_divisor)),
        )
    };
    vec![
        on(MAIN, Query::Stats),
        on(ML, Query::Schema),
        agg(MAIN, Mode::Dist, "gender", None),
        agg(
            MAIN,
            Mode::All,
            "gender,publications",
            Some((SetOp::Union, Span::Fixed(2, 9), Span::Fixed(10, 18))),
        ),
        agg(
            MAIN,
            Mode::Dist,
            "publications",
            Some((SetOp::Intersect, Span::Fixed(14, 14), Span::Fixed(15, 15))),
        ),
        agg(
            MAIN,
            Mode::All,
            "gender",
            Some((SetOp::Diff, Span::Fixed(4, 8), Span::Fixed(9, 18))),
        ),
        agg(
            ML,
            Mode::Dist,
            "gender,age",
            Some((SetOp::Intersect, Span::Fixed(2, 2), Span::Fixed(3, 3))),
        ),
        agg(ML, Mode::All, "occupation", None),
        evolution(MAIN, Span::Fixed(2, 9), Span::Fixed(10, 19), "gender", None),
        evolution(
            MAIN,
            Span::Fixed(15, 15),
            Span::Fixed(16, 16),
            "gender,publications",
            Some(("publications", 4)),
        ),
        evolution(ML, Span::Fixed(0, 2), Span::Fixed(3, 5), "gender", None),
        explore(MAIN, TABLE1[4], "gender", Selector::AllEdges, 1),
        explore(MAIN, TABLE1[3], "gender", edge("f", "m"), 2),
        explore(MAIN, TABLE1[0], "publications", Selector::AllEdges, 1),
        explore(MAIN, TABLE1[9], "gender", Selector::AllEdges, 1),
        explore(MAIN, TABLE1[10], "gender", node("f"), 1),
        explore(ML, TABLE1[1], "gender", Selector::AllEdges, 1),
        explore(ML, TABLE1[6], "gender", edge("F", "M"), 1),
        explore(ML, TABLE1[11], "age", Selector::AllEdges, 1),
        on(
            MAIN,
            Query::Suggest(exploration(TABLE1[8], "gender", Selector::AllEdges, 1)),
        ),
        on(
            ML,
            Query::Suggest(exploration(TABLE1[4], "gender", Selector::AllEdges, 1)),
        ),
        on(
            MAIN,
            Query::Measure {
                group: "gender",
                avg: "publications",
            },
        ),
        on(
            ML,
            Query::Measure {
                group: "gender",
                avg: "rating",
            },
        ),
        on(
            MAIN,
            Query::Cube {
                attrs: "gender,publications",
                level: "gender",
            },
        ),
    ]
}

/// The reader beside the ingest: two whole-history explorations on the
/// static attribute, `evolution` and `agg op=intersect` over the two newest
/// points, `stats`, `suggest`.
fn ingest_templates() -> Vec<Template> {
    let newest = (Span::FromEnd(1), Span::FromEnd(0));
    vec![
        on(
            MAIN,
            Query::Explore(exploration(TABLE1[4], "gender", edge("f", "f"), 1)),
        ),
        on(
            MAIN,
            Query::Explore(exploration(TABLE1[3], "gender", node("f"), 2)),
        ),
        evolution(MAIN, newest.0, newest.1, "gender", None),
        agg(
            MAIN,
            Mode::Dist,
            "gender,publications",
            Some((SetOp::Intersect, newest.0, newest.1)),
        ),
        on(MAIN, Query::Stats),
        on(
            MAIN,
            Query::Suggest(exploration(TABLE1[8], "gender", Selector::AllEdges, 1)),
        ),
    ]
}

/// The `append` request lines of the writer lane, generated up front so
/// the timed loop only sends them and the check can replay them.
///
/// Patch `i` is labelled `y<i>`. It picks `edges / 2` of the `authors`
/// at random, gives each a `publications` value, links random pairs of
/// them with `edges` edges, and adds one new author `n<i>` with a gender.
pub fn append_lines(
    seed: u64,
    writer: &WriterSpec,
    authors: &[String],
    count: usize,
) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x77_72_69_74_65_72);
    (0..count)
        .map(|i| {
            let mut line = format!(
                "append {} y{i} node=n{i} static=n{i},gender,{} tv=n{i},publications,1",
                writer.snapshot,
                ["f", "m"][rng.below(2)],
            );
            let active: Vec<&str> = (0..(writer.edges / 2).max(2))
                .map(|_| authors[rng.below(authors.len())].as_str())
                .collect();
            for a in &active {
                line.push_str(&format!(" tv={a},publications,{}", 1 + rng.below(6)));
            }
            for _ in 0..writer.edges {
                let u = active[rng.below(active.len())];
                let v = active[rng.below(active.len())];
                if u != v {
                    line.push_str(&format!(" edge={u},{v}"));
                }
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(p: &Plan, class: Class) -> usize {
        p.templates.iter().filter(|t| t.class() == class).count()
    }

    #[test]
    fn class_proportions_are_fixed_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let p = plan(Workload::OlapSerial, seed, 1.0);
            assert_eq!(
                [Class::Agg, Class::Evolution, Class::Explore].map(|c| count(&p, c)),
                [16, 8, 0]
            );
            assert!(p.writer.is_none());
            let p = plan(Workload::ExploreSerial, seed, 1.0);
            assert_eq!(
                [Class::Explore, Class::Suggest, Class::Agg, Class::Evolution]
                    .map(|c| count(&p, c)),
                [36, 6, 0, 0]
            );
            let selective = p
                .templates
                .iter()
                .filter(
                    |t| matches!(&t.query, Query::Explore(x) if x.selector != Selector::AllEdges),
                )
                .count();
            assert_eq!(selective, 12);
            let p = plan(Workload::MixedConcurrent, seed, 1.0);
            assert_eq!(p.offsets.len(), 2);
            assert_eq!(
                [
                    Class::Stats,
                    Class::Schema,
                    Class::Agg,
                    Class::Evolution,
                    Class::Explore,
                    Class::Suggest,
                    Class::Measure,
                    Class::Cube
                ]
                .map(|c| count(&p, c)),
                [1, 1, 6, 3, 8, 2, 2, 1]
            );
            let p = plan(Workload::IngestMixed, seed, 1.0);
            assert_eq!(p.templates.len(), 6);
            assert_eq!(p.appended_snapshot(), Some(MAIN));
        }
    }

    #[test]
    fn the_seed_moves_the_start_of_the_same_cycle() {
        let a = plan(Workload::ExploreSerial, 7, 1.0);
        let b = plan(Workload::ExploreSerial, 7, 1.0);
        let c = plan(Workload::ExploreSerial, 8, 1.0);
        assert_eq!((&a.templates, &a.offsets), (&b.templates, &b.offsets));
        assert_eq!(a.templates, c.templates);
        let starts: std::collections::BTreeSet<usize> = (1..=10)
            .map(|seed| plan(Workload::ExploreSerial, seed, 1.0).offsets[0])
            .collect();
        assert!(starts.len() >= 7, "{starts:?}");
        let m = plan(Workload::MixedConcurrent, 7, 1.0);
        assert_eq!((m.offsets[0] + 12) % 24, m.offsets[1]);
        // no template twice: each is its own row in the latency geomean
        for (i, t) in a.templates.iter().enumerate() {
            assert!(!a.templates[..i].contains(t), "{t:?} twice");
        }
    }

    #[test]
    fn lines_render_as_the_shell_reads_them() {
        let t = agg(
            MAIN,
            Mode::All,
            "gender",
            Some((SetOp::Diff, Span::Fixed(3, 3), Span::FromEnd(0))),
        );
        assert_eq!(
            t.wire_line(21),
            "agg g all attrs=gender op=diff t1=#3 t2=#20"
        );
        assert_eq!(
            t.session_line(22),
            "agg all attrs=gender op=diff t1=#3 t2=#21"
        );
        assert!(t.follows_appends(Some(MAIN)));
        assert!(!t.follows_appends(Some(ML)) && !t.follows_appends(None));
        let mut x = exploration(TABLE1[3], "gender", edge("f", "m"), 2);
        x.k = 17;
        assert_eq!(
            on(MAIN, Query::Explore(x.clone())).wire_line(21),
            "explore g event=stability semantics=intersect extend=new k=17 attrs=gender edge=f->m"
        );
        assert_eq!(
            on(MAIN, Query::Suggest(x)).wire_line(21),
            "suggest g event=stability semantics=intersect extend=new attrs=gender edge=f->m"
        );
    }

    #[test]
    fn fixed_spans_stay_inside_their_dataset_and_within_ten_points() {
        for w in Workload::ALL {
            for t in plan(w, 1, 1.0).templates {
                let spans = match t.query {
                    Query::Agg {
                        op: Some((_, a, b)),
                        ..
                    } => vec![a, b],
                    Query::Evolution { t1, t2, .. } => vec![t1, t2],
                    _ => vec![],
                };
                let n = if t.snapshot == ML { 6 } else { 21 };
                for s in spans {
                    let (lo, hi) = s.bounds(n);
                    assert!(lo <= hi && hi < n, "{s:?} in {}", w.name());
                    assert!(hi - lo < 10);
                }
            }
        }
    }

    #[test]
    fn append_lines_are_reproducible_and_sized() {
        let authors: Vec<String> = (0..50).map(|i| format!("a{i}")).collect();
        let w = WriterSpec {
            snapshot: MAIN,
            rate_hz: 8.0,
            edges: 200,
        };
        assert_eq!((w.appends_in(5.0), w.appends_in(0.01)), (40, 1));
        let a = append_lines(5, &w, &authors, 3);
        assert_eq!(a, append_lines(5, &w, &authors, 3));
        assert_ne!(a, append_lines(6, &w, &authors, 3));
        assert!(a[2].starts_with("append g y2 node=n2 static=n2,gender,"));
        assert_eq!(a[0].matches(" tv=").count(), 101);
        let edges = a[0].matches(" edge=").count();
        assert!((150..=200).contains(&edges), "{edges}");
    }
}
