//! OLAP-style analysis of the MovieLens co-rating graph: a cube over all
//! four attributes answers every (level, scope) query (§4.3) — a slice is
//! a one-point scope, a drill-down a finer level — each one ALL walk at
//! the requested level; then the whole graph is zoomed to a coarser time
//! domain.
//!
//! Run with `cargo run --example olap_cube`.

use graphtempo::cube::{GraphCube, Level};
use graphtempo::zoom::{zoom_out, Granularity};
use graphtempo_repro::prelude::*;

fn main() {
    let g = MovieLensConfig::scaled(0.2).generate().unwrap();
    println!("{}", GraphStats::compute(&g).render_table());

    let dims = ["gender", "age", "occupation", "rating"];
    let attrs: Vec<AttrId> = dims.iter().map(|n| g.schema().id(n).unwrap()).collect();
    let cube = GraphCube::build(&g, &attrs, 1);
    let levels = (1 << dims.len()) - 1; // the non-empty subsets
    println!("cube on {dims:?} — {levels} attribute levels");

    // Slice: who rated in August, by gender? A one-point scope.
    let aug = TimeSet::point(g.domain().len(), TimePoint(3));
    let by_gender = cube.query(&Level::new(vec!["gender"]), &aug).unwrap();
    println!("\nAugust by gender:\n{}", by_gender.render(&g));

    // Drill down to (gender, age) for the same slice: a finer level.
    let ga = Level::new(vec!["gender", "age"]);
    let detailed = cube.query(&ga, &aug).unwrap();
    println!(
        "drill-down to (gender, age): {} aggregate nodes, {} aggregate edges",
        detailed.n_nodes(),
        detailed.n_edges()
    );

    // Query a whole-summer scope at the (rating) level.
    let summer = TimeSet::range(g.domain().len(), 0, 3); // May..Aug
    let ratings = cube.query(&Level::new(vec!["rating"]), &summer).unwrap();
    println!("\nMay–Aug rating distribution (appearances):");
    for (tuple, w) in ratings.iter_nodes() {
        println!("  rating {}: {w}", tuple[0]);
    }

    // Zoom the graph itself to two-month resolution and compare.
    let gran = Granularity::windows(g.domain(), 2).unwrap();
    let coarse = zoom_out(&g, &gran, SideTest::Any).unwrap();
    println!(
        "\nzoomed to {:?}: {} nodes, {} edges",
        coarse.domain().labels(),
        coarse.n_nodes(),
        coarse.n_edges()
    );
    let coarse_agg = aggregate(
        &coarse,
        &[coarse.schema().id("gender").unwrap()],
        AggMode::Distinct,
    );
    println!(
        "gender DIST on the zoomed graph:\n{}",
        coarse_agg.render(&coarse)
    );
}
