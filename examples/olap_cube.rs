//! OLAP-style analysis of the MovieLens co-rating graph: a cube over all
//! four attributes answers roll-up / drill-down / slice queries at any
//! time granularity (§4.3), each one masked aggregation at the requested
//! level; then the whole graph is zoomed to a coarser time domain.
//!
//! Run with `cargo run --example olap_cube`.

use graphtempo::cube::{GraphCube, Level};
use graphtempo::zoom::{zoom_out, Granularity};
use graphtempo_repro::prelude::*;

fn main() {
    let g = MovieLensConfig::scaled(0.2).generate().unwrap();
    println!("{}", GraphStats::compute(&g).render_table());

    let attrs: Vec<AttrId> = ["gender", "age", "occupation", "rating"]
        .iter()
        .map(|n| g.schema().id(n).unwrap())
        .collect();
    let cube = GraphCube::build(&g, &attrs, 1);
    println!(
        "cube on {:?} — {} attribute levels",
        cube.base_level().names(),
        cube.all_levels().len()
    );

    // Slice: who rated in August, by gender?
    let aug = TimePoint(3);
    let by_gender = cube.slice(&Level::new(vec!["gender"]), aug).unwrap();
    println!("\nAugust by gender:\n{}", by_gender.render(&g));

    // Drill down to (gender, age) for the same slice.
    let ga = cube.drill_down(&Level::new(vec!["gender"]), "age").unwrap();
    let detailed = cube.slice(&ga, aug).unwrap();
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
