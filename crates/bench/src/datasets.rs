//! Shared dataset construction for the experiment binaries.
//!
//! All experiments run on the synthetic DBLP- and MovieLens-like graphs at
//! a scale controlled by the `GRAPHTEMPO_SCALE` environment variable
//! (default 0.1; `GRAPHTEMPO_SCALE=1.0` reproduces the paper's dataset
//! sizes from Tables 3 and 4).

use std::sync::OnceLock;
use tempo_datagen::{DblpConfig, MovieLensConfig};
use tempo_graph::{AttrId, TemporalGraph};

/// The experiment scale factor (`GRAPHTEMPO_SCALE`, default 0.1), read
/// from the environment exactly once per process.
#[allow(clippy::disallowed_methods)] // read once per process so the experiment binaries sweep sizes without recompiling
pub fn scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        std::env::var("GRAPHTEMPO_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.1)
    })
}

/// Generates the DBLP-like graph at the experiment scale.
pub fn dblp() -> TemporalGraph {
    DblpConfig::scaled(scale())
        .generate()
        .expect("DBLP generator produces a valid graph")
}

/// Generates the MovieLens-like graph at the experiment scale.
pub fn movielens() -> TemporalGraph {
    MovieLensConfig::scaled(scale())
        .generate()
        .expect("MovieLens generator produces a valid graph")
}

/// Resolves attribute names to ids, panicking on unknown names (experiment
/// configuration errors should fail loudly).
pub fn attrs(g: &TemporalGraph, names: &[&str]) -> Vec<AttrId> {
    names
        .iter()
        .map(|n| {
            g.schema()
                .id(n)
                .unwrap_or_else(|_| panic!("attribute {n:?} missing from schema"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_generate_at_tiny_scale() {
        // scale() is a one-shot env read, so the tiny scale is pinned on
        // the generator configs directly — no set_var, which would race
        // other tests in this process.
        let d = DblpConfig::scaled(0.01)
            .generate()
            .expect("DBLP generator at tiny scale");
        assert_eq!(d.domain().len(), 21);
        let m = MovieLensConfig::scaled(0.01)
            .generate()
            .expect("MovieLens generator at tiny scale");
        assert_eq!(m.domain().len(), 6);
        assert_eq!(attrs(&d, &["gender", "publications"]).len(), 2);
    }
}
