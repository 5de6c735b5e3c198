//! Registry of the paper's Table III datasets as synthetic stand-ins.
//!
//! The real graphs (up to 50.6M vertices / 1.95B edges) are not shipped with
//! this reproduction; each entry generates a scaled synthetic graph of the
//! same topology class (see [`crate::generators`] and DESIGN.md §1). Sizes
//! preserve the *relative* ordering within each class (TW > OR, SK > UK,
//! EU > US) so crossover behaviour in the evaluation carries over.

use crate::generators;
use crate::graph::Graph;

/// The topology domain of a dataset (Table III's "Domain" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Social network: skewed degrees, hot vertices, small diameter.
    SocialNetwork,
    /// Road network: near-planar, degree ≈ 2–3, huge diameter.
    RoadNetwork,
    /// Web graph: community structure, "somewhere in the middle".
    WebGraph,
}

impl Domain {
    /// Table III's abbreviation for the domain.
    pub fn abbr(self) -> &'static str {
        match self {
            Domain::SocialNetwork => "SN",
            Domain::RoadNetwork => "RN",
            Domain::WebGraph => "WG",
        }
    }
}

/// One dataset of the evaluation: a named, deterministic synthetic graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Stand-in for `soc-orkut` (3.07M vertices / 117M edges in the paper).
    Orkut,
    /// Stand-in for `soc-twitter` (41.7M / 1.47B).
    Twitter,
    /// Stand-in for `road-USA` (23.9M / 28.9M, diameter 1452).
    RoadUsa,
    /// Stand-in for `europe-osm` (50.9M / 54.1M, diameter 2037).
    EuropeOsm,
    /// Stand-in for `uk-2002` (18.5M / 298M).
    Uk2002,
    /// Stand-in for `sk-2005` (50.6M / 1.95B).
    Sk2005,
}

impl Dataset {
    /// All six datasets in Table III order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Orkut,
        Dataset::Twitter,
        Dataset::RoadUsa,
        Dataset::EuropeOsm,
        Dataset::Uk2002,
        Dataset::Sk2005,
    ];

    /// Table III's two-letter abbreviation.
    pub fn abbr(self) -> &'static str {
        match self {
            Dataset::Orkut => "OR",
            Dataset::Twitter => "TW",
            Dataset::RoadUsa => "US",
            Dataset::EuropeOsm => "EU",
            Dataset::Uk2002 => "UK",
            Dataset::Sk2005 => "SK",
        }
    }

    /// The synthetic stand-in's name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Orkut => "soc-orkut-sim",
            Dataset::Twitter => "soc-twitter-sim",
            Dataset::RoadUsa => "road-usa-sim",
            Dataset::EuropeOsm => "europe-osm-sim",
            Dataset::Uk2002 => "uk-2002-sim",
            Dataset::Sk2005 => "sk-2005-sim",
        }
    }

    /// Original `(|V|, |E|)` as reported in Table III (for the report).
    pub fn paper_size(self) -> (&'static str, &'static str) {
        match self {
            Dataset::Orkut => ("3.07M", "117M"),
            Dataset::Twitter => ("41.7M", "1.47B"),
            Dataset::RoadUsa => ("23.9M", "28.9M"),
            Dataset::EuropeOsm => ("50.9M", "54.1M"),
            Dataset::Uk2002 => ("18.5M", "298M"),
            Dataset::Sk2005 => ("50.6M", "1.95B"),
        }
    }

    /// The topology domain.
    pub fn domain(self) -> Domain {
        match self {
            Dataset::Orkut | Dataset::Twitter => Domain::SocialNetwork,
            Dataset::RoadUsa | Dataset::EuropeOsm => Domain::RoadNetwork,
            Dataset::Uk2002 | Dataset::Sk2005 => Domain::WebGraph,
        }
    }

    /// Generates the synthetic graph (deterministic; symmetric/undirected,
    /// matching the paper's treatment of these datasets).
    pub fn load(self) -> Graph {
        match self {
            Dataset::Orkut => generators::rmat(13, 14, Default::default(), 0xF1A5_0001),
            Dataset::Twitter => generators::rmat(15, 16, Default::default(), 0xF1A5_0002),
            Dataset::RoadUsa => generators::road_network(60, 540, 0xF1A5_0003),
            Dataset::EuropeOsm => generators::road_network(80, 845, 0xF1A5_0004),
            Dataset::Uk2002 => generators::web_graph(16_384, 18, 64, 0xF1A5_0005),
            Dataset::Sk2005 => generators::web_graph(49_152, 26, 96, 0xF1A5_0006),
        }
    }

    /// A ~10x smaller variant of the same topology, for tests and smoke runs.
    pub fn load_small(self) -> Graph {
        match self {
            Dataset::Orkut => generators::rmat(10, 12, Default::default(), 0xF1A5_1001),
            Dataset::Twitter => generators::rmat(11, 14, Default::default(), 0xF1A5_1002),
            Dataset::RoadUsa => generators::road_network(30, 105, 0xF1A5_1003),
            Dataset::EuropeOsm => generators::road_network(40, 160, 0xF1A5_1004),
            Dataset::Uk2002 => generators::web_graph(2_048, 14, 16, 0xF1A5_1005),
            Dataset::Sk2005 => generators::web_graph(5_120, 20, 24, 0xF1A5_1006),
        }
    }

    /// Parses a dataset from its Table III abbreviation (case-insensitive).
    pub fn from_abbr(abbr: &str) -> Option<Dataset> {
        Dataset::ALL
            .into_iter()
            .find(|d| d.abbr().eq_ignore_ascii_case(abbr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;

    #[test]
    fn registry_is_complete_and_parseable() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::from_abbr(d.abbr()), Some(d));
            assert_eq!(Dataset::from_abbr(&d.abbr().to_lowercase()), Some(d));
            assert!(!d.name().is_empty());
        }
        assert_eq!(Dataset::from_abbr("zz"), None);
    }

    #[test]
    fn small_variants_preserve_topology_class() {
        // Road nets: long diameter, low degree. Social: skew. Web: middle.
        let us = Dataset::RoadUsa.load_small();
        let us_stats = graph_stats(&us);
        assert!(us_stats.avg_degree < 5.0);
        assert!(us_stats.pseudo_diameter > 50);
        assert_eq!(us_stats.components, 1);

        let or = Dataset::Orkut.load_small();
        let or_stats = graph_stats(&or);
        assert!(or_stats.max_degree as f64 > 5.0 * or_stats.avg_degree);
        assert!(or_stats.pseudo_diameter < 20);

        let uk = Dataset::Uk2002.load_small();
        let uk_stats = graph_stats(&uk);
        assert_eq!(uk_stats.components, 1);
        assert!(uk_stats.pseudo_diameter < us_stats.pseudo_diameter);
    }

    #[test]
    fn relative_ordering_within_classes() {
        // Per Table III: TW > OR, EU > US, SK > UK in |V|.
        let sizes: Vec<usize> = [
            Dataset::Orkut,
            Dataset::Twitter,
            Dataset::RoadUsa,
            Dataset::EuropeOsm,
            Dataset::Uk2002,
            Dataset::Sk2005,
        ]
        .iter()
        .map(|d| d.load_small().num_vertices())
        .collect();
        assert!(sizes[1] > sizes[0]);
        assert!(sizes[3] > sizes[2]);
        assert!(sizes[5] > sizes[4]);
    }
}
