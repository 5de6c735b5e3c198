//! Regenerates Table III: the dataset collection — paper originals next
//! to the synthetic stand-ins actually used (see DESIGN.md §1).

use flash_bench::harness::Scale;
use flash_bench::jsonio;
use flash_bench::report::render_table;
use flash_graph::stats::graph_stats;
use flash_graph::Dataset;
use flash_obs::Json;

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("Table III — dataset collection at scale {scale:?}\n");
    let mut json_rows = Vec::new();
    let rows: Vec<(String, Vec<String>)> = Dataset::ALL
        .iter()
        .map(|&d| {
            let g = scale.load(d);
            let s = graph_stats(&g);
            let (pv, pe) = d.paper_size();
            json_rows.push(
                Json::object()
                    .set("abbr", d.abbr())
                    .set("name", d.name())
                    .set("vertices", s.vertices)
                    .set("undirected_edges", s.edges as u64 / 2)
                    .set("pseudo_diameter", s.pseudo_diameter as u64)
                    .set("avg_degree", s.avg_degree)
                    .set("max_degree", s.max_degree as u64)
                    .set("domain", d.domain().abbr())
                    .set("paper_size", format!("{pv}/{pe}")),
            );
            (
                d.abbr().to_string(),
                vec![
                    d.name().to_string(),
                    s.vertices.to_string(),
                    (s.edges / 2).to_string(),
                    s.pseudo_diameter.to_string(),
                    format!("{:.1}", s.avg_degree),
                    s.max_degree.to_string(),
                    d.domain().abbr().to_string(),
                    format!("{pv}/{pe}"),
                ],
            )
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Abbr",
                "Dataset",
                "|V|",
                "|E|(und.)",
                "Diam≈",
                "AvgDeg",
                "MaxDeg",
                "Dom",
                "Paper |V|/|E|"
            ],
            &rows
        )
    );
    println!("Topology classes match the paper: SN = skewed/small-diameter,");
    println!("RN = degree≈2-3/huge-diameter, WG = in between.");
    let doc = Json::object()
        .set("table", "table3_datasets")
        .set("scale", format!("{scale:?}"))
        .set("rows", Json::Arr(json_rows));
    jsonio::save(&jsonio::results_dir(), "table3_datasets", &doc);
}
