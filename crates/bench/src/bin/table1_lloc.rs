//! Regenerates Table I: logical lines of code per algorithm per model.
//! FLASH's column is measured from this repository's sources; competitor
//! columns reproduce the paper's reported constants (their code is not
//! ours to count).

use flash_bench::jsonio;
use flash_bench::lloc::{flash_lloc, sources, PAPER_LLOC};
use flash_bench::report::render_table;
use flash_obs::Json;

fn main() {
    let fmt = |v: Option<usize>| v.map_or("-".to_string(), |x| x.to_string());
    let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
    let mut json_rows = Vec::new();
    let rows: Vec<(String, Vec<String>)> = PAPER_LLOC
        .iter()
        .map(|&(name, pregel, powerg, gemini, ligra, paper_flash)| {
            let key = sources()
                .into_iter()
                .find(|s| s.name == name)
                .map(|s| s.key)
                .expect("every row has a source");
            let measured = flash_lloc(key).expect("marked core exists");
            json_rows.push(
                Json::object()
                    .set("algo", name)
                    .set("pregel_plus", opt(pregel))
                    .set("powergraph", opt(powerg))
                    .set("gemini", opt(gemini))
                    .set("ligra", opt(ligra))
                    .set("flash_measured", measured)
                    .set("flash_paper", paper_flash),
            );
            (
                name.to_string(),
                vec![
                    fmt(pregel),
                    fmt(powerg),
                    fmt(gemini),
                    fmt(ligra),
                    measured.to_string(),
                    paper_flash.to_string(),
                ],
            )
        })
        .collect();

    println!("Table I — Expressiveness & Productivity (LLoC, lower is better)");
    println!("(competitor columns: the paper's reported values; FLASH: measured here)\n");
    println!(
        "{}",
        render_table(
            &[
                "Algo.",
                "Pregel+",
                "PowerG.",
                "Gemini",
                "Ligra",
                "FLASH(ours)",
                "FLASH(paper)"
            ],
            &rows
        )
    );

    let leaner = PAPER_LLOC
        .iter()
        .filter(|&&(name, pregel, ..)| {
            let key = sources().into_iter().find(|s| s.name == name).unwrap().key;
            match (flash_lloc(key), pregel) {
                (Some(ours), Some(p)) => ours < p,
                _ => false,
            }
        })
        .count();
    let comparable = PAPER_LLOC.iter().filter(|r| r.1.is_some()).count();
    println!("FLASH leaner than Pregel+ in {leaner}/{comparable} comparable rows.");
    let doc = Json::object()
        .set("table", "table1_lloc")
        .set("leaner_than_pregel", leaner)
        .set("comparable", comparable)
        .set("rows", Json::Arr(json_rows));
    jsonio::save(&jsonio::results_dir(), "table1_lloc", &doc);
}
