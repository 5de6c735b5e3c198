//! Logical-lines-of-code counting for Table I.
//!
//! The paper counts LLoCs "in the core functions, while ignoring the
//! comments, input/output expressions, and data structure (e.g., the
//! graph) definitions". We do the same mechanically: every algorithm in
//! `flash-algos` brackets its core with `FLASH-ALGORITHM-BEGIN/END`
//! markers, and [`count_lloc`] counts the logical lines between them —
//! non-empty, non-comment lines, with multi-line expressions folded by
//! counting only lines that *end* a statement or open/close a block.
//!
//! Competitor LLoCs cannot be measured (we own none of their code); Table
//! I's reported constants are reproduced in [`PAPER_LLOC`].

use crate::catalogue::CATALOGUE;
use crate::harness::{App, Framework};

/// Extracts the marked core region of an algorithm source.
pub fn core_region<'a>(source: &'a str, key: &str) -> Option<&'a str> {
    let begin = format!("FLASH-ALGORITHM-BEGIN: {key}");
    let end = format!("FLASH-ALGORITHM-END: {key}");
    let b = source.find(&begin)? + begin.len();
    let e = source[b..].find(&end)? + b;
    Some(&source[b..e])
}

/// Counts logical lines: skips blanks and comments; a physical line counts
/// only when it completes a statement or opens/closes a block (`;`, `{`,
/// `}`, or a closure arm ending in `,` at top level of a call are the
/// practical Rust statement terminators).
pub fn count_lloc(code: &str) -> usize {
    code.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter(|l| !l.starts_with("//"))
        .filter(|l| {
            l.ends_with(';')
                || l.ends_with('{')
                || l.ends_with('}')
                || l.ends_with("},")
                || l.ends_with(");")
                || l.ends_with(')')
        })
        .count()
}

/// The LLoC of the FLASH implementation of the Table I row `label`:
/// the catalogue row carrying that label, its marked core counted.
pub fn flash_lloc(label: &str) -> Option<usize> {
    let row = CATALOGUE.iter().find(|a| a.label == Some(label))?;
    core_region(row.source, row.module).map(count_lloc)
}

/// Table I as reported by the paper: `(row, pregel+, powergraph, gemini,
/// ligra, flash)`; `None` = the paper's ∅ (inexpressible).
pub type PaperRow = (
    &'static str,
    Option<usize>,
    Option<usize>,
    Option<usize>,
    Option<usize>,
    usize,
);

/// The paper's reported Table I numbers.
pub const PAPER_LLOC: [PaperRow; 16] = [
    ("CC-basic", Some(30), Some(36), Some(50), Some(26), 12),
    ("CC-opt", Some(63), None, None, None, 56),
    ("BFS", Some(22), Some(25), Some(56), Some(20), 13),
    ("BC", Some(49), Some(162), Some(139), Some(75), 33),
    ("MIS", Some(48), Some(53), Some(112), Some(37), 23),
    ("MM-basic", Some(57), Some(66), Some(98), Some(59), 20),
    ("MM-opt", Some(84), None, None, None, 27),
    ("KC", Some(35), Some(32), None, Some(45), 20),
    ("TC", Some(31), Some(181), None, Some(38), 22),
    ("GC", Some(48), Some(58), None, None, 24),
    ("SCC", Some(275), None, None, None, 74),
    ("BCC", Some(1057), None, None, None, 77),
    ("LPA", Some(51), Some(46), None, None, 26),
    ("MSF", Some(208), None, None, None, 24),
    ("RC", None, None, None, None, 23),
    ("CL", None, None, None, None, 33),
];

/// The matrix cells Table I marks ∅ (inexpressible), read off
/// [`PAPER_LLOC`]. A row's label names its application: CC-basic and
/// MM-basic are CC and MM, the rest their abbreviation; the FLASH-only
/// rows CC-opt and MM-opt name no cell.
pub fn inexpressible() -> Vec<(Framework, App)> {
    use Framework::*;
    let mut cells = Vec::new();
    for (label, pregel, powerg, gemini, ligra, _) in PAPER_LLOC {
        let abbr = label.strip_suffix("-basic").unwrap_or(label);
        let mut apps = App::TABLE5.into_iter().chain(App::TABLE6);
        let Some(app) = apps.find(|a| a.abbr() == abbr) else {
            continue;
        };
        for (f, lloc) in [
            (PregelPlus, pregel),
            (PowerGraph, powerg),
            (Gemini, gemini),
            (Ligra, ligra),
        ] {
            if lloc.is_none() {
                cells.push((f, app));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_has_a_marked_core() {
        for (label, ..) in PAPER_LLOC {
            let lloc = flash_lloc(label).unwrap_or_else(|| panic!("{label}: no marked core"));
            assert!(lloc > 3, "{label}: suspiciously few lines ({lloc})");
            assert!(lloc < 200, "{label}: suspiciously many lines ({lloc})");
        }
    }

    #[test]
    fn counter_skips_blanks_and_comments() {
        let code = r#"
            // a comment
            let x = 1;

            if cond {
                y();
            }
        "#;
        assert_eq!(count_lloc(code), 4);
    }

    #[test]
    fn flash_stays_leaner_than_pregel_everywhere() {
        // The productivity claim, measured on our own sources against the
        // paper's reported Pregel+ numbers.
        for (name, pregel, _, _, _, _) in PAPER_LLOC {
            let ours = flash_lloc(name).unwrap();
            if let Some(p) = pregel {
                assert!(
                    ours <= p,
                    "{name}: our FLASH impl has {ours} LLoC vs Pregel+'s {p}"
                );
            }
        }
    }

    #[test]
    fn inexpressible_cells_are_the_blanks_of_table_i() {
        use App::*;
        let want: [(Framework, &[App]); 4] = [
            (Framework::PregelPlus, &[Rc, Cl]),
            (Framework::PowerGraph, &[Scc, Bcc, Msf, Rc, Cl]),
            (Framework::Gemini, &[Kc, Tc, Gc, Scc, Bcc, Lpa, Msf, Rc, Cl]),
            (Framework::Ligra, &[Gc, Scc, Bcc, Lpa, Msf, Rc, Cl]),
        ];
        let cells = inexpressible();
        let want: Vec<(Framework, App)> = want
            .into_iter()
            .flat_map(|(f, apps)| apps.iter().map(move |&a| (f, a)))
            .collect();
        assert_eq!(cells.len(), want.len(), "{cells:?}");
        assert!(want.iter().all(|c| cells.contains(c)), "{cells:?}");
    }

    #[test]
    fn paper_table_has_16_rows() {
        assert_eq!(PAPER_LLOC.len(), 16);
        let rows = CATALOGUE.iter().filter(|a| a.label.is_some());
        assert_eq!(rows.count(), 16);
    }
}
