//! EXPERIMENTS.md quotes the golden: every number in the "measured"
//! column of its paper table and in the "result" column of its ablation
//! table is declared below, together with where `experiments_output.txt`
//! prints it and how the prose rounds it. A figure that drifts from the
//! golden, and a number added to those columns without a declaration,
//! both fail here.

use std::collections::BTreeMap;

/// How a figure in the prose derives from the golden token.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// The prose prints the golden token itself (thousands separators
    /// aside).
    Exact,
    /// The golden value rounded half-up to this many decimals.
    Round(u32),
    /// The golden value in thousands, rounded half-up to this many
    /// decimals (the prose writes `4.1k`, `100 k`).
    Kilo(u32),
    /// The golden count as a percentage of a total, rounded half-up.
    PctOf(f64, u32),
    /// The golden table's row count.
    Rows,
    /// Not printed in the golden; the reason says where it comes from.
    NotPrinted(&'static str),
}
use Rule::*;

/// One number in EXPERIMENTS.md: the row id, the number as the prose
/// tokenizes (see [`numbers`]), the golden section and the start of its
/// line, the golden token on that line, and the rounding rule.
struct Figure {
    row: &'static str,
    doc: &'static str,
    section: &'static str,
    line: &'static str,
    golden: &'static str,
    rule: Rule,
}

const fn fig(
    row: &'static str,
    doc: &'static str,
    at: (&'static str, &'static str, &'static str),
    rule: Rule,
) -> Figure {
    Figure {
        row,
        doc,
        section: at.0,
        line: at.1,
        golden: at.2,
        rule,
    }
}

const NONE: (&str, &str, &str) = ("", "", "");

#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    fig("T1", "1,631", ("T1", "Probase", "1631"), Exact),
    fig("T1", "184", ("T1", "YAGO", "184"), Exact),
    fig("T1", "135", ("T1", "WikiTaxonomy", "135"), Exact),
    fig("T1", "93", ("T1", "WordNet", "93"), Exact),
    fig("T1", "8", ("T1", "Freebase", "8"), Exact),
    fig("T4", "625", ("T4", "Probase", "625"), Exact),
    fig("T4", "9.05", ("T4", "Probase", "9.05"), Exact),
    fig("T4", "1.37", ("T4", "Probase", "1.37"), Exact),
    fig("T4", "2.39", ("T4", "Probase", "2.388"), Round(2)),
    fig("T4", "6", ("T4", "Probase", "6"), Exact),
    fig("T4", "0", ("T4", "Freebase", "0"), Exact),
    fig("T5", "3", ("T5", "T5:", "3"), Exact),
    fig("T5", "35/40", NONE, NotPrinted("the T5 rows compared by hand with the paper's Table 5")),
    fig("F5", "926", ("F5", "Probase", "926"), Exact),
    fig("F5", "184", ("F5", "YAGO", "184"), Exact),
    fig("F5", "100", ("F5", "taxonomy", "99826"), Kilo(0)),
    fig("F6", "85.3%", ("F6", "Probase covers", "85.3%"), Exact),
    fig("F6", "100", ("F6", "taxonomy", "99826"), Kilo(0)),
    fig("F6", "19.6%", ("F6", "YAGO", "19611"), PctOf(99826.0, 1)),
    fig("F7", "88", ("F7", "Freebase", "88"), Exact),
    fig("F7", "10,161", ("F7", "Probase", "10161"), Exact),
    fig("F8", "10", ("F8", "top-10", "10"), Exact),
    fig("F8", "5.2%", ("F8", "top-10", "5.2%"), Exact),
    fig("F8", "10", ("F8", "top-10", "10"), Exact),
    fig("F8", "100%", ("F8", "top-10", "100.0%"), Round(0)),
    fig("F8", "8", ("T1", "Freebase", "8"), Exact),
    fig("F9", "84.1%", ("F9", "benchmark precision", "84.1%"), Exact),
    fig("F9", "93.0%", ("AB3", "Probase", "93.0%"), Exact),
    fig("F9", "29.7%", ("F9", "syntactic closest-NP", "29.7%"), Exact),
    fig("F9", "35.5%", ("F9", "syntactic + proper-only", "35.5%"), Exact),
    fig("F9", "19.3%", ("F9", "syntactic + bootstrapping", "19.3%"), Exact),
    fig("F10", "1", ("F10", "1 ", "1"), Exact),
    fig("F10", "60,065", ("F10", "1 ", "60065"), Exact),
    fig("F10", "2", ("F10", "2 ", "2"), Exact),
    fig("F10", "163,535", ("F10", "2 ", "163535"), Exact),
    fig("F10", "8", ("F10", "8 ", "8"), Exact),
    fig("F11", "97.52%", ("F11", "shape check", "97.52%"), Exact),
    fig("F11", "93.01%", ("F11", "shape check", "93.01%"), Exact),
    fig("F12", "81.5%", ("F12", "averages", "81.5%"), Exact),
    fig("F12", "81.5%", ("F12", "averages", "81.5%"), Exact),
    fig("F12", "31", ("F12", "", ""), Rows),
    fig("§5.3.1", "35/39", ("A1", "semantic rewrite", "35/39"), Exact),
    fig("§5.3.1", "99%", ("A1", "semantic rewrite", "99.0%"), Round(0)),
    fig("§5.3.1", "199", ("A1", "semantic rewrite", "199"), Exact),
    fig("§5.3.1", "21/39", ("A1", "keyword baseline", "21/39"), Exact),
    fig("§5.3.1", "79", ("A1", "keyword baseline", "79"), Exact),
    fig("§5.3.1", "18.7%", ("A1", "keyword baseline", "18.7%"), Exact),
    fig("§5.3.2", "0.998", ("A2", "Probase concept vectors", "0.998"), Exact),
    fig("§5.3.2", "0.221", ("A2", "bag of words", "0.221"), Exact),
    fig("§5.3.2", "480", ("A2", "(480 tweets", "480"), Exact),
    fig("§5.3.2", "6", ("A2", "(480 tweets", "6"), Exact),
    fig("§5.3.2", "99.3%", ("A3", "header precision", "99.3%"), Exact),
    fig("§5.3.2", "300", ("A3", "columns", "300"), Exact),
    fig("§5.3.2", "305", ("A3", "cells proposed", "305"), Exact),
    fig("§1 (extra)", "100%", ("A4", "correct tags", "100.0%"), Round(0)),
    fig("§1 (extra)", "874", ("A4", "entity tags", "874"), Exact),
    fig("§1 (extra)", "480", ("A4", "texts", "480"), Exact),
    fig("§1 fn.1 (extra)", "1", ("A5", "gold concept at rank 1", "1"), Exact),
    fig("§1 fn.1 (extra)", "25", ("A5", "gold concept at rank 1", "25"), Exact),
    fig("§1 fn.1 (extra)", "25", ("A5", "queries", "25"), Exact),
    fig("AB1", "5/5", NONE, NotPrinted("one golden row per seeded random schedule, seeds 0 to 4")),
    fig("AB1", "26", ("AB1", "horizontal-first", "26"), Exact),
    fig("AB2", "366", ("AB2", "Jaccard", "366"), Exact),
    fig("AB2", "20,000", ("AB2", "(20000", "20000"), Exact),
    fig("AB2", "1.8%", ("AB2", "Jaccard", "1.8%"), Exact),
    fig("AB2", "0", ("AB2", "absolute overlap", "0"), Exact),
    fig("AB3", "93.0%", ("AB3", "Probase", "93.0%"), Exact),
    fig("AB3", "19", ("AB3", "syntactic + bootstrapping", "19.3%"), Round(0)),
    fig("AB3", "36%", ("AB3", "syntactic + proper-only", "35.5%"), Round(0)),
    fig("AB4", "0.929", ("AB4", "Naive Bayes", "0.929"), Exact),
    fig("AB4", "0.910", ("AB4", "Urns", "0.910"), Exact),
    fig("AB4", "0.910", ("AB4", "raw evidence count", "0.910"), Exact),
    fig("AB5", "25", ("AB5", "1 ", "25"), Exact),
    fig("AB5", "1", ("AB5", "1 ", "1"), Exact),
    fig("AB5", "4", ("AB5", "4 ", "4"), Exact),
    fig("AB5", "1.17", ("AB5", "1 ", "1.168"), Round(2)),
    fig("AB5", "1", ("AB5", "1 ", "1"), Exact),
    fig("AB5", "5.52", ("AB5", "4 ", "5.524"), Round(2)),
    fig("AB5", "4", ("AB5", "4 ", "4"), Exact),
    fig("AB5", "2", ("AB5", "large δ", "2"), Exact),
    fig("AB6", "98.1%", ("AB6", "encyclopedia", "98.1%"), Exact),
    fig("AB6", "94.9%", ("AB6", "web", "94.9%"), Exact),
    fig("AB6", "87.4%", ("AB6", "forum", "87.4%"), Exact),
    fig("AB6", "0.90", ("AB6", "forum", "0.897"), Round(2)),
    fig("AB6", "0.92", ("AB6", "encyclopedia", "0.922"), Round(2)),
    fig("AB7", "0.995", ("AB7", "0.995", "0.995"), Exact),
    fig("AB7", "93.0%", ("AB7", "0.000", "93.0%"), Exact),
    fig("AB7", "99.9%", ("AB7", "0.995", "99.9%"), Exact),
    fig("AB7", "82.8%", ("AB7", "0.995", "82.8%"), Exact),
    fig("E1", "4.1", ("E1", "10000", "4070"), Kilo(1)),
    fig("E1", "10", ("E1", "10000", "10000"), Kilo(0)),
    fig("E1", "14.2", ("E1", "80000", "14171"), Kilo(1)),
    fig("E1", "80", ("E1", "80000", "80000"), Kilo(0)),
    fig("E1", "93", ("E1", "80000", "93.0%"), Round(0)),
    fig("E1", "98%", ("E1", "10000", "98.3%"), Round(0)),
];

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The numbers in `text`: maximal runs of digits, `.`, `,`, `/` and `%`
/// that start with a digit, without trailing sentence punctuation.
fn numbers(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars().chain([' ']) {
        let inside = c.is_ascii_digit() || (!cur.is_empty() && ".,/%".contains(c));
        if inside {
            cur.push(c);
        } else if !cur.is_empty() {
            let token = cur.trim_end_matches(['.', ',', '/']);
            out.push(token.to_string());
            cur.clear();
        }
    }
    out
}

/// Row id → the checked cells of that row (rows sharing an id are
/// concatenated): column 3 of the paper table, column 2 of the ablation
/// table.
fn measured_cells(doc: &str) -> BTreeMap<String, String> {
    let mut rows: BTreeMap<String, String> = BTreeMap::new();
    for line in doc.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // "| a | b |" splits into ["", a, b, ""].
        let col = match cells.len() {
            7 => 4,
            5 => 3,
            _ => continue,
        };
        let id = cells[1];
        if id == "id" || id.starts_with("--") {
            continue;
        }
        let cell = rows.entry(id.to_string()).or_default();
        cell.push(' ');
        cell.push_str(cells[col]);
    }
    rows
}

/// The lines of the golden section whose banner starts with `id:`,
/// with the banner itself last.
fn section<'a>(golden: &'a str, id: &str) -> Vec<&'a str> {
    let banner = format!("{id}: ");
    let lines: Vec<&str> = golden.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.starts_with(&banner))
        .unwrap_or_else(|| panic!("golden has no section {id}"));
    lines[start..]
        .iter()
        .skip(2)
        .take_while(|l| !l.starts_with("===="))
        .copied()
        .chain(std::iter::once(lines[start]))
        .collect()
}

/// True when `token` occurs in `line` as a whole number: no digit, and
/// no `.` that continues a number, on either side.
fn has_token(line: &str, token: &str) -> bool {
    let glued = |mut side: std::str::Chars, back: bool| {
        let mut next = || if back { side.next_back() } else { side.next() };
        match next() {
            Some(c) if c.is_ascii_digit() => true,
            Some('.') => next().is_some_and(|c| c.is_ascii_digit()),
            _ => false,
        }
    };
    line.match_indices(token).any(|(i, _)| {
        !glued(line[..i].chars(), true) && !glued(line[i + token.len()..].chars(), false)
    })
}

/// A plain decimal (digits, at most one `.`) as (all digits, scale).
fn decimal(s: &str) -> (u128, u32) {
    let s = s.trim_end_matches('%').replace(',', "");
    let (int, frac) = s.split_once('.').unwrap_or((&s, ""));
    let digits = format!("{int}{frac}").parse().expect("a plain decimal");
    (digits, frac.len() as u32)
}

/// `digits / 10^scale` rounded half-up to `places` decimals.
fn round_half_up(digits: u128, scale: u32, places: u32) -> String {
    let value = if scale > places {
        let div = 10u128.pow(scale - places);
        digits / div + u128::from(digits % div * 2 >= div)
    } else {
        digits * 10u128.pow(places - scale)
    };
    let unit = 10u128.pow(places);
    if places == 0 {
        value.to_string()
    } else {
        format!(
            "{}.{:0width$}",
            value / unit,
            value % unit,
            width = places as usize
        )
    }
}

/// What the prose should print for `f`, from its golden token.
fn expected(f: &Figure, golden: &[&str]) -> String {
    match f.rule {
        Exact => f.golden.to_string(),
        Round(n) => {
            let (digits, scale) = decimal(f.golden);
            round_half_up(digits, scale, n)
        }
        Kilo(n) => {
            let (digits, scale) = decimal(f.golden);
            round_half_up(digits, scale + 3, n)
        }
        PctOf(total, n) => format!(
            "{:.*}",
            n as usize,
            f.golden.parse::<f64>().unwrap() * 100.0 / total
        ),
        Rows => {
            // Rows between the table's rule line and the first blank line.
            let body = golden.iter().skip_while(|l| !l.starts_with("---")).skip(1);
            body.take_while(|l| !l.trim().is_empty())
                .count()
                .to_string()
        }
        NotPrinted(_) => unreachable!("not looked up"),
    }
}

#[test]
fn every_measured_figure_matches_the_golden() {
    let golden = read("experiments_output.txt");
    let mut stale = Vec::new();
    for f in FIGURES {
        if let NotPrinted(source) = f.rule {
            assert!(
                !source.is_empty(),
                "{}: say where {} comes from",
                f.row,
                f.doc
            );
            continue;
        }
        let lines = section(&golden, f.section);
        if !matches!(f.rule, Rows) {
            let line = lines
                .iter()
                .find(|l| l.starts_with(f.line))
                .unwrap_or_else(|| {
                    panic!("{}: no golden line {:?} in {}", f.row, f.line, f.section)
                });
            assert!(
                has_token(line, f.golden),
                "{}: golden line {line:?} has no {:?}",
                f.row,
                f.golden
            );
        }
        let want = expected(f, &lines);
        let doc = f.doc.trim_end_matches('%').replace(',', "");
        if doc != want.trim_end_matches('%') {
            stale.push(format!(
                "{}: EXPERIMENTS.md says {}, the golden gives {want} ({:?})",
                f.row, f.doc, f.rule
            ));
        }
    }
    assert!(stale.is_empty(), "stale figures:\n{}", stale.join("\n"));
}

#[test]
fn every_number_in_the_measured_columns_is_declared() {
    let doc = read("EXPERIMENTS.md");
    let cells = measured_cells(&doc);
    let mut declared: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for f in FIGURES {
        declared.entry(f.row).or_default().push(f.doc.to_string());
    }
    let mut differ = Vec::new();
    for (row, cell) in &cells {
        let mut found = numbers(cell);
        found.sort();
        let mut want = declared.remove(row.as_str()).unwrap_or_default();
        want.sort();
        if found != want {
            differ.push(format!(
                "{row}: EXPERIMENTS.md has {found:?}, declared {want:?}"
            ));
        }
    }
    for (row, want) in declared {
        differ.push(format!("{row}: not in EXPERIMENTS.md, declared {want:?}"));
    }
    assert!(
        differ.is_empty(),
        "undeclared or stale numbers:\n{}",
        differ.join("\n")
    );
}

#[test]
fn rounding_is_half_up() {
    assert_eq!(round_half_up(355, 1, 0), "36");
    assert_eq!(round_half_up(1168, 3, 2), "1.17");
    assert_eq!(round_half_up(4070, 3, 1), "4.1");
    assert_eq!(round_half_up(99826, 3, 0), "100");
    assert_eq!(round_half_up(93, 0, 1), "93.0");
    assert_eq!(
        numbers("(4.1k @ 10k → 14.2k), 93–98%; 35/39 and 1,631."),
        ["4.1", "10", "14.2", "93", "98%", "35/39", "1,631"]
    );
}
