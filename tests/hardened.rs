//! Pins the hardened IR of the whole corpus (`haft::corpus`): every
//! program under every preset must hash, count and report exactly as
//! `tests/hardened.digest` records. A pass refactor leaves the file
//! unchanged; a pass change updates exactly the cells it means to move,
//! regenerated with
//! `cargo run --release -p haft --example dump_hardened -- --digest > tests/hardened.digest`.

use std::collections::BTreeMap;

/// Keys a digest line by its cell, `<program> <preset>`.
fn by_cell(lines: &[&str]) -> BTreeMap<String, String> {
    lines
        .iter()
        .map(|l| {
            let cell: Vec<&str> = l.splitn(3, ' ').take(2).collect();
            (cell.join(" "), l.to_string())
        })
        .collect()
}

#[test]
fn every_hardened_module_matches_its_digest() {
    let actual = haft::corpus::digest();
    let expected: Vec<&str> = include_str!("hardened.digest").lines().collect();
    let actual_refs: Vec<&str> = actual.iter().map(String::as_str).collect();
    if actual_refs == expected {
        return;
    }
    let (want, got) = (by_cell(&expected), by_cell(&actual_refs));
    let mut report = String::new();
    for cell in want.keys().chain(got.keys().filter(|c| !want.contains_key(*c))) {
        match (want.get(cell), got.get(cell)) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => report.push_str(&format!(
                "{cell}: moved\n  want {}\n  got  {}\n  see: cargo run --release -p haft \
                 --example dump_hardened -- {cell}\n",
                w.map_or("(no such cell)", String::as_str),
                g.map_or("(no such cell)", String::as_str),
            )),
        }
    }
    if report.is_empty() {
        report.push_str("every cell matches, but the line order differs\n");
    }
    panic!(
        "hardened IR differs from tests/hardened.digest:\n{report}regenerate with \
         `cargo run --release -p haft --example dump_hardened -- --digest > tests/hardened.digest` \
         if the change is meant"
    );
}
