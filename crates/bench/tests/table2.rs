//! Every row of Table 2 on its deterministic columns, without running
//! the programs: the counts are pinned to `tests/golden/table2.txt`, and
//! each row is checked against the paper's §5.2 claims.
//!
//! On a mismatch the test writes the table it computed next to the
//! build's other test output and names the first row that differs;
//! copying it over the golden file re-records the table, which is only
//! right when a compiler change was *meant* to move the counts.

use llva_bench::table2::{counts_for, Counts};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/table2.txt");

/// The paper's ranges of instructions per LLVA instruction.
const X86_BAND: (f64, f64) = (2.21, 3.27);
const SPARC_BAND: (f64, f64) = (2.26, 4.20);
/// How far past either end of a band a row may lie.
const MARGIN: f64 = 0.10;

fn in_band(ratio: f64, (lo, hi): (f64, f64)) -> bool {
    lo * (1.0 - MARGIN) <= ratio && ratio <= hi * (1.0 + MARGIN)
}

#[test]
fn every_row_matches_the_recorded_counts_and_the_papers_claims() {
    let rows: Vec<(&str, Counts)> = llva_workloads::all()
        .iter()
        .map(|w| (w.name, counts_for(w)))
        .collect();

    let mut table = String::new();
    for (name, c) in &rows {
        writeln!(
            table,
            "{name}: loc {} native {} llva_bytes {} llva {} x86 {} x86_naive {} sparc {} \
             x86_spills {} x86_naive_spills {}",
            c.loc,
            c.native_bytes,
            c.llva_bytes,
            c.llva_insts,
            c.x86_insts,
            c.x86_naive_insts,
            c.sparc_insts,
            c.x86_spills,
            c.x86_naive_spills
        )
        .expect("writes to a String");
    }
    if table != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("table2.txt");
        std::fs::write(&path, &table).expect("writes the computed table");
        let first = table
            .lines()
            .zip(GOLDEN.lines())
            .find(|(g, w)| g != w)
            .map_or_else(
                || "the tables differ in length".to_string(),
                |(g, w)| format!("first difference:\n  recorded: {w}\n  computed: {g}"),
            );
        panic!("{first}\n(computed table written to {})", path.display());
    }

    // "virtual instructions expand to only 2-4 ordinary hardware
    // instructions on average", and more on SPARC than on x86
    for (name, c) in &rows {
        assert!(
            in_band(c.x86_ratio(), X86_BAND),
            "{name}: x86 expansion {:.2}",
            c.x86_ratio()
        );
        assert!(
            in_band(c.sparc_ratio(), SPARC_BAND),
            "{name}: SPARC expansion {:.2}",
            c.sparc_ratio()
        );
        // "virtual object code is comparable in size to native machine
        // code" — smaller than SPARC's by 1.3-2x for large programs
        assert!(
            c.size_ratio() >= 1.3,
            "{name}: native/LLVA size {:.2}",
            c.size_ratio()
        );
        assert!(
            c.x86_spills <= c.x86_naive_spills,
            "{name}: {} spills, the naive translator's {}",
            c.x86_spills,
            c.x86_naive_spills
        );
    }
    let sparc_wider = rows
        .iter()
        .filter(|(_, c)| c.sparc_insts > c.x86_insts)
        .count();
    assert!(
        sparc_wider >= 15,
        "SPARC expands more than x86 on only {sparc_wider} of {}",
        rows.len()
    );
    let total = |f: fn(&Counts) -> usize| rows.iter().map(|(_, c)| f(c)).sum::<usize>();
    assert!(
        total(|c| c.x86_spills) < total(|c| c.x86_naive_spills),
        "allocator removes no spills"
    );
}
