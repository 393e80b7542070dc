//! Regenerates the paper's Table 2. Run with:
//! `cargo run --release -p llva-bench --bin table2`

use llva_bench::table2::{compute_all, format_table, Counts};

fn main() {
    println!("Table 2: Metrics demonstrating code size and low-level nature of the V-ISA");
    println!("(reproduction; see EXPERIMENTS.md for the paper-vs-measured discussion)\n");
    let rows = compute_all();
    print!("{}", format_table(&rows));
    // summary lines mirroring the paper's §5.2 claims
    let counts: Vec<&Counts> = rows.iter().map(|r| &r.counts).collect();
    let mean =
        |f: fn(&Counts) -> f64| counts.iter().map(|c| f(c)).sum::<f64>() / counts.len() as f64;
    let drop = |f: fn(&Counts) -> (usize, usize)| {
        let (prod, naive) = counts
            .iter()
            .map(|c| f(c))
            .fold((0, 0), |(p, n), (a, b)| (p + a, n + b));
        100.0 * (naive as f64 - prod as f64) / naive as f64
    };
    println!();
    println!(
        "mean x86 expansion   : {:.2} LLVA->x86   (paper: 2.2-3.3)",
        mean(Counts::x86_ratio)
    );
    println!(
        "mean SPARC expansion : {:.2} LLVA->SPARC (paper: 2.3-4.2)",
        mean(Counts::sparc_ratio)
    );
    println!(
        "mean native/LLVA size: {:.2}x            (paper: 1.3-2x for large programs)",
        mean(Counts::size_ratio)
    );
    println!(
        "x86 vs naive x86     : spills -{:.1}%, instructions -{:.1}% (summed over {} programs)",
        drop(|c| (c.x86_spills, c.x86_naive_spills)),
        drop(|c| (c.x86_insts, c.x86_naive_insts)),
        counts.len()
    );
}
