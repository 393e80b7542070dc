//! Table 2 of the paper: "Metrics demonstrating code size and
//! low-level nature of the V-ISA".
//!
//! Columns reproduced per workload (see EXPERIMENTS.md for the
//! paper-vs-measured comparison):
//!
//! 1. `#LOC` — source lines (minic instead of C),
//! 2. native size (KB) — SPARC native code bytes (the paper's native
//!    executables were SPARC, built by the same back end),
//! 3. LLVA code size (KB) — the binary virtual object code,
//! 4. `#LLVA` instructions,
//! 5. `#x86` instructions + expansion ratio, beside the naive
//!    slot-everything translator's count (the paper's §5.2 baseline)
//!    and the spill traffic of both,
//! 6. `#SPARC` instructions + expansion ratio,
//! 7. translate time (s) — wall-clock x86 whole-program JIT,
//! 8. run time (s) — simulated cycles at [`CLOCK_HZ`] (substitution #4
//!    in DESIGN.md: the paper measured gcc -O3 native time on real
//!    hardware), and the translate/run ratio.
//!
//! Columns 1–6 are [`Counts`]: a function of the sources and the
//! compilers alone, pinned and checked against the paper's claims by
//! `tests/table2.rs`. Columns 7–8 are measured.
//!
//! "The same LLVA optimizations were applied in both cases": the
//! standard per-module pipeline runs before any measurement.

use llva_backend::{compile_x86, compile_x86_naive, spill_count};
use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use llva_engine::llee::{ExecutionManager, TargetIsa};
use llva_workloads::Workload;
use std::time::Duration;

/// Simulated clock rate used to convert cycles to seconds (the paper's
/// machines were sub-GHz; 1 GHz keeps numbers readable).
pub const CLOCK_HZ: f64 = 1.0e9;

/// The deterministic columns of one row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Lines of source.
    pub loc: usize,
    /// Native (SPARC) code size in bytes.
    pub native_bytes: usize,
    /// LLVA virtual object code size in bytes.
    pub llva_bytes: usize,
    /// LLVA instruction count.
    pub llva_insts: usize,
    /// x86 instruction count of the translator LLEE runs.
    pub x86_insts: usize,
    /// x86 instruction count of the naive translator.
    pub x86_naive_insts: usize,
    /// SPARC instruction count.
    pub sparc_insts: usize,
    /// Frame-traffic (spill) instructions in the x86 code.
    pub x86_spills: usize,
    /// Frame-traffic (spill) instructions in the naive x86 code.
    pub x86_naive_spills: usize,
}

impl Counts {
    /// x86 instructions per LLVA instruction.
    pub fn x86_ratio(&self) -> f64 {
        self.x86_insts as f64 / self.llva_insts as f64
    }

    /// SPARC instructions per LLVA instruction.
    pub fn sparc_ratio(&self) -> f64 {
        self.sparc_insts as f64 / self.llva_insts as f64
    }

    /// Native-to-LLVA size ratio (paper: ~1.3–2x for large programs).
    pub fn size_ratio(&self) -> f64 {
        self.native_bytes as f64 / self.llva_bytes as f64
    }
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub program: String,
    /// The deterministic columns.
    pub counts: Counts,
    /// Whole-program x86 JIT translation wall-clock.
    pub translate_time: Duration,
    /// Simulated run time (cycles / [`CLOCK_HZ`]).
    pub run_time: Duration,
}

impl Row {
    /// Translate time over run time (paper: < 1% except short runs).
    pub fn translate_ratio(&self) -> f64 {
        self.translate_time.as_secs_f64() / self.run_time.as_secs_f64().max(1e-12)
    }
}

/// The workload compiled for `target` after the standard pipeline
/// ("the same LLVA optimizations were applied in both cases").
fn optimized(w: &Workload, target: TargetConfig) -> Module {
    let mut m = w.compile(target);
    llva_opt::standard_pipeline().run(&mut m);
    m
}

/// Computes the deterministic columns for a workload, translating but
/// never running it.
pub fn counts_for(w: &Workload) -> Counts {
    let m = optimized(w, TargetConfig::default());
    let m_x86 = optimized(w, TargetConfig::ia32());
    let (mut x86_insts, mut x86_naive_insts, mut x86_spills, mut x86_naive_spills) = (0, 0, 0, 0);
    for (fid, f) in m_x86.functions() {
        if f.is_declaration() {
            continue;
        }
        let code = compile_x86(&m_x86, fid);
        x86_insts += code.len();
        x86_spills += spill_count(&code);
        let naive = compile_x86_naive(&m_x86, fid);
        x86_naive_insts += naive.len();
        x86_naive_spills += spill_count(&naive);
    }
    let mut sparc = ExecutionManager::new(optimized(w, TargetConfig::sparc_v9()), TargetIsa::Sparc);
    sparc.translate_all().expect("translates");
    Counts {
        loc: w.loc(),
        native_bytes: sparc.installed_bytes(),
        llva_bytes: llva_core::bytecode::encode_module(&m).len(),
        llva_insts: m.total_insts(),
        x86_insts,
        x86_naive_insts,
        sparc_insts: sparc.installed_insts(),
        x86_spills,
        x86_naive_spills,
    }
}

/// Computes one row for a workload.
pub fn row_for(w: &Workload) -> Row {
    let mut x86 = ExecutionManager::new(optimized(w, TargetConfig::ia32()), TargetIsa::X86);
    x86.translate_all().expect("translates");
    let mut sparc = ExecutionManager::new(optimized(w, TargetConfig::sparc_v9()), TargetIsa::Sparc);
    sparc.run("main", &[]).expect("runs");
    Row {
        program: w.name.to_string(),
        counts: counts_for(w),
        translate_time: x86.stats().translate_time,
        run_time: Duration::from_secs_f64(sparc.exec_stats().cycles as f64 / CLOCK_HZ),
    }
}

/// Computes all rows (Table 2 order).
pub fn compute_all() -> Vec<Row> {
    llva_workloads::all().iter().map(row_for).collect()
}

/// Formats rows as the paper's Table 2.
pub fn format_table(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>5} {:>10} {:>10} {:>7} {:>7} {:>6} {:>7} {:>11} {:>7} {:>6} {:>10} {:>10} {:>7}",
        "Program",
        "#LOC",
        "Native(B)",
        "LLVA(B)",
        "#LLVA",
        "#X86",
        "Ratio",
        "#X86nv",
        "Spill(p/nv)",
        "#SPARC",
        "Ratio",
        "Trans(s)",
        "Run(s)",
        "Ratio"
    );
    let _ = writeln!(out, "{}", "-".repeat(132));
    for r in rows {
        let c = &r.counts;
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>10} {:>10} {:>7} {:>7} {:>6.2} {:>7} {:>11} {:>7} {:>6.2} {:>10.6} {:>10.6} {:>7.4}",
            r.program,
            c.loc,
            c.native_bytes,
            c.llva_bytes,
            c.llva_insts,
            c.x86_insts,
            c.x86_ratio(),
            c.x86_naive_insts,
            format!("{}/{}", c.x86_spills, c.x86_naive_spills),
            c.sparc_insts,
            c.sparc_ratio(),
            r.translate_time.as_secs_f64(),
            r.run_time.as_secs_f64(),
            r.translate_ratio(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_includes_all_programs() {
        let rows = vec![Row {
            program: "test".into(),
            counts: Counts {
                loc: 10,
                native_bytes: 2000,
                llva_bytes: 1000,
                llva_insts: 100,
                x86_insts: 250,
                x86_naive_insts: 280,
                sparc_insts: 300,
                x86_spills: 40,
                x86_naive_spills: 60,
            },
            translate_time: Duration::from_micros(50),
            run_time: Duration::from_millis(10),
        }];
        let text = format_table(&rows);
        assert!(text.contains("test"));
        assert!(text.contains("2.50"));
        assert!(text.contains("3.00"));
        assert!(text.contains("40/60"));
    }
}
