//! # llva-conform — N-way differential conformance harness
//!
//! The paper's core claim is that one virtual object file means the
//! same thing through every representation and on every processor
//! (§3, §4.1). This crate checks that claim at scale:
//!
//! 1. [`gen`] deterministically generates well-typed LLVA modules with
//!    real structure (CFGs, loops, phis, memory, call graphs) from a
//!    seed — every module verifies by construction.
//! 2. [`oracle`] executes each module identically across every
//!    representation: the reference interpreter, printer→parser and
//!    bytecode round trips, every optimization pass alone, both full
//!    pipelines, and LLEE-translated x86 and SPARC simulators. Any
//!    difference in return value, trap kind, or verifier acceptance is
//!    a conformance failure.
//! 3. [`shrink`] minimizes failures by delta debugging and the harness
//!    prints a reproducible seed plus minimized `.ll` text.
//!
//! The `llva-conform` CLI runs seed ranges with per-stage divergence
//! statistics; see DESIGN.md ("Conformance harness") for how to replay
//! a failure from a printed seed.
//!
//! ```
//! use llva_conform::{gen, oracle};
//!
//! let tc = gen::generate(7, &gen::GenConfig::default());
//! let (results, divergences) = oracle::Oracle::new().check(&tc.module, &tc.entry, &tc.args);
//! assert!(divergences.is_empty());
//! assert_eq!(results[0].stage, "interp");
//! ```

pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use gen::{generate, GenConfig, TestCase};
pub use oracle::{Divergence, Oracle, Outcome, StageResult};
pub use shrink::{shrink, ShrinkStats};

/// A minimized, reproducible failure report.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// The generator seed that produced the failing module.
    pub seed: u64,
    /// Entry function name.
    pub entry: String,
    /// Raw argument bits the oracle ran with.
    pub args: Vec<u64>,
    /// The minimized module as LLVA assembly.
    pub text: String,
    /// Shrink statistics (before/after instruction counts).
    pub stats: ShrinkStats,
    /// The divergences still present in the minimized module.
    pub divergences: Vec<Divergence>,
}

impl MinimizedRepro {
    /// A human-readable report: the seed, how to replay it, the
    /// divergences, and the minimized assembly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "CONFORMANCE FAILURE — seed {} (reproduce: llva-conform --seeds {}..{})\n",
            self.seed,
            self.seed,
            self.seed + 1
        ));
        out.push_str(&format!(
            "entry %{} args [{}]\n",
            self.entry,
            self.args
                .iter()
                .map(|a| format!("{}", *a as i64))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for d in &self.divergences {
            out.push_str(&format!("  {d}\n"));
        }
        out.push_str(&format!(
            "shrunk {} -> {} instructions ({} edits)\n",
            self.stats.insts_before, self.stats.insts_after, self.stats.applied
        ));
        out.push_str("---- minimized module ----\n");
        out.push_str(&self.text);
        out
    }
}

/// The outcome of running one seed end to end.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Per-stage results on the generated module.
    pub results: Vec<StageResult>,
    /// Stages that diverged (empty on a healthy pipeline).
    pub divergences: Vec<Divergence>,
    /// Present when divergences were found: the minimized reproducer.
    pub minimized: Option<MinimizedRepro>,
}

/// Runs the oracle on `tc`, the module generated for `seed`, and (on
/// divergence, when `shrink` is set) shrinks it to a minimized
/// reproducer.
pub fn run_seed(seed: u64, tc: &TestCase, oracle: &Oracle, shrink: bool) -> SeedOutcome {
    let (results, divergences) = oracle.check(&tc.module, &tc.entry, &tc.args);
    let minimized = (shrink && !divergences.is_empty()).then(|| minimize(seed, tc, oracle));
    SeedOutcome {
        seed,
        results,
        divergences,
        minimized,
    }
}

/// Shrinks an already-diverging test case to a [`MinimizedRepro`].
///
/// The shrinker's inner loop runs thousands of candidates, so it only
/// re-checks the stages that diverged on the original module (against a
/// fresh interpreter baseline) rather than the full oracle; the final
/// minimized module gets one full re-check for the report.
pub fn minimize(seed: u64, tc: &TestCase, oracle: &Oracle) -> MinimizedRepro {
    let entry = tc.entry.clone();
    let args = tc.args.clone();
    let (_, orig_divergences) = oracle.check(&tc.module, &tc.entry, &tc.args);
    let diverging: Vec<String> = orig_divergences.into_iter().map(|d| d.stage).collect();
    let interesting = |m: &llva_core::module::Module| -> bool {
        if diverging.is_empty() {
            return oracle.diverges(m, &entry, &args);
        }
        let Some(baseline) = oracle.run_stage("interp", m, &entry, &args) else {
            return false;
        };
        diverging
            .iter()
            .any(|s| oracle.run_stage(s, m, &entry, &args).is_some_and(|o| o != baseline))
    };
    let (min, stats) = shrink::shrink(&tc.module, &interesting);
    let (_, divergences) = oracle.check(&min, &entry, &args);
    MinimizedRepro {
        seed,
        entry,
        args,
        text: llva_core::printer::print_module(&min),
        stats,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_seed_produces_no_repro() {
        let tc = generate(4, &GenConfig::default());
        let out = run_seed(4, &tc, &Oracle::new(), true);
        assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        assert!(out.minimized.is_none());
    }

    #[test]
    fn render_mentions_seed_and_replay_command() {
        let repro = MinimizedRepro {
            seed: 99,
            entry: "f".into(),
            args: vec![1, 2],
            text: "; empty\n".into(),
            stats: ShrinkStats::default(),
            divergences: vec![],
        };
        let text = repro.render();
        assert!(text.contains("seed 99"));
        assert!(text.contains("--seeds 99..100"));
    }
}
