//! `llva-conform` — run the N-way differential conformance harness
//! over a seed range.
//!
//! ```text
//! llva-conform [--seeds A..B | --seeds N | --seeds a,b,c] [--steps N]
//!              [--helpers N] [--fuel N] [--stage NAME]... [--no-shrink]
//!              [--verbose]
//! ```
//!
//! Every seed generates one module and runs it through every oracle
//! stage (interpreter, round trips, per-pass, pipelines, x86, SPARC,
//! the tiered supervisor — see `llva_conform::oracle`). `--stage NAME`
//! (repeatable, e.g. `--stage supervisor`) restricts the sweep to the
//! named stages plus the `interp` baseline. Divergences are shrunk to a
//! minimized reproducer and printed with the seed; the exit code is the
//! number of diverging seeds (capped at 101). The summary names what ran:
//! the seed count and one hash over every generated module's bytecode
//! in seed order, the same for a seed range on any machine and under any
//! `--stage` set.
//!
//! The seed range can also come from the `LLVA_CONFORM_SEEDS`
//! environment variable (same syntax as `--seeds`), mirroring the
//! `LLVA_FAULT_SEED` convention of the fault-injection suite; the
//! command line wins when both are present.

use llva_conform::{gen::GenConfig, oracle::Oracle, run_seed};
use llva_core::bytecode::encode_module;
use llva_machine::codec::{hash, HASH_SEED};
use std::collections::BTreeMap;
use std::time::Instant;

fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let spec = spec.trim();
    if let Some((a, b)) = spec.split_once("..") {
        let lo: u64 = a.trim().parse().map_err(|_| format!("bad range start '{a}'"))?;
        let hi: u64 = b.trim().parse().map_err(|_| format!("bad range end '{b}'"))?;
        if lo >= hi {
            return Err(format!("empty seed range {lo}..{hi}"));
        }
        Ok((lo..hi).collect())
    } else if spec.contains(',') {
        spec.split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad seed '{s}'")))
            .collect()
    } else {
        let n: u64 = spec.parse().map_err(|_| format!("bad seed count '{spec}'"))?;
        Ok((0..n).collect())
    }
}

struct Options {
    seeds: Vec<u64>,
    cfg: GenConfig,
    fuel: u64,
    stages: Vec<String>,
    shrink: bool,
    verbose: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: Vec::new(),
        cfg: GenConfig::default(),
        fuel: 50_000_000,
        stages: Vec::new(),
        shrink: true,
        verbose: false,
    };
    let mut seeds_spec = std::env::var("LLVA_CONFORM_SEEDS").ok();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => seeds_spec = Some(value("--seeds")?),
            "--steps" => {
                opts.cfg.max_steps = value("--steps")?
                    .parse()
                    .map_err(|_| "--steps expects a number".to_string())?;
            }
            "--helpers" => {
                opts.cfg.max_helpers = value("--helpers")?
                    .parse()
                    .map_err(|_| "--helpers expects a number".to_string())?;
            }
            "--fuel" => {
                opts.fuel = value("--fuel")?
                    .parse()
                    .map_err(|_| "--fuel expects a number".to_string())?;
            }
            "--stage" => opts.stages.push(value("--stage")?),
            "--no-shrink" => opts.shrink = false,
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: llva-conform [--seeds A..B|N|a,b,c] [--steps N] [--helpers N] \
                     [--fuel N] [--stage NAME]... [--no-shrink] [--verbose]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let spec = seeds_spec.unwrap_or_else(|| "0..100".to_string());
    opts.seeds = parse_seeds(&spec)?;
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("llva-conform: {e}");
            std::process::exit(2);
        }
    };

    let mut oracle = Oracle::new();
    oracle.set_fuel(opts.fuel);
    if !opts.stages.is_empty() {
        // validate before restricting: a typo'd --stage should fail
        // loudly, not silently sweep fewer stages than asked for
        let known = oracle.stage_names("main");
        for s in &opts.stages {
            if !known.iter().any(|k| k == s) {
                eprintln!("llva-conform: unknown stage '{s}' (known: {})", known.join(", "));
                std::process::exit(2);
            }
        }
        oracle.restrict_stages(opts.stages.clone());
    }

    let started = Instant::now();
    let mut per_stage: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // stage -> (runs, divergences)
    let mut failing_seeds: Vec<u64> = Vec::new();

    let mut ran = HASH_SEED;
    for &seed in &opts.seeds {
        let tc = llva_conform::generate(seed, &opts.cfg);
        ran = hash(&encode_module(&tc.module), ran);
        let out = run_seed(seed, &tc, &oracle, opts.shrink);
        for r in &out.results {
            per_stage.entry(r.stage.clone()).or_insert((0, 0)).0 += 1;
        }
        for d in &out.divergences {
            per_stage.entry(d.stage.clone()).or_insert((0, 0)).1 += 1;
        }
        if !out.divergences.is_empty() {
            failing_seeds.push(seed);
            eprintln!("seed {seed}: {} diverging stage(s)", out.divergences.len());
            match &out.minimized {
                Some(repro) => eprintln!("{}", repro.render()),
                None => {
                    for d in &out.divergences {
                        eprintln!("  {d}");
                    }
                }
            }
        } else if opts.verbose {
            let baseline = &out.results[0].outcome;
            println!("seed {seed}: ok ({} stages agree on {baseline})", out.results.len());
        }
    }

    let elapsed = started.elapsed();
    println!(
        "llva-conform: {} seed(s), {} diverging, {:.2}s",
        opts.seeds.len(),
        failing_seeds.len(),
        elapsed.as_secs_f64()
    );
    println!("ran {} seed(s), bytecode hash {ran:016x}", opts.seeds.len());
    println!("{:<18} {:>8} {:>10}", "stage", "runs", "diverged");
    for (stage, (runs, div)) in &per_stage {
        println!("{stage:<18} {runs:>8} {div:>10}");
    }
    if !failing_seeds.is_empty() {
        println!(
            "failing seeds: {}",
            failing_seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    std::process::exit(failing_seeds.len().min(101) as i32);
}
