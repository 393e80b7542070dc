//! `all`, `aa`, `--check` and `--list`: interleaved passes of child
//! processes, one per workload per pass, aggregated into one table and
//! `bench/out/results.json`.

use crate::json::{self, Json};
use crate::spec::{self, issue_name, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{combine, range_share, Combine};
use crate::workloads::out_dir;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub struct Settings {
    pub seed: u64,
    pub passes: usize,
    pub slice_secs: f64,
}

pub fn list() {
    println!("workloads");
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload reports every one)");
    println!(
        "  {:<15} {:<6} {:<7} {:>6}  meaning",
        "name", "unit", "better", "bound"
    );
    for m in &END_TO_END {
        let bound = format!("{:.0}%", m.bound * 100.0);
        println!(
            "  {:<15} {:<6} {:<7} {:>6}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.what
        );
    }
    println!(
        "  a count that is exact for a seed (bytecode_bytes) may not rise at all under --check"
    );
    println!("\nnames ISSUE 11 used for a metric on one workload");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            if let Some(alias) = issue_name(w.name, m.name) {
                println!("  {:<12} {:<15} = {alias}", w.name, m.name);
            }
        }
    }
    println!("\nper-layer metrics (traced run; 0 on a workload that does not exercise the layer)");
    for l in PER_LAYER {
        let exact = if l.combine == Combine::Exact {
            "  exact"
        } else {
            ""
        };
        println!(
            "  {:<38} {:<8} {}{exact}",
            l.name,
            l.unit,
            l.better.as_str()
        );
    }
}

/// What one child run reported.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process — the same command line the
/// benchmark contract uses — with every `LLVA_*` variable removed, so a
/// fault-injection or tuning knob left in the shell cannot reach the
/// program under test.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("LLVA_") {
            command.env_remove(name);
        }
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the {workload} child exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} child printed nothing"))?;
    let doc = json::parse(line)
        .map_err(|e| format!("the {workload} child's result does not parse: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: no {key}"))
    };
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: doc
            .get("metrics")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// One metric of one workload across the passes.
pub struct Cell {
    pub value: f64,
    pub passes: Vec<f64>,
}

impl Cell {
    fn spread(&self) -> f64 {
        range_share(&self.passes)
    }

    fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(unit.to_string())),
            (
                "passes",
                Json::Arr(self.passes.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ])
    }
}

pub struct WorkloadResult {
    pub attempted: f64,
    pub failed: f64,
    pub end_to_end: BTreeMap<&'static str, Cell>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub trace_overhead_pct: f64,
}

pub type Results = BTreeMap<&'static str, WorkloadResult>;

/// The whole benchmark once: `passes` interleaved untraced passes, then
/// one traced pass. `Err` when a child failed, an output was wrong or
/// an exact count differed between passes.
fn measure(settings: &Settings) -> Result<Results, String> {
    let mut untraced: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    for pass in 1..=settings.passes {
        for w in &WORKLOADS {
            eprintln!("pass {pass}/{}: {}", settings.passes, w.name);
            untraced.entry(w.name).or_default().push(child(
                w.name,
                settings.seed,
                settings.slice_secs,
                false,
            )?);
        }
    }
    let mut results = Results::new();
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        eprintln!("traced pass: {}", w.name);
        let traced = child(w.name, settings.seed, settings.slice_secs, true)?;
        let runs = &untraced[w.name];
        if !traced.correct || runs.iter().any(|r| !r.correct) {
            problems.push(format!(
                "{}: a run reported wrong outputs or an unstable exact count",
                w.name
            ));
        }
        let mut end_to_end = BTreeMap::new();
        for m in &END_TO_END {
            let passes: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.metrics
                        .get(m.name)
                        .copied()
                        .ok_or_else(|| format!("{}: no {}", w.name, m.name))
                })
                .collect::<Result<_, _>>()?;
            let value = combine(&passes, m.combine).unwrap_or_else(|e| {
                problems.push(format!("{} {}: {e}", w.name, m.name));
                passes[0]
            });
            end_to_end.insert(m.name, Cell { value, passes });
        }
        let per_layer: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .map(|l| (l.name, traced.metrics.get(l.name).copied().unwrap_or(0.0)))
            .collect();
        let trace_overhead_pct =
            (end_to_end["ops_per_s"].value / per_layer["harness.traced_ops_per_s"] - 1.0) * 100.0;
        results.insert(
            w.name,
            WorkloadResult {
                attempted: runs.iter().map(|r| r.attempted).sum::<f64>() + traced.attempted,
                failed: runs.iter().map(|r| r.failed).sum::<f64>() + traced.failed,
                end_to_end,
                per_layer,
                trace_overhead_pct,
            },
        );
    }
    if problems.is_empty() {
        Ok(results)
    } else {
        Err(problems.join("\n"))
    }
}

fn print_results(results: &Results) {
    for (name, r) in results {
        println!(
            "\n== {name}: {} operations checked, {} failed (fail_ratio {})",
            r.attempted,
            r.failed,
            r.failed / r.attempted
        );
        println!(
            "  {:<16} {:>14} {:<6} {:>8}  passes",
            "end to end", "median", "unit", "spread"
        );
        for m in &END_TO_END {
            let cell = &r.end_to_end[m.name];
            let passes: Vec<String> = cell.passes.iter().map(|v| format!("{v:.5}")).collect();
            let alias = issue_name(name, m.name)
                .map(|a| format!("  [{a}]"))
                .unwrap_or_default();
            println!(
                "  {:<16} {:>14.5} {:<6} {:>7.2}%  {}{alias}",
                m.name,
                cell.value,
                m.unit,
                cell.spread() * 100.0,
                passes.join(" ")
            );
        }
        println!(
            "  per layer (traced pass; trace_overhead_pct {:.2})",
            r.trace_overhead_pct
        );
        for l in PER_LAYER {
            let value = r.per_layer[l.name];
            if value != 0.0 {
                println!("  {:<38} {:>16.4} {}", l.name, value, l.unit);
            }
        }
        let (op, attributed) = (
            r.per_layer["harness.op_ms"],
            r.per_layer["harness.attributed_ms"],
        );
        println!(
            "  the listed layers account for {:.1}% of the operations' time",
            attributed / op * 100.0
        );
    }
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The machine context every results file records.
fn context(settings: &Settings) -> Json {
    let bench_dir = out_dir().join("..");
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"], &bench_dir)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], &bench_dir)),
        ),
        ("seed", Json::Num(settings.seed as f64)),
        ("slice_secs", Json::Num(settings.slice_secs)),
        ("passes", Json::Num(settings.passes as f64)),
    ])
}

fn results_json(settings: &Settings, results: &Results) -> Json {
    Json::obj([
        ("context", context(settings)),
        (
            "workloads",
            Json::obj(results.iter().map(|(name, r)| {
                (
                    *name,
                    Json::obj([
                        ("attempted", Json::Num(r.attempted)),
                        ("failed", Json::Num(r.failed)),
                        ("fail_ratio", Json::Num(r.failed / r.attempted)),
                        (
                            "end_to_end",
                            Json::obj(
                                END_TO_END
                                    .iter()
                                    .map(|m| (m.name, r.end_to_end[m.name].to_json(m.unit))),
                            ),
                        ),
                        ("trace_overhead_pct", Json::Num(r.trace_overhead_pct)),
                        (
                            "per_layer",
                            Json::obj(PER_LAYER.iter().map(|l| {
                                (
                                    l.name,
                                    Json::obj([
                                        ("value", Json::Num(r.per_layer[l.name])),
                                        ("unit", Json::Str(l.unit.to_string())),
                                    ]),
                                )
                            })),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

/// One side of a comparison, as read back from a results file.
struct Side {
    fail_ratio: f64,
    cells: BTreeMap<String, Cell>,
    layers: BTreeMap<String, f64>,
}

fn sides_of(doc: &Json) -> BTreeMap<String, Side> {
    doc.get("workloads")
        .map(Json::entries)
        .unwrap_or_default()
        .iter()
        .map(|(name, w)| {
            let cells = w
                .get("end_to_end")
                .map(Json::entries)
                .unwrap_or_default()
                .iter()
                .filter_map(|(metric, cell)| {
                    let passes = cell
                        .get("passes")?
                        .as_arr()?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect();
                    Some((
                        metric.clone(),
                        Cell {
                            value: cell.get("value")?.as_f64()?,
                            passes,
                        },
                    ))
                })
                .collect();
            let layers = w
                .get("per_layer")
                .map(Json::entries)
                .unwrap_or_default()
                .iter()
                .filter_map(|(layer, cell)| Some((layer.clone(), cell.get("value")?.as_f64()?)))
                .collect();
            let fail_ratio = w
                .get("fail_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            (
                name.clone(),
                Side {
                    fail_ratio,
                    cells,
                    layers,
                },
            )
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The passes of one side spread wider than the bound, so a change
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

/// Judges one metric. An exact count may not worsen at all; a timing
/// may worsen by its bound. When either side's passes spread wider
/// than the bound the verdict is `Unresolved`, unless every new pass
/// is at least as good as every base pass.
pub fn judge(metric: &spec::EndToEnd, base: &Cell, new: &Cell) -> (f64, Verdict) {
    let worsening = metric.better.worsening(base.value, new.value);
    let bound = if metric.combine == Combine::Exact {
        0.0
    } else {
        metric.bound
    };
    let noisy = metric.combine == Combine::Median && base.spread().max(new.spread()) > bound;
    let clearly_no_worse = new.passes.iter().all(|n| {
        base.passes
            .iter()
            .all(|b| metric.better.worsening(*b, *n) <= 0.0)
    });
    let verdict = if noisy && !clearly_no_worse {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// Prints the per-workload delta table; `false` when any metric is
/// worse or any workload's fail ratio rose.
fn compare(base: &BTreeMap<String, Side>, new: &BTreeMap<String, Side>) -> bool {
    let mut pass = true;
    for w in &WORKLOADS {
        let (Some(b), Some(n)) = (base.get(w.name), new.get(w.name)) else {
            println!("\n== {}: missing from one side", w.name);
            pass = false;
            continue;
        };
        println!("\n== {}", w.name);
        println!(
            "  {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "base", "new", "new/base", "bound"
        );
        for m in &END_TO_END {
            let (Some(bc), Some(nc)) = (b.cells.get(m.name), n.cells.get(m.name)) else {
                println!("  {:<16} missing from one side", m.name);
                pass = false;
                continue;
            };
            let (_, verdict) = judge(m, bc, nc);
            let bound = if m.combine == Combine::Exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            println!(
                "  {:<16} {:>14.5} {:>14.5} {:>9.4} {:>7}  {}",
                m.name,
                bc.value,
                nc.value,
                nc.value / bc.value,
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            pass &= verdict != Verdict::Worse;
        }
        // per-layer counts the program determines: reported only when
        // they moved
        for l in PER_LAYER.iter().filter(|l| l.combine == Combine::Exact) {
            if let (Some(bv), Some(nv)) = (b.layers.get(l.name), n.layers.get(l.name)) {
                if bv != nv {
                    let worse = l.better.worsening(*bv, *nv) > 0.0;
                    println!(
                        "  {:<38} {bv} -> {nv}  {}",
                        l.name,
                        if worse { "worse" } else { "ok" }
                    );
                    pass &= !worse;
                }
            }
        }
        let rose = n.fail_ratio > b.fail_ratio;
        println!(
            "  {:<16} {:>14} {:>14} {:>9} {:>7}  {}",
            "fail_ratio",
            b.fail_ratio,
            n.fail_ratio,
            "",
            "0",
            if rose { "worse" } else { "ok" }
        );
        pass &= !rose;
    }
    pass
}

fn write_results(name: &str, doc: &Json) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::write(&path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

pub fn all(settings: &Settings, baseline: Option<&str>) -> Result<bool, String> {
    // read the baseline first: a bad path should not cost a whole run
    let base = baseline
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path} does not parse: {e}"))
        })
        .transpose()?;
    let results = measure(settings)?;
    print_results(&results);
    let doc = results_json(settings, &results);
    write_results("results.json", &doc)?;
    let clean = results.values().all(|r| r.failed == 0.0);
    Ok(match base {
        Some(base) => {
            println!("\n==== against the baseline");
            compare(&sides_of(&base), &sides_of(&doc)) && clean
        }
        None => clean,
    })
}

/// The benchmark twice, back to back, same commit and seed: do two sets
/// agree within each metric's own bound?
pub fn aa(settings: &Settings) -> Result<bool, String> {
    let first = results_json(settings, &measure(settings)?);
    write_results("results-a.json", &first)?;
    let second = results_json(settings, &measure(settings)?);
    write_results("results-b.json", &second)?;
    println!("==== A/A: set B against set A");
    Ok(compare(&sides_of(&first), &sides_of(&second)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn cell(passes: &[f64]) -> Cell {
        Cell {
            value: crate::stats::median(passes),
            passes: passes.to_vec(),
        }
    }

    #[test]
    fn a_timing_within_its_bound_is_ok_and_beyond_it_worse() {
        let m = end_to_end("ops_per_s").unwrap(); // higher is better
        let base = cell(&[100.0, 101.0, 99.0]);
        let at = |worsening: f64| {
            let v = 100.0 * (1.0 - worsening);
            cell(&[v, v + 1.0, v - 1.0])
        };
        assert_eq!(judge(m, &base, &at(m.bound / 2.0)).1, Verdict::Ok);
        assert_eq!(judge(m, &base, &at(m.bound * 1.5)).1, Verdict::Worse);
        assert_eq!(judge(m, &base, &at(-0.5)).1, Verdict::Ok);
    }

    #[test]
    fn noisy_passes_are_unresolved_unless_every_pass_wins() {
        let m = end_to_end("setup_s").unwrap(); // lower is better, 25%
        let base = cell(&[10.0, 10.1, 9.9]);
        assert_eq!(
            judge(m, &base, &cell(&[9.0, 12.0, 10.0])).1,
            Verdict::Unresolved
        );
        // spread wide, but every new pass beats every base pass
        assert_eq!(judge(m, &base, &cell(&[5.0, 7.0, 6.0])).1, Verdict::Ok);
    }

    #[test]
    fn an_exact_count_may_not_rise_at_all() {
        let m = end_to_end("bytecode_bytes").unwrap();
        let base = cell(&[1000.0, 1000.0, 1000.0]);
        assert_eq!(
            judge(m, &base, &cell(&[1001.0, 1001.0, 1001.0])).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(m, &base, &cell(&[1000.0, 1000.0, 1000.0])).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(m, &base, &cell(&[900.0, 900.0, 900.0])).1,
            Verdict::Ok
        );
    }

    #[test]
    fn results_file_reads_back_as_written() {
        let mut results = Results::new();
        results.insert(
            "build",
            WorkloadResult {
                attempted: 100.0,
                failed: 0.0,
                end_to_end: END_TO_END
                    .iter()
                    .map(|m| (m.name, cell(&[1.5, 2.5, 2.0])))
                    .collect(),
                per_layer: PER_LAYER.iter().map(|l| (l.name, 1.0)).collect(),
                trace_overhead_pct: 0.5,
            },
        );
        let settings = Settings {
            seed: 7,
            passes: 3,
            slice_secs: 3.0,
        };
        let doc = results_json(&settings, &results);
        let back = sides_of(&json::parse(&doc.render_pretty()).unwrap());
        assert_eq!(back["build"].fail_ratio, 0.0);
        assert_eq!(back["build"].cells["ops_per_s"].passes, vec![1.5, 2.5, 2.0]);
        assert_eq!(back["build"].cells["ops_per_s"].value, 2.0);
        assert_eq!(
            doc.get("context")
                .and_then(|c| c.get("seed"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
