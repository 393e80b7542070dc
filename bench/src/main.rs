//! The repo's benchmark: six workloads over the toolchain, LLEE and
//! llva-serve, measured end to end and, in a traced run, layer by layer.
//! See `bench/README.md`.

mod driver;
mod heap;
mod inputs;
mod json;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage:
  bench --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
  bench all [--seed N] [--passes 3] [--slice-secs 3] [--check BASELINE.json]
  bench aa  [--seed N] [--passes 3] [--slice-secs 3]       the benchmark twice, compared
  bench --list                                              workloads and metrics";

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let name = name
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {name}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("--list" | "list") => {
            driver::list();
            Ok(true)
        }
        Some(mode @ ("all" | "aa")) => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["seed", "passes", "slice-secs", "check"])?;
            let settings = driver::Settings {
                seed: flags.get("seed", 1)?,
                passes: flags.get("passes", 3)?,
                slice_secs: flags.get("slice-secs", 3.0)?,
            };
            if mode == "aa" {
                driver::aa(&settings)
            } else {
                driver::all(&settings, flags.text("check"))
            }
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args)?;
            flags.only(&["workload", "seed", "seconds", "trace"])?;
            let run = runner::RunArgs {
                workload: flags
                    .text("workload")
                    .ok_or("--workload is required")?
                    .to_string(),
                seed: flags.get("seed", 1)?,
                seconds: flags.get("seconds", 3.0)?,
                traced: flags.get::<u8>("trace", 0)? != 0,
            };
            let result = runner::run(&run)?;
            println!("{}", runner::result_json(&result).render());
            // a run that measured and reported has done its job; whether
            // the outputs were right is the `correct` field
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
