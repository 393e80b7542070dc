//! `llva-serve` — the multi-tenant execution service binary.
//!
//! Serve mode (default): bind the TCP front-end and run forever.
//!
//! ```text
//! llva-serve --listen 127.0.0.1:7411 --isa x86 --shards 4
//! curl http://127.0.0.1:7411/metrics
//! ```
//!
//! Selfcheck mode (`--selfcheck`): an in-process smoke test — load the
//! `ptrdist-anagram` Table 2 workload into one tenant per execution
//! tier, force each tenant to answer from its target tier by killing
//! every faster tier, assert all three answers match the structural
//! interpreter, and print the metrics text. Exits non-zero on any
//! mismatch; CI runs this as the fast serve gate.

use std::process::ExitCode;
use std::time::Duration;

use llva_core::layout::TargetConfig;
use llva_engine::supervisor::{Tier, TierKill};
use llva_engine::{DirStorage, Interpreter, TargetIsa};
use llva_serve::{ExecService, ServeConfig, Server, TenantQuota};

const USAGE: &str = "usage: llva-serve [options]
  --listen ADDR     bind address (default 127.0.0.1:7411)
  --isa x86|sparc|riscv
                    translated-tier target ISA (default x86)
  --shards N        translation cache shards (default 4)
  --cache-dir DIR   persist the translation cache (and module images)
                    under DIR instead of in memory; warm loads mmap the
                    images zero-copy
  --probe-after N   quarantine recovery probe threshold (default off)
  --cross-check     cross-check every answer against the interpreter
  --selfcheck       run the in-process smoke test and exit
  --help            this text";

struct Args {
    listen: String,
    config: ServeConfig,
    cache_dir: Option<std::path::PathBuf>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7411".to_string(),
        config: ServeConfig::default(),
        cache_dir: None,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--isa" => {
                args.config.isa = match value("--isa")?.as_str() {
                    "x86" => TargetIsa::X86,
                    "sparc" => TargetIsa::Sparc,
                    "riscv" => TargetIsa::Riscv,
                    other => return Err(format!("unknown ISA '{other}'")),
                }
            }
            "--cache-dir" => {
                args.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")?));
            }
            "--shards" => {
                args.config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--probe-after" => {
                args.config.probe_after = Some(
                    value("--probe-after")?
                        .parse()
                        .map_err(|e| format!("--probe-after: {e}"))?,
                );
            }
            "--cross-check" => args.config.cross_check = true,
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("llva-serve: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.selfcheck {
        return selfcheck(args.config);
    }
    let service = match &args.cache_dir {
        // Persistent shards: each shard gets its own subdirectory, so
        // restarts of the whole process find yesterday's translations
        // and mmap the module images zero-copy on warm loads.
        Some(dir) => ExecService::with_storage(args.config, |i| {
            Box::new(DirStorage::new(dir.join(format!("shard-{i}"))))
                as llva_serve::BoxedStorage
        }),
        None => ExecService::new(args.config),
    };
    let server = match Server::bind(service, args.listen.as_str(), TenantQuota::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("llva-serve: bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("llva-serve: listening on {addr} (framed protocol + GET /metrics)"),
        Err(_) => println!("llva-serve: listening on {}", args.listen),
    }
    server.run();
    ExitCode::SUCCESS
}

/// One tenant per tier, each forced to answer from its target rung.
fn selfcheck(mut config: ServeConfig) -> ExitCode {
    const WORKLOAD: &str = "ptrdist-anagram";
    const FUEL: u64 = 2_000_000_000;
    config.call_deadline = Duration::from_secs(300);
    config.load_deadline = Duration::from_secs(300);

    let workload = llva_workloads::all()
        .into_iter()
        .find(|w| w.name == WORKLOAD)
        .expect("Table 2 contains ptrdist-anagram");
    let module = workload.compile(TargetConfig::default());
    let source = llva_core::printer::print_module(&module);

    let mut interp = Interpreter::new(&module);
    interp.set_fuel(FUEL);
    let expected = match interp.run("main", &[]) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("selfcheck: structural interpreter failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("selfcheck: {WORKLOAD} oracle value {expected:#x}");

    let service = ExecService::new(config);
    let quota = TenantQuota {
        max_call_fuel: FUEL,
        ..TenantQuota::default()
    };
    let mut failures = 0u32;
    for target in Tier::LADDER {
        let tenant = format!("tier-{target}");
        if let Err(e) = service.add_tenant(&tenant, quota) {
            eprintln!("selfcheck: add tenant {tenant}: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = service.load_module(&tenant, WORKLOAD, &source) {
            eprintln!("selfcheck: load into {tenant}: {e}");
            return ExitCode::FAILURE;
        }
        let kills: Vec<TierKill> = Tier::LADDER
            .into_iter()
            .filter(|t| t.index() < target.index())
            .map(TierKill::panic)
            .collect();
        if !kills.is_empty() {
            if let Err(e) = service.arm_kills(&tenant, WORKLOAD, kills, 0) {
                eprintln!("selfcheck: arm kills for {tenant}: {e}");
                return ExitCode::FAILURE;
            }
        }
        match service.call(&tenant, WORKLOAD, "main", &[]) {
            Ok(run) => {
                let ok = run.value() == Some(expected) && run.tier == target;
                println!(
                    "selfcheck: {tenant:<17} -> {} via {} ({}){}",
                    run.value().map_or_else(|| format!("{:?}", run.outcome), |v| format!("{v:#x}")),
                    run.tier,
                    if run.degraded { "degraded" } else { "direct" },
                    if ok { "" } else { "  MISMATCH" },
                );
                if !ok {
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("selfcheck: call via {tenant}: {e}");
                failures += 1;
            }
        }
    }

    println!("\n{}", service.metrics_text());
    if failures == 0 {
        println!("selfcheck: ok ({} tiers agree with the oracle)", Tier::LADDER.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("selfcheck: FAILED ({failures} mismatch(es))");
        ExitCode::FAILURE
    }
}
