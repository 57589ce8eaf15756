//! Scenario fuzzer: checks plan invariants for every planning system across
//! seeded randomized workload/cluster/churn configurations.
//!
//! ```text
//! fuzz [--seed N] [--draws M] [--index K] [--quick] [--no-shrink] [--verbose]
//! ```
//!
//! * `--seed N` — master seed (default 0xC0FFEE).
//! * `--draws M` — number of scenarios to draw and check (default 64).
//! * `--index K` — check only draw K (the form violation reports print).
//! * `--quick` — small scenario bounds (the CI smoke configuration).
//! * `--no-shrink` — report the original violating scenario unshrunk.
//! * `--verbose` — print every draw's configuration as it is checked.
//!
//! Exits non-zero on the first violation, printing the minimal reproducer's
//! serialized configuration and the exact command that re-runs it.

use std::process::ExitCode;

use spindle_bench::fuzz::{self, FuzzConfig};
use spindle_workloads::Scenario;

const DEFAULT_SEED: u64 = 0xC0_FFEE;
const DEFAULT_DRAWS: u64 = 64;

struct Args {
    seed: u64,
    draws: u64,
    index: Option<u64>,
    quick: bool,
    shrink: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        draws: DEFAULT_DRAWS,
        index: None,
        quick: false,
        shrink: true,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = value("--seed")?,
            "--draws" => args.draws = value("--draws")?,
            "--index" => args.index = Some(value("--index")?),
            "--quick" => args.quick = true,
            "--no-shrink" => args.shrink = false,
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn report_violation(scenario: &Scenario, violation: &fuzz::Violation) {
    println!("\nINVARIANT VIOLATION");
    println!("  {violation}");
    println!("  minimal scenario: {}", scenario.label());
    println!("  config: {}", scenario.to_json());
    println!("  reproduce with: {}", violation.repro_command());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = if args.quick {
        FuzzConfig::quick(args.seed, args.draws)
    } else {
        FuzzConfig::full(args.seed, args.draws)
    };
    cfg.shrink = args.shrink;

    if let Some(index) = args.index {
        let scenario = Scenario::draw(cfg.seed, index, &cfg.bounds);
        println!("{}", scenario.label());
        println!("config: {}", scenario.to_json());
        return match fuzz::check_scenario(&scenario, &cfg, None) {
            Ok(stats) => {
                println!(
                    "ok: {} plans checked, {} localizations, {} simulations, {} warm \
                     re-plans bit-identical, {} recovery checks, {} loss re-plans kept or \
                     equal to cold plans",
                    stats.plans_checked,
                    stats.localizations,
                    stats.simulations,
                    stats.warm_identical,
                    stats.recovery_checked,
                    stats.loss_replans_checked
                );
                one_localization_per_plan(&stats)
            }
            Err(v) => {
                let (min, v) = if cfg.shrink {
                    fuzz::shrink(scenario, v, &cfg, None)
                } else {
                    (scenario, v)
                };
                report_violation(&min, &v);
                ExitCode::FAILURE
            }
        };
    }

    println!(
        "fuzzing {} draws from seed {:#x} ({} bounds, {} systems per draw)\n",
        cfg.draws,
        cfg.seed,
        if args.quick { "quick" } else { "full" },
        fuzz::FUZZ_SYSTEMS.len()
    );
    let verbose = args.verbose;
    let report = fuzz::run_with(&cfg, |index, label| {
        if verbose {
            println!("  {label}");
        } else if index % 16 == 0 {
            println!("  draw {index}...");
        }
    });
    match report.violation {
        None => {
            let s = report.stats;
            println!(
                "\nall {} draws clean: {} plans checked, {} localizations, {} simulations, \
                 {} warm re-plans bit-identical to cold plans, {} recovery checks, \
                 {} loss re-plans kept or equal to cold plans",
                s.draws,
                s.plans_checked,
                s.localizations,
                s.simulations,
                s.warm_identical,
                s.recovery_checked,
                s.loss_replans_checked
            );
            one_localization_per_plan(&s)
        }
        Some((scenario, violation)) => {
            report_violation(&scenario, &violation);
            ExitCode::FAILURE
        }
    }
}

/// Every checked plan is evaluated from exactly one localisation; anything
/// else fails the run.
fn one_localization_per_plan(stats: &fuzz::FuzzStats) -> ExitCode {
    if stats.localizations == stats.plans_checked {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{} localizations for {} plans checked: every plan must be localised exactly once",
        stats.localizations, stats.plans_checked
    );
    ExitCode::FAILURE
}
