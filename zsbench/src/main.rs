//! # zsbench — one seeded benchmark for the corpus → train → serve pipeline
//!
//! Times the product end to end and layer by layer **from outside**: it
//! only calls public functions of the product crates and changes none of
//! them.  See `README.md` beside this crate for the metric and workload
//! tables; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! zsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result as the last line
//! zsbench run --seed <n> --out <dir> [--runs <k>] [--seconds <s>]    every workload, in child processes
//! zsbench list                                                       workloads and metrics from BENCHMARK.json
//! zsbench compare <dir_a> <dir_b>                                    verdict on two result sets
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inputs;
mod loadgen;
mod machine;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use spec::Spec;
use std::process::ExitCode;
use workloads::Settings;

const USAGE: &str = "usage:
  zsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  zsbench run --seed <n> --out <dir> [--runs <k>] [--seconds <s>] [--smoke]
  zsbench list
  zsbench compare <dir_a> <dir_b>";

/// Value of `--flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.ok_or_else(|| format!("missing {name}\n{USAGE}"))
}

/// One run of one workload: the form the benchmark driver calls.
fn run_one(spec: &Spec, args: &[String]) -> Result<(), String> {
    let workload: String = required(args, "--workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (see `zsbench list`)"
        ));
    }
    let seconds: f64 = required(args, "--seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let traced = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let settings = Settings::new(required(args, "--seed")?, seconds, traced, smoke);

    let outcome = workloads::run(&workload, &settings);
    let line = workloads::result_line(spec, &workload, traced, &outcome)?;
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    for gate in &outcome.violated_gates {
        println!("# {workload}: GATE VIOLATED: {gate}");
    }
    for decl in spec.metrics(traced) {
        if let Some(value) = outcome.metrics.get(decl.name.as_str()) {
            println!("{workload} {} {value} {}", decl.name, decl.unit);
        }
    }
    println!("{line}");
    Ok(())
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("list") => {
            spec::print_list(&spec);
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            report::run_all(
                &spec,
                &report::RunArgs {
                    seed: required(args, "--seed")?,
                    runs: flag(args, "--runs")?.unwrap_or(1).max(1),
                    seconds: flag(args, "--seconds")?.unwrap_or(spec.run_seconds as f64),
                    smoke,
                    out: required(args, "--out")?,
                },
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match args {
            [_, a, b] => Ok(if report::compare(&spec, a, b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err(USAGE.to_string()),
        },
        Some(first) if first.starts_with("--") => {
            run_one(&spec, args)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("zsbench: {message}");
        ExitCode::from(2)
    })
}
