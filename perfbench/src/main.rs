//! End-to-end and per-layer benchmark of the PCSTALL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_pcstall|sim_oracle|serve_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process on one thread and drives the
//! same unit of work, a control epoch (see `sim` and `fleet`). With
//! `--trace 0` the run measures end-to-end metrics for `--seconds`; with
//! `--trace 1` it times the calls into each crate and prints the per-layer
//! metrics instead. Human-readable lines come first; the last line of
//! standard output is the JSON result. The exit code is non-zero when an
//! output check fails. See `README.md` for why each workload exists.

mod fleet;
mod ledger;
mod sim;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: ledger::CountingAlloc = ledger::CountingAlloc;

/// The seed whose outputs are pinned.
pub const DEFAULT_SEED: u64 = 42;

const WORKLOADS: &[&str] = &["sim_pcstall", "sim_oracle", "serve_fleet"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<ledger::Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("sim_pcstall", false) => sim::run(&sim::Spec::pcstall(), args.seed, args.seconds),
        ("sim_pcstall", true) => sim::run_traced(&sim::Spec::pcstall(), args.seed),
        ("sim_oracle", false) => sim::run(&sim::Spec::oracle(), args.seed, args.seconds),
        ("sim_oracle", true) => sim::run_traced(&sim::Spec::oracle(), args.seed),
        ("serve_fleet", false) => fleet::run(&fleet::Spec::bench(), args.seed, args.seconds),
        ("serve_fleet", true) => fleet::run_traced(&fleet::Spec::bench(), args.seed),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Nothing may fall back to a multi-threaded global pool.
    exec::set_global_threads(1);
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{}: {note}", args.workload);
    }
    for v in &report.violations {
        eprintln!("perfbench: CHECK FAILED: {v}");
    }
    let schema = if args.trace { ledger::PER_LAYER } else { ledger::END_TO_END };
    println!("{}", report.to_json(schema));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload sim_oracle --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_oracle", 7, 20.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_fleet --trace 2").is_err());
        assert!(parse("--workload serve_fleet --seconds -1").is_err());
        assert!(parse("--workload serve_fleet --seed").is_err());
    }
}
