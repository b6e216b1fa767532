//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `s` seconds and prints one JSON result line as
//! the last line of standard output; progress and failures go to
//! standard error. Exit code 0 after a result line, 2 on bad arguments.
//!
//! The terasort's Cache Worker spills into `.e2ebench-tmp/` under the
//! working directory, removed again at exit.

use std::process::ExitCode;
use std::time::Instant;
use swift_e2ebench::metrics::{result_line, WORKLOADS};
use swift_e2ebench::{run, Config};

const USAGE: &str = "usage: e2ebench --workload <trace_replay|service_storm|sql_tpch> --seed <u64> --seconds <u64 >= 1> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?,
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cfg.workload));
    }
    if cfg.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("e2ebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Keep spill files inside the working directory. Set before any
    // thread starts.
    let tmp = match std::env::current_dir() {
        Ok(dir) => dir.join(".e2ebench-tmp"),
        Err(e) => {
            eprintln!("e2ebench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2ebench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    let outcome = run(&cfg, process_start).expect("workload name was checked");
    let _ = std::fs::remove_dir_all(&tmp);
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
