//! `servebench`: one benchmark for the mmkgr serving stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path servebench/Cargo.toml -- \
//!     --workload <answer-hot|answer-cold|live-mixed|scale-scorer> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run prepares its inputs from the
//! seed (untimed), boots a live primary and a follower in this process
//! several times (timed set-up), drives them over loopback for
//! `--seconds`, checks the outputs, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` repeats the workload with spans and reports the
//! per-layer metrics. See `servebench/README.md`.

mod inputs;
mod loadgen;
mod metrics;
mod probes;
mod stack;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--smoke]\nworkloads: answer-hot, answer-cold, live-mixed, scale-scorer";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink the datasets (tests only: plumbing, not performance).
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&args) {
        Ok(result) => {
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("servebench: output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
