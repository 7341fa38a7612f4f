//! The dsbn benchmark: one command that runs a seeded workload through the
//! public APIs of `dsbn-core` and `dsbn-monitor`, checks every answer
//! against the run's exact-MLE oracle, and prints its metrics by name with
//! their units. See `perfbench/README.md` for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload alarm-ingest --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it records the host facts (CPUs, build profile, commit). A
//! traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. Any failed check makes
//! the command exit with code 1.

mod checks;
mod host;
mod passes;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?} is not a valid value");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join("|")))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let host = format!(
        "{{\"host\":{{\"nproc\":{},\"profile\":{},\"commit\":{}}},\"workload\":{},\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"eps\":{}}}",
        host::nproc(),
        json_str(host::profile()),
        json_str(&host::commit()),
        json_str(name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        checks::EPS
    );
    eprintln!(
        "{name}: seed {} for {} s{}",
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let outcome = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let mut tally = outcome.tally;
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            tally.op(false, || format!("metric {} is not finite", m.name));
            "null".into()
        };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(m.name),
            json_str(m.unit)
        );
    }
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{name}-{}.jsonl", args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{host}\n{}", outcome.trace)));
        match written {
            Ok(()) => eprintln!("  spans: {}", path.display()),
            Err(e) => tally.op(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    let correct = tally.failed == 0;
    println!("{host}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
