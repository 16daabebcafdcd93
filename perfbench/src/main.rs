//! Benchmark binary: measures one workload and writes its raw result.
//!
//! ```text
//! perfbench bench --workload W --seed N --seconds S --trace 0|1 --out DIR --raw FILE
//! perfbench noop
//! perfbench <driver|aggregator|shard|device|origin|committee> [round args]
//! ```
//!
//! `bench` runs one workload (see `perfbench/METRICS.md`) and writes the
//! raw samples, checks and spans to `--raw` as one JSON object;
//! `perfbench/run.py` turns them into metrics. The round workloads drive
//! `mycelium_net::round::run_driver` with this binary as the executable,
//! so every role process re-execs it and lands in
//! `mycelium_net::cli::dispatch`. `noop` exits at once; the traced run
//! spawns it to time a bare process spawn.

mod device;
mod probes;
mod report;
mod rounds;
mod trace;

use std::path::PathBuf;

use mycelium_net::cli;

use crate::report::Report;

struct BenchArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    raw: PathBuf,
}

fn parse_bench(rest: &[String]) -> Result<BenchArgs, String> {
    let mut a = BenchArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: PathBuf::from(".bench_out"),
        raw: PathBuf::from(".bench_out/raw.json"),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {v:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v.to_string(),
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.traced = v == "1",
            "--out" => a.out = PathBuf::from(v),
            "--raw" => a.raw = PathBuf::from(v),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn bench(rest: &[String]) -> Result<bool, String> {
    let a = parse_bench(rest)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
    let mut rep = Report::new(a.traced);
    match a.workload.as_str() {
        "device_paper" => device::run(a.seed, a.seconds, &mut rep)?,
        w => {
            let workload =
                rounds::Workload::named(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
            let spec = workload.spec(a.seed)?;
            if a.traced {
                rounds::run_traced(&exe, workload, &spec, &a.out, &mut rep)?;
            } else {
                rounds::run_timed(&exe, workload, &spec, a.seconds, &a.out, &mut rep)?;
            }
        }
    }
    std::fs::write(&a.raw, rep.to_json(&a.workload, a.seed)).map_err(|e| e.to_string())?;
    Ok(rep.failures.is_empty())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let word = argv.get(1).cloned().unwrap_or_default();
    let result = match word.as_str() {
        "noop" => Ok(()),
        "bench" => match bench(&argv[2..]) {
            Ok(true) => Ok(()),
            Ok(false) => std::process::exit(2),
            Err(e) => Err(e),
        },
        role => cli::parse_args(&argv[2..]).and_then(|args| {
            cli::dispatch(role, &args).unwrap_or_else(|| {
                Err(format!(
                    "usage: perfbench <bench|noop|driver|aggregator|shard|device|origin|committee> \
                     [args] (got {role:?})"
                ))
            })
        }),
    };
    if let Err(e) = result {
        eprintln!("perfbench {word}: {e}");
        std::process::exit(1);
    }
}
