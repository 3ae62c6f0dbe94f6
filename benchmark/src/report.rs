//! The per-repetition entry point: run one workload once in this process
//! and print what it measured as one JSON line on standard output.
//!
//! One repetition per process makes `peak_rss_mb` the peak of exactly one
//! workload run. `run.py` starts the processes, aggregates their lines and
//! prints the benchmark's result.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use crate::digest::Digest;
use crate::workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: record-bench --workload <name> --seed <n>";

/// The problem with `digest` at `seed`, if any: at [`DEFAULT_SEED`] it
/// must hash to the workload's pinned value.
pub fn check_pinned(workload: Workload, seed: u64, digest: &Digest) -> Option<String> {
    let (got, want) = (digest.hash(), workload.pinned_digest());
    (seed == DEFAULT_SEED && got != want).then(|| {
        format!(
            "{} digest {got:016x} differs from the pinned {want:016x}",
            workload.name()
        )
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn parse_args() -> Result<(Workload, u64), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, seed))
}

/// Run one repetition and print its JSON line. `traced` selects the timing
/// adapter; the traced binary also installs the counting allocator.
pub fn main(traced: bool) -> ExitCode {
    let started = Instant::now();
    let (workload, seed) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rep = workload.run(seed, traced);
    let mut problems = rep.problems;
    if let Some(p) = check_pinned(workload, seed, &rep.digest) {
        eprintln!("{p}; the outcome digested:\n{}", rep.digest.text());
        problems.push(p);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = bench_core::perf::peak_rss_bytes() as f64 / f64::from(1u32 << 20);

    let mut line = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"digest\": \"{:016x}\", \
         \"setup_s\": {}, \"run_s\": {}, \"wall_s\": {}, \"peak_rss_mb\": {}, \
         \"attempted\": {}, \"failed\": {}, \"problems\": [{}]",
        json_str(workload.name()),
        rep.digest.hash(),
        json_num(rep.setup_ns as f64 / 1e9),
        json_num(rep.run_ns as f64 / 1e9),
        json_num(wall_s),
        json_num(peak_rss_mb),
        rep.attempted,
        rep.failed,
        problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if traced {
        let layers: Vec<String> = rep
            .tally
            .metrics()
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let _ = write!(line, ", \"layers\": {{{}}}", layers.join(", "));
    }
    line.push('}');
    println!("{line}");
    ExitCode::SUCCESS
}
