//! One host-speed probe: run the reference kernel for at least `--seconds`
//! (default 0) and print `{"calibrate_s": <mean seconds per run>}`; see
//! `calibrate.rs` and `run.py`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds = match args.as_slice() {
        [] => Ok(0.0),
        [flag, value] if flag == "--seconds" => value.parse::<f64>().map_err(|_| value.clone()),
        _ => Err(args.join(" ")),
    };
    match seconds {
        Ok(s) => {
            println!("{{\"calibrate_s\": {}}}", record_bench::calibrate::probe(s));
            ExitCode::SUCCESS
        }
        Err(bad) => {
            eprintln!("bad arguments: {bad}\nusage: record-bench-calibrate [--seconds <s>]");
            ExitCode::from(2)
        }
    }
}
