//! One untraced repetition of a benchmark workload (system allocator, no
//! timing adapter). Prints one JSON line; see `run.py`.

fn main() -> std::process::ExitCode {
    record_bench::report::main(false)
}
