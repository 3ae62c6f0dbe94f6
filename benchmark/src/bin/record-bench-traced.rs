//! One traced repetition of a benchmark workload: driver calls go through
//! the timing adapter and allocations are counted. Prints one JSON line
//! with per-layer metrics; see `run.py`.

#[global_allocator]
static ALLOC: record_bench::alloc::CountingAlloc = record_bench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    record_bench::report::main(true)
}
