//! Runs the beyond-paper ablations: read-repair chance, commit-log
//! durability, and partitioner choice. Writes CSVs under `results/`.

use bench_core::ablation::{
    ablate_commitlog, ablate_partitioner, ablate_read_repair, AblationConfig,
};

fn main() {
    let cfg = if bench::quick_requested() {
        AblationConfig::quick()
    } else {
        AblationConfig::default()
    };
    let started = std::time::Instant::now();

    let rr = ablate_read_repair(&cfg, 6);
    println!("{}", rr.render());
    rr.write_csv(&bench::results_dir().join("ablation_read_repair.csv"))
        .expect("write csv");

    let cl = ablate_commitlog(&cfg);
    println!("{}", cl.render());
    cl.write_csv(&bench::results_dir().join("ablation_commitlog.csv"))
        .expect("write csv");

    let part = ablate_partitioner(&cfg);
    println!("{}", part.render());
    part.write_csv(&bench::results_dir().join("ablation_partitioner.csv"))
        .expect("write csv");

    eprintln!("ablations: done in {:.1}s", started.elapsed().as_secs_f64());
}
