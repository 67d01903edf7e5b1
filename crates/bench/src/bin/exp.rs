//! `exp` — every paper table/figure and acceptance scenario behind one
//! command line (see `paraleon_bench::exp::ALL` for the table):
//!
//! `cargo run --release -p paraleon-bench --bin exp -- <name>… | all | list
//!  [--paper | --smoke] [--check] [--threads N]`

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let results = paraleon_bench::results_dir();
    ExitCode::from(paraleon_bench::run(
        &paraleon_bench::exp::ALL,
        &args,
        &results,
    ))
}
