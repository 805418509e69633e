//! Regenerate every table and figure of the paper's evaluation: each row
//! of the experiment table (`pga_bench::registry`) in order, printed as a
//! paper-style section. JSON copies land in `target/experiments/` for
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p pga-bench --bin report_all
//! cargo run --release -p pga-bench --bin report_all -- --quick
//! ```

use pga_bench::registry::{Size, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let size = match args.as_slice() {
        [] => Size::Full,
        [flag] if flag == "--quick" => Size::Quick,
        _ => {
            eprintln!("usage: report_all [--quick]");
            std::process::exit(2);
        }
    };
    for experiment in EXPERIMENTS {
        experiment.execute(size);
    }
    println!("all experiment JSON written to target/experiments/");
}
