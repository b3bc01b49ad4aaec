//! `gmpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line. Exits 1 when
//! an output check fails, 2 on bad arguments or an unwritable span file.

use std::process::ExitCode;

use gmpbench::metrics::{END_TO_END, PER_LAYER};
use gmpbench::run::{run, Args};
use gmpbench::trace::CountingAlloc;
use gmpbench::workloads::Sizes;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gmpbench: {e}");
            eprintln!(
                "usage: gmpbench --workload fresh-k25|crash10-k25|service-2w --seed N --seconds S --trace 0|1 [--spans PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args, &Sizes::BENCH);
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(content) = &report.span_file {
        let path = args.spans_path();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, content));
        if let Err(e) = written {
            eprintln!("gmpbench: cannot write span file {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("span file: {}", path.display());
    }
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.outcome.to_json(specs));
    if report.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
