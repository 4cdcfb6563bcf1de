//! `pythia-cli` — command-line front end for the Pythia reproduction.
//!
//! ```text
//! pythia-cli list                              # workloads and prefetchers
//! pythia-cli run <workload> <prefetcher> [--warmup N] [--measure N]
//!                [--mtps N] [--llc-kb N]
//! pythia-cli sweep <figure> [--threads N] [--format md|json|csv] [--out F]
//! pythia-cli sweep --workloads a,b,c [--prefetchers x,y] [...]
//! pythia-cli dse [--threads N]                 # §4.3 design-space search
//! pythia-cli bench [--filter S] [--reps N] [--list] [--sections]
//! pythia-cli trace record <workload> <file> [--instructions N]
//! pythia-cli trace replay <file> <prefetcher> [--warmup N] [--measure N]
//! pythia-cli trace info <file> [--json]
//! pythia-cli trace gen <profile> [--seed N] [--out DIR] [--stats-json [F]]
//! pythia-cli storage                           # Tables 4/7/8 summary
//! pythia-cli serve [--addr A] [--workers N] [--cache-dir DIR]
//! pythia-cli submit <figure> --addr HOST:PORT [--format md|json|csv]
//! ```
//!
//! Every subcommand rejects an option it does not read (`pythia-cli help`
//! lists them all).

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = match args::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_deref() {
        Some("list") => commands::list(&parsed),
        Some("run") => commands::run(&parsed),
        Some("sweep") => commands::sweep(&parsed),
        Some("dse") => commands::dse(&parsed),
        Some("bench") => commands::bench(&parsed),
        Some("trace") => commands::trace(&parsed),
        Some("storage") => commands::storage(&parsed),
        Some("serve") => commands::serve(&parsed),
        Some("submit") => commands::submit(&parsed),
        Some("help") | None => {
            print!("{}", commands::HELP);
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown subcommand {other:?}; try `pythia-cli help`"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
