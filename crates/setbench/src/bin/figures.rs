//! The one runner for the paper's figures: `figures <id|all> [keys-or-records]
//! [seconds-per-cell] [--smoke] [--smr ebr|hp]`, or `figures --list`.
//!
//! Each figure prints a throughput table on stdout (`ok` in the `valid`
//! column is the key-sum check) and one JSON row per cell on stderr.  The
//! exit status is 0 only if every figure passed its checks, 2 on a command
//! line that does not parse.  The table of figures, the sweeps and the
//! parser live in [`setbench::figures`].

use std::process::ExitCode;

use setbench::figures::{parse_args, usage, Command, FIGURES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(Command::Run(run)) => run,
        Ok(Command::List) => {
            for fig in FIGURES {
                println!("{:<15} {}", fig.id, fig.about);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("figures: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for fig in &run.figures {
        if let Err(e) = fig.run(&run.scale(fig)) {
            eprintln!("figures: {}: {e}", fig.id);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
