//! The `credence` command-line interface.
//!
//! One binary driving the whole reproduction from a shell: rank a corpus,
//! generate every explanation type, test builder edits, browse topics,
//! inspect corpus statistics, generate synthetic corpora, and serve the
//! REST API. Command implementations live here (returning their output as
//! strings) so they are unit-testable; `main.rs` is a thin wrapper over
//! [`main`].

#![warn(missing_docs)]

use std::process::ExitCode;

pub mod args;
pub mod commands;

pub use args::{Args, CliError};
pub use commands::run;

/// The `credence` binary on its arguments (without the program name).
/// `serve` hands the rest to `credence-serve`'s own flag parser and boot
/// ([`credence_server::boot::main`]); every other command prints the report
/// of [`run`].
pub fn main(raw: Vec<String>) -> ExitCode {
    if raw.first().is_some_and(|command| command == "serve") {
        return credence_server::boot::main(raw.into_iter().skip(1));
    }
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.has("help") {
        print!("{}", commands::USAGE);
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rejects_what_credence_serve_rejects() {
        for line in [
            "serve --ranker zebra",
            "serve --job-workers 0",
            "serve --nope",
        ] {
            let raw = line.split_whitespace().map(str::to_string).collect();
            assert_eq!(main(raw), ExitCode::FAILURE, "{line}");
        }
    }
}
