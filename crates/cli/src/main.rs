//! The `credence` binary: thin wrapper over [`credence_cli::main`].

fn main() -> std::process::ExitCode {
    credence_cli::main(std::env::args().skip(1).collect())
}
