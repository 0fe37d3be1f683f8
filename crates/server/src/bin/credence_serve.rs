//! The `credence-serve` binary: serve the demo corpus (or a JSONL/TSV corpus)
//! over the CREDENCE REST API — or, with `--router`, a scatter-gather
//! cluster router fanning requests over worker processes. Its flags and
//! boot are [`credence_server::boot`], which `credence serve` shares.
//!
//! ```text
//! credence-serve [--addr 127.0.0.1:8091] [--corpus path.{jsonl,tsv}]
//! credence-serve --router --workers 127.0.0.1:8092,127.0.0.1:8093 \
//!                [--partitions N] [--fanout-deadline-ms MS]
//! ```

fn main() -> std::process::ExitCode {
    credence_server::boot::main(std::env::args().skip(1))
}
