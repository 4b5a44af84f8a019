//! The repo's one stack benchmark. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod compare;
mod fleet;
mod inproc;
mod inputs;
mod json;
mod pipeline;
mod report;
mod socket;
mod spec;
mod stats;
mod sys;
mod trace;

fn main() -> std::process::ExitCode {
    pipeline::cli(std::env::args().skip(1).collect())
}
