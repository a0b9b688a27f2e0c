//! # cq-sim — simulation harness and the paper's experiments
//!
//! Drives `cq-engine` networks over `cq-workload` streams and regenerates
//! every figure and table of the paper's evaluation (Chapter 5). Each
//! experiment lives in [`experiments`] under its DESIGN.md id (E1..E16, T1,
//! plus the EF1 fault-tolerance extension) and renders a text
//! [`report::Report`].
//!
//! ```
//! use cq_sim::experiments::{self, Scale};
//!
//! // A milliseconds-scale version of Figure "traffic cost and JFRT effect".
//! let report = experiments::e02_traffic_jfrt::run(Scale::Quick);
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod harness;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod stats;
pub mod trace;

pub use cq_engine::{FaultConfig, FaultCounters, TraceEvent};
pub use harness::{run, set_trace_dir, set_trace_format, QuerySource, RunConfig, RunResult};
pub use parallel::{run_many, set_jobs};
pub use pipeline::Pipeline;
pub use report::Report;
pub use trace::{FileSink, TraceFormat};

/// Ends a command-line tool whose write to stdout failed. A reader that
/// closed the pipe early (`… | head`) is a normal end: exit code 0, and
/// nothing on stderr. Any other error is named on stderr, with exit code 1.
pub fn exit_on_write_error(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("cannot write to stdout: {e}");
    std::process::exit(1);
}
