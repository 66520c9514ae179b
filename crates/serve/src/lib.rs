//! pf-serve — resident factorization service.
//!
//! Runs the paper's four extraction drivers (sequential `gkx`,
//! Algorithm R, Algorithm I, Algorithm L) behind a bounded job queue
//! and a fixed worker pool, with per-job deadlines, cooperative
//! cancellation, graceful shutdown, and an embedded metrics registry.
//!
//! Two front doors:
//!
//! * **In-process** — [`Service::start`] + [`Client::submit`]:
//!
//!   ```
//!   use pf_serve::{Algorithm, JobOutcome, JobSpec, Service, ServiceConfig};
//!
//!   let service = Service::start(ServiceConfig::default());
//!   let client = service.client();
//!   let ticket = client
//!       .submit(JobSpec::new(Algorithm::Seq, "gen:misex3@0.05"))
//!       .expect("accepted");
//!   match ticket.wait() {
//!       JobOutcome::Completed(jr) => assert!(jr.report.lc_after <= jr.report.lc_before),
//!       other => panic!("unexpected outcome {other:?}"),
//!   }
//!   service.shutdown();
//!   ```
//!
//! * **JSON-lines over TCP** — [`Server::bind`] + [`Server::run`]
//!   (`std::net` only; protocol documented in `docs/SERVICE.md`).

/// `eprintln!` that ignores write errors. A closed stderr (its reader
/// gone) must not panic the service, the CLI or `bench-json`: what they
/// write there is a log, and losing it is no reason to stop.
#[macro_export]
macro_rules! eout {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

pub mod dist;
pub mod error;
#[cfg(test)]
mod golden;
pub mod job;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod retry;
pub mod server;
pub mod service;
mod supervisor;
pub mod worker;

pub use dist::{dist_response, encode_sub_request, RemoteTransport};
pub use error::ServeError;
pub use job::{Algorithm, JobOutcome, JobReport, JobSpec, Rejection, ALGORITHMS};
pub use json::Json;
pub use metrics::{Counter, Histogram, Metrics};
pub use queue::{BoundedQueue, PushError};
pub use retry::RetryPolicy;
pub use server::{request_lines, request_lines_with_retry, transient_io, Server, ServerConfig};
pub use service::{default_max_procs, validate_procs, Client, Service, ServiceConfig, Ticket};
