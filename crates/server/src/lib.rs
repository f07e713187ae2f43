//! # flashp-server
//!
//! A multi-tenant query service frontend for the FlashP engine: TCP in,
//! JSON lines out, with per-connection sessions, first-class admission
//! control, and a blocking protocol client.
//!
//! The wire protocol is newline-delimited text ([`protocol`]): each
//! request line is a statement of the task language (`FORECAST` /
//! `SELECT` / `EXPLAIN`) or a service verb (`PREPARE name AS ...`,
//! `EXECUTE name (...)`, `INGEST`, `PUBLISH`, `STATS`, `CLOSE`), and
//! each response is exactly one JSON line. No async runtime: the server
//! ([`server`]) is a `std::net` listener, one thread per connection, and
//! a fixed worker pool behind a **bounded** queue — a full queue answers
//! a typed `busy` error immediately, it never blocks the client.
//!
//! Sessions ([`session`]) hold named prepared handles (the engine's
//! [`flashp_core::PreparedQuery`], re-bound per `EXECUTE`), so the hot
//! service path skips parse + plan entirely. `INGEST`/`PUBLISH` feed the
//! engine's staged ingest cycle; a publish swaps the catalog version
//! under every session's handles mid-flight, which is exactly what the
//! oracle tests assert stays bit-identical to in-process execution.
//!
//! [`harness`] holds the client side: [`Client`], one blocking
//! connection that sends a request line and reads the one response line
//! back, and the reply predicates [`harness::is_ok`] and
//! [`harness::has_error_code`]. The test suites, the examples and the
//! standalone wire benchmark under `benchmark/` talk to the server
//! through it.

#![warn(missing_docs)]

pub mod backend;
pub mod harness;
pub mod protocol;
pub mod server;
pub mod session;
pub mod stats;

pub use backend::{Backend, PreparedHandle};
pub use harness::Client;
pub use protocol::{parse_command, Command, ErrorCode};
pub use server::{serve, serve_backend, DrainReport, ServerConfig, ServerHandle};
pub use session::Session;
pub use stats::{LatencyHistogram, ServerStats};
