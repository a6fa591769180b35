//! Network front end for the dual-engine HTAP system.
//!
//! This crate puts the in-process [`qpe_htap::Session`] API on a socket: a
//! thread-per-connection TCP [`server`] speaking a length-prefixed,
//! CRC-checked binary [`protocol`], a blocking [`client`] library used by
//! the tests and the repo benchmark's wire workloads, and [`stats`] counters
//! surfacing server observability over the same protocol.
//!
//! The server adds exactly the concerns a network boundary introduces —
//! framing, handshake/limit negotiation, admission control, out-of-band
//! cancellation, graceful shutdown — and delegates everything else to the
//! HTAP session layer, so a statement executed over the wire returns
//! byte-identical rows (and the same typed errors) as one executed
//! in-process.

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{Client, ClientError, ExecOutcome, QueryResult};
pub use protocol::{
    ClientFrame, EnginePref, FrameError, ServerFrame, StatsSnapshot, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
pub use stats::{ServerStats, SessionStats};
