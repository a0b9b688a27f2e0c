//! The four evaluation algorithms of Chapter 4, as implementations of the
//! crate-internal protocol trait (see `protocol.rs`).
//!
//! Each algorithm is a stateless strategy object: all per-node state lives
//! in [`NodeState`](crate::NodeState) and is reached through the node
//! context a handler receives. The only place the engine branches on
//! [`Algorithm`] is the `protocol_for` factory below — transport and
//! orchestration code dispatch through the trait.

pub(crate) mod common;
mod dai_q;
mod dai_t;
mod dai_v;
mod sai;

use crate::config::Algorithm;
use crate::protocol::Protocol;

pub use common::RunMatcher;

/// The built-in protocol implementing `algorithm` — the single point where
/// an [`Algorithm`] value is turned into behavior.
pub(crate) fn protocol_for(algorithm: Algorithm) -> &'static dyn Protocol {
    match algorithm {
        Algorithm::Sai => &sai::SaiProtocol,
        Algorithm::DaiQ => &dai_q::DaiQProtocol,
        Algorithm::DaiT => &dai_t::DaiTProtocol,
        Algorithm::DaiV => &dai_v::DaiVProtocol,
    }
}
