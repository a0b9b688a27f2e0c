//! The four evaluation algorithms of Chapter 4, as [`Protocol`]
//! implementations.
//!
//! Each algorithm is a stateless strategy object: all per-node state lives
//! in [`crate::node::NodeState`] and is reached through the
//! [`crate::protocol::NodeCtx`] a handler receives. The only place the
//! engine branches on [`Algorithm`] is the [`protocol_for`] factory below —
//! transport and orchestration code dispatch through the trait.

pub(crate) mod common;
pub mod dai_q;
pub mod dai_t;
pub mod dai_v;
pub mod sai;

use crate::config::Algorithm;
use crate::protocol::Protocol;

pub use common::RunMatcher;
pub use dai_q::DaiQProtocol;
pub use dai_t::DaiTProtocol;
pub use dai_v::DaiVProtocol;
pub use sai::SaiProtocol;

/// The built-in protocol implementing `algorithm` — the single point where
/// an [`Algorithm`] value is turned into behavior.
pub fn protocol_for(algorithm: Algorithm) -> &'static dyn Protocol {
    match algorithm {
        Algorithm::Sai => &SaiProtocol,
        Algorithm::DaiQ => &DaiQProtocol,
        Algorithm::DaiT => &DaiTProtocol,
        Algorithm::DaiV => &DaiVProtocol,
    }
}
