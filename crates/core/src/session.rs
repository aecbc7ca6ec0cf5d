//! [`StreamingMode`]: which encoder a [`crate::Conversation`] puts on its uplink.

use serde::{Deserialize, Serialize};

/// Which streaming method a session uses on the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamingMode {
    /// Context-aware QP allocation (the paper's contribution).
    ContextAware,
    /// Uniform-QP baseline at the same target bitrate.
    Baseline,
}
