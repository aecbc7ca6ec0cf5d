//! [`StreamingMode`]: which of its two modes a [`crate::Streamer`] — a session's uplink
//! sender, or an offline one — runs in.

use serde::{Deserialize, Serialize};

/// Which streaming method a session uses on the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamingMode {
    /// Context-aware QP allocation (the paper's contribution).
    ContextAware,
    /// Uniform-QP baseline at the same target bitrate.
    Baseline,
}

/// The label the figures print.
impl std::fmt::Display for StreamingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StreamingMode::ContextAware => "context-aware",
            StreamingMode::Baseline => "baseline",
        })
    }
}
