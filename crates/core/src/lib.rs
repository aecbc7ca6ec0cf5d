//! # aivchat-core — Context-Aware Video Streaming and the AI Video Chat pipeline
//!
//! This crate is the paper's primary contribution, assembled from the substrate crates:
//!
//! * [`allocator`] — Eq. 2: mapping per-patch semantic correlation ρ (Eq. 1, from
//!   `aivc-semantics`) to per-CTU quantization parameters with temperature γ = 3;
//! * [`context_aware`] — the §3.2 sender ([`Streamer`]), in either [`session::StreamingMode`]:
//!   user words → CLIP correlation map → QP map → trial-and-error bitrate match → ROI
//!   encode, with the uniform-QP baseline as its no-context case. The turn engine runs its
//!   two steps per capture; `encode_at_bitrate` runs them over a frame set, which is how
//!   the figures compare the two modes at equal actual bitrates (the search itself is
//!   `aivc_videocodec`'s);
//! * [`latency`] — the end-to-end response-latency budget (capture, CLIP, encode,
//!   transmission, decode, MLLM inference) against the 300 ms conversational bound (§1),
//!   read off a [`Conversation`] turn;
//! * [`session`] — [`session::StreamingMode`], which of the two a sender is;
//! * [`net_session`] — the network-in-the-loop turn's options and report: per-frame GCC
//!   feedback → ABR target → encode-at-bitrate → FEC/NACK recovery → decode, on a
//!   trace-driven emulated uplink (the loop itself, and the one driver that runs it over
//!   the `aivc-sim` kernel, is the private `net_turn` engine);
//! * [`conversation`] — the one session type: the driver's K = 1 case, one persistent
//!   transport timeline (clock, one-flow uplink, trace cursor, GCC, pacer, in-flight
//!   packets) across every turn of a conversation — a single networked turn is its first —
//!   with think-time gaps and cross-turn aggregates ([`ConversationReport`]);
//! * [`contention`] — the same driver with K members: K conversations plus cross-traffic
//!   contending for one [`aivc_netsim::SharedLink`] on one simulation timeline, with
//!   windowed Jain fairness, a per-tenant starvation watchdog and tenant-isolated recovery
//!   ([`ContentionReport`]);
//! * [`server`] — the multi-session throughput engine ([`ConversationChatServer`]): N
//!   independent conversations, each on its own kernel, executing turns across a scoped
//!   thread pool, bit-identically for any pool size;
//! * [`scenarios`] — the one validated scenario description ([`ScenarioSpec`]: tenants ×
//!   turns × window × think time on an uplink, warm or cold, shared or not), the registry of
//!   its sixteen named, seeded entries, and its one run ([`ScenarioSpec::run`]) reporting
//!   traditional vs AI-oriented ABR on each ([`ScenarioReport`], the golden-fixture substrate);
//! * [`eval`] — the Figure 9 experiment: DeViBench accuracy of ours vs the baseline across
//!   matched bitrates.

pub mod allocator;
pub mod contention;
pub mod context_aware;
pub mod conversation;
pub mod eval;
pub mod latency;
pub mod net_session;
mod net_turn;
pub mod scenarios;
pub mod server;
pub mod session;

pub use aivc_metrics::SessionSnapshot;
pub use allocator::{QpAllocator, QpAllocatorConfig, QpAllocatorConfigError};
pub use contention::{
    run_contention, run_contention_counted, ContentionConfig, ContentionConfigError, ContentionReport,
    CrossTrafficSpec, TenantReport, TenantSpec, TenantTurn,
};
pub use context_aware::{MatchedEncode, Streamer, StreamerConfig};
pub use conversation::{Conversation, ConversationReport};
pub use eval::{run_accuracy_vs_bitrate, AccuracyPoint};
pub use latency::{LatencyBudget, RESPONSE_LATENCY_TARGET_MS};
pub use net_session::{FrameDelivery, NetSessionOptions, NetSessionOptionsError, NetTurnReport};
pub use scenarios::{ScenarioReport, ScenarioSpec, ScenarioSpecError};
pub use server::{ConversationChatServer, ServingReport};
