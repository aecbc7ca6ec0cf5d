//! # aivchat — AI Video Chat: context-aware real-time video streaming for MLLM receivers
//!
//! Umbrella crate re-exporting the workspace's public API. See the README for a tour and
//! DESIGN.md for the paper-to-module map.
//!
//! ```
//! use aivchat::core::{Conversation, NetSessionOptions};
//! use aivchat::mllm::{Question, QuestionFormat};
//! use aivchat::netsim::{PathConfig, SimDuration};
//! use aivchat::scene::{templates::basketball_game, SourceConfig, VideoSource};
//!
//! let scene = basketball_game(1);
//! let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
//! let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
//! // A deliberately tiny turn so the doc test stays fast; see examples/ for realistic runs.
//! let mut options = NetSessionOptions::ai_oriented(1, PathConfig::paper_section_2_2(0.01));
//! options.capture_fps = 4.0;
//! let frames = source.window(3.5, 0.5, options.capture_fps);
//! let report = Conversation::with_defaults(options, SimDuration::ZERO).run_turn(&frames, &question);
//! assert!(report.frames_delivered > 0);
//! ```

/// DeViBench: the degraded-video understanding benchmark pipeline and dataset.
pub use aivc_devibench as devibench;
/// Always-on fleet-serving metrics (one plain counter struct per session, off-hot-path snapshots).
pub use aivc_metrics as metrics;
/// The MLLM simulator (sampling, tokens, latency, accuracy, pipeline roles).
pub use aivc_mllm as mllm;
/// The deterministic packet-level network emulator.
pub use aivc_netsim as netsim;
/// The vendored scoped thread pool behind the data-parallel hot paths.
pub use aivc_par as par;
/// The RTC transport (packetization, pacing, NACK/RTX, FEC, jitter buffer, GCC, ABR).
pub use aivc_rtc as rtc;
/// Synthetic scenes, clips and corpora with ground-truth annotations.
pub use aivc_scene as scene;
/// The CLIP-like text/patch embedding model (Eq. 1).
pub use aivc_semantics as semantics;
/// The deterministic discrete-event simulation kernel (virtual clock, event queue, actors).
pub use aivc_sim as sim;
/// The block-based video codec simulator with region-wise QP control.
pub use aivc_videocodec as videocodec;
/// The paper's contribution: context-aware streaming, Eq. 2 allocation, the end-to-end chat
/// session and the Figure 9 evaluation.
pub use aivchat_core as core;
