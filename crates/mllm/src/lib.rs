//! # aivc-mllm — a Multimodal LLM simulator for AI Video Chat
//!
//! The paper's receiver is a cloud MLLM (Qwen2.5-Omni, GPT-4o class). We cannot run one, so
//! this crate simulates the properties of MLLM video understanding that the paper's argument
//! rests on, each in its own module:
//!
//! * **Sampling** ([`sampler`]) — MLLMs process at most ~2 FPS and at most ~602,112 pixels
//!   per frame regardless of what the network delivers (§2.1, Figure 2), so most received
//!   frames/pixels are redundant.
//! * **Tokenization** ([`tokens`]) — visual tokens are budgeted by context length; more
//!   pixels ⇒ more tokens ⇒ more prefill latency.
//! * **Latency** ([`latency`]) — autoregressive inference costs ≥232 ms even for audio-only
//!   input (§1), leaving ≤68 ms for everything else in a 300 ms budget.
//! * **Accuracy** ([`accuracy`]) — the probability of answering a question correctly is a
//!   calibrated function of the *decoded quality of the question's evidence regions* versus
//!   the question's detail requirement, with a 25 % guessing floor for multiple choice
//!   (§3.1's footnote). This is the model behind the Figure 9 reproduction.
//! * **Roles** ([`roles`]) — the same simulator, parameterized differently, plays the
//!   DeViBench pipeline roles: responder, QA generator, QA filter and cross-verifier.

pub mod accuracy;
pub mod chat;
pub mod config;
pub mod latency;
pub mod roles;
pub mod sampler;
pub mod tokens;

pub use accuracy::{AnswerModel, Question, QuestionFormat};
pub use chat::{Answer, MllmChat, MllmScratch};
pub use config::{MllmConfig, MllmProfile};
pub use latency::InferenceLatencyModel;
pub use roles::{CrossVerifier, QaFilter, QaGenerator};
pub use sampler::{Downsampler, FrameSampler};
pub use tokens::VisionTokenizer;
