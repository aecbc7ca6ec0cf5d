//! # aivc-videocodec — a block-based video codec simulator with region-wise QP control
//!
//! The paper encodes with Kvazaar (H.265) and controls the Quantization Parameter (QP) of
//! individual regions to implement Context-Aware Video Streaming (§3.2, Eq. 2). Running a
//! real HEVC encoder is outside this environment's scope, so this crate provides a codec
//! **simulator** that preserves the properties the paper's argument actually relies on:
//!
//! * bits per block are a *monotone decreasing, roughly exponential* function of QP
//!   (halving every ~6 QP steps, the standard HEVC rule of thumb);
//! * bits grow with spatial complexity and motion; intra frames cost several times more
//!   than inter frames;
//! * decoded quality is a *monotone decreasing* function of QP, and detail-rich content
//!   loses "recognizability" at lower QP than flat content;
//! * per-region (CTU) QP maps shift bits between regions at ~constant total bitrate;
//! * no QP lands a stream exactly on a target bitrate, so the paper's trial-and-error
//!   bitrate matching is reproduced explicitly — one boundary search over prepared rate
//!   plans, per capture in the turn engine ([`Encoder::search_rate_plan`]) and per frame
//!   set offline ([`Encoder::search_rate_plans`]).
//!
//! The encoder consumes [`aivc_scene::Frame`] content descriptors and produces
//! [`EncodedFrame`]s that carry everything downstream consumers need (per-block bytes, QP
//! and content detail — from which a block's quality follows — plus one per-frame
//! object-coverage table), so the decoder and the MLLM simulator never have to reach back
//! into the scene.

pub mod decoder;
pub mod encoder;
pub mod frame;
pub mod gop;
pub mod qp;
pub mod rate_plan;
pub mod rd;
pub mod transcode;

pub use decoder::{DecodeScratch, DecodedBlock, DecodedFrame, Decoder};
pub use encoder::{EncodeScratch, Encoder, EncoderConfig};
pub use frame::{EncodedBlock, EncodedFrame, FrameType};
pub use qp::{Qp, QpMap};
pub use rate_plan::{RatePlan, RateSearch};
pub use transcode::{transcode_clip, TranscodeSummary};
