//! Long-term memory over streamed video — the substrate for the paper's §4 discussion of
//! *semantic layered video streaming*.
//!
//! The sender may discard chat-irrelevant content to minimize bitrate, but future questions
//! may reference that content. The memory stores a per-object summary (best quality seen,
//! when, how often) so the §4 ablation can quantify how much the enhancement layers recover.

use aivc_videocodec::DecodedFrame;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the memory retains about one object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryEntry {
    /// Best decoded quality at which the object was ever observed.
    pub best_quality: f64,
    /// Capture time of that best observation, in microseconds.
    pub best_quality_ts_us: u64,
    /// Number of frames in which the object was observed.
    pub observations: u64,
}

/// A long-term memory over a chat session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LongTermMemory {
    entries: BTreeMap<u32, MemoryEntry>,
    frames_ingested: u64,
}

impl LongTermMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a decoded frame (typically from the latency-insensitive enhancement layer).
    pub fn ingest(&mut self, frame: &DecodedFrame) {
        self.frames_ingested += 1;
        for (block, covered_by) in frame.blocks.iter().zip(frame.coverage.iter()) {
            for (object_id, coverage) in covered_by {
                if *coverage < 0.05 {
                    continue;
                }
                let entry = self.entries.entry(*object_id).or_insert(MemoryEntry {
                    best_quality: 0.0,
                    best_quality_ts_us: frame.capture_ts_us,
                    observations: 0,
                });
                entry.observations += 1;
                if block.quality > entry.best_quality {
                    entry.best_quality = block.quality;
                    entry.best_quality_ts_us = frame.capture_ts_us;
                }
            }
        }
    }

    /// The remembered entry for an object, if it was ever observed.
    pub fn recall(&self, object_id: u32) -> Option<MemoryEntry> {
        self.entries.get(&object_id).copied()
    }

    /// The quality at which a *historical* question about `object_id` could be answered:
    /// the best quality ever observed, or zero if never seen.
    pub fn recall_quality(&self, object_id: u32) -> f64 {
        self.entries
            .get(&object_id)
            .map(|e| e.best_quality)
            .unwrap_or(0.0)
    }

    /// Number of distinct objects remembered.
    pub fn object_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of frames ingested so far.
    pub fn frames_ingested(&self) -> u64 {
        self.frames_ingested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::dog_park;
    use aivc_scene::{SourceConfig, VideoSource};
    use aivc_videocodec::{Decoder, Encoder, EncoderConfig, Qp};

    fn decoded(qp: i32, frame_idx: u64) -> DecodedFrame {
        let source = VideoSource::new(dog_park(1), SourceConfig::fps30(10.0));
        let enc = Encoder::new(EncoderConfig::default());
        Decoder::new().decode_complete(&enc.encode_uniform(&source.frame(frame_idx), Qp::new(qp)), None)
    }

    #[test]
    fn memory_tracks_best_quality_per_object() {
        let mut mem = LongTermMemory::new();
        mem.ingest(&decoded(46, 0)); // poor
        let poor = mem.recall_quality(2); // dog-head
        mem.ingest(&decoded(24, 30)); // good
        let good = mem.recall_quality(2);
        assert!(good > poor);
        assert!(mem.recall(2).unwrap().observations >= 2);
        assert_eq!(mem.frames_ingested(), 2);
    }

    #[test]
    fn unseen_objects_recall_zero() {
        let mem = LongTermMemory::new();
        assert_eq!(mem.recall_quality(42), 0.0);
        assert!(mem.recall(42).is_none());
        assert_eq!(mem.object_count(), 0);
    }

    #[test]
    fn all_scene_objects_eventually_remembered() {
        let mut mem = LongTermMemory::new();
        for i in 0..5 {
            mem.ingest(&decoded(30, i * 30));
        }
        // The dog-park template has 4 objects.
        assert_eq!(mem.object_count(), 4);
    }
}
