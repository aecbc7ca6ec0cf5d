//! Video corpora: collections of clips that stand in for the StreamingBench-style datasets
//! used by the paper (§3.1 "Video Collection": *"we directly use their videos"*).
//!
//! A [`Corpus`] is a list of [`VideoClip`]s, each of which is a scene template instance plus
//! a duration and capture frame rate. The DeViBench pipeline consumes a corpus; the paper's
//! Table 1 reports a total duration of 180,000 s, which [`Corpus::streamingbench_like`] can
//! be sized to match.

use crate::scene::Scene;
use crate::source::{SourceConfig, VideoSource};
use crate::templates::TemplateKind;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One clip of a corpus.
#[derive(Debug, Clone)]
pub struct VideoClip {
    /// Corpus-unique clip id.
    pub id: u64,
    /// The scene the clip shows.
    pub scene: Scene,
    /// Capture frame rate (FPS).
    pub fps: f64,
    /// Clip duration in seconds.
    pub duration_secs: f64,
}

impl VideoClip {
    /// Builds the capture source for this clip.
    pub fn source(&self) -> VideoSource {
        VideoSource::new(
            self.scene.clone(),
            SourceConfig {
                fps: self.fps,
                duration_secs: self.duration_secs,
            },
        )
    }

    /// Number of ground-truth facts available for QA generation.
    pub fn fact_count(&self) -> usize {
        self.scene.facts.len()
    }
}

/// Summary statistics of a corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusStats {
    /// Number of clips.
    pub clips: usize,
    /// Total duration over all clips, in seconds.
    pub total_duration_secs: f64,
    /// Total number of ground-truth facts.
    pub total_facts: usize,
    /// Mean clip duration in seconds.
    pub mean_duration_secs: f64,
}

/// A collection of clips.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    clips: Vec<VideoClip>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a clip.
    pub fn push(&mut self, clip: VideoClip) {
        self.clips.push(clip);
    }

    /// The clips in insertion order.
    pub fn clips(&self) -> &[VideoClip] {
        &self.clips
    }

    /// Number of clips.
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// True when the corpus holds no clips.
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// Summary statistics.
    pub fn stats(&self) -> CorpusStats {
        let total: f64 = self.clips.iter().map(|c| c.duration_secs).sum();
        CorpusStats {
            clips: self.clips.len(),
            total_duration_secs: total,
            total_facts: self.clips.iter().map(|c| c.fact_count()).sum(),
            mean_duration_secs: if self.clips.is_empty() {
                0.0
            } else {
                total / self.clips.len() as f64
            },
        }
    }

    /// Generates a StreamingBench-like corpus of `n_clips` clips.
    ///
    /// Clips rotate through the five scene families, with per-clip parameter seeds derived
    /// from `seed`. Durations are drawn uniformly from `[min_duration, max_duration]`
    /// seconds and clips alternate between 30 and 60 FPS capture.
    pub fn streamingbench_like(seed: u64, n_clips: usize, min_duration: f64, max_duration: f64) -> Self {
        assert!(max_duration >= min_duration && min_duration > 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut corpus = Corpus::new();
        for i in 0..n_clips {
            let kind = TemplateKind::ALL[i % TemplateKind::ALL.len()];
            let scene = kind.build(seed.wrapping_add(i as u64 * 7919));
            let duration = rng.gen_range(min_duration..=max_duration);
            let fps = if i % 2 == 0 { 30.0 } else { 60.0 };
            corpus.push(VideoClip {
                id: i as u64,
                scene,
                fps,
                duration_secs: duration,
            });
        }
        corpus
    }

    /// Forces every clip to the given capture frame rate (useful when an experiment wants to
    /// hold the frame rate fixed while sweeping bitrate, as Figure 9 does).
    pub fn set_uniform_fps(&mut self, fps: f64) {
        assert!(fps > 0.0);
        for clip in &mut self.clips {
            clip.fps = fps;
        }
    }

    /// Generates a corpus whose total duration approximates `target_total_secs`
    /// (e.g. the paper's 180,000 s), using clips of roughly `clip_secs` each.
    pub fn with_total_duration(seed: u64, target_total_secs: f64, clip_secs: f64) -> Self {
        let n = (target_total_secs / clip_secs).round().max(1.0) as usize;
        Self::streamingbench_like(seed, n, clip_secs * 0.8, clip_secs * 1.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generation_is_deterministic() {
        let a = Corpus::streamingbench_like(5, 10, 20.0, 60.0);
        let b = Corpus::streamingbench_like(5, 10, 20.0, 60.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.clips().iter().zip(b.clips()) {
            assert_eq!(x.scene, y.scene);
            assert_eq!(x.duration_secs, y.duration_secs);
        }
    }

    #[test]
    fn corpus_rotates_templates() {
        let c = Corpus::streamingbench_like(1, 10, 10.0, 20.0);
        let labels: std::collections::BTreeSet<_> =
            c.clips().iter().map(|cl| cl.scene.label.clone()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn stats_totals_are_consistent() {
        let c = Corpus::streamingbench_like(2, 8, 30.0, 30.0);
        let s = c.stats();
        assert_eq!(s.clips, 8);
        assert!((s.total_duration_secs - 240.0).abs() < 1.0);
        assert!(s.total_facts >= 8 * 5);
        assert!((s.mean_duration_secs - 30.0).abs() < 0.2);
    }

    #[test]
    fn with_total_duration_hits_target_roughly() {
        let c = Corpus::with_total_duration(3, 10_000.0, 100.0);
        let total = c.stats().total_duration_secs;
        assert!((total - 10_000.0).abs() / 10_000.0 < 0.15, "total = {total}");
    }

    #[test]
    fn set_uniform_fps_applies_to_all_clips() {
        let mut c = Corpus::streamingbench_like(4, 6, 10.0, 20.0);
        assert!(c.clips().iter().any(|cl| cl.fps != 30.0));
        c.set_uniform_fps(30.0);
        assert!(c.clips().iter().all(|cl| cl.fps == 30.0));
    }

    #[test]
    fn clip_source_matches_duration() {
        let c = Corpus::streamingbench_like(4, 2, 10.0, 10.0);
        let clip = &c.clips()[0];
        let src = clip.source();
        assert_eq!(src.frame_count(), (clip.fps * clip.duration_secs) as u64);
    }

    #[test]
    fn empty_corpus_stats() {
        let c = Corpus::new();
        assert!(c.is_empty());
        assert_eq!(c.stats().mean_duration_secs, 0.0);
    }
}
