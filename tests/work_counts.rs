//! The engine's deterministic work counts, pinned per registry scenario: how many rate
//! searches and probes, and how many raster, Eq. 1 and Eq. 2 cells, each spec's two ABR legs
//! cost. Runs are seeded, so every count is exact and compared at zero tolerance; a change
//! that removes work shows up as a diff of `tests/fixtures/work_counts.json`, and one that
//! moves work it did not mean to move fails here.
//!
//! To refresh the fixture after an intentional change of the work done:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release --test work_counts`

use aivchat::core::scenarios::{registry, ScenarioSpec};
use aivchat::core::{run_contention_counted, Conversation, SessionSnapshot};
use std::fmt::Write;
use std::path::PathBuf;

/// One ABR leg of `spec`: tenant 0's script on a conversation of its own, or every tenant on
/// the contention engine, summed.
fn leg_counts(spec: &ScenarioSpec, ai_oriented: bool) -> SessionSnapshot {
    if spec.fixture_family() == "contention" {
        let tenants = (0..spec.tenants)
            .map(|t| spec.tenant_spec(t, ai_oriented))
            .collect();
        return run_contention_counted(&spec.config(), tenants).1;
    }
    let tenant = spec.tenant_spec(0, ai_oriented);
    let mut conversation = Conversation::with_defaults(tenant.options, tenant.think);
    for turn in &tenant.turns {
        conversation.run_turn_in_place(&turn.frames, &turn.question);
    }
    conversation.metrics_snapshot()
}

/// The counts of one leg as a JSON object, one counter per line.
fn leg_json(counts: &SessionSnapshot) -> String {
    let fields = [
        ("rate_searches", counts.rate_searches),
        ("rate_probes", counts.rate_probes),
        ("raster_cells_recomputed", counts.raster_cells_recomputed),
        ("eq1_cells", counts.eq1_cells),
        ("eq2_cells", counts.eq2_cells),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("      \"{name}\": {value}"))
        .collect();
    format!("{{\n{}\n    }}", body.join(",\n"))
}

#[test]
fn work_counts_match_their_fixture_exactly() {
    let mut json = String::from("{\n");
    let specs = registry();
    for (i, spec) in specs.iter().enumerate() {
        let [traditional, ai_oriented] = [false, true].map(|ai| leg_json(&leg_counts(spec, ai)));
        let comma = if i + 1 < specs.len() { "," } else { "" };
        write!(
            json,
            "  \"{}\": {{\n    \"traditional\": {traditional},\n    \"ai_oriented\": {ai_oriented}\n  }}{comma}\n",
            spec.name
        )
        .unwrap();
    }
    json.push_str("}\n");
    serde_json::from_str(&json).expect("the work counts are valid JSON");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/work_counts.json");
    if std::env::var("AIVC_UPDATE_FIXTURES").is_ok() {
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run AIVC_UPDATE_FIXTURES=1 cargo test --test work_counts",
            path.display()
        )
    });
    assert_eq!(
        json, expected,
        "the work counts drifted from their fixture — if the change of work is intentional, \
         regenerate with AIVC_UPDATE_FIXTURES=1 and review the diff"
    );
}
