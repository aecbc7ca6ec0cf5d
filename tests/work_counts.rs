//! The engine's deterministic work counts, pinned per registry scenario: how many rate
//! searches and probes, how many raster, Eq. 1 and Eq. 2 cells, how many blocks priced
//! and encoded, and how many kernel events (popped and fired inline), assembled packets,
//! FEC group checks and NACK polls each spec's two ABR legs cost. Runs are seeded, so every
//! count is exact and compared at zero tolerance; a change that removes work shows up as a
//! diff of `tests/fixtures/work_counts.json`, and one that moves work it did not mean to
//! move fails here.
//!
//! To refresh the fixture after an intentional change of the work done:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release --test work_counts`

use aivchat::core::scenarios::registry;
use aivchat::core::{run_contention_counted, SessionSnapshot};
use std::fmt::Write;
use std::path::PathBuf;

/// The counts of one leg as a JSON object, one counter per line.
fn leg_json(counts: &SessionSnapshot) -> String {
    let fields = [
        ("rate_searches", counts.rate_searches),
        ("rate_probes", counts.rate_probes),
        ("raster_cells_recomputed", counts.raster_cells_recomputed),
        ("eq1_cells", counts.eq1_cells),
        ("eq2_cells", counts.eq2_cells),
        ("blocks_priced", counts.blocks_priced),
        ("blocks_encoded", counts.blocks_encoded),
        ("net_events_popped", counts.net_events_popped),
        ("net_events_inline", counts.net_events_inline),
        ("packets_assembled", counts.packets_assembled),
        ("fec_group_checks", counts.fec_group_checks),
        ("nack_polls", counts.nack_polls),
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
        let [traditional, ai_oriented] = [false, true]
            .map(|ai| leg_json(&run_contention_counted(&spec.config(), spec.tenant_specs(ai)).1));
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
