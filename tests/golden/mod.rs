//! The harness the three golden files share: the whole registry, run once per test binary
//! through the one entry ([`ScenarioSpec::run`], spread over a pool by [`run_registry`]),
//! and a byte-for-byte comparison of one family's reports with their committed fixtures
//! `tests/fixtures/<name>.json`. Each fixture belongs to exactly one family, so each is
//! compared by exactly one golden test.
//!
//! To refresh the fixtures after an intentional behaviour change:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release --test scenario_golden --test conversation_golden --test contention_golden`

use aivchat::core::scenarios::{registry, run_registry, ScenarioReport, ScenarioSpec};
use aivchat::par::MiniPool;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Which golden file pins a spec's fixture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// One turn on a link of its own (`scenario_golden`).
    OneTurn,
    /// Several turns on a link of its own (`conversation_golden`).
    Conversation,
    /// Tenants sharing the uplink (`contention_golden`).
    Contention,
}

impl Family {
    pub fn of(spec: &ScenarioSpec) -> Family {
        match (&spec.sharing, spec.turns) {
            (Some(_), _) => Family::Contention,
            (None, 1) => Family::OneTurn,
            (None, _) => Family::Conversation,
        }
    }
}

/// Every registry spec with its report, run once per test binary on the CI-pinned pool size
/// (`AIVC_POOL_SIZE`, falling back to the machine's parallelism): the reports are
/// pool-independent, so the same bytes must come back at any lane count.
pub fn reports() -> &'static [(ScenarioSpec, ScenarioReport)] {
    static REPORTS: OnceLock<Vec<(ScenarioSpec, ScenarioReport)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        registry()
            .into_iter()
            .zip(run_registry(MiniPool::env_lanes()))
            .collect()
    })
}

/// A registry spec and its report.
pub fn report(name: &str) -> &'static (ScenarioSpec, ScenarioReport) {
    reports()
        .iter()
        .find(|(spec, _)| spec.name == name)
        .expect("registered scenario")
}

/// Every spec of `family`, run end to end under both ABR legs, serialized and compared
/// byte for byte against its committed fixture; `expected` is the family's size, so a
/// spec that moves between families is noticed. With `AIVC_UPDATE_FIXTURES` set the
/// fixtures are rewritten instead.
pub fn assert_bit_stable(family: Family, expected: usize) {
    let update = std::env::var("AIVC_UPDATE_FIXTURES").is_ok();
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    assert_eq!(reports().len(), 16, "one fixture per registry entry");
    let members: Vec<_> = reports()
        .iter()
        .filter(|(spec, _)| Family::of(spec) == family)
        .collect();
    assert_eq!(members.len(), expected, "{family:?} specs");
    for (spec, report) in members {
        assert_eq!(report.scenario, spec.name);
        let json = serde_json::to_string_pretty(report).expect("report serializes");
        let path = fixtures.join(format!("{}.json", spec.name));
        if update {
            std::fs::write(&path, format!("{json}\n")).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); regenerate with AIVC_UPDATE_FIXTURES=1",
                path.display()
            )
        });
        assert_eq!(
            json.trim_end(),
            expected.trim_end(),
            "scenario `{}` drifted from its fixture — if the change is intentional, regenerate \
             with AIVC_UPDATE_FIXTURES=1 and review the diff",
            spec.name
        );
    }
}
