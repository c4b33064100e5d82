//! The experiment registry: every paper artefact, discoverable by name.
//!
//! The `qla-bench` CLI resolves experiments exclusively through this
//! registry, so registering an experiment here is the one step that makes
//! a new analysis runnable, listable, describable, and part of `run-all`.

use crate::experiments::{
    ChannelBandwidth, EccLatency, Factor128Walkthrough, FaultSweep, Fig7Threshold, Fig9Connection,
    MultiTenantFairness, ObsOverhead, RecursionAnalysis, SchedulerUtilization, Sensitivity,
    ServeLoad, SimOfferedLoad, SimTailLatency, SimVsAnalytic, Table1, Table2Shor, TraceReplay,
    TraceScaling, TrafficMatrixStudy,
};
use qla_core::DynExperiment;

/// Every registered experiment, in the order the paper presents the
/// artefacts. The discrete-event simulation studies follow the analytic
/// scheduler study they generalise, the instruction-trace replays follow
/// the simulation studies they feed real programs into, and the
/// cross-profile sensitivity matrix closes the list, like Section 6
/// closes the paper.
#[must_use]
pub fn registry() -> Vec<Box<dyn DynExperiment>> {
    checked(vec![
        Box::new(Table1),
        Box::new(ChannelBandwidth),
        Box::new(EccLatency),
        Box::new(RecursionAnalysis),
        Box::new(Fig7Threshold),
        Box::new(Fig9Connection),
        Box::new(SchedulerUtilization),
        Box::new(SimOfferedLoad),
        Box::new(SimTailLatency),
        Box::new(SimVsAnalytic),
        Box::new(TraceReplay),
        Box::new(TraceScaling),
        Box::new(FaultSweep),
        Box::new(TrafficMatrixStudy),
        Box::new(MultiTenantFairness),
        Box::new(Table2Shor),
        Box::new(Factor128Walkthrough),
        Box::new(ServeLoad),
        Box::new(ObsOverhead),
        Box::new(Sensitivity),
    ])
}

/// Reject duplicate experiment names at construction. `find` resolves by
/// name and returns the first match, so a duplicate would silently shadow
/// its namesake — every `run`, `describe`, and golden would act on the
/// wrong experiment without anyone noticing.
fn checked(entries: Vec<Box<dyn DynExperiment>>) -> Vec<Box<dyn DynExperiment>> {
    let mut seen = std::collections::HashSet::new();
    for entry in &entries {
        assert!(
            seen.insert(entry.name()),
            "duplicate experiment name '{}' in the registry",
            entry.name()
        );
    }
    entries
}

/// The registered experiment names, in registry order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name()).collect()
}

/// Look up one experiment by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<Box<dyn DynExperiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// The descriptive metadata of one registry entry — what `qla-bench
/// describe <name>` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Stable registry name.
    pub name: &'static str,
    /// Human-readable title naming the paper artefact.
    pub title: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Trial budget used when `--trials` is not given.
    pub default_trials: usize,
    /// The machine-spec fields the experiment is sensitive to (spec text
    /// format keys; a trailing `*` names a group). Empty for experiments
    /// that only read fixed paper constants (or, for `sensitivity`, span
    /// every built-in profile regardless of the active spec).
    pub spec_fields: &'static [&'static str],
}

/// The metadata of one registry entry, by name.
#[must_use]
pub fn info(name: &str) -> Option<ExperimentInfo> {
    find(name).map(|e| ExperimentInfo {
        name: e.name(),
        title: e.title(),
        description: e.description(),
        default_trials: e.default_trials(),
        spec_fields: e.spec_fields(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_ten_experiments_are_registered() {
        assert!(registry().len() >= 10, "registry: {:?}", names());
    }

    #[test]
    fn names_are_unique_kebab_case_and_resolvable() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry names");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "name '{name}' is not kebab-case"
            );
            assert_eq!(find(name).unwrap().name(), name);
        }
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn every_entry_has_title_description_and_positive_trials() {
        for e in registry() {
            assert!(!e.title().is_empty(), "{}", e.name());
            assert!(!e.description().is_empty(), "{}", e.name());
            assert!(e.default_trials() > 0, "{}", e.name());
        }
    }

    #[test]
    fn info_mirrors_the_registry_entry() {
        let fig7 = info("fig7-threshold").expect("registered");
        assert_eq!(fig7.name, "fig7-threshold");
        assert_eq!(fig7.default_trials, 160_000);
        assert!(
            fig7.spec_fields.contains(&"sweep.component_rates"),
            "{:?}",
            fig7.spec_fields
        );
        assert!(info("no-such-experiment").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate experiment name 'table1'")]
    fn duplicate_names_panic_at_construction() {
        checked(vec![Box::new(Table1), Box::new(Table1)]);
    }

    #[test]
    fn spec_fields_name_real_spec_keys() {
        // Every advertised sensitivity must be a key (or `group.*` prefix)
        // of the spec text format, so `describe` never points at a field a
        // scenario author cannot actually set.
        let rendered = qla_core::MachineSpec::expected().render();
        let keys: Vec<&str> = rendered
            .lines()
            .filter_map(|line| line.split_once('='))
            .map(|(key, _)| key.trim())
            .collect();
        for e in registry() {
            for field in e.spec_fields() {
                let matches = if let Some(prefix) = field.strip_suffix(".*") {
                    keys.iter().any(|k| k.starts_with(&format!("{prefix}.")))
                } else {
                    keys.contains(field)
                };
                assert!(matches, "{}: '{field}' is not a spec key", e.name());
            }
        }
    }
}
