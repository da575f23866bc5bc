//! The metric catalogue: every end-to-end and per-layer metric by name and
//! unit, in report order. A run reports each name once; a layer a
//! workload does not exercise reports 0.

use std::collections::BTreeMap;

use crate::report::Report;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB")];

/// The sections of `driver::run_all`, in the order the driver runs them
/// (wave 1, then the two sections that consume the stack simulation).
pub const SECTIONS: &[&str] = &[
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablations",
    "stack_sim",
    "fig7",
    "extensions",
];

/// The serve policies, in the order `serve_control` runs them.
pub const POLICIES: &[&str] = &["rebind", "lend", "balance", "cache"];

/// Per-layer metrics of the traced run, with their units. Section and
/// policy metrics are spelled out by [`per_layer`].
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("workload.generate_sharded_s", "s"),
    ("store.load_ev_per_s", "ev/s"),
    ("store.replay_summary_ev_per_s", "ev/s"),
    ("core.index_s", "s"),
    ("stack.route_ev_per_s", "ev/s"),
    ("stack.step_ev_per_s", "ev/s"),
    ("serve.fold_ev_per_s", "ev/s"),
    ("serve.window_fold_s", "s"),
    ("serve.epoch_ms_p50", "ms"),
    ("serve.epoch_ms_p90", "ms"),
    ("apply.swap_wts_s", "s"),
    ("apply.scale_caps_s", "s"),
    ("apply.migrate_s", "s"),
    ("cache.access_per_s", "1/s"),
    ("cache.hit_ratio", "ratio"),
    ("sim.ios", "count"),
    ("sim.throttled", "count"),
    ("sim.mean_latency_us", "us"),
    ("actions.rebinds", "count"),
    ("actions.lends", "count"),
    ("actions.reclaims", "count"),
    ("actions.migrations", "count"),
    ("actions.cache_ops", "count"),
    ("actions.rejected", "count"),
    ("traced.run_s", "s"),
    ("traced.coverage", "ratio"),
    ("traced.overhead_s", "s"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(SECTIONS.iter().map(|s| (format!("section.{s}_s"), "s")));
    out.extend(
        POLICIES
            .iter()
            .map(|p| (format!("policy.{p}.observe_s"), "s")),
    );
    out
}

/// Values a workload measured, by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Move every metric of `catalogue` into `report`, in catalogue
    /// order. Panics on a measured name the catalogue lacks, which is a
    /// bug in this benchmark.
    pub fn emit(self, catalogue: &[(String, &'static str)], report: &mut Report) {
        for name in self.0.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        for (name, unit) in catalogue {
            report.metric(name.clone(), self.get(name), unit);
        }
    }
}

/// The end-to-end catalogue as owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}
