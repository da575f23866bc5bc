//! `ebs-perfbench` — the end-to-end and per-layer benchmark of ebs-skew.
//!
//! ```text
//! ebs-perfbench --workload <reproduce_full|serve_control>
//!               [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root (it reads `full_run_output.txt` and
//! `serve_epochs_gold.jsonl` there and keeps its trace stores under
//! `.perfbench-scratch/`). Every workload runs in-process against the
//! library crates with one worker thread and observability off. With
//! `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
//! per-layer split; either way every output is checked. Stdout ends with
//! one JSON line: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod measure;
mod redrive;
mod report;
mod reproduce;
mod serve;

use ebs_experiments::Scale;

use crate::measure::Host;
use crate::report::Report;

/// The seed the gold masters were recorded with.
pub const GOLD_SEED: u64 = ebs_experiments::EXPERIMENT_SEED;

/// Input sizes of the workloads.
pub struct Profile {
    /// Scale of the `reproduce_full` dataset.
    pub reproduce_scale: Scale,
    /// Events a non-canonical `reproduce_full` dataset is scaled to.
    pub reproduce_events: f64,
    /// Target VD count of the serve fleet.
    pub fleet_vds: u64,
    /// Virtual seconds of `serve_control`'s trace.
    pub control_window_secs: f64,
    /// Shards of the serve trace store.
    pub shards: usize,
    /// Fewest set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Seconds the set-up repetitions run for at least, back to back.
    pub setup_seconds: f64,
}

impl Profile {
    /// The benchmark's sizes.
    pub const FULL: Profile = Profile {
        reproduce_scale: Scale::Full,
        reproduce_events: 1.5e6,
        fleet_vds: 50_000,
        control_window_secs: 900.0,
        shards: 4,
        setup_reps: 3,
        setup_seconds: 5.0,
    };

    /// Small inputs for the harness self-test: every code path and check
    /// in seconds.
    pub const SMOKE: Profile = Profile {
        reproduce_scale: Scale::Quick,
        reproduce_events: 5e4,
        fleet_vds: 300,
        control_window_secs: 600.0,
        shards: 2,
        setup_reps: 1,
        setup_seconds: 0.0,
    };
}

/// One run's parameters and reference outputs.
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase may repeat for.
    pub seconds: f64,
    /// Input sizes.
    pub profile: Profile,
    /// Recorded `run_all` output for the gold seed.
    pub gold_output: String,
    /// Recorded serve metrics stream of the gold configuration.
    pub gold_serve: String,
}

impl Settings {
    /// Whether the gold masters apply (the seed they were recorded with).
    pub fn canonical(&self) -> bool {
        self.seed == GOLD_SEED
    }
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["reproduce_full", "serve_control"];

/// Run one workload; `None` for an unknown name.
pub fn run_workload(settings: &Settings, traced: bool) -> Option<Report> {
    let mut report = Report::default();
    match (settings.workload.as_str(), traced) {
        ("reproduce_full", false) => reproduce::run(settings, &mut report),
        ("reproduce_full", true) => reproduce::run_traced(settings, &mut report),
        ("serve_control", false) => serve::run(settings, &mut report),
        ("serve_control", true) => serve::run_traced(settings, &mut report),
        _ => return None,
    }
    Some(report)
}

fn usage(msg: &str) -> ! {
    eprintln!("ebs-perfbench: {msg}");
    eprintln!(
        "usage: ebs-perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = GOLD_SEED;
    let mut seconds = 45.0f64;
    let mut traced = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("ebs-perfbench: cannot read {path} (run from the repository root): {e}");
            std::process::exit(1);
        })
    };
    let settings = Settings {
        workload,
        seed,
        seconds,
        profile: Profile::FULL,
        gold_output: read("full_run_output.txt"),
        gold_serve: read("serve_epochs_gold.jsonl"),
    };

    // Noise controls: one worker thread everywhere, observability off.
    std::env::set_var(ebs_core::parallel::THREADS_ENV, "1");
    ebs_core::parallel::set_thread_override(Some(1));
    ebs_obs::set_obs_override(Some(false));

    let host = Host::probe(std::path::Path::new("."));
    println!(
        "host: {}={} nproc={} cpu=\"{}\" scratch_fs={} shards={}",
        ebs_core::parallel::THREADS_ENV,
        host.threads,
        host.nproc,
        host.cpu_model,
        host.scratch_fs,
        settings.profile.shards
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} seed_gold={}",
        settings.workload,
        settings.seed,
        settings.seconds,
        u8::from(traced),
        if settings.canonical() {
            "on"
        } else {
            "off (invariant checks instead)"
        }
    );
    let report = run_workload(&settings, traced).expect("the workload name was checked");
    print!("{}", report.render_text());
    println!("{}", report.render_json());
}

#[cfg(test)]
pub mod smoke {
    //! The harness self-test: every workload, untraced and traced, at
    //! quick scale, with its checks.

    use super::*;

    /// Quick-scale settings whose `run_all` reference is recorded in-test,
    /// so the gold comparison runs too.
    pub fn settings(workload: &str, seed: u64) -> Settings {
        ebs_core::parallel::set_thread_override(Some(1));
        let ds = ebs_workload::generate(&Scale::Quick.config(GOLD_SEED)).unwrap();
        let gold_output = format!("{}\n", ebs_experiments::driver::run_all(&ds).join("\n\n"));
        Settings {
            workload: workload.to_string(),
            seed,
            seconds: 1e-3,
            profile: Profile::SMOKE,
            gold_output,
            gold_serve: std::fs::read_to_string("../serve_epochs_gold.jsonl").unwrap(),
        }
    }

    fn assert_clean(report: &Report, catalogue: &[(String, &str)]) {
        assert!(report.correct(), "{}", report.render_text());
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = catalogue.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected);
        let json = report.render_json();
        assert!(json.starts_with("{\"correct\": true, "), "{json}");
    }

    #[test]
    fn every_workload_passes_its_checks_untraced_and_traced() {
        for &workload in WORKLOADS {
            let settings = settings(workload, GOLD_SEED);
            let untraced = run_workload(&settings, false).unwrap();
            assert_clean(&untraced, &layers::end_to_end());
            if workload == "serve_control" {
                for name in ["noop_serve_equals_batch", "gold.serve_epochs"] {
                    assert!(untraced.checks.iter().any(|c| c.name == name), "{name}");
                }
            }
            assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
            let traced = run_workload(&settings, true).unwrap();
            assert_clean(&traced, &layers::per_layer());
            let coverage = traced
                .metrics
                .iter()
                .find(|m| m.name == "traced.coverage")
                .unwrap()
                .value;
            assert!(coverage > 0.5, "{workload}: coverage {coverage}");
        }
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, read
    /// with string scanning (the package has no JSON dependency).
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let start = text.find(&format!("\"{list}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
            entry[at..at + entry[at..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let owned = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), owned(layers::end_to_end()));
        assert_eq!(declared("per_layer"), owned(layers::per_layer()));
    }

    #[test]
    fn other_seeds_fall_back_to_invariant_checks() {
        let settings = settings("reproduce_full", 7);
        let report = run_workload(&settings, false).unwrap();
        assert!(report.correct(), "{}", report.render_text());
        for name in ["shape.section_headers", "reference.stack_sim"] {
            assert!(report.checks.iter().any(|c| c.name == name), "{name}");
        }
    }

    #[test]
    fn a_moved_gold_master_fails_the_run() {
        let mut reproduce = settings("reproduce_full", GOLD_SEED);
        reproduce.gold_output = reproduce.gold_output.replacen('1', "2", 1);
        let report = run_workload(&reproduce, false).unwrap();
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
        assert!(report.render_json().starts_with("{\"correct\": false, "));

        let mut control = settings("serve_control", GOLD_SEED);
        control.gold_serve.push('x');
        let report = run_workload(&control, false).unwrap();
        assert!(!report.correct());
        assert_eq!(report.failed, report.attempted);
    }
}
