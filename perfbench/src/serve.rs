//! `serve_control`: generate a fleet-scale sharded trace store, then load
//! it and run the epoch-time control plane over it with every policy.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use ebs_serve::{
    load, serve, AppliedActions, EpochReport, LoadedTrace, NoopPolicy, OnlineBalancer,
    OnlineCacheTuner, OnlineLender, OnlineRebinder, Policy, ServeConfig, ServeReport, ServeSource,
    WindowView,
};
use ebs_stack::sim::{SimStats, StackConfig, StackSim};
use ebs_workload::{generate, generate_sharded, replay_summary, WorkloadConfig};

use crate::layers::{self, Values};
use crate::measure::{
    fmt_secs, median, peak_rss_mib, quantile, repeat_setup, sync_dir, timed, Scratch,
};
use crate::redrive::{redrive, Redrive, Row};
use crate::report::Report;
use crate::{Settings, GOLD_SEED};

/// Virtual-time epoch.
const EPOCH_SECS: f64 = 5.0;
/// Sliding window, in epochs.
const WINDOW: usize = 5;
/// Serve-side cache, in 4 KiB pages.
const CACHE_PAGES: usize = 4096;

/// The serve configuration: fast-forward epochs, with the serve-side cache
/// when `cache_pages` is set.
fn serve_config(cache_pages: Option<usize>) -> ServeConfig {
    let mut config = ServeConfig::fast_forward(EPOCH_SECS, WINDOW, StackConfig::default())
        .expect("a positive epoch length");
    config.cache_pages = cache_pages;
    config
}

/// The four policies, in `layers::POLICIES` order, as `bin/serve` builds
/// them.
fn build_policies() -> Vec<Box<dyn Policy>> {
    let throttle_scale = StackConfig::default().throttle_scale;
    layers::POLICIES
        .iter()
        .map(|&name| -> Box<dyn Policy> {
            match name {
                "rebind" => Box::new(OnlineRebinder::default()),
                "lend" => Box::new(OnlineLender::new(
                    ebs_throttle::LendingConfig::default(),
                    throttle_scale,
                )),
                "balance" => Box::new(OnlineBalancer::new(
                    ebs_balance::bs_balancer::BalancerConfig::default(),
                )),
                "cache" => Box::new(OnlineCacheTuner::new(CACHE_PAGES)),
                other => panic!("unknown policy {other}"),
            }
        })
        .collect()
}

/// A policy placed first that stamps the wall clock at every epoch
/// boundary and never acts, so the served output is unchanged.
struct Probe(Rc<RefCell<Vec<Instant>>>);

impl Policy for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn observe(&mut self, _view: &WindowView<'_>) -> Vec<ebs_serve::Action> {
        self.0.borrow_mut().push(Instant::now());
        Vec::new()
    }
}

/// One timed `load` + `serve()`, with the wall time of every epoch.
struct Served {
    report: ServeReport,
    trace: LoadedTrace,
    run_s: f64,
    epoch_ms: Vec<f64>,
}

fn load_and_serve(dir: &Path) -> Served {
    let started = Instant::now();
    let trace = load(&ServeSource::ShardedStore(dir.to_path_buf())).expect("the store loads");
    let stamps = Rc::new(RefCell::new(Vec::new()));
    let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(Probe(Rc::clone(&stamps)))];
    policies.extend(build_policies());
    let serve_started = Instant::now();
    let config = serve_config(Some(CACHE_PAGES));
    let report =
        serve(&trace.fleet, &config, &trace.events, &mut policies).expect("the trace serves");
    let run_s = started.elapsed().as_secs_f64();
    let mut epoch_ms = Vec::new();
    let mut prev = serve_started;
    for &t in stamps.borrow().iter() {
        epoch_ms.push((t - prev).as_secs_f64() * 1e3);
        prev = t;
    }
    Served {
        report,
        trace,
        run_s,
        epoch_ms,
    }
}

/// Generate the sharded store into a fresh directory, flushed to disk
/// before returning; the seconds returned cover generation only.
fn generate_store(settings: &Settings, scratch: &mut Scratch) -> (PathBuf, f64) {
    let dir = scratch.fresh("store");
    let profile = &settings.profile;
    let config = ebs_experiments::fleetscale::config_for_vds(
        profile.fleet_vds,
        settings.seed,
        profile.control_window_secs,
    );
    let (manifest, s) =
        timed(|| generate_sharded(&config, &dir, profile.shards, false).expect("the store writes"));
    assert_eq!(manifest.shards.len(), profile.shards);
    sync_dir(&dir).expect("the store flushes");
    (dir, s)
}

/// The untraced run: set-up repeated back to back, then `load` + `serve()`
/// repeated for the run's seconds; medians reported.
pub fn run(settings: &Settings, report: &mut Report) {
    let mut scratch = Scratch::create("serve").expect("scratch directory");
    let profile = &settings.profile;
    let (dir, setup) = repeat_setup(
        profile.setup_reps,
        profile.setup_seconds,
        || generate_store(settings, &mut scratch),
        |dir| std::fs::remove_dir_all(dir).expect("the previous store is removable"),
    );

    let mut runs = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut first: Option<(Vec<Row>, SimStats)> = None;
    let mut same = true;
    let last = loop {
        let served = load_and_serve(&dir);
        runs.push(served.run_s);
        epoch_ms.extend_from_slice(&served.epoch_ms);
        let outcome = (rows(&served.report.epochs), served.report.aggregate);
        match &first {
            None => first = Some(outcome),
            Some((r, a)) => same &= *r == outcome.0 && same_stats(a, &outcome.1),
        }
        if runs.iter().sum::<f64>() + served.run_s > settings.seconds {
            break served;
        }
    };
    let peak = peak_rss_mib();

    let epochs = last.report.epochs.len() as u64;
    report.note(format!(
        "{}: {} events over {} VDs in {} shards; {epochs} epochs; load+serve {} s; set-up {} s",
        settings.workload,
        last.trace.events.len(),
        last.trace.fleet.vd_count(),
        profile.shards,
        fmt_secs(&runs),
        fmt_secs(&setup),
    ));
    report.note(format!(
        "epoch wall time over {} epochs: p50 {:.4} ms, p90 {:.4} ms",
        epoch_ms.len(),
        quantile(&epoch_ms, 0.5),
        quantile(&epoch_ms, 0.9)
    ));
    if runs.len() > 1 {
        report.check(
            "determinism.repetitions",
            same,
            format!("{} repetitions serve identical epochs", runs.len()),
        );
    } else {
        report.note("determinism.repetitions not run: one repetition fit in --seconds");
    }
    let ok = check_served(settings, &last.trace, &last.report, report) && same;
    report.attempted += epochs * runs.len() as u64;
    if !ok {
        report.failed += epochs * runs.len() as u64;
    }

    let mut v = Values::default();
    v.set("setup_s", median(&setup));
    v.set("run_s", median(&runs));
    v.set("peak_rss_mib", peak);
    v.emit(&layers::end_to_end(), report);
}

/// The traced run: one untraced `load` + `serve()` as the reference, then
/// `load` and the epoch loop re-driven through the public calls under a
/// clock each, plus `replay_summary` over the same store.
pub fn run_traced(settings: &Settings, report: &mut Report) {
    let mut v = Values::default();
    let mut scratch = Scratch::create("serve").expect("scratch directory");
    let (dir, generate_s) = generate_store(settings, &mut scratch);
    v.set("workload.generate_sharded_s", generate_s);

    let reference = load_and_serve(&dir);
    v.set("serve.epoch_ms_p50", quantile(&reference.epoch_ms, 0.5));
    v.set("serve.epoch_ms_p90", quantile(&reference.epoch_ms, 0.9));
    let untraced_s = reference.run_s;
    let reference_report = reference.report;
    drop(reference.trace);

    let started = Instant::now();
    let (trace, load_s) =
        timed(|| load(&ServeSource::ShardedStore(dir.clone())).expect("the store loads"));
    let events = trace.events.len() as f64;
    v.set("store.load_ev_per_s", events / load_s);
    let mut policies = build_policies();
    let config = serve_config(Some(CACHE_PAGES));
    let traced = redrive(&trace.fleet, &config, &trace.events, &mut policies);
    let traced_s = started.elapsed().as_secs_f64();

    let (summary, replay_s) = timed(|| replay_summary(&dir).expect("the store replays"));
    v.set(
        "store.replay_summary_ev_per_s",
        summary.1.events() as f64 / replay_s,
    );

    let t = &traced.time;
    v.set("stack.route_ev_per_s", events / t.route);
    v.set("stack.step_ev_per_s", events / t.step);
    v.set("serve.fold_ev_per_s", events / t.fold);
    v.set("serve.window_fold_s", t.window_fold);
    for (name, s) in layers::POLICIES.iter().zip(&t.observe) {
        v.set(format!("policy.{name}.observe_s"), *s);
    }
    v.set("apply.swap_wts_s", t.swap_wts);
    v.set("apply.scale_caps_s", t.scale_caps);
    v.set("apply.migrate_s", t.migrate);
    let accesses = traced.cache.accesses as f64;
    v.set("cache.access_per_s", accesses / t.cache);
    v.set("cache.hit_ratio", traced.cache.hits as f64 / accesses);
    let covered = load_s + t.total();
    v.set("traced.run_s", traced_s);
    v.set("traced.coverage", covered / traced_s);
    v.set("traced.overhead_s", traced_s - untraced_s);
    set_exact_counts(&mut v, &traced);

    let fidelity = traced.rows == rows(&reference_report.epochs)
        && same_stats(&traced.aggregate, &reference_report.aggregate)
        && traced.consumed == reference_report.consumed;
    report.check(
        "fidelity.epoch_rows_equal_serve",
        fidelity,
        format!(
            "{} re-driven epochs against serve()'s rows (ios, throttled, bytes, p99_us, applied)",
            traced.rows.len()
        ),
    );
    let ok = check_served(settings, &trace, &reference_report, report) && fidelity;
    let epochs = reference_report.epochs.len() as u64;
    report.attempted += epochs;
    if !ok {
        report.failed += epochs;
    }
    v.emit(&layers::per_layer(), report);
}

fn set_exact_counts(v: &mut Values, traced: &Redrive) {
    let mut total = AppliedActions::default();
    for row in &traced.rows {
        total.add(&row.applied);
    }
    v.set("sim.ios", traced.aggregate.ios as f64);
    v.set("sim.throttled", traced.aggregate.throttled as f64);
    v.set("sim.mean_latency_us", traced.aggregate.mean_latency_us);
    v.set("actions.rebinds", total.rebinds as f64);
    v.set("actions.lends", total.lends as f64);
    v.set("actions.reclaims", total.reclaims as f64);
    v.set("actions.migrations", total.migrations as f64);
    v.set("actions.cache_ops", total.cache_ops as f64);
    v.set("actions.rejected", total.rejected as f64);
}

/// The comparable per-epoch rows of a serve run.
fn rows(epochs: &[EpochReport]) -> Vec<Row> {
    epochs.iter().map(Row::of).collect()
}

/// Whether two aggregates agree bit for bit.
pub fn same_stats(a: &SimStats, b: &SimStats) -> bool {
    a.ios == b.ios
        && a.throttled == b.throttled
        && a.prefetch_hits == b.prefetch_hits
        && a.gc_runs == b.gc_runs
        && a.mean_latency_us.to_bits() == b.mean_latency_us.to_bits()
}

/// The output checks of a served run; returns whether all held.
fn check_served(
    settings: &Settings,
    trace: &LoadedTrace,
    served: &ServeReport,
    report: &mut Report,
) -> bool {
    let epoch_ios: u64 = served.epochs.iter().map(|e| e.ios).sum();
    let conserved = served.consumed == trace.events.len() && epoch_ios == served.aggregate.ios;
    report.check(
        "conservation.events",
        conserved,
        format!(
            "consumed {} of {} events; epoch ios sum {} vs aggregate {}",
            served.consumed,
            trace.events.len(),
            epoch_ios,
            served.aggregate.ios
        ),
    );

    let mut noop: Vec<Box<dyn Policy>> = vec![Box::new(NoopPolicy)];
    let idle = serve(&trace.fleet, &serve_config(None), &trace.events, &mut noop)
        .expect("the trace serves");
    let sim = StackSim::new(&trace.fleet, StackConfig::default());
    let plan = sim.plan(&trace.events).expect("the trace is time-sorted");
    let batch = sim
        .run_planned(&trace.events, &plan)
        .expect("the plan covers the trace");
    let batch_equal = same_stats(&batch.stats, &idle.aggregate);
    report.check(
        "noop_serve_equals_batch",
        batch_equal,
        format!(
            "no-op serve aggregate {:?} vs batch {:?}",
            idle.aggregate, batch.stats
        ),
    );

    // The gold configuration does not depend on the workload seed, so
    // this check runs with every seed.
    let gold_equal = gold_serve_jsonl() == settings.gold_serve;
    report.check(
        "gold.serve_epochs",
        gold_equal,
        "medium scale, 60 s epochs, rebind,lend,balance,cache against serve_epochs_gold.jsonl",
    );
    conserved && batch_equal && gold_equal
}

/// The per-epoch metrics stream of the recorded gold configuration:
/// medium scale, canonical seed, 60 s epochs, window 5, all four policies,
/// 4096 cache pages.
fn gold_serve_jsonl() -> String {
    let ds = generate(&WorkloadConfig::medium(GOLD_SEED)).expect("the medium config validates");
    let mut config =
        ServeConfig::fast_forward(60.0, 5, StackConfig::default()).expect("a positive epoch");
    config.cache_pages = Some(CACHE_PAGES);
    let mut policies = build_policies();
    serve(&ds.fleet, &config, &ds.events, &mut policies)
        .expect("the medium trace serves")
        .metrics_jsonl
}
