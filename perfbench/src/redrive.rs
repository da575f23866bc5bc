//! The serve epoch loop re-driven through the public calls of each layer,
//! with a clock around every call.
//!
//! This mirrors `ebs_serve::serve` step for step: route under the current
//! binding and placement, step the session, feed the observational cache,
//! fold the epoch, let the policies observe, validate and apply their
//! actions, fold the window. The traced run checks that the rows it
//! produces equal `serve()`'s, so the clocks measure the same program.

use std::time::Instant;

use ebs_cache::lru::LruCache;
use ebs_cache::policy::{pages_of, CachePolicy};
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_serve::{
    fold_window, Action, AppliedActions, CacheEpoch, EpochReport, EpochStats, Policy, ServeConfig,
    SlidingWindow, WindowView,
};
use ebs_stack::hypervisor::Binding;
use ebs_stack::route::RoutePlan;
use ebs_stack::segment::SegmentMap;
use ebs_stack::sim::{SimSession, SimStats};

/// The fields of one epoch row that must match `serve()` bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// Epoch index.
    pub epoch: u64,
    /// IOs simulated.
    pub ios: u64,
    /// IOs throttled.
    pub throttled: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Bits of the exact in-epoch p99 latency.
    pub p99_bits: u64,
    /// Actions applied at the epoch's boundary.
    pub applied: AppliedActions,
}

impl Row {
    /// The comparable fields of a row `serve()` reported.
    pub fn of(e: &EpochReport) -> Row {
        Row {
            epoch: e.epoch,
            ios: e.ios,
            throttled: e.throttled,
            bytes: e.bytes,
            p99_bits: e.p99_us.to_bits(),
            applied: e.applied,
        }
    }
}

/// Seconds spent in each layer over the whole loop.
#[derive(Debug, Default)]
pub struct LayerTime {
    /// `RoutePlan::build`.
    pub route: f64,
    /// `SimSession::step`.
    pub step: f64,
    /// `LruCache::access` over `pages_of`.
    pub cache: f64,
    /// `EpochStats::fold`.
    pub fold: f64,
    /// `fold_window`.
    pub window_fold: f64,
    /// `Policy::observe`, per policy in list order.
    pub observe: Vec<f64>,
    /// `Binding::swap_wts`.
    pub swap_wts: f64,
    /// `SimSession::scale_vd_caps`.
    pub scale_caps: f64,
    /// `SegmentMap::migrate`.
    pub migrate: f64,
}

impl LayerTime {
    /// Seconds attributed to some layer.
    pub fn total(&self) -> f64 {
        self.route
            + self.step
            + self.cache
            + self.fold
            + self.window_fold
            + self.observe.iter().sum::<f64>()
            + self.swap_wts
            + self.scale_caps
            + self.migrate
    }
}

/// The outcome of a re-driven loop.
pub struct Redrive {
    /// Per-epoch rows.
    pub rows: Vec<Row>,
    /// The session's aggregate statistics.
    pub aggregate: SimStats,
    /// Events served.
    pub consumed: usize,
    /// Cache page accesses and hits over the run.
    pub cache: CacheEpoch,
    /// Time per layer.
    pub time: LayerTime,
}

/// Seconds `f` took, added to `slot`.
fn clock<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// Run the serve loop over `events` the way `serve()` does, timing each
/// layer's public call.
pub fn redrive(
    fleet: &Fleet,
    config: &ServeConfig,
    events: &[IoEvent],
    policies: &mut [Box<dyn Policy>],
) -> Redrive {
    let horizon = match config.duration_us {
        Some(d) => d,
        None => events.last().map_or(0, |ev| ev.t_us.saturating_add(1)),
    };
    let count = config.epoch.count_for(horizon);
    let mut session = SimSession::new(fleet, config.stack.clone()).expect("a valid stack config");
    let mut binding = Binding::from_fleet(fleet);
    let mut seg_map = SegmentMap::from_fleet(fleet);
    let mut cap_scales = vec![1.0f64; fleet.vd_count()];
    let mut cache: Option<LruCache> = config.cache_pages.filter(|&p| p > 0).map(LruCache::new);
    let mut window: SlidingWindow<EpochStats> = SlidingWindow::new(config.window);
    let mut actions_window: SlidingWindow<AppliedActions> = SlidingWindow::new(config.window);
    let mut time = LayerTime {
        observe: vec![0.0; policies.len()],
        ..LayerTime::default()
    };
    let mut total_cache = CacheEpoch::default();
    let mut rows = Vec::new();

    let mut cuts = config.epoch.cuts(events, count);
    for slice in cuts.by_ref() {
        let plan = clock(&mut time.route, || {
            RoutePlan::build(fleet, &binding, &seg_map, slice.events)
        })
        .expect("the epoch routes");
        let out = clock(&mut time.step, || session.step(slice.events, &plan))
            .expect("the plan covers the epoch");
        let cache_epoch = cache.as_mut().map(|c| {
            clock(&mut time.cache, || {
                let mut ce = CacheEpoch::default();
                for ev in slice.events {
                    for page in pages_of(ev.offset, ev.size) {
                        ce.accesses += 1;
                        if c.access(page, ev.op) {
                            ce.hits += 1;
                        }
                    }
                }
                ce
            })
        });
        if let Some(ce) = cache_epoch {
            total_cache.accesses += ce.accesses;
            total_cache.hits += ce.hits;
        }
        let mut stats = clock(&mut time.fold, || {
            EpochStats::fold(
                fleet,
                slice.epoch,
                slice.start_us,
                slice.events,
                &plan,
                &out,
            )
        });
        stats.cache = cache_epoch;
        let mut row = Row {
            epoch: slice.epoch,
            ios: stats.sim.ios,
            throttled: stats.sim.throttled,
            bytes: stats.bytes,
            p99_bits: stats.p99_us.to_bits(),
            applied: AppliedActions::default(),
        };
        window.push(stats);

        let mut batch: Vec<Action> = Vec::new();
        {
            let view = WindowView {
                fleet,
                epoch: &config.epoch,
                epochs: window.as_slice(),
                binding: &binding,
                placement: &seg_map,
                cap_scales: &cap_scales,
            };
            for (policy, slot) in policies.iter_mut().zip(time.observe.iter_mut()) {
                batch.extend(clock(slot, || policy.observe(&view)));
            }
        }
        let mut applied = AppliedActions::default();
        for action in batch {
            apply(
                fleet,
                action,
                slice.epoch,
                &mut Control {
                    session: &mut session,
                    binding: &mut binding,
                    seg_map: &mut seg_map,
                    cap_scales: &mut cap_scales,
                    cache: &mut cache,
                },
                &mut applied,
                &mut time,
            );
        }
        actions_window.push(applied);
        clock(&mut time.window_fold, || {
            std::hint::black_box(fold_window(window.as_slice(), actions_window.as_slice()))
        });
        row.applied = applied;
        rows.push(row);
    }
    let consumed = cuts.consumed();
    Redrive {
        rows,
        aggregate: session.finish(),
        consumed,
        cache: total_cache,
        time,
    }
}

/// The control state actions mutate.
struct Control<'s, 'f> {
    session: &'s mut SimSession<'f>,
    binding: &'s mut Binding,
    seg_map: &'s mut SegmentMap,
    cap_scales: &'s mut [f64],
    cache: &'s mut Option<LruCache>,
}

/// Validate and apply one action exactly as `serve()` does, timing the
/// call that changes the control state.
fn apply(
    fleet: &Fleet,
    action: Action,
    epoch: u64,
    ctl: &mut Control<'_, '_>,
    applied: &mut AppliedActions,
    time: &mut LayerTime,
) {
    match action {
        Action::SwapWts { a, b } => {
            let wt_total = fleet.wt_total as usize;
            let valid = a != b
                && a.index() < wt_total
                && b.index() < wt_total
                && fleet.cn_of_wt(a) == fleet.cn_of_wt(b);
            if valid {
                clock(&mut time.swap_wts, || ctl.binding.swap_wts(a, b));
                applied.rebinds += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::LendCap { vd, scale } => {
            if scale.is_finite()
                && scale > 0.0
                && clock(&mut time.scale_caps, || {
                    ctl.session.scale_vd_caps(vd, scale)
                })
            {
                if let Some(slot) = ctl.cap_scales.get_mut(vd.index()) {
                    *slot = scale;
                }
                applied.lends += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::ReclaimCap { vd } => {
            if clock(&mut time.scale_caps, || ctl.session.scale_vd_caps(vd, 1.0)) {
                if let Some(slot) = ctl.cap_scales.get_mut(vd.index()) {
                    *slot = 1.0;
                }
                applied.reclaims += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::MigrateSegment { seg, to } => {
            let same_dc = seg.index() < fleet.segments.len()
                && fleet
                    .block_servers
                    .get(to)
                    .and_then(|b| fleet.storage_nodes.get(b.sn))
                    .is_some_and(|sn| sn.dc == fleet.dc_of_seg(seg));
            if same_dc && ctl.seg_map.home_of(seg) != to {
                let at = u32::try_from(epoch).unwrap_or(u32::MAX);
                clock(&mut time.migrate, || {
                    ctl.seg_map.migrate(fleet, at, seg, to)
                });
                applied.migrations += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::ResizeCache { pages } => match ctl.cache {
            Some(c) if pages > 0 => {
                *c = LruCache::new(pages);
                applied.cache_ops += 1;
            }
            _ => applied.rejected += 1,
        },
        Action::FlushCache => match ctl.cache {
            Some(c) => {
                *c = LruCache::new(c.capacity_pages());
                applied.cache_ops += 1;
            }
            None => applied.rejected += 1,
        },
    }
}
