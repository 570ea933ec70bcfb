//! The metrics of a run, from the timed episodes (end to end) or the
//! traced twin passes (per layer), and how they are printed.

use crate::episodes::{p90_rank, Reference, SetupTimes, Timed, MIN_SAMPLES};
use crate::serving::Serving;
use crate::twin::Twin;
use crate::workload::Step;
use sc_sim::RoundReport;
use serde::json::Value;
use serde::Serialize as _;
use std::collections::BTreeMap;

/// Reconciliation tolerance: the twin's layer self times for a request
/// may exceed the slowest client-observed latency of that request by at
/// most this much.
pub const TOLERANCE_MS: f64 = 0.5;
pub const TOLERANCE_SHARE: f64 = 0.10;
/// Every engine rejection reason, as `sim.rejected.<label>` counters.
const REJECT_LABELS: [&str; 7] = [
    "unknown_worker",
    "cannot_fold_in",
    "non_dense_id",
    "no_usable_friends",
    "not_online",
    "round_mismatch",
    "out_of_order",
];

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn p90(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[p90_rank(v.len()) - 1]
}

/// Windows the episodes of a run are dealt into for a latency set: the
/// fewest that give at least `MIN_SAMPLES` (request, window) pairs when
/// an episode sends `per_episode` requests of the set.
pub fn replay_windows(per_episode: usize, episodes: usize) -> usize {
    MIN_SAMPLES
        .div_ceil(per_episode.max(1))
        .clamp(1, episodes.max(1))
}

/// One latency per (request, window) of a latency set. Every episode
/// replays the same requests on a fresh engine, so each request of the
/// episode (`positions`, indices into `by_step`) has one sample per
/// episode. The episodes are dealt round-robin into `replay_windows`
/// windows, so each window spans the whole run, and a request's
/// latency in a window is the median of its samples there. The shared
/// host adds delay to some replays, in spells; the median is the
/// request's own cost unless such spells cover half of the window.
fn replay_latencies(by_step: &[Vec<f64>], positions: &[usize], episodes: usize) -> Vec<f64> {
    let windows = replay_windows(positions.len(), episodes);
    let mut latencies = Vec::with_capacity(windows * positions.len());
    for w in 0..windows {
        latencies.extend(positions.iter().map(|&i| {
            let replays: Vec<f64> = by_step[i]
                .iter()
                .skip(w)
                .step_by(windows)
                .copied()
                .collect();
            median(&replays)
        }));
    }
    latencies
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in output order: name, value, unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub fn end_to_end(
    steps: &[Step],
    timed: &Timed,
    reference: &Reference,
    setups: &[SetupTimes],
    ok_ratio: f64,
) -> Metrics {
    let (assigned_ratio, avg_influence) = reference.summary.as_ref().map_or((0.0, 0.0), |s| {
        (
            ratio(s.assigned as f64, s.published as f64),
            s.average_influence,
        )
    });
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let latencies = |endpoint: &str| {
        let positions: Vec<usize> = (0..steps.len())
            .filter(|&i| steps[i].endpoint() == endpoint)
            .collect();
        replay_latencies(&timed.by_step, &positions, timed.episodes)
    };
    let (round, events) = (latencies("round"), latencies("events"));
    let peak = sc_stats::rss::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    vec![
        ("round_p50_ms".into(), median(&round), "ms"),
        ("round_p90_ms".into(), p90(&round), "ms"),
        ("events_p50_ms".into(), median(&events), "ms"),
        ("events_p90_ms".into(), p90(&events), "ms"),
        (
            "events_per_s".into(),
            ratio(reference.applied as f64, median(&timed.episode_s)),
            "1/s",
        ),
        ("assigned_ratio".into(), assigned_ratio, "ratio"),
        ("avg_influence".into(), avg_influence, "influence"),
        ("setup_s".into(), median(&setup), "s"),
        ("restore_s".into(), median(&timed.restores_ms) / 1e3, "s"),
        ("peak_rss_mb".into(), peak, "MB"),
        ("ok_ratio".into(), ok_ratio, "ratio"),
    ]
}

/// The trace run: at every interlude an untraced twin pass over the
/// episode and a traced one over the episode and its tail.
pub struct Traced {
    /// Untraced client-observed latency per step over the timed
    /// episodes (over the interludes for tail steps): median and slowest.
    pub observed: Vec<f64>,
    pub slowest: Vec<f64>,
    /// Wall time per step of each untraced and each traced pass.
    pub plain_ms: Vec<Vec<f64>>,
    pub traced_ms: Vec<Vec<f64>>,
    /// The endpoint of each step.
    pub endpoint: Vec<&'static str>,
    /// Self time per (request, span name): the median over the traced
    /// passes.
    pub own: BTreeMap<(usize, &'static str), f64>,
    /// The middle traced pass; its counters and spans are reported.
    pub main: Twin,
}

/// Self time per (request, span name) of each twin, then the median
/// over the twins that recorded it.
pub fn median_self(twins: &[Twin]) -> BTreeMap<(usize, &'static str), f64> {
    let mut samples: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    for twin in twins {
        let mut own: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
        for (span, ms) in twin.tracer.spans().iter().zip(twin.tracer.self_ms()) {
            *own.entry((span.request, span.name)).or_default() += ms;
        }
        for (key, ms) in own {
            samples.entry(key).or_default().push(ms);
        }
    }
    samples
        .into_iter()
        .map(|(key, v)| (key, median(&v)))
        .collect()
}

impl Traced {
    /// Whether step `r` is part of a round cycle rather than a snapshot
    /// or a restart.
    fn in_cycle(&self, r: usize) -> bool {
        !matches!(self.endpoint[r], "snapshot" | "restart")
    }

    /// Self time by span name over the requests `keep` accepts.
    fn by_name(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (&(request, name), ms) in &self.own {
            if keep(request) {
                *totals.entry(name).or_insert(0.0) += ms;
            }
        }
        totals
    }
}

/// Per-request attribution of the traced twin pass.
pub struct Reconciled {
    /// Median observed latency minus the twin's layer self times.
    pub transport_ms: Vec<f64>,
    /// Twin time outside every layer span.
    pub unattributed_ms: Vec<f64>,
    /// How far the twin's layer self times exceed the slowest observed
    /// latency of the request (0 when they do not).
    pub excess_ms: Vec<f64>,
    /// Requests whose excess is beyond the tolerance.
    pub outside: usize,
}

pub fn reconcile(traced: &Traced) -> Reconciled {
    let n = traced.observed.len();
    let mut layers = vec![0.0; n];
    let mut unattributed_ms = vec![0.0; n];
    for (&(request, name), ms) in &traced.own {
        if name == "twin.request" {
            unattributed_ms[request] += ms;
        } else {
            layers[request] += ms;
        }
    }
    let transport_ms: Vec<f64> = traced
        .observed
        .iter()
        .zip(&layers)
        .map(|(o, l)| o - l)
        .collect();
    let excess_ms: Vec<f64> = layers
        .iter()
        .zip(&traced.slowest)
        .map(|(l, s)| (l - s).max(0.0))
        .collect();
    let outside = excess_ms
        .iter()
        .zip(&traced.slowest)
        .filter(|(e, s)| **e > TOLERANCE_MS + TOLERANCE_SHARE * **s)
        .count();
    Reconciled {
        transport_ms,
        unattributed_ms,
        excess_ms,
        outside,
    }
}

/// Phases `run_round` reports, laid out as children of `sim.round`;
/// what they leave of the round is `sim.round`'s own self time.
const ROUND_PHASES: [&str; 5] = [
    "influence.maintenance",
    "assign.eligibility",
    "core.warm",
    "assign.score",
    "assign.solve",
];

pub fn per_layer(traced: &Traced, rec: &Reconciled, setups: &[SetupTimes]) -> Metrics {
    let twin = &traced.main;
    let stats = &twin.stats;
    let reports = &stats.reports;
    let rounds = reports.len().max(1) as f64;
    let cycle = traced.by_name(|r| traced.in_cycle(r));
    let all = traced.by_name(|_| true);
    let events = traced.by_name(|r| traced.endpoint[r] == "events");
    let total = |map: &BTreeMap<&str, f64>, name: &str| map.get(name).copied().unwrap_or(0.0);
    let per_round = |name: &str| total(&cycle, name) / rounds;
    let sum = |f: &dyn Fn(&RoundReport) -> f64| reports.iter().map(f).sum::<f64>();
    let cycle_sum = |values: &[f64]| -> f64 {
        values
            .iter()
            .enumerate()
            .filter(|(r, _)| traced.in_cycle(*r))
            .map(|(_, v)| v)
            .sum()
    };

    let body_kb = stats.events_body_bytes as f64 / 1024.0;
    let carried = sum(&|r| r.elig_rows_carried as f64);
    let rebuilt = sum(&|r| r.elig_rows_rebuilt as f64);
    let hits = sum(&|r| r.cache_hits as f64);
    let misses = sum(&|r| r.cache_misses as f64);
    let passes = sum(&|r| r.solve_passes as f64);
    let saves = stats.snapshot_bytes.len() as f64;
    let restores = twin
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sim.snapshot_restore")
        .count() as f64;
    let phases: f64 = ROUND_PHASES.iter().map(|p| per_round(p)).sum();
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut m: Metrics = vec![
        ("serde.parse_ms".into(), per_round("serde.parse"), "ms"),
        (
            "serde.parse_us_per_kb".into(),
            ratio(total(&events, "serde.parse") * 1e3, body_kb),
            "us/KB",
        ),
        (
            "serde.body_kb".into(),
            ratio(body_kb, stats.events_bodies as f64),
            "KB",
        ),
        ("serde.encode_ms".into(), per_round("serde.encode"), "ms"),
        ("sim.decode_ms".into(), per_round("sim.decode"), "ms"),
        ("sim.ingest_ms".into(), per_round("sim.ingest"), "ms"),
        ("sim.fold_in_ms".into(), per_round("sim.fold_in"), "ms"),
        ("sim.fold_ins".into(), stats.fold_ins as f64, "count"),
    ];
    for label in REJECT_LABELS {
        let n = stats.rejected.get(label).copied().unwrap_or(0);
        m.push((format!("sim.rejected.{label}"), n as f64, "count"));
    }
    m.extend([
        ("sim.round_ms".into(), per_round("sim.round") + phases, "ms"),
        ("sim.round_other_ms".into(), per_round("sim.round"), "ms"),
        (
            "influence.maintenance_ms".into(),
            per_round("influence.maintenance"),
            "ms",
        ),
        (
            "influence.sets_added".into(),
            sum(&|r| r.sets_added as f64) / rounds,
            "count",
        ),
        (
            "influence.sets_evicted".into(),
            sum(&|r| r.sets_evicted as f64) / rounds,
            "count",
        ),
        (
            "influence.pool_sets".into(),
            reports.last().map_or(0.0, |r| r.pool_sets as f64),
            "count",
        ),
        (
            "assign.eligibility_ms".into(),
            per_round("assign.eligibility"),
            "ms",
        ),
        (
            "assign.rows_carried_ratio".into(),
            ratio(carried, carried + rebuilt),
            "ratio",
        ),
        (
            "assign.full_rebuilds".into(),
            reports.iter().filter(|r| r.elig_full_rebuild).count() as f64,
            "count",
        ),
        ("core.warm_ms".into(), per_round("core.warm"), "ms"),
        (
            "core.cache_hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("assign.score_ms".into(), per_round("assign.score"), "ms"),
        ("assign.solve_ms".into(), per_round("assign.solve"), "ms"),
        ("assign.solve_passes".into(), passes / rounds, "count"),
        (
            "assign.augmentations_per_pass".into(),
            ratio(sum(&|r| r.solve_augmentations as f64), passes),
            "ratio",
        ),
        (
            "sim.snapshot_save_ms".into(),
            ratio(total(&all, "sim.snapshot_save"), saves),
            "ms",
        ),
        (
            "sim.snapshot_restore_ms".into(),
            ratio(total(&all, "sim.snapshot_restore"), restores),
            "ms",
        ),
        (
            "sim.snapshot_mb".into(),
            ratio(stats.snapshot_bytes.iter().sum::<u64>() as f64, saves) / (1024.0 * 1024.0),
            "MB",
        ),
        (
            "serve.transport_ms".into(),
            cycle_sum(&rec.transport_ms) / rounds,
            "ms",
        ),
        ("setup.datagen_ms".into(), setup(|s| s.datagen_ms), "ms"),
        ("setup.train_ms".into(), setup(|s| s.train_ms), "ms"),
        ("setup.server_start_ms".into(), setup(|s| s.start_ms), "ms"),
        (
            "trace.overhead_ratio".into(),
            traced.traced_ms.iter().map(|w| cycle_sum(w)).sum::<f64>()
                / traced.plain_ms.iter().map(|w| cycle_sum(w)).sum::<f64>()
                - 1.0,
            "ratio",
        ),
        (
            "trace.unattributed_ms".into(),
            cycle_sum(&rec.unattributed_ms) / rounds,
            "ms",
        ),
        (
            "trace.reconcile_excess_ms".into(),
            rec.excess_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        (
            "trace.spans".into(),
            twin.tracer.spans().len() as f64,
            "count",
        ),
    ]);
    m
}

pub fn metrics_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
}

/// The layer self times of the traced passes, largest first, with their
/// share of the observed time: round cycles, then snapshot/restarts.
pub fn print_layers(traced: &Traced, rec: &Reconciled) {
    let rounds = traced.main.stats.reports.len().max(1) as f64;
    for (title, cycle) in [("round cycle", true), ("snapshot and restart", false)] {
        let keep = |r: usize| traced.in_cycle(r) == cycle;
        let observed: f64 = (0..traced.observed.len())
            .filter(|&r| keep(r))
            .map(|r| traced.observed[r])
            .sum();
        if observed == 0.0 {
            continue;
        }
        let mut rows: Vec<(&str, f64)> = traced
            .by_name(keep)
            .into_iter()
            .filter(|(name, _)| *name != "twin.request")
            .collect();
        rows.push((
            "serve.transport",
            (0..rec.transport_ms.len())
                .filter(|&r| keep(r))
                .map(|r| rec.transport_ms[r])
                .sum(),
        ));
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("self time on the blocking path, {title} (ms per round, share of observed time):");
        for (name, ms) in rows {
            println!(
                "  {name:<24} {:>10.3} ms {:>6.1}%",
                ms / rounds,
                100.0 * ratio(ms, observed)
            );
        }
    }
    println!(
        "  serve.queue_wait and serve.lock_wait are 0 by construction: one client, one connection at a time"
    );
    println!(
        "reconciled: {} of {} requests within tolerance ({} ms + {:.0}% of the slowest observed latency)",
        traced.observed.len() - rec.outside,
        traced.observed.len(),
        TOLERANCE_MS,
        TOLERANCE_SHARE * 100.0
    );
}

pub fn requests_json(serving: &Serving) -> Value {
    Value::Object(
        serving
            .counts
            .iter()
            .map(|(endpoint, c)| {
                (
                    endpoint.to_string(),
                    Value::Object(vec![
                        ("attempted".to_string(), c.attempted.to_value()),
                        (
                            "transport_errors".to_string(),
                            c.transport_errors.to_value(),
                        ),
                        ("status_4xx".to_string(), c.client_errors.to_value()),
                        ("status_429".to_string(), c.throttled.to_value()),
                        ("status_5xx".to_string(), c.server_errors.to_value()),
                    ]),
                )
            })
            .collect(),
    )
}
