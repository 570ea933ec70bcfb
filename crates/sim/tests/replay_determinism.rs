//! Release-CI pins for the dataset-replay subsystem.
//!
//! A replayed day must be a pure function of `(trace, config)`:
//!
//! * the same replay run twice produces equal reports;
//! * `threads = 1` and `threads = N` produce **equal** reports — the
//!   stream carries no randomness, pool maintenance continues the
//!   per-set seed streams, fold-in coins are seeded per `(worker, set)`,
//!   and every sharded scoring pass merges in index order;
//! * worker fold-in composes with all of the above: the fold-ins of the
//!   two runs land in the same rounds with the same dense ids.
//!
//! Runs under `--release` in CI: parallel and arena-splicing bugs love
//! to hide below optimization level O.

use sc_assign::AlgorithmKind;
use sc_core::{DitaConfig, OnlineConfig};
use sc_datagen::{DatasetProfile, LoadedDataset, ReplayOptions, SyntheticDataset};
use sc_influence::{Parallelism, RpoParams};
use sc_sim::replay_day;
use sc_types::HistoryStore;

/// A synthetic trace with a genuinely dynamic population: every 7th
/// worker's history is truncated to day ≥ 1, so they first appear
/// mid-replay and must be folded in.
fn trace() -> LoadedDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 120;
    profile.n_venues = 80;
    profile.checkins_per_worker = 12;
    let data = SyntheticDataset::generate(&profile, 0xBEEF);
    let mut store = HistoryStore::with_workers(profile.n_workers);
    for (w, history) in data.histories.iter() {
        for r in history.records() {
            if w.raw() % 7 == 0 && r.arrived.day() < 1 {
                continue;
            }
            store.push(r.clone());
        }
    }
    LoadedDataset::from_parts(data.social_edges.clone(), store, 0xBEEF).unwrap()
}

fn config(threads: usize) -> DitaConfig {
    DitaConfig {
        n_topics: 5,
        lda_sweeps: 10,
        infer_sweeps: 5,
        rpo: RpoParams {
            max_sets: 4_000,
            threads: Parallelism::Fixed(threads),
            ..Default::default()
        },
        online: OnlineConfig {
            round_hours: 1,
            growth_cap: 512,
            eviction_horizon: 4,
            target_sets: 0,
            incremental: true,
        },
        seed: 0x5EED,
    }
}

fn opts() -> ReplayOptions {
    ReplayOptions {
        task_every: 3,
        valid_hours: 3.0,
        ..Default::default()
    }
}

#[test]
fn replay_reports_are_identical_across_thread_budgets() {
    let data = trace();
    let single = replay_day(&data, 1, config(1), &opts(), AlgorithmKind::Ia).unwrap();
    let multi = replay_day(&data, 1, config(4), &opts(), AlgorithmKind::Ia).unwrap();
    assert!(!single.report.rounds.is_empty());
    assert_eq!(
        single.report, multi.report,
        "replay must be bit-identical at any thread budget"
    );
    // The maintained pools end in the same state too.
    assert_eq!(
        single.engine.pipeline().model().pool().fingerprint(),
        multi.engine.pipeline().model().pool().fingerprint()
    );
    assert_eq!(
        single.engine.network().n_workers(),
        multi.engine.network().n_workers()
    );
}

#[test]
fn replay_is_reproducible_run_to_run() {
    let data = trace();
    let a = replay_day(&data, 1, config(2), &opts(), AlgorithmKind::Ia).unwrap();
    let b = replay_day(&data, 1, config(2), &opts(), AlgorithmKind::Ia).unwrap();
    assert_eq!(a.report, b.report);
}

#[test]
fn fold_ins_happen_and_score_nonzero() {
    let data = trace();
    let run = replay_day(&data, 1, config(2), &opts(), AlgorithmKind::Ia).unwrap();
    assert!(
        run.report.fold_ins() > 0,
        "the truncated cohort must arrive mid-replay"
    );
    // Every folded worker is immediately scoreable: non-zero influence
    // against a task at their first observed venue.
    let scorer = run.engine.pipeline().scorer();
    let mut nonzero = 0usize;
    for &(trace_id, dense) in &run.report.folded {
        let rec = &data.histories.history(trace_id).records()[0];
        let venue = data
            .venues
            .iter()
            .find(|v| v.id == rec.venue)
            .expect("venue reconstructed");
        let task = sc_types::Task::with_categories(
            sc_types::TaskId::new(50_000 + dense.raw()),
            venue.location,
            sc_types::TimeInstant::at(1, 15),
            sc_types::Duration::hours(3),
            venue.categories.clone(),
        );
        if scorer.score(dense, &task) > 0.0 {
            nonzero += 1;
        }
    }
    assert!(
        nonzero > 0,
        "folded-in workers must earn non-zero influence without a retrain \
         ({} folded, {nonzero} non-zero)",
        run.report.fold_ins()
    );
}

#[test]
fn replay_conserves_tasks_and_caps_rounds() {
    let data = trace();
    let run = replay_day(&data, 1, config(2), &opts(), AlgorithmKind::Ia).unwrap();
    let s = &run.report.summary;
    assert_eq!(s.published, s.assigned + s.expired + s.still_open);
    assert!(s.assigned > 0);

    let capped_opts = ReplayOptions {
        max_rounds: 3,
        ..opts()
    };
    let capped = replay_day(&data, 1, config(2), &capped_opts, AlgorithmKind::Ia).unwrap();
    assert_eq!(capped.report.rounds.len(), 3);
    // The capped run is a prefix of the full run, round for round.
    assert_eq!(capped.report.rounds[..], run.report.rounds[..3]);
}
