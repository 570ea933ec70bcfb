//! Trace replay: drive the online engine from a recorded check-in
//! stream.
//!
//! [`replay_day`] is the end-to-end driver of the dataset-backed
//! workload class:
//!
//! 1. **train on the past** — the pipeline is trained on
//!    [`LoadedDataset::training_slice`], i.e. the population and
//!    histories observed *before* the replay day (what a platform
//!    actually knows when the day opens);
//! 2. **replay the day** — a [`ReplayStream`] turns the day's
//!    check-ins into a deterministic timeline of worker arrivals, task
//!    postings, departures, and round ticks; a [`ReplayTranslator`]
//!    turns each into an [`EventKind`], consumed round by round by an
//!    engine built with [`NetworkMode::Adaptive`];
//! 3. **fold in the unseen** — a worker whose first check-in falls on
//!    the replay day is outside the trained population; the translator
//!    offers them at the next dense id as an [`EventKind::WorkerNew`]
//!    with their social edges (mapped onto already-known workers) and
//!    their check-in evidence so far, and the engine folds them into the
//!    live influence network, so they earn non-zero influence without a
//!    retrain.
//!
//! `dita post-replay` posts the same translated events to a running
//! `dita serve`, so a served replay of a trace matches the in-process
//! one (`crates/serve/tests/wire_replay_parity.rs` pins it).
//!
//! Determinism: the stream carries no randomness and the engine's
//! maintenance + scoring are bit-identical at any thread budget, so two
//! replays of the same trace and configuration produce equal
//! [`ReplayReport`]s even at different `--threads` settings
//! (`crates/sim/tests/replay_determinism.rs` pins this in release CI;
//! `bench_replay` measures rounds/s and the fold-in cost).

use crate::event::{EventKind, Outcome};
use crate::online::{
    EngineBuilder, NetworkMode, OnlineEngine, OnlineSummary, PipelineMode, RoundReport,
};
use sc_assign::AlgorithmKind;
use sc_core::{DitaBuilder, DitaConfig};
use sc_datagen::{LoadedDataset, ReplayEvent, ReplayOptions, ReplayStream};
use sc_types::{History, Location, TimeInstant, Worker, WorkerId};
use std::collections::HashMap;

/// One replayed round: the engine's report plus the stream bookkeeping
/// of that round. Equality follows [`RoundReport`] (wall time ignored).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRoundOutcome {
    /// The engine's round report.
    pub report: RoundReport,
    /// Check-in events delivered this round.
    pub checkins: usize,
    /// Workers folded into the live network this round.
    pub fold_ins: usize,
    /// First sightings the engine refused this round (no usable
    /// friends yet).
    pub rejected: usize,
}

/// The outcome of one replayed day. Equality follows [`RoundReport`]
/// (which ignores its timing and telemetry fields) and the results-only
/// [`OnlineSummary`], so reports from runs at different thread budgets
/// compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The replayed day index.
    pub day: i64,
    /// Workers in the trained (pre-day) population.
    pub trained_workers: usize,
    /// Check-ins replayed.
    pub checkins: usize,
    /// `(trace id, dense id)` of every worker folded in mid-replay.
    pub folded: Vec<(WorkerId, WorkerId)>,
    /// Per-round outcomes in round order.
    pub rounds: Vec<ReplayRoundOutcome>,
    /// The engine's lifetime summary.
    pub summary: OnlineSummary,
}

impl ReplayReport {
    /// Workers folded in over the whole replay.
    pub fn fold_ins(&self) -> usize {
        self.folded.len()
    }
}

/// A finished replay: the report plus the engine it ran on (live model,
/// grown network, maintained pool) for inspection or continued serving.
#[derive(Debug)]
pub struct ReplayRun {
    /// The per-round and lifetime outcome.
    pub report: ReplayReport,
    /// The engine after the last round.
    pub engine: OnlineEngine<'static>,
}

/// One [`ReplayEvent`] translated into the engine's vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct Translated {
    /// The event to ingest (in process) or to post (`dita serve`).
    pub kind: EventKind,
    /// On a first sighting ([`EventKind::WorkerNew`]): whether the
    /// engine will fold the worker in. `None` for every other event.
    pub fold_in: Option<bool>,
}

/// Translates one trace day's [`ReplayStream`] into [`EventKind`]s —
/// the single translation behind both [`replay_day`] and the wire
/// client `dita post-replay`, so the in-process and the served replay
/// of a trace ingest the same events.
///
/// It does three things:
///
/// * **dense ids** — trained workers keep their training-slice id; a
///   late arrival takes the next dense id, in first-sighting order;
/// * **fold-in evidence** — a first sighting becomes
///   [`EventKind::WorkerNew`] carrying the worker's friendships onto
///   already-mapped workers and their check-ins up to now;
/// * **departures** — mapped onto dense ids; a departure of a worker
///   the engine never admitted is dropped.
///
/// A first-sighted worker is mapped only when their fold-in will be
/// accepted, i.e. at least one friend is already mapped — the engine's
/// own [`NoUsableFriends`](crate::RejectReason::NoUsableFriends) rule.
/// A refused worker stays unmapped and is offered again (with more
/// evidence) at their next check-in, so the dense ids the translator
/// hands out always match the population the engine grows.
#[derive(Debug)]
pub struct ReplayTranslator<'d> {
    data: &'d LoadedDataset,
    radius_km: f64,
    speed_kmh: f64,
    to_dense: HashMap<WorkerId, WorkerId>,
    folded: Vec<(WorkerId, WorkerId)>,
}

impl<'d> ReplayTranslator<'d> {
    /// A translator over `data` whose trained population is `to_dense`
    /// (trace id → dense id, [`sc_datagen::TrainingSlice::to_dense`]).
    pub fn new(
        data: &'d LoadedDataset,
        to_dense: HashMap<WorkerId, WorkerId>,
        opts: &ReplayOptions,
    ) -> Self {
        ReplayTranslator {
            data,
            radius_km: opts.radius_km,
            speed_kmh: opts.speed_kmh,
            to_dense,
            folded: Vec::new(),
        }
    }

    /// Translates one stream event; `None` when it has no engine
    /// counterpart (the departure of a worker never admitted).
    pub fn translate(&mut self, event: &ReplayEvent) -> Option<Translated> {
        let kind = match event {
            ReplayEvent::CheckIn {
                worker,
                location,
                at,
                ..
            } => match self.to_dense.get(worker) {
                Some(&dense) => EventKind::WorkerArrival {
                    worker: self.worker(dense, *location),
                },
                None => return Some(self.first_sighting(*worker, *location, *at)),
            },
            ReplayEvent::TaskPosted { task, venue } => EventKind::TaskArrival {
                task: task.clone(),
                venue: *venue,
            },
            ReplayEvent::Departure { worker, .. } => EventKind::WorkerDeparture {
                worker: *self.to_dense.get(worker)?,
            },
        };
        Some(Translated {
            kind,
            fold_in: None,
        })
    }

    /// A worker outside the mapped population checks in: offer them at
    /// the next dense id with their friendships onto mapped workers and
    /// their check-ins up to `at`, and map them iff a friend is mapped.
    fn first_sighting(
        &mut self,
        trace: WorkerId,
        location: Location,
        at: TimeInstant,
    ) -> Translated {
        let dense = WorkerId::from(self.to_dense.len());
        let friends: Vec<WorkerId> = self
            .data
            .social
            .informs(trace.raw())
            .iter()
            .filter_map(|f| self.to_dense.get(&WorkerId::new(*f)).copied())
            .collect();
        let mut history = History::new();
        for r in self.data.histories.history(trace).records() {
            if r.arrived <= at {
                let mut rec = r.clone();
                rec.worker = dense;
                history.push(rec);
            }
        }
        let folds_in = !friends.is_empty();
        if folds_in {
            self.to_dense.insert(trace, dense);
            self.folded.push((trace, dense));
        }
        Translated {
            kind: EventKind::WorkerNew {
                worker: self.worker(dense, location),
                friends,
                history,
            },
            fold_in: Some(folds_in),
        }
    }

    fn worker(&self, id: WorkerId, location: Location) -> Worker {
        Worker::new(id, location, self.radius_km).with_speed(self.speed_kmh)
    }
}

/// Trains on the trace's past and replays `day` through an adaptive
/// online engine. `config.online` governs per-round pool maintenance;
/// `config.rpo.threads` governs every parallel phase (results are
/// bit-identical at any budget). Errors when the trace has no history
/// before `day` (nothing to train on) or no check-ins on `day`
/// (nothing to replay).
pub fn replay_day(
    data: &LoadedDataset,
    day: i64,
    config: DitaConfig,
    opts: &ReplayOptions,
    algorithm: AlgorithmKind,
) -> sc_types::Result<ReplayRun> {
    let slice = data.training_slice(day)?;
    let stream = ReplayStream::from_dataset(data, day, opts)?;
    let pipeline = DitaBuilder::new()
        .config(config)
        .build(&slice.social, &slice.histories)?;
    let trained_workers = pipeline.model().n_workers();
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(slice.social)))
        .config(config.online)
        .build();

    let mut translator = ReplayTranslator::new(data, slice.to_dense, opts);
    let mut rounds = Vec::with_capacity(stream.n_rounds());

    for round in stream.rounds() {
        let mut checkins = 0usize;
        let mut fold_ins = 0usize;
        let mut rejected = 0usize;
        for event in &round.events {
            checkins += usize::from(matches!(event, ReplayEvent::CheckIn { .. }));
            let Some(Translated { kind, fold_in }) = translator.translate(event) else {
                continue;
            };
            let outcome = engine.ingest(kind);
            if let Some(predicted) = fold_in {
                debug_assert_eq!(
                    predicted,
                    outcome == Outcome::WorkerFoldedIn,
                    "translator mispredicted a first sighting: engine said {outcome:?}"
                );
                if outcome == Outcome::WorkerFoldedIn {
                    fold_ins += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        let report = engine.run_round(round.now, algorithm);
        rounds.push(ReplayRoundOutcome {
            report,
            checkins,
            fold_ins,
            rejected,
        });
    }

    let summary = engine.summary();
    Ok(ReplayRun {
        report: ReplayReport {
            day,
            trained_workers,
            checkins: stream.n_checkins(),
            folded: translator.folded,
            rounds,
            summary,
        },
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_influence::RpoParams;
    use sc_types::{CheckIn, HistoryStore, VenueId};

    /// A 12-worker, two-day trace. Workers 0..=9 are active on day 0;
    /// workers 10 and 11 first appear on day 1 (fold-in candidates),
    /// befriended with trained workers.
    fn trace() -> LoadedDataset {
        let mut store = HistoryStore::default();
        let mut push = |w: u32, v: u32, x: f64, day: i64, hour: i64| {
            store.push(CheckIn::at(
                WorkerId::new(w),
                VenueId::new(v),
                Location::new(x, 0.0),
                TimeInstant::at(day, hour),
                vec![sc_types::CategoryId::new(v % 4)],
            ));
        };
        for w in 0..10u32 {
            for day in 0..2i64 {
                for k in 0..3i64 {
                    let v = w % 5;
                    push(w, v, v as f64, day, 8 + k * 3 + (w as i64 % 3));
                }
            }
        }
        push(10, 2, 2.0, 1, 10);
        push(10, 3, 3.0, 1, 14);
        push(11, 4, 4.0, 1, 12);
        let mut edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        edges.push((0, 10));
        edges.push((1, 10));
        edges.push((2, 11));
        LoadedDataset::from_parts(edges, store, 3).unwrap()
    }

    fn config(threads: usize) -> DitaConfig {
        DitaConfig {
            n_topics: 4,
            lda_sweeps: 8,
            infer_sweeps: 4,
            rpo: RpoParams {
                max_sets: 3_000,
                threads: sc_influence::Parallelism::Fixed(threads),
                ..Default::default()
            },
            online: sc_core::OnlineConfig {
                round_hours: 1,
                growth_cap: 256,
                eviction_horizon: 4,
                target_sets: 0,
                incremental: true,
            },
            seed: 9,
        }
    }

    #[test]
    fn replay_trains_on_the_past_and_folds_in_the_unseen() {
        let data = trace();
        let run = replay_day(
            &data,
            1,
            config(1),
            &ReplayOptions::default(),
            AlgorithmKind::Ia,
        )
        .unwrap();
        let report = &run.report;
        assert_eq!(report.trained_workers, 10);
        assert_eq!(report.fold_ins(), 2, "workers 10 and 11 are unseen");
        assert_eq!(
            report
                .folded
                .iter()
                .map(|&(t, _)| t.raw())
                .collect::<Vec<_>>(),
            vec![10, 11],
            "unseen workers fold in, in first-sighting order"
        );
        // Dense ids continue the trained population.
        assert_eq!(
            report
                .folded
                .iter()
                .map(|&(_, d)| d.raw())
                .collect::<Vec<_>>(),
            vec![10, 11]
        );
        assert_eq!(
            report.summary.published,
            report
                .rounds
                .iter()
                .map(|r| r.report.task_arrivals)
                .sum::<usize>()
        );
        // Conservation holds across the whole replay.
        let s = &report.summary;
        assert_eq!(s.published, s.assigned + s.expired + s.still_open);
        assert!(s.assigned > 0, "a replayed day assigns tasks");
        // The engine's population grew by the fold-ins.
        assert_eq!(run.engine.pipeline().model().n_workers(), 12);
        assert_eq!(run.engine.network().n_workers(), 12);
    }

    #[test]
    fn folded_workers_score_nonzero_influence() {
        let data = trace();
        let run = replay_day(
            &data,
            1,
            config(1),
            &ReplayOptions::default(),
            AlgorithmKind::Ia,
        )
        .unwrap();
        let scorer = run.engine.pipeline().scorer();
        // Score each folded worker against a task at their own venue.
        for &(trace_id, dense) in &run.report.folded {
            let rec = &data.histories.history(trace_id).records()[0];
            let venue = data.venues.iter().find(|v| v.id == rec.venue).unwrap();
            let task = sc_types::Task::with_categories(
                sc_types::TaskId::new(9_999),
                venue.location,
                TimeInstant::at(1, 15),
                sc_types::Duration::hours(3),
                venue.categories.clone(),
            );
            let score = scorer.score(dense, &task);
            assert!(
                score > 0.0,
                "folded worker {} (dense {}) must score non-zero, got {score}",
                trace_id.raw(),
                dense.raw()
            );
        }
    }

    #[test]
    fn replay_errors_without_history_or_checkins() {
        let data = trace();
        assert!(
            replay_day(
                &data,
                0,
                config(1),
                &ReplayOptions::default(),
                AlgorithmKind::Ia
            )
            .is_err(),
            "day 0 has no past to train on"
        );
        assert!(
            replay_day(
                &data,
                7,
                config(1),
                &ReplayOptions::default(),
                AlgorithmKind::Ia
            )
            .is_err(),
            "day 7 has nothing to replay"
        );
    }
}
