//! The three workloads: population, training budget, and the request
//! stream of one episode, all derived from the workload seed.
//!
//! An episode is one serving day replayed against a fresh engine
//! cloned from the trained pipeline, so every episode of a run sends
//! byte-identical requests and must receive byte-identical replies.

use rand::rngs::SmallRng;
use rand::seq::index::sample as index_sample;
use rand::{RngExt, SeedableRng};
use sc_core::{DitaConfig, OnlineConfig, Parallelism};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use sc_sim::EventKind;
use sc_types::{CheckIn, Duration, History, Task, TaskId, TimeInstant, VenueId, Worker, WorkerId};
use serde::json::Value;
use serde::Serialize as _;

/// Seeds the population and its training; the workload seed only
/// draws the request stream.
pub const POPULATION_SEED: u64 = 0xD17A;

/// One client request of the stream (or, for `Restart`, one client
/// action: shut the server down and restore it from its snapshot).
#[derive(Debug, Clone)]
pub enum Step {
    /// `POST /events` with a JSON array of event objects.
    Events { body: String },
    /// `POST /round` closing the round at `{"day": 0, "hour": h}`.
    Round { body: String },
    /// `GET /report`.
    Report,
    /// `POST /snapshot` to the configured path.
    Snapshot,
    /// Shut the server down, `load_snapshot`, start, wait for `/healthz`.
    Restart,
}

impl Step {
    /// The endpoint label used in accounting and span output.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Step::Events { .. } => "events",
            Step::Round { .. } => "round",
            Step::Report => "report",
            Step::Snapshot => "snapshot",
            Step::Restart => "restart",
        }
    }
}

/// The workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestWave,
    Contested,
    ChurnRestart,
}

/// Everything that shapes a workload; see `DESIGN.md` for why each
/// value is what it is.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub population: usize,
    pub venues: usize,
    pub pool_sets: usize,
    pub online: OnlineConfig,
    /// Rounds per episode, one per hour from `first_hour`.
    pub rounds: usize,
    pub first_hour: i64,
    /// Trained workers that (re-)arrive each round.
    pub cohort: usize,
    /// Whether the cohort is the same workers every round (a re-login
    /// wave) or a fresh random draw (churn).
    pub fixed_cohort: bool,
    pub tasks_per_round: usize,
    /// Distinct venues tasks are posted from (bounds the scorer-cache
    /// key set): 0 means every venue.
    pub task_venues: usize,
    pub radius_km: f64,
    pub phi_hours: f64,
    /// Events per `POST /events` body.
    pub batch: usize,
    pub fold_ins_per_round: usize,
    pub departures_per_round: usize,
    /// Snapshot and restart after this many rounds of the episode; when
    /// `None` a few finished episodes are snapshotted and restored.
    pub restart_after: Option<usize>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestWave,
        Workload::Contested,
        Workload::ChurnRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestWave => "ingest-wave",
            Workload::Contested => "contested",
            Workload::ChurnRestart => "churn-restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::IngestWave => Shape {
                population: 850,
                venues: 300,
                pool_sets: 3_000,
                online: OnlineConfig::default(),
                rounds: 12,
                first_hour: 8,
                cohort: 800,
                fixed_cohort: true,
                tasks_per_round: 200,
                task_venues: 30,
                radius_km: 5.0,
                phi_hours: 3.0,
                batch: 334,
                fold_ins_per_round: 0,
                departures_per_round: 0,
                restart_after: None,
            },
            Workload::Contested => Shape {
                population: 600,
                venues: 300,
                pool_sets: 4_000,
                online: OnlineConfig::default(),
                rounds: 16,
                first_hour: 6,
                cohort: 450,
                fixed_cohort: true,
                tasks_per_round: 400,
                task_venues: 0,
                radius_km: 30.0,
                phi_hours: 3.0,
                batch: 50,
                fold_ins_per_round: 0,
                departures_per_round: 0,
                restart_after: None,
            },
            Workload::ChurnRestart => Shape {
                population: 500,
                venues: 2_000,
                pool_sets: 4_000,
                // `streaming()` evicts only sets older than 24 rounds,
                // which a one-day episode never reaches; a 3-round
                // horizon makes the pool rotate from the fourth round.
                online: OnlineConfig {
                    eviction_horizon: 3,
                    ..OnlineConfig::streaming()
                },
                rounds: 24,
                first_hour: 0,
                cohort: 120,
                fixed_cohort: false,
                tasks_per_round: 40,
                task_venues: 0,
                radius_km: 10.0,
                phi_hours: 2.0,
                batch: 3,
                fold_ins_per_round: 4,
                departures_per_round: 10,
                restart_after: Some(12),
            },
        }
    }
}

impl Shape {
    /// The synthetic population the engine is trained on. It is the
    /// same for every workload seed, like a deployed model; the seed
    /// draws the day's request stream.
    pub fn profile(&self) -> DatasetProfile {
        let mut profile = DatasetProfile::brightkite_small();
        profile.n_workers = self.population;
        profile.n_venues = self.venues;
        profile.checkins_per_worker = 12;
        profile
    }

    /// The training configuration: a model budget sized for a few
    /// hundred workers, at the default thread budget.
    pub fn training(&self) -> DitaConfig {
        DitaConfig {
            n_topics: 12,
            lda_sweeps: 15,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: self.pool_sets,
                threads: Parallelism::Auto,
                ..Default::default()
            },
            online: self.online,
            seed: POPULATION_SEED,
            ..Default::default()
        }
    }

    /// The request stream of one episode.
    pub fn episode(&self, data: &SyntheticDataset, seed: u64) -> Vec<Step> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EB5_7EA4);
        let opts = InstanceOptions {
            valid_hours: self.phi_hours,
            radius_km: self.radius_km,
            ..Default::default()
        };
        let wave = data
            .instance_for_day(0, 0, self.cohort, opts)
            .instance
            .workers;
        // The small venue set belongs to the city, not to the day.
        let venue_pool: Vec<usize> = if self.task_venues == 0 {
            (0..data.venues.len()).collect()
        } else {
            let mut city = SmallRng::seed_from_u64(POPULATION_SEED);
            index_sample(&mut city, data.venues.len(), self.task_venues).into_vec()
        };

        let mut steps = Vec::new();
        let mut next_task = 0u32;
        let mut next_fold_in = self.population;
        for round in 0..self.rounds {
            let hour = self.first_hour + round as i64;
            let now = TimeInstant::at(0, hour);
            let arrivals = if self.fixed_cohort {
                wave.clone()
            } else {
                index_sample(&mut rng, self.population, self.cohort)
                    .into_vec()
                    .into_iter()
                    .map(|i| self.worker_at(data, &mut rng, WorkerId::from(i)))
                    .collect()
            };
            let mut events: Vec<EventKind> = Vec::new();
            let departing: Vec<WorkerId> = arrivals
                .iter()
                .take(self.departures_per_round)
                .map(|w| w.id)
                .collect();
            events.extend(
                arrivals
                    .into_iter()
                    .map(|worker| EventKind::WorkerArrival { worker }),
            );
            for _ in 0..self.fold_ins_per_round {
                events.push(self.fold_in(data, &mut rng, next_fold_in, now));
                next_fold_in += 1;
            }
            for _ in 0..self.tasks_per_round {
                let venue = data.venues.venue(VenueId::from(
                    venue_pool[rng.random_range(0..venue_pool.len())],
                ));
                events.push(EventKind::TaskArrival {
                    task: Task::with_categories(
                        TaskId::new(next_task),
                        venue.location,
                        now,
                        Duration::hours_f64(self.phi_hours),
                        venue.categories.clone(),
                    ),
                    venue: venue.id,
                });
                next_task += 1;
            }
            // Departures follow their own arrivals in the same round,
            // so the engine never sees a departure of an offline worker.
            events.extend(
                departing
                    .into_iter()
                    .map(|worker| EventKind::WorkerDeparture { worker }),
            );
            for chunk in events.chunks(self.batch) {
                let body =
                    Value::Array(chunk.iter().map(|e| e.to_value()).collect()).to_json_string();
                steps.push(Step::Events { body });
            }
            steps.push(Step::Round {
                body: format!("{{\"day\":0,\"hour\":{hour}}}"),
            });
            if self.restart_after == Some(round + 1) {
                steps.push(Step::Report);
                steps.push(Step::Snapshot);
                steps.push(Step::Restart);
            }
        }
        steps.push(Step::Report);
        steps
    }

    /// The steps that follow a finished episode of a workload without a
    /// mid-episode restart: snapshot the final engine and restore it.
    pub fn tail(&self) -> Vec<Step> {
        match self.restart_after {
            Some(_) => Vec::new(),
            None => vec![Step::Snapshot, Step::Restart, Step::Report],
        }
    }

    /// A trained worker online at their last check-in.
    fn worker_at(&self, data: &SyntheticDataset, rng: &mut SmallRng, id: WorkerId) -> Worker {
        let location = data
            .histories
            .history(id)
            .last_location()
            .unwrap_or_else(|| {
                data.venues
                    .venue(VenueId::from(rng.random_range(0..data.venues.len())))
                    .location
            });
        Worker::new(id, location, self.radius_km)
    }

    /// A worker the model has never seen, with three trained friends
    /// and two check-ins: always foldable, at the next dense id.
    fn fold_in(
        &self,
        data: &SyntheticDataset,
        rng: &mut SmallRng,
        id: usize,
        now: TimeInstant,
    ) -> EventKind {
        let id = WorkerId::from(id);
        let friends = (0..3)
            .map(|_| WorkerId::from(rng.random_range(0..self.population)))
            .collect();
        let mut history = History::new();
        for _ in 0..2 {
            let venue = data
                .venues
                .venue(VenueId::from(rng.random_range(0..data.venues.len())));
            history.push(CheckIn::at(
                id,
                venue.id,
                venue.location,
                now,
                venue.categories.clone(),
            ));
        }
        let location = history.last_location().expect("two check-ins");
        EventKind::WorkerNew {
            worker: Worker::new(id, location, self.radius_km),
            friends,
            history,
        }
    }
}
