//! The episodes of a run: set-up, the reference episode, the timed
//! episodes with their interludes, and the twin passes.

use crate::checks::{conservation, report_field, Checks, Summary};
use crate::serving::Serving;
use crate::twin::Twin;
use crate::workload::{Shape, Step, POPULATION_SEED};
use sc_core::{DitaBuilder, DitaPipeline};
use sc_datagen::SyntheticDataset;
use sc_influence::SocialNetwork;
use sc_sim::{EngineBuilder, NetworkMode, OnlineEngine, PipelineMode};
use serde::Deserialize as _;
use std::path::Path;
use std::time::Instant;

/// Each latency set gets at least this many samples, so its p90 has at
/// least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;
/// Whatever `--seconds` asks, timed episodes stop starting after this.
const MAX_MEASURE_S: f64 = 120.0;

/// The trained state every episode starts from.
pub struct Trained {
    pub data: SyntheticDataset,
    pub base: DitaPipeline,
}

impl Trained {
    /// A fresh engine on a clone of the trained pipeline (cold scorer
    /// cache, as after training).
    fn engine(&self, shape: &Shape) -> OnlineEngine<'static> {
        serving_engine(self.base.clone(), &self.data.social, shape)
    }
}

/// An engine that owns its pipeline and network, so it can fold in, as
/// `dita serve` builds it.
fn serving_engine(
    pipeline: DitaPipeline,
    social: &SocialNetwork,
    shape: &Shape,
) -> OnlineEngine<'static> {
    EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(social.clone())))
        .config(shape.online)
        .build()
}

pub struct SetupTimes {
    pub datagen_ms: f64,
    pub train_ms: f64,
    pub start_ms: f64,
    pub total_s: f64,
}

/// Data generation, training, and server start up to the first
/// `/healthz` 200.
pub fn set_up(shape: &Shape, serving: &mut Serving) -> Result<(Trained, SetupTimes), String> {
    let t0 = Instant::now();
    let data = SyntheticDataset::generate(&shape.profile(), POPULATION_SEED);
    let t1 = Instant::now();
    let pipeline = DitaBuilder::new()
        .config(shape.training())
        .build(&data.social, &data.histories)
        .map_err(|e| format!("training: {e}"))?;
    let t2 = Instant::now();
    serving.start(serving_engine(pipeline, &data.social, shape))?;
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let times = SetupTimes {
        datagen_ms: ms(t0, t1),
        train_ms: ms(t1, t2),
        start_ms: ms(t2, t3),
        total_s: (t3 - t0).as_secs_f64(),
    };
    let base = serving
        .shutdown()
        .expect("the set-up server is running")
        .into_pipeline();
    Ok((Trained { data, base }, times))
}

/// What the reference episode established.
pub struct Reference {
    /// Reply body per step; `None` for restarts, which it skips.
    pub bodies: Vec<Option<String>>,
    /// Events the engine applied over the episode.
    pub applied: usize,
    pub summary: Option<Summary>,
}

/// The reference episode: never interrupted, each step sent to the
/// server and then served by an untraced twin.
pub fn reference_episode(
    shape: &Shape,
    trained: &Trained,
    steps: &[Step],
    twin_snapshot: &Path,
    serving: &mut Serving,
    checks: &mut Checks,
) -> Result<Reference, String> {
    let mut twin = Twin::new(trained.engine(shape), twin_snapshot.to_path_buf(), false);
    serving.start(trained.engine(shape))?;
    let mut bodies = Vec::with_capacity(steps.len());
    let mut applied = 0;
    for (i, step) in steps.iter().enumerate() {
        if let Step::Restart = step {
            bodies.push(None);
            continue;
        }
        let reply = serving.send(step);
        checks.reply("reference", i, step, &reply, None);
        if let Some(report) = twin.serve(step, i)? {
            checks.round_report("reference", i, &reply.body, &report);
            match report_field(&reply.body, "applied")
                .and_then(|v| usize::from_value(&v).map_err(|e| e.to_string()))
            {
                Ok(n) => applied += n,
                Err(e) => checks.check(false, || format!("reference: step {i}: {e}")),
            }
        }
        bodies.push(Some(reply.body));
    }
    serving.stop();
    let last = bodies
        .last()
        .cloned()
        .flatten()
        .ok_or("an episode ends with GET /report")?;
    let summary = conservation(checks, "reference", &last);
    Ok(Reference {
        bodies,
        applied,
        summary,
    })
}

/// Latencies of the timed episodes.
pub struct Timed {
    pub round_ms: Vec<f64>,
    pub events_ms: Vec<f64>,
    /// Latency of each step position, one sample per episode; the
    /// tail's steps follow the episode's, with one sample per interlude.
    pub by_step: Vec<Vec<f64>>,
    pub restores_ms: Vec<f64>,
    /// Wall time of each episode's request loop, restarts excluded.
    pub episode_s: Vec<f64>,
    pub episodes: usize,
}

fn samples_beyond_p90(n: usize) -> usize {
    n - p90_rank(n)
}

pub fn p90_rank(n: usize) -> usize {
    ((0.9 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn enough(samples: usize) -> bool {
    samples >= MIN_SAMPLES && samples_beyond_p90(samples) >= 10
}

/// When, as fractions of `--seconds`, the timed loop pauses for an
/// interlude.
pub const INTERLUDES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// Set-ups each interlude adds to the first one.
const SETUPS_PER_INTERLUDE: usize = 6;

/// Timed episodes until `seconds` have passed and every latency set
/// has its samples. At each interlude, outside the measured time, the
/// workload's tail runs on the server of the episode just finished,
/// `at_interlude` runs, and more set-ups are timed. Spreading them over
/// the run lets their medians see the same host conditions as the
/// episodes around them.
#[allow(clippy::too_many_arguments)]
pub fn timed_episodes(
    shape: &Shape,
    trained: &Trained,
    steps: &[Step],
    tail: &[Step],
    reference: &Reference,
    seconds: f64,
    serving: &mut Serving,
    checks: &mut Checks,
    setups: &mut Vec<SetupTimes>,
    at_interlude: &mut dyn FnMut(&mut Checks) -> Result<(), String>,
) -> Result<Timed, String> {
    let mut timed = Timed {
        round_ms: Vec::new(),
        events_ms: Vec::new(),
        by_step: vec![Vec::new(); steps.len() + tail.len()],
        restores_ms: Vec::new(),
        episode_s: Vec::new(),
        episodes: 0,
    };
    let mut interlude = |timed: &mut Timed, serving: &mut Serving, checks: &mut Checks| {
        run_tail(steps.len(), tail, reference, serving, checks, timed);
        at_interlude(checks)?;
        for _ in 0..SETUPS_PER_INTERLUDE {
            setups.push(set_up(shape, serving)?.1);
        }
        Ok::<(), String>(())
    };
    let start = Instant::now();
    let mut paused = 0.0;
    let mut interludes_done = 0;
    loop {
        let mut elapsed = start.elapsed().as_secs_f64() - paused;
        if interludes_done < INTERLUDES.len()
            && timed.episodes > 0
            && elapsed >= seconds * INTERLUDES[interludes_done]
        {
            let t = Instant::now();
            interlude(&mut timed, serving, checks)?;
            interludes_done += 1;
            paused += t.elapsed().as_secs_f64();
            elapsed = start.elapsed().as_secs_f64() - paused;
        }
        let done = timed.episodes > 0
            && interludes_done == INTERLUDES.len()
            && elapsed >= seconds
            && enough(timed.round_ms.len())
            && enough(timed.events_ms.len());
        if done || elapsed >= MAX_MEASURE_S {
            break;
        }
        serving.start(trained.engine(shape))?;
        let episode_start = Instant::now();
        let mut restart_s = 0.0;
        for (i, step) in steps.iter().enumerate() {
            let t = Instant::now();
            let reply = serving.send(step);
            match step {
                Step::Round { .. } => timed.round_ms.push(reply.ms),
                Step::Events { .. } => timed.events_ms.push(reply.ms),
                Step::Restart => {
                    timed.restores_ms.push(reply.ms);
                    restart_s += t.elapsed().as_secs_f64();
                }
                Step::Report | Step::Snapshot => {}
            }
            timed.by_step[i].push(reply.ms);
            checks.reply("timed", i, step, &reply, reference.bodies[i].as_deref());
        }
        timed
            .episode_s
            .push(episode_start.elapsed().as_secs_f64() - restart_s);
        timed.episodes += 1;
    }
    serving.stop();
    checks.check(
        enough(timed.round_ms.len()) && enough(timed.events_ms.len()),
        || {
            format!(
                "too few samples for a p90 with ten beyond it: {} rounds, {} events requests",
                timed.round_ms.len(),
                timed.events_ms.len()
            )
        },
    );
    Ok(timed)
}

/// The tail of a workload without a mid-episode restart, on the
/// running server of a finished episode: snapshot, restore, and check
/// the restored engine against the reference totals.
fn run_tail(
    offset: usize,
    tail: &[Step],
    reference: &Reference,
    serving: &mut Serving,
    checks: &mut Checks,
    timed: &mut Timed,
) {
    for (i, step) in tail.iter().enumerate() {
        let reply = serving.send(step);
        if let Step::Restart = step {
            timed.restores_ms.push(reply.ms);
        }
        timed.by_step[offset + i].push(reply.ms);
        checks.reply("tail", i, step, &reply, None);
        if let Step::Report = step {
            // The restored engine's totals equal the reference's.
            // (`last_round` is not part of a snapshot; the restored
            // server reports it again after its next round.)
            let restored = (
                report_field(&reply.body, "rounds").map(|v| v.to_json_string()),
                report_field(&reply.body, "summary").map(|v| v.to_json_string()),
            );
            let last = reference
                .bodies
                .last()
                .cloned()
                .flatten()
                .unwrap_or_default();
            let expected = (
                report_field(&last, "rounds").map(|v| v.to_json_string()),
                report_field(&last, "summary").map(|v| v.to_json_string()),
            );
            checks.check(restored == expected, || {
                format!("tail: restored /report {restored:?} differs from {expected:?}")
            });
            conservation(checks, "tail", &reply.body);
        }
    }
}

/// One pass of the twin alone over `steps`, untraced or traced: the
/// wall time of each step, and the twin with its spans and counters.
/// Its round reports must equal the reference episode's.
pub fn twin_pass(
    shape: &Shape,
    trained: &Trained,
    steps: &[Step],
    reference: &Reference,
    twin_snapshot: &Path,
    traced: bool,
    checks: &mut Checks,
) -> Result<(Vec<f64>, Twin), String> {
    // Like the server's handlers, the twin serves from a thread of its
    // own, so it does not allocate from the main thread's heap arena,
    // which the set-ups and restores have churned.
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut twin =
                    Twin::new(trained.engine(shape), twin_snapshot.to_path_buf(), traced);
                let phase = if traced { "traced twin" } else { "twin" };
                let mut wall = Vec::with_capacity(steps.len());
                for (i, step) in steps.iter().enumerate() {
                    let t = Instant::now();
                    let report = twin.serve(step, i)?;
                    wall.push(t.elapsed().as_secs_f64() * 1e3);
                    if let (Some(report), Some(Some(body))) = (report, reference.bodies.get(i)) {
                        checks.round_report(phase, i, body, &report);
                    }
                }
                Ok((wall, twin))
            })
            .join()
            .expect("the twin pass thread does not panic")
    })
}
