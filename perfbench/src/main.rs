//! `perfbench` — the serving benchmark of the DITA workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload contested --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run trains a synthetic population, starts `sc_serve::Server` (the
//! engine `dita serve` runs) on loopback and drives it with one
//! closed-loop client, one request and one connection at a time:
//!
//! 1. **Set-up**: data generation, training, server start up to the
//!    first `/healthz` 200.
//! 2. **Reference episode**, untimed and never interrupted: the socket
//!    replies are checked against an in-process twin's round reports
//!    and kept as the byte-exact reference for every later episode.
//! 3. **Timed episodes** until `--seconds` have passed and each latency
//!    set has at least 100 samples. Every reply must equal the
//!    reference byte for byte, across any snapshot/restore in between.
//!    Five interludes, outside the measured time, snapshot and restore
//!    a finished episode's server, time six more set-ups (`setup_s` is
//!    the median of all 31) and, with `--trace 1`, run the twin alone
//!    over the episode, untraced and traced. The traced passes time
//!    every call into a layer; the per-layer metrics come from them.
//!
//! The last line of standard output is the JSON result; the line before
//! it holds the host block, the request accounting and the checks. The
//! exit code is 1 when a correctness check fails. `DESIGN.md` explains
//! the workloads and which metric each layer should move.

mod checks;
mod episodes;
mod host;
mod metrics;
mod serving;
mod trace;
mod twin;
mod workload;

use checks::Checks;
use episodes::{reference_episode, set_up, timed_episodes, twin_pass, INTERLUDES};
use metrics::{
    end_to_end, median, median_self, metrics_json, per_layer, print_layers, print_table, ratio,
    reconcile, replay_windows, requests_json, Traced, TOLERANCE_MS, TOLERANCE_SHARE,
};
use serde::json::Value;
use serde::Serialize as _;
use serving::Serving;
use std::collections::BTreeMap;
use std::path::PathBuf;
use workload::{Step, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload; expected one of {}", names.join(", "))
    })?;
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let shape = args.workload.shape();
    let out = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let tag = format!("{}-{}", args.workload.name(), args.seed);
    let server_snapshot = out.join(format!("{tag}-server.snap"));
    let twin_snapshot = out.join(format!("{tag}-twin.snap"));
    let mut serving = Serving::new(server_snapshot.clone());
    let mut checks = Checks::default();

    let (trained, first_setup) = set_up(&shape, &mut serving)?;
    let mut setups = vec![first_setup];
    let engine_threads = trained.base.scoring_threads();

    let steps = shape.episode(&trained.data, args.seed);
    let tail = shape.tail();
    let reference = reference_episode(
        &shape,
        &trained,
        &steps,
        &twin_snapshot,
        &mut serving,
        &mut checks,
    )?;
    let all: Vec<Step> = steps.iter().chain(&tail).cloned().collect();
    // With `--trace 1`, every interlude runs an untraced twin pass over
    // the episode and a traced one over the episode and its tail, so the
    // tail's self times are medians of five passes like the episode's.
    // (The untraced passes only price the spans.)
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut twins = Vec::new();
    let mut at_interlude = |checks: &mut Checks| -> Result<(), String> {
        if args.trace {
            let pass = |steps: &[Step], traced: bool, checks: &mut Checks| {
                twin_pass(
                    &shape,
                    &trained,
                    steps,
                    &reference,
                    &twin_snapshot,
                    traced,
                    checks,
                )
            };
            plain_ms.push(pass(&steps, false, checks)?.0);
            let (wall, twin) = pass(&all, true, checks)?;
            traced_ms.push(wall);
            twins.push(twin);
        }
        Ok(())
    };
    let timed = timed_episodes(
        &shape,
        &trained,
        &steps,
        &tail,
        &reference,
        args.seconds,
        &mut serving,
        &mut checks,
        &mut setups,
        &mut at_interlude,
    )?;
    let traced = if args.trace {
        let own = median_self(&twins);
        let main = twins.swap_remove(INTERLUDES.len() / 2);
        Some(Traced {
            observed: timed.by_step.iter().map(|s| median(s)).collect(),
            slowest: timed
                .by_step
                .iter()
                .map(|s| s.iter().copied().fold(f64::NAN, f64::max))
                .collect(),
            plain_ms,
            traced_ms,
            endpoint: all.iter().map(Step::endpoint).collect(),
            own,
            main,
        })
    } else {
        None
    };
    for snapshot in [&server_snapshot, &twin_snapshot] {
        let _ = std::fs::remove_file(snapshot);
    }

    let attempted: usize = serving.counts.values().map(|c| c.attempted).sum();
    let failed: usize = serving.counts.values().map(|c| c.failed()).sum();
    let ok_ratio = 1.0 - ratio(failed as f64, attempted as f64);
    let windows = |samples: usize| {
        let per_episode = samples / timed.episodes.max(1);
        replay_windows(per_episode, timed.episodes).to_value()
    };
    let mut detail = vec![
        ("host".to_string(), host::block(args.seed, engine_threads)),
        (
            "workload".to_string(),
            Value::Str(args.workload.name().to_string()),
        ),
        (
            "samples".to_string(),
            Value::Object(vec![
                ("episodes".to_string(), timed.episodes.to_value()),
                ("round".to_string(), timed.round_ms.len().to_value()),
                ("events".to_string(), timed.events_ms.len().to_value()),
                (
                    "round_replay_windows".to_string(),
                    windows(timed.round_ms.len()),
                ),
                (
                    "events_replay_windows".to_string(),
                    windows(timed.events_ms.len()),
                ),
                ("restore".to_string(), timed.restores_ms.len().to_value()),
                ("setup".to_string(), setups.len().to_value()),
            ]),
        ),
        ("requests".to_string(), requests_json(&serving)),
    ];
    let metrics = match &traced {
        None => {
            let m = end_to_end(&steps, &timed, &reference, &setups, ok_ratio);
            print_table(
                &format!("{} end to end (seed {})", args.workload.name(), args.seed),
                &m,
            );
            m
        }
        Some(traced) => {
            let rec = reconcile(traced);
            checks.check(rec.outside == 0, || {
                format!(
                    "reconcile: {} requests' layer self times exceed their observed latency beyond tolerance",
                    rec.outside
                )
            });
            let m = per_layer(traced, &rec, &setups);
            print_table(
                &format!("{} per layer (seed {})", args.workload.name(), args.seed),
                &m,
            );
            print_layers(traced, &rec);
            let spans = out.join(format!("{tag}-spans.jsonl"));
            std::fs::write(&spans, traced.main.tracer.to_jsonl())
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            println!("spans written to {}", spans.display());
            detail.push((
                "reconcile".to_string(),
                Value::Object(vec![
                    ("tolerance_ms".to_string(), Value::Float(TOLERANCE_MS)),
                    ("tolerance_share".to_string(), Value::Float(TOLERANCE_SHARE)),
                    ("requests".to_string(), traced.observed.len().to_value()),
                    ("outside_tolerance".to_string(), rec.outside.to_value()),
                ]),
            ));
            m
        }
    };
    detail.push((
        "checks".to_string(),
        Value::Object(vec![
            ("passed".to_string(), checks.passed.to_value()),
            ("failed".to_string(), checks.failures.len().to_value()),
            (
                "first_failures".to_string(),
                Value::Array(
                    checks
                        .failures
                        .iter()
                        .take(20)
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
        ]),
    ));
    let correct = checks.failures.is_empty();
    println!("{}", Value::Object(detail).to_json_string());
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), attempted.to_value()),
        ("failed".to_string(), failed.to_value()),
        ("metrics".to_string(), metrics_json(&metrics)),
    ]);
    println!("{}", result.to_json_string());
    Ok(correct)
}
