//! The served replay of a trace equals the in-process one. `dita
//! replay` ingests a trace day through `replay_day`; `dita post-replay`
//! posts the same day to a running `dita serve`. Both translate the
//! trace through the one `ReplayTranslator`, so over live sockets the
//! server must report the day byte-for-byte like `replay_day`, and
//! refuse exactly the events `replay_day`'s engine refused.
//!
//! The trace is built to catch a client that hands out dense ids the
//! server will not: worker 12 first checks in while none of their
//! friends is known (refused, `NoUsableFriends`), and checks in again
//! after their only friend, worker 11, has folded in.

use sc_assign::AlgorithmKind;
use sc_core::{DitaBuilder, DitaConfig, OnlineConfig, Parallelism};
use sc_datagen::{LoadedDataset, ReplayOptions, ReplayStream};
use sc_influence::RpoParams;
use sc_serve::{ServeConfig, Server};
use sc_sim::{replay_day, EngineBuilder, NetworkMode, PipelineMode, ReplayTranslator};
use sc_types::{CategoryId, CheckIn, HistoryStore, Location, TimeInstant, VenueId, WorkerId};
use serde::json::Value;
use serde::Serialize as _;

const DAY: i64 = 1;

/// Workers 0..=9 are active on days 0 and 1. Workers 10 and 11 first
/// appear on day 1, befriended with trained workers; worker 12 first
/// appears at 09:00 on day 1, befriended only with worker 11 (who
/// arrives at 12:00), and checks in again at 15:00.
fn trace() -> LoadedDataset {
    let mut store = HistoryStore::default();
    let mut push = |w: u32, v: u32, day: i64, hour: i64| {
        store.push(CheckIn::at(
            WorkerId::new(w),
            VenueId::new(v),
            Location::new(v as f64, 0.0),
            TimeInstant::at(day, hour),
            vec![CategoryId::new(v % 4)],
        ));
    };
    for w in 0..10u32 {
        for day in 0..2i64 {
            for k in 0..3i64 {
                push(w, w % 5, day, 8 + k * 3 + (w as i64 % 3));
            }
        }
    }
    push(10, 2, DAY, 10);
    push(10, 3, DAY, 14);
    push(11, 4, DAY, 12);
    push(12, 1, DAY, 9);
    push(12, 1, DAY, 15);
    let mut edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    edges.extend([(0, 10), (1, 10), (2, 11), (11, 12)]);
    LoadedDataset::from_parts(edges, store, 3).unwrap()
}

fn config() -> DitaConfig {
    DitaConfig {
        n_topics: 4,
        lda_sweeps: 8,
        infer_sweeps: 4,
        rpo: RpoParams {
            max_sets: 3_000,
            threads: Parallelism::Single,
            ..Default::default()
        },
        online: OnlineConfig {
            round_hours: 1,
            growth_cap: 256,
            eviction_horizon: 4,
            target_sets: 0,
            incremental: true,
        },
        seed: 9,
    }
}

/// One `POST /round` reply: `(rejected, report)`, the report as the
/// JSON text the server sent.
fn round_reply(body: &str) -> (usize, String) {
    let value = serde::json::parse(body).expect("round reply is JSON");
    let obj = value.as_object().expect("round reply is an object");
    let rejected: usize = serde::get_field(obj, "rejected").unwrap();
    let report = &obj.iter().find(|(k, _)| k == "report").unwrap().1;
    (rejected, report.to_json_string())
}

#[test]
fn served_replay_matches_the_in_process_replay() {
    let data = trace();
    // No lingering departures: a departure that fires after its worker
    // was assigned is refused `NotOnline` on both paths, but only the
    // server counts it, so without them every refusal on either side is
    // a refused first sighting and the counts compare exactly.
    let opts = ReplayOptions {
        linger_hours: 0,
        ..Default::default()
    };

    let local = replay_day(&data, DAY, config(), &opts, AlgorithmKind::Ia).unwrap();
    let local = &local.report;
    let local_rejected: Vec<usize> = local.rounds.iter().map(|r| r.rejected).collect();
    assert_eq!(
        local_rejected.iter().sum::<usize>(),
        1,
        "worker 12's first sighting is refused"
    );
    assert_eq!(
        local
            .folded
            .iter()
            .map(|&(trace, dense)| (trace.raw(), dense.raw()))
            .collect::<Vec<_>>(),
        vec![(10, 10), (11, 11), (12, 12)],
        "worker 12 folds in on their second check-in, at the next dense id"
    );

    // The same day over the wire: an engine trained as `replay_day`
    // trains it, fed by the shared translator through the client.
    let slice = data.training_slice(DAY).unwrap();
    let pipeline = DitaBuilder::new()
        .config(config())
        .build(&slice.social, &slice.histories)
        .unwrap();
    let engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(slice.social)))
        .config(config().online)
        .build();
    let server = Server::start(engine, ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let request = |method: &str, path: &str, body: &str| {
        sc_serve::client::request(addr, method, path, body).expect("request")
    };

    let stream = ReplayStream::from_dataset(&data, DAY, &opts).unwrap();
    let mut translator = ReplayTranslator::new(&data, slice.to_dense, &opts);
    let mut served_rejected = Vec::new();
    for (round, local_round) in stream.rounds().iter().zip(&local.rounds) {
        let batch: Vec<Value> = round
            .events
            .iter()
            .filter_map(|event| translator.translate(event))
            .map(|t| t.kind.to_value())
            .collect();
        if !batch.is_empty() {
            let (status, body) = request("POST", "/events", &Value::Array(batch).to_json_string());
            assert_eq!(status, 202, "{body}");
        }
        let (status, body) = request(
            "POST",
            "/round",
            &format!("{{\"at\": {}}}", round.now.as_seconds()),
        );
        assert_eq!(status, 200, "{body}");
        let (rejected, report) = round_reply(&body);
        served_rejected.push(rejected);
        assert_eq!(
            report,
            local_round.report.to_value().to_json_string(),
            "round at {} diverged",
            round.now
        );
    }
    assert_eq!(served_rejected, local_rejected, "server-side rejections");

    let (status, body) = request("GET", "/report", "");
    assert_eq!(status, 200, "{body}");
    let summary = local.summary.to_value().to_json_string();
    assert!(
        body.contains(&format!("\"summary\":{summary}")),
        "served summary differs from replay_day's {summary}: {body}"
    );
    server.shutdown();
}
