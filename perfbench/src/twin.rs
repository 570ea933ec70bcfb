//! The in-process twin of `dita serve`.
//!
//! It answers the same steps the socket client sends, by calling the
//! same public functions the server's handlers call — `serde::json::parse`,
//! `EventKind::from_value`, `OnlineEngine::ingest`, `run_round`,
//! `to_json_string`, `save_snapshot`, `load_snapshot` — in the same
//! order, and times each call as a span of the layer it belongs to.
//! Its replies are not compared byte for byte with the server's (the
//! reply envelopes are the server's business); its round reports are.

use crate::trace::{Token, Tracer};
use crate::workload::Step;
use sc_assign::AlgorithmKind;
use sc_sim::{load_snapshot, save_snapshot, EventKind, OnlineEngine, Outcome, RoundReport};
use sc_types::TimeInstant;
use serde::json::Value;
use serde::{Deserialize as _, Serialize as _};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;

/// What the twin counted while serving.
#[derive(Debug, Default)]
pub struct TwinStats {
    pub fold_ins: usize,
    /// Engine rejections by `RejectReason` label.
    pub rejected: BTreeMap<&'static str, usize>,
    /// Bytes of `POST /events` bodies parsed.
    pub events_body_bytes: usize,
    pub events_bodies: usize,
    pub reports: Vec<RoundReport>,
    pub snapshot_bytes: Vec<u64>,
}

pub struct Twin {
    /// `None` only between dropping the old engine and restoring.
    engine: Option<OnlineEngine<'static>>,
    queue: Vec<EventKind>,
    last_round: Option<RoundReport>,
    snapshot: PathBuf,
    pub tracer: Tracer,
    pub stats: TwinStats,
}

fn field(name: &str, value: Value) -> (String, Value) {
    (name.to_string(), value)
}

impl Twin {
    pub fn new(engine: OnlineEngine<'static>, snapshot: PathBuf, traced: bool) -> Twin {
        Twin {
            engine: Some(engine),
            queue: Vec::new(),
            last_round: None,
            snapshot,
            tracer: Tracer::new(traced),
            stats: TwinStats::default(),
        }
    }

    fn engine(&mut self) -> &mut OnlineEngine<'static> {
        self.engine
            .as_mut()
            .expect("the twin engine is live between restarts")
    }

    /// Serves one step as request `request`; returns the round report
    /// of a `Round` step.
    pub fn serve(&mut self, step: &Step, request: usize) -> Result<Option<RoundReport>, String> {
        if let Step::Restart = step {
            // The socket client shuts the old server down before it
            // starts timing the restore; so does the twin.
            self.engine = None;
        }
        self.tracer.set_request(request);
        let root = self.tracer.enter("twin.request");
        let out = match step {
            Step::Events { body } => self.events(body).map(|()| None),
            Step::Round { body } => self.round(body).map(Some),
            Step::Report => {
                self.report();
                Ok(None)
            }
            Step::Snapshot => self.snapshot().map(|()| None),
            Step::Restart => self.restart().map(|()| None),
        };
        self.tracer.exit(root);
        out
    }

    fn parse(&mut self, body: &str) -> Result<Value, String> {
        let t = self.tracer.enter("serde.parse");
        let parsed = serde::json::parse(body);
        self.tracer.exit(t);
        parsed.map_err(|e| format!("twin: bad JSON: {e}"))
    }

    fn encode(&mut self, reply: Value) {
        let t = self.tracer.enter("serde.encode");
        black_box(reply.to_json_string());
        self.tracer.exit(t);
    }

    fn events(&mut self, body: &str) -> Result<(), String> {
        let value = self.parse(body)?;
        self.stats.events_body_bytes += body.len();
        self.stats.events_bodies += 1;
        let items: Vec<&Value> = match &value {
            Value::Array(items) => items.iter().collect(),
            other => return Err(format!("twin: events body is a {}", other.kind())),
        };
        let t = self.tracer.enter("sim.decode");
        let decoded: Result<Vec<EventKind>, _> =
            items.iter().map(|v| EventKind::from_value(v)).collect();
        self.tracer.exit(t);
        let events = decoded.map_err(|e| format!("twin: bad event: {e}"))?;
        let accepted = events.len();
        self.queue.extend(events);
        let queued = self.queue.len();
        self.encode(Value::Object(vec![
            field("accepted", accepted.to_value()),
            field("queued", queued.to_value()),
        ]));
        Ok(())
    }

    /// Applies the queued events in arrival order, as `POST /round`
    /// and `POST /snapshot` do. Plain events are timed as runs of
    /// `sim.ingest`; each fold-in is its own `sim.fold_in` span.
    fn drain(&mut self) -> (usize, usize) {
        let drained = std::mem::take(&mut self.queue);
        let (mut applied, mut rejected) = (0, 0);
        let mut run: Option<Token> = None;
        for kind in drained {
            let outcome = if matches!(kind, EventKind::WorkerNew { .. }) {
                if let Some(t) = run.take() {
                    self.tracer.exit(t);
                }
                let t = self.tracer.enter("sim.fold_in");
                let outcome = self.engine().ingest(kind);
                self.tracer.exit(t);
                if outcome == Outcome::WorkerFoldedIn {
                    self.stats.fold_ins += 1;
                }
                outcome
            } else {
                if run.is_none() {
                    run = Some(self.tracer.enter("sim.ingest"));
                }
                self.engine().ingest(kind)
            };
            match outcome.rejected_reason() {
                Some(reason) => {
                    rejected += 1;
                    *self.stats.rejected.entry(reason.label()).or_default() += 1;
                }
                None => applied += 1,
            }
        }
        if let Some(t) = run {
            self.tracer.exit(t);
        }
        (applied, rejected)
    }

    fn round(&mut self, body: &str) -> Result<RoundReport, String> {
        let value = self.parse(body)?;
        let obj = value
            .as_object()
            .ok_or("twin: round body is not an object")?;
        let day: i64 = serde::get_field(obj, "day").map_err(|e| e.to_string())?;
        let hour: i64 = serde::get_field(obj, "hour").map_err(|e| e.to_string())?;
        let (applied, rejected) = self.drain();
        let t = self.tracer.enter("sim.round");
        let report = self
            .engine()
            .run_round(TimeInstant::at(day, hour), AlgorithmKind::Ia);
        self.tracer.exit(t);
        self.tracer.derived(
            t,
            &[
                ("influence.maintenance", report.maintenance_ms),
                ("assign.eligibility", report.eligibility_ms),
                ("core.warm", report.warm_ms),
                ("assign.score", report.score_ms),
                ("assign.solve", report.solve_ms),
            ],
        );
        self.encode(Value::Object(vec![
            field("applied", applied.to_value()),
            field("rejected", rejected.to_value()),
            field("report", report.to_value()),
        ]));
        self.last_round = Some(report.clone());
        self.stats.reports.push(report.clone());
        Ok(report)
    }

    fn report(&mut self) {
        let engine = self.engine();
        let (rounds, _) = engine.next_stamp();
        let summary = engine.summary();
        let last = self
            .last_round
            .as_ref()
            .map_or(Value::Null, |r| r.to_value());
        self.encode(Value::Object(vec![
            field("rounds", rounds.to_value()),
            field("summary", summary.to_value()),
            field("last_round", last),
        ]));
    }

    fn snapshot(&mut self) -> Result<(), String> {
        let (applied, rejected) = self.drain();
        let t = self.tracer.enter("sim.snapshot_save");
        let saved = save_snapshot(self.engine.as_ref().expect("live engine"), &self.snapshot);
        self.tracer.exit(t);
        saved.map_err(|e| format!("twin: {e}"))?;
        let bytes = std::fs::metadata(&self.snapshot)
            .map_err(|e| format!("twin: snapshot size: {e}"))?
            .len();
        self.stats.snapshot_bytes.push(bytes);
        self.encode(Value::Object(vec![
            field("path", Value::Str(self.snapshot.display().to_string())),
            field("events_folded", applied.to_value()),
            field("events_rejected", rejected.to_value()),
        ]));
        Ok(())
    }

    fn restart(&mut self) -> Result<(), String> {
        let t = self.tracer.enter("sim.snapshot_restore");
        let restored = load_snapshot(&self.snapshot);
        self.tracer.exit(t);
        self.engine = Some(restored.map_err(|e| format!("twin: {e}"))?);
        self.queue.clear();
        self.last_round = None;
        Ok(())
    }
}
