//! Correctness checks: a run that fails any of them is incorrect.

use crate::serving::Reply;
use crate::workload::Step;
use sc_sim::RoundReport;
use serde::json::Value;
use serde::Serialize as _;

/// Correctness checks; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub passed: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            if self.failures.len() < 20 {
                eprintln!("perfbench: check failed: {msg}");
            }
            self.failures.push(msg);
        }
    }

    /// The step was answered 2xx, and equals the reference reply if
    /// there is one.
    pub fn reply(
        &mut self,
        phase: &str,
        i: usize,
        step: &Step,
        reply: &Reply,
        reference: Option<&str>,
    ) {
        self.check(reply.ok(), || {
            format!(
                "{phase}: step {i} ({}) answered {:?}: {}",
                step.endpoint(),
                reply.status,
                reply.body
            )
        });
        if let Some(expected) = reference {
            self.check(reply.body == expected, || {
                format!(
                    "{phase}: step {i} ({}) reply differs from the uninterrupted reference",
                    step.endpoint()
                )
            });
        }
    }

    /// A `/round` reply carries exactly the twin's report wire form.
    pub fn round_report(&mut self, phase: &str, i: usize, reply: &str, twin: &RoundReport) {
        let wire = report_field(reply, "report").map(|v| v.to_json_string());
        let expected = twin.to_value().to_json_string();
        self.check(wire.as_deref() == Ok(expected.as_str()), || {
            format!("{phase}: step {i}: round reply {wire:?} is not the twin's report {expected}")
        });
    }
}

/// A top-level field of a JSON reply body.
pub fn report_field(body: &str, name: &str) -> Result<Value, String> {
    let value = serde::json::parse(body)?;
    let obj = value.as_object().ok_or("reply is not an object")?;
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| format!("reply has no `{name}`"))
}

/// The lifetime totals of a `/report` body.
pub struct Summary {
    pub published: usize,
    pub assigned: usize,
    pub expired: usize,
    pub still_open: usize,
    pub average_influence: f64,
}

pub fn summary_of(report_body: &str) -> Result<Summary, String> {
    let summary = report_field(report_body, "summary")?;
    let obj = summary.as_object().ok_or("summary is not an object")?;
    let get = |k: &str| serde::get_field::<usize>(obj, k).map_err(|e| e.to_string());
    Ok(Summary {
        published: get("published")?,
        assigned: get("assigned")?,
        expired: get("expired")?,
        still_open: get("still_open")?,
        average_influence: serde::get_field(obj, "average_influence").map_err(|e| e.to_string())?,
    })
}

pub fn conservation(checks: &mut Checks, phase: &str, report_body: &str) -> Option<Summary> {
    match summary_of(report_body) {
        Ok(s) => {
            checks.check(s.published == s.assigned + s.expired + s.still_open, || {
                format!(
                    "{phase}: published {} != assigned {} + expired {} + still_open {}",
                    s.published, s.assigned, s.expired, s.still_open
                )
            });
            Some(s)
        }
        Err(e) => {
            checks.check(false, || format!("{phase}: unreadable /report: {e}"));
            None
        }
    }
}
