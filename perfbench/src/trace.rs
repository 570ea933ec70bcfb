//! In-memory spans of the traced twin.
//!
//! A span is a name, a start, an end, its parent and the request it
//! belongs to. Spans are opened and closed by the benchmark around
//! calls into a layer's public functions; the round's phase split,
//! which `run_round` already returns, becomes derived child spans of
//! the `sim.round` span. Nothing is timed inside the program. The spans
//! are written out as JSON lines when the run ends.

use serde::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// Laid out from a duration `run_round` reported, not timed here.
    pub derived: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the untraced twin runs the same code without reading the clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

/// A span opened by [`Tracer::enter`]; `None` when tracing is off.
pub type Token = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Sets the request id later spans carry.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.enabled {
            return None;
        }
        let start = self.now_us();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_us: start,
            end_us: start,
            derived: false,
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    pub fn exit(&mut self, token: Token) {
        if let Some(idx) = token {
            let end = self.now_us();
            debug_assert_eq!(self.open.last(), Some(&idx), "spans must nest");
            self.open.pop();
            self.spans[idx].end_us = end;
        }
    }

    /// Adds children of the closed span `parent`, one per `(name, ms)`
    /// phase, laid end to end from the parent's start.
    pub fn derived(&mut self, parent: Token, phases: &[(&'static str, f64)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_us;
        for &(name, ms) in phases {
            self.spans.push(Span {
                name,
                request: self.spans[parent].request,
                parent: Some(parent),
                start_us: at,
                end_us: at + ms * 1e3,
                derived: true,
            });
            at += ms * 1e3;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.ms();
            }
        }
        own
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Value::Null, |p| Value::Int(p as i128));
            let line = Value::Object(vec![
                ("id".to_string(), Value::Int(id as i128)),
                ("parent".to_string(), parent),
                ("request".to_string(), Value::Int(span.request as i128)),
                ("name".to_string(), Value::Str(span.name.to_string())),
                ("start_us".to_string(), Value::Float(span.start_us)),
                ("end_us".to_string(), Value::Float(span.end_us)),
                ("derived".to_string(), Value::Bool(span.derived)),
            ]);
            out.push_str(&line.to_json_string());
            out.push('\n');
        }
        out
    }
}
