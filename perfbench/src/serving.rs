//! The socket side: one `sc_serve::Server` on loopback, driven by one
//! closed-loop client through `sc_serve::client`, with every request
//! counted per endpoint.

use crate::workload::Step;
use sc_serve::{ServeConfig, Server};
use sc_sim::{load_snapshot, OnlineEngine};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Request outcomes of one endpoint.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: usize,
    pub transport_errors: usize,
    /// 4xx other than 429.
    pub client_errors: usize,
    pub throttled: usize,
    pub server_errors: usize,
}

impl Counts {
    pub fn failed(&self) -> usize {
        self.transport_errors + self.client_errors + self.throttled + self.server_errors
    }
}

/// One answered (or failed) step.
#[derive(Debug)]
pub struct Reply {
    /// `None` on a transport error or a failed restore.
    pub status: Option<u16>,
    pub body: String,
    /// Client-observed latency; for `Restart`, the restore time.
    pub ms: f64,
}

impl Reply {
    pub fn ok(&self) -> bool {
        matches!(self.status, Some(200..=299))
    }
}

pub struct Serving {
    server: Option<Server>,
    config: ServeConfig,
    snapshot: PathBuf,
    pub counts: BTreeMap<&'static str, Counts>,
}

impl Serving {
    pub fn new(snapshot: PathBuf) -> Serving {
        Serving {
            server: None,
            config: ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                snapshot_path: Some(snapshot.clone()),
                ..ServeConfig::default()
            },
            snapshot,
            counts: BTreeMap::new(),
        }
    }

    /// Starts a server on `engine` and returns once `/healthz` answers 200.
    pub fn start(&mut self, engine: OnlineEngine<'static>) -> Result<(), String> {
        self.stop();
        let server =
            Server::start(engine, self.config.clone()).map_err(|e| format!("server start: {e}"))?;
        self.server = Some(server);
        for _ in 0..100 {
            if self.call("healthz", "GET", "/healthz", "").ok() {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        Err("server never answered /healthz".to_string())
    }

    /// Stops the server and returns its engine.
    pub fn shutdown(&mut self) -> Option<OnlineEngine<'static>> {
        self.server.take().map(Server::shutdown)
    }

    pub fn stop(&mut self) {
        drop(self.shutdown());
    }

    fn call(&mut self, endpoint: &'static str, method: &str, path: &str, body: &str) -> Reply {
        let addr = self
            .server
            .as_ref()
            .expect("a request needs a running server")
            .local_addr();
        let counts = self.counts.entry(endpoint).or_default();
        counts.attempted += 1;
        let t0 = Instant::now();
        let result = sc_serve::client::request(addr, method, path, body);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((status, body)) => {
                match status {
                    200..=299 => {}
                    429 => counts.throttled += 1,
                    400..=499 => counts.client_errors += 1,
                    _ => counts.server_errors += 1,
                }
                Reply {
                    status: Some(status),
                    body,
                    ms,
                }
            }
            Err(e) => {
                counts.transport_errors += 1;
                Reply {
                    status: None,
                    body: e.to_string(),
                    ms,
                }
            }
        }
    }

    /// Sends one step and waits for its reply.
    pub fn send(&mut self, step: &Step) -> Reply {
        match step {
            Step::Events { body } => self.call("events", "POST", "/events", body),
            Step::Round { body } => self.call("round", "POST", "/round", body),
            Step::Report => self.call("report", "GET", "/report", ""),
            Step::Snapshot => self.call("snapshot", "POST", "/snapshot", ""),
            Step::Restart => self.restart(),
        }
    }

    /// Shuts the server down, then times `load_snapshot` through the
    /// first `/healthz` 200 of the restored server.
    fn restart(&mut self) -> Reply {
        self.stop();
        self.counts.entry("restart").or_default().attempted += 1;
        let t0 = Instant::now();
        let started = load_snapshot(&self.snapshot)
            .map_err(|e| e.to_string())
            .and_then(|engine| self.start(engine));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match started {
            Ok(()) => Reply {
                status: Some(200),
                body: String::new(),
                ms,
            },
            Err(e) => {
                self.counts.entry("restart").or_default().server_errors += 1;
                Reply {
                    status: None,
                    body: e,
                    ms,
                }
            }
        }
    }
}
