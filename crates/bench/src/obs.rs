//! Shared `--obs` wiring for the examples.
//!
//! Every example accepts `--obs HOST:PORT` to serve the live
//! observability plane (`/metrics`, `/health`, `/ready`, `/events`)
//! while it runs, and `--obs-hold-ms N` to keep the exporter up after
//! the run finishes so a scraper (`ecc-top`, CI curl) can grab the
//! final state. The example's engine records into the session's
//! `Recorder`, so the scrape carries the run's telemetry.

use std::sync::Arc;

use ecc_obs::{ObsHub, ObsHubConfig, ObsServer};
use ecc_telemetry::Recorder;

use crate::arg_value;

/// A live exporter session owned by an example.
///
/// Constructed from the command line via [`obs_session_from_args`];
/// call [`ObsSession::finish`] after the run to honour `--obs-hold-ms`
/// and shut the server down cleanly.
pub struct ObsSession {
    server: ObsServer,
    hold_ms: u64,
}

impl ObsSession {
    /// The recorder the exporter scrapes; the example reports into it.
    pub fn recorder(&self) -> Recorder {
        self.server.hub().recorder().clone()
    }

    /// Holds the exporter up for `--obs-hold-ms`, then shuts it down.
    pub fn finish(self) {
        if self.hold_ms > 0 {
            eprintln!("obs: holding exporter for {}ms", self.hold_ms);
            std::thread::sleep(std::time::Duration::from_millis(self.hold_ms));
        }
        self.server.shutdown();
    }
}

/// Starts an exporter over `recorder` when `--obs HOST:PORT` was given.
///
/// Returns `None` when the flag is absent. Exits with status 2 when the
/// address cannot be bound, matching `chaos-campaign`.
pub fn obs_session_from_args(recorder: &Recorder) -> Option<ObsSession> {
    let addr = arg_value("--obs")?;
    let hold_ms = arg_value("--obs-hold-ms")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--obs-hold-ms wants an integer");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let hub = Arc::new(ObsHub::new(recorder.clone(), ObsHubConfig::default()));
    match ObsServer::serve(hub, &addr) {
        Ok(server) => {
            eprintln!("obs: serving /metrics /health /ready /events on {}", server.local_addr());
            Some(ObsSession { server, hold_ms })
        }
        Err(e) => {
            eprintln!("obs: failed to bind {addr}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ecc_obs::{http_get, parse_exposition, ObsHub, ObsHubConfig, ObsServer};
    use ecc_telemetry::Recorder;

    use super::ObsSession;

    #[test]
    fn session_serves_the_recorder_it_wraps() {
        let recorder = Recorder::new();
        recorder.counter("bench.gate.advisory").incr();
        let hub = Arc::new(ObsHub::new(recorder.clone(), ObsHubConfig::default()));
        let server = ObsServer::serve(hub, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let session = ObsSession { server, hold_ms: 0 };
        session.recorder().counter("bench.gate.advisory").incr();

        let body = http_get(&addr.to_string(), "/metrics").expect("scrape");
        let scrape = parse_exposition(&body).expect("valid exposition");
        let sample = scrape.value("bench_gate_advisory_total").expect("counter exported");
        assert_eq!(sample, &ecc_obs::MetricValue::Int(2));
        session.finish();
    }
}
