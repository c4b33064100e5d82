//! `serve-mix`: an in-process `qla_serve::serve` on a loopback listener,
//! driven by one closed-loop connection with the seeded request stream
//! (see [`crate::mix`]).
//!
//! Every pass starts a fresh server (cold cache), sends the whole stream,
//! reads `stats`, and shuts the server down. Hits exercise request
//! parsing, spec rendering and cached-report replay; misses evaluate
//! registry experiments, many of them small sims and schedules.

use crate::gate::{self, expect, Gate};
use crate::mix::{self, Prediction, Stream, CACHE_CAPACITY};
use crate::span::SpanLog;
use crate::Pass;
use qla_serve::{serve, Json, ServeConfig, Service, ServiceClock};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The server configuration under test: sequential evaluation, the
/// deterministic virtual service clock.
#[must_use]
pub fn config() -> ServeConfig {
    ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        max_in_flight: 64,
        jobs: 0,
        clock: ServiceClock::Virtual,
    }
}

/// A fresh service over the real registry.
#[must_use]
pub fn service() -> Service {
    Service::new(Box::new(qla_bench::registry::find), config())
}

/// The stats counters a pass checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
}

/// The workload's state across passes.
pub struct ServeMix {
    stream: Stream,
    prediction: Prediction,
    /// Response digest per (key, format): repeats must be byte-identical,
    /// within a pass and across passes.
    digests: HashMap<(usize, &'static str), u64>,
}

impl ServeMix {
    /// The workload at seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let stream = mix::generate(seed);
        let prediction = mix::predict(&stream, CACHE_CAPACITY);
        ServeMix {
            stream,
            prediction,
            digests: HashMap::new(),
        }
    }

    /// The generated stream.
    #[must_use]
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// The LRU prediction for the stream.
    #[must_use]
    pub fn prediction(&self) -> &Prediction {
        &self.prediction
    }

    /// One set-up without traffic: service, bind, server thread, connect;
    /// then a clean shutdown. Returns the set-up seconds.
    ///
    /// # Errors
    /// Propagates bind, connect and I/O failures.
    pub fn setup(&mut self) -> Result<f64, String> {
        with_server(|client, setup_s| {
            client.shutdown()?;
            Ok(setup_s)
        })
    }

    /// One pass of the stream over TCP.
    pub fn pass(&mut self, gate: &mut Gate) -> Pass {
        self.pass_inner(gate, None)
    }

    /// One pass with a span around every request, named by the predicted
    /// outcome and tagged with the request's index. Returns the pass wall
    /// time.
    pub fn traced_pass(&mut self, gate: &mut Gate, log: &mut SpanLog) -> f64 {
        self.pass_inner(gate, Some(log)).wall_s
    }

    fn pass_inner(&mut self, gate: &mut Gate, mut log: Option<&mut SpanLog>) -> Pass {
        let stream = &self.stream;
        let prediction = &self.prediction;
        let digests = &mut self.digests;
        let mut latencies_s = Vec::with_capacity(stream.requests.len());
        let mut wall_s = 0.0;
        let result = with_server(|client, _| {
            let start = Instant::now();
            for (i, request) in stream.requests.iter().enumerate() {
                let sent = Instant::now();
                let body = match log.as_deref_mut() {
                    Some(log) => {
                        let name = if prediction.hit[i] {
                            "serve.hit"
                        } else {
                            "serve.miss"
                        };
                        log.span_for(name, Some(i as u64), |_| client.call(&request.line))?
                    }
                    None => client.call(&request.line)?,
                };
                latencies_s.push(sent.elapsed().as_secs_f64());
                let mut problems = Vec::new();
                expect(
                    &mut problems,
                    body.starts_with("{\"status\":\"ok\""),
                    || format!("request {i} failed: {}", truncate(&body)),
                );
                let digest = gate::digest(&body);
                let first = *digests
                    .entry((request.key, request.format))
                    .or_insert(digest);
                expect(&mut problems, digest == first, || {
                    format!(
                        "request {i} repeated key {} with different bytes",
                        request.key
                    )
                });
                gate.record(problems);
            }
            let counters = client.stats()?;
            wall_s = start.elapsed().as_secs_f64();
            client.shutdown()?;
            Ok(counters)
        });
        let mut problems = Vec::new();
        match result {
            Ok(counters) => {
                let predicted = Counters {
                    hits: prediction.hits,
                    misses: prediction.misses,
                    evictions: prediction.evictions,
                };
                expect(&mut problems, counters == predicted, || {
                    format!("serve stats {counters:?} differ from the LRU replay {predicted:?}")
                });
            }
            Err(e) => problems.push(format!("serve pass failed: {e}")),
        }
        gate.record(problems);
        Pass {
            wall_s,
            work: stream.requests.len() as f64,
            latencies_s,
        }
    }
}

/// Run `f` against a fresh in-process server with one connected client,
/// passing the set-up time (service build, bind, server thread, connect).
/// The server is always shut down and joined before this returns.
fn with_server<R>(f: impl FnOnce(&mut Client, f64) -> Result<R, String>) -> Result<R, String> {
    let start = Instant::now();
    let service = service();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&service, &listener));
        let mut stopped = false;
        let result = Client::connect(addr).and_then(|mut client| {
            let setup_s = start.elapsed().as_secs_f64();
            let result = f(&mut client, setup_s);
            stopped = client.stopped;
            result
        });
        if !stopped {
            // The client never connected or bailed out before a clean
            // shutdown: a shutdown line on a fresh connection stops the
            // accept loop, and the read timeout bounds the wait if the
            // server is already gone.
            if let Ok(mut rescue) = Client::connect(addr) {
                let _ = rescue.shutdown();
            }
        }
        let served = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("serve loop: {e}"))?;
        result
    })
}

/// A closed-loop protocol client: one request line out, one response line
/// back.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stopped: bool,
}

/// The longest a client waits for one response line.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: stream,
            stopped: false,
        })
    }

    /// Send one newline-terminated line and read the response line.
    ///
    /// # Errors
    /// Propagates I/O errors and an early close.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        let read = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("read: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".to_string());
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Query and parse the `stats` counters.
    ///
    /// # Errors
    /// Fails on I/O errors or a malformed stats line.
    pub fn stats(&mut self) -> Result<Counters, String> {
        let body = self.call("{\"cmd\": \"stats\"}\n")?;
        let json = Json::parse(&body).map_err(|e| format!("stats: {e}"))?;
        let field = |name: &str| {
            json.field(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats line lacks {name}: {}", truncate(&body)))
        };
        Ok(Counters {
            hits: field("hits")?,
            misses: field("misses")?,
            evictions: field("evictions")?,
        })
    }

    /// Ask the server to stop.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let ack = self.call("{\"cmd\": \"shutdown\"}\n")?;
        if ack.contains("\"shutdown\":true") {
            self.stopped = true;
            Ok(())
        } else {
            Err(format!("unexpected shutdown ack: {}", truncate(&ack)))
        }
    }
}

/// Round-trip times of `count` `stats` lines on one connection, s.
///
/// # Errors
/// Propagates server and I/O failures.
pub fn stats_round_trips(count: usize) -> Result<Vec<f64>, String> {
    with_server(|client, _| {
        let mut rtts = Vec::with_capacity(count);
        for _ in 0..count {
            let sent = Instant::now();
            client.call("{\"cmd\": \"stats\"}\n")?;
            rtts.push(sent.elapsed().as_secs_f64());
        }
        client.shutdown()?;
        Ok(rtts)
    })
}

fn truncate(text: &str) -> &str {
    let end = text.char_indices().nth(160).map_or(text.len(), |(i, _)| i);
    &text[..end]
}
