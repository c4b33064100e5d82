//! The evaluation service: cache, admission control, batch execution.
//!
//! A [`Service`] owns the LRU result cache, the counters and the experiment
//! lookup, and serves two entry points:
//!
//! * [`Service::handle_line`] — one request at a time, for the TCP server
//!   and `--once` mode. Admission control is the live in-flight gauge.
//! * [`Service::handle_burst`] — a batch of concurrent requests, for the
//!   in-process load generator and benches. The burst is served in three
//!   deterministic phases (sequential admission + cache lookup, parallel
//!   miss evaluation through an [`Executor`], sequential insertion +
//!   response) so the responses, the cache state and every counter are a
//!   pure function of the request sequence — independent of thread count.
//!
//! The cache is keyed by the [`content_hash`] of the canonical request (see
//! [`RunRequest::canonical_key`]); each entry also stores the canonical
//! string itself, so a (cosmically unlikely) 64-bit hash collision degrades
//! to a cache miss instead of serving the wrong report. Responses carry no
//! hit/miss marker — a cached answer is byte-identical to a computed one —
//! which is what lets the CI soak job `diff` two replays of the same
//! transcript. Hit/miss/shed accounting lives on the `stats` endpoint.

use crate::clock::ServiceClock;
use crate::request::{parse_command, Command, RunRequest};
use crate::stats::{ServiceStats, StatsSnapshot};
use qla_core::{content_hash, DynExperiment, Executor, ExperimentContext, LruCache};
use qla_obs::Recorder;
use qla_report::{json_escape, Format, Report};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Resolves a registry name to an experiment. Injected by the binary (the
/// registry lives in `qla-bench`, which depends on this crate — a closure
/// keeps the dependency pointing one way).
pub type ExperimentLookup = Box<dyn Fn(&str) -> Option<Box<dyn DynExperiment>> + Send + Sync>;

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Result-cache capacity (entries). Must be at least 1.
    pub cache_capacity: usize,
    /// Admission bound: run requests beyond this many in flight are shed
    /// with an `overloaded` error, mirroring the simulator's
    /// `sweep.sim.max_in_flight` queue bound.
    pub max_in_flight: usize,
    /// Worker threads for evaluation (`0`/`1` = sequential).
    pub jobs: usize,
    /// Service-time clock (see [`ServiceClock`]).
    pub clock: ServiceClock,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 256,
            // The simulator's default queue bound (SimSpec::paper).
            max_in_flight: 64,
            jobs: 0,
            clock: ServiceClock::Virtual,
        }
    }
}

/// How one request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered from the cache.
    Hit,
    /// Evaluated and cached.
    Miss,
    /// Rejected by admission control.
    Shed,
    /// Rejected as malformed or unservable.
    Error,
}

/// One served request: the wire response plus the accounting the response
/// itself deliberately omits.
#[derive(Debug, Clone)]
pub struct ServedRequest {
    /// The one-line JSON response.
    pub response: String,
    /// Hit/miss/shed/error classification.
    pub outcome: Outcome,
    /// Charged service time, nanoseconds (0 for shed/error).
    pub service_ns: u64,
}

/// The response to one protocol line.
#[derive(Debug, Clone)]
pub struct LineResponse {
    /// The one-line JSON response body.
    pub body: String,
    /// Whether this line asked the server to stop.
    pub shutdown: bool,
}

/// A cached result: the canonical request text (collision guard), the
/// typed report it produced, and the report's renderings memoised per
/// format. The cache key is format-blind, so one entry serves every
/// `format`; the first request in a given format pays one render, every
/// later hit in that format replays the stored bytes — which is what makes
/// warm requests cheap on a wall clock, not just in the virtual model.
struct CachedResult {
    canonical: String,
    report: Report,
    rendered: Vec<(Format, String)>,
}

impl CachedResult {
    /// The rendering of this report in `format`, memoised.
    fn rendered_for(&mut self, format: Format) -> String {
        if let Some((_, bytes)) = self.rendered.iter().find(|(f, _)| *f == format) {
            return bytes.clone();
        }
        let bytes = self.report.render(format);
        self.rendered.push((format, bytes.clone()));
        bytes
    }
}

/// The evaluation service. See the module docs.
pub struct Service {
    lookup: ExperimentLookup,
    config: ServeConfig,
    cache: Mutex<LruCache<u64, CachedResult>>,
    stats: ServiceStats,
}

/// Phase-1 verdict for one burst line.
enum Plan {
    /// Response fully determined in phase 1.
    Ready(ServedRequest),
    /// Cache miss: evaluate in phase 2 (index into the job list).
    Evaluate(usize),
    /// Duplicate of an earlier miss in the same burst: resolve from the
    /// cache in phase 3, after the first occurrence lands. Boxed like
    /// [`Command::Run`] to keep the enum small.
    Follow { key: u64, req: Box<RunRequest> },
}

/// One phase-2 evaluation job.
struct EvalJob {
    req: RunRequest,
    trials: usize,
    key: u64,
    canonical: String,
}

impl Service {
    /// A service over the given experiment lookup and configuration.
    #[must_use]
    pub fn new(lookup: ExperimentLookup, config: ServeConfig) -> Self {
        Service {
            lookup,
            config,
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            stats: ServiceStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Serve one protocol line (the TCP and `--once` path).
    pub fn handle_line(&self, line: &str) -> LineResponse {
        match parse_command(line) {
            Err(detail) => self.bad_request(&detail),
            Ok(Command::Stats) => {
                self.stats.stats_requests.fetch_add(1, Ordering::SeqCst);
                LineResponse {
                    body: self.stats.snapshot().render_json(),
                    shutdown: false,
                }
            }
            Ok(Command::Shutdown) => {
                self.stats.shutdown_requests.fetch_add(1, Ordering::SeqCst);
                LineResponse {
                    body: "{\"status\":\"ok\",\"shutdown\":true}".to_string(),
                    shutdown: true,
                }
            }
            Ok(Command::Run(req)) => {
                let served = self.serve_run(*req);
                LineResponse {
                    body: served.response,
                    shutdown: false,
                }
            }
        }
    }

    /// Answer a line that is not a request with a `bad-request` error, and
    /// count it in `errors`.
    pub(crate) fn bad_request(&self, detail: &str) -> LineResponse {
        self.stats.errors.fetch_add(1, Ordering::SeqCst);
        LineResponse {
            body: error_response("bad-request", detail),
            shutdown: false,
        }
    }

    /// Serve one admitted-or-shed run request against the live gauge.
    fn serve_run(&self, req: RunRequest) -> ServedRequest {
        let depth = self.stats.enter();
        if depth > self.config.max_in_flight as u64 {
            self.stats.leave();
            return self.shed(&req);
        }
        let served = match self.prepare(&req) {
            Err(served) => served,
            Ok((trials, key, canonical)) => {
                if let Some(served) = self.try_hit(&req, key, &canonical) {
                    served
                } else {
                    let clock = self.config.clock;
                    let ((report, rendered), service_ns) =
                        clock.time(clock.miss_cost_ns(trials), || {
                            let report =
                                self.evaluate(&req, trials, Executor::from_jobs(self.config.jobs));
                            let rendered = report.render(req.format);
                            (report, rendered)
                        });
                    self.finish_miss(&req, key, canonical, report, rendered, service_ns)
                }
            }
        };
        self.stats.leave();
        served
    }

    /// Serve a batch of concurrent requests deterministically, returning
    /// one [`ServedRequest`] per line in order. `executor` spreads cache
    /// misses over worker threads; every other phase is sequential, so the
    /// outputs and counters never depend on the thread count.
    ///
    /// Only run requests are meaningful in a burst; `stats`/`shutdown`
    /// lines are answered with a `bad-request` error.
    ///
    /// When `rec` is enabled, each request's lifecycle is replayed onto the
    /// `serve` track after the burst is served, stamped with the charged
    /// service time. Recording never changes the responses: pass
    /// [`qla_obs::Noop`] for an unrecorded burst.
    pub fn handle_burst(
        &self,
        lines: &[String],
        executor: &Executor,
        rec: &mut dyn Recorder,
    ) -> Vec<ServedRequest> {
        let base = self.stats.service_ns.load(Ordering::SeqCst);
        // Phase 1: parse, admit, and look up sequentially in line order.
        let mut plans: Vec<Plan> = Vec::with_capacity(lines.len());
        let mut jobs: Vec<EvalJob> = Vec::new();
        let mut admitted: usize = 0;
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for line in lines {
                let req = match parse_command(line) {
                    Err(detail) => {
                        self.stats.errors.fetch_add(1, Ordering::SeqCst);
                        plans.push(Plan::Ready(ServedRequest {
                            response: error_response("bad-request", &detail),
                            outcome: Outcome::Error,
                            service_ns: 0,
                        }));
                        continue;
                    }
                    Ok(Command::Run(req)) => *req,
                    Ok(_) => {
                        self.stats.errors.fetch_add(1, Ordering::SeqCst);
                        plans.push(Plan::Ready(ServedRequest {
                            response: error_response(
                                "bad-request",
                                "only run requests are allowed in a burst",
                            ),
                            outcome: Outcome::Error,
                            service_ns: 0,
                        }));
                        continue;
                    }
                };
                if admitted == self.config.max_in_flight {
                    plans.push(Plan::Ready(self.shed(&req)));
                    continue;
                }
                admitted += 1;
                let depth = self.stats.enter();
                debug_assert!(depth <= self.config.max_in_flight as u64);
                let (trials, key, canonical) = match self.prepare(&req) {
                    Err(served) => {
                        self.stats.leave();
                        admitted -= 1;
                        plans.push(Plan::Ready(served));
                        continue;
                    }
                    Ok(resolved) => resolved,
                };
                let hit = match cache.get_mut(&key) {
                    Some(entry) if entry.canonical == canonical => {
                        let format = req.format;
                        Some(self.hit_response(&req, || entry.rendered_for(format)))
                    }
                    _ => None,
                };
                if let Some(served) = hit {
                    plans.push(Plan::Ready(served));
                    // Hits are served synchronously within this phase, so
                    // they exit the gauge immediately (but still consumed an
                    // admission slot for the burst).
                    self.stats.leave();
                } else if jobs
                    .iter()
                    .any(|j| j.key == key && j.canonical == canonical)
                {
                    plans.push(Plan::Follow {
                        key,
                        req: Box::new(req),
                    });
                } else {
                    plans.push(Plan::Evaluate(jobs.len()));
                    jobs.push(EvalJob {
                        req,
                        trials,
                        key,
                        canonical,
                    });
                }
            }
        }

        // Phase 2: evaluate the misses in parallel; results come back in
        // job order regardless of scheduling.
        let clock = self.config.clock;
        let results: Vec<((Report, String), u64)> = executor.map(&jobs, |_, job| {
            clock.time(clock.miss_cost_ns(job.trials), || {
                let report = self.evaluate(&job.req, job.trials, Executor::SEQUENTIAL);
                let rendered = report.render(job.req.format);
                (report, rendered)
            })
        });

        // Phase 3: insert and respond sequentially in line order.
        let mut responses = Vec::with_capacity(plans.len());
        for plan in plans {
            match plan {
                Plan::Ready(served) => responses.push(served),
                Plan::Evaluate(index) => {
                    let job = &jobs[index];
                    let ((report, rendered), service_ns) = &results[index];
                    responses.push(self.finish_miss(
                        &job.req,
                        job.key,
                        job.canonical.clone(),
                        report.clone(),
                        rendered.clone(),
                        *service_ns,
                    ));
                    self.stats.leave();
                }
                Plan::Follow { key, req } => {
                    let mut cache = self.cache.lock().expect("cache lock poisoned");
                    let entry = cache
                        .get_mut(&key)
                        .expect("followed key was inserted this burst");
                    let format = req.format;
                    let served = self.hit_response(&req, || entry.rendered_for(format));
                    drop(cache);
                    responses.push(served);
                    self.stats.leave();
                }
            }
        }
        if rec.enabled() {
            record_burst(rec, base, &responses);
        }
        responses
    }

    /// Resolve the experiment and canonical key, or build the error reply.
    fn prepare(&self, req: &RunRequest) -> Result<(usize, u64, String), ServedRequest> {
        let Some(experiment) = (self.lookup)(&req.experiment) else {
            self.stats.errors.fetch_add(1, Ordering::SeqCst);
            return Err(ServedRequest {
                response: error_response(
                    "unknown-experiment",
                    &format!("no experiment named \"{}\"", req.experiment),
                ),
                outcome: Outcome::Error,
                service_ns: 0,
            });
        };
        let trials = req.trials.unwrap_or_else(|| experiment.default_trials());
        let canonical = req.canonical_key(trials);
        let key = content_hash(canonical.as_bytes());
        Ok((trials, key, canonical))
    }

    /// Answer from the cache if possible (the single-request path).
    fn try_hit(&self, req: &RunRequest, key: u64, canonical: &str) -> Option<ServedRequest> {
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        let entry = match cache.get_mut(&key) {
            Some(entry) if entry.canonical == canonical => entry,
            _ => return None,
        };
        let format = req.format;
        Some(self.hit_response(req, || entry.rendered_for(format)))
    }

    /// Account a cache hit: time the (memoised) rendering lookup and wrap
    /// it in the response envelope.
    fn hit_response(&self, req: &RunRequest, rendered: impl FnOnce() -> String) -> ServedRequest {
        let clock = self.config.clock;
        let (rendered, service_ns) = clock.time(clock.hit_cost_ns(), rendered);
        self.stats.requests.fetch_add(1, Ordering::SeqCst);
        self.stats.hits.fetch_add(1, Ordering::SeqCst);
        self.stats
            .service_ns
            .fetch_add(service_ns, Ordering::SeqCst);
        self.stats.record_hit_ns(service_ns);
        ServedRequest {
            response: ok_response(&req.experiment, req.format, &rendered),
            outcome: Outcome::Hit,
            service_ns,
        }
    }

    /// Run the experiment for a cache miss.
    fn evaluate(&self, req: &RunRequest, trials: usize, executor: Executor) -> Report {
        let experiment = (self.lookup)(&req.experiment).expect("resolved in prepare");
        let ctx = ExperimentContext::new(trials, req.seed)
            .with_spec(req.spec.clone())
            .with_executor(executor);
        experiment.run_report(&ctx)
    }

    /// Insert a freshly computed (and already rendered) report and build
    /// its response.
    fn finish_miss(
        &self,
        req: &RunRequest,
        key: u64,
        canonical: String,
        report: Report,
        rendered: String,
        service_ns: u64,
    ) -> ServedRequest {
        let entry = CachedResult {
            canonical,
            report,
            rendered: vec![(req.format, rendered.clone())],
        };
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        if cache.insert(key, entry).is_some() {
            self.stats.evictions.fetch_add(1, Ordering::SeqCst);
        }
        drop(cache);
        self.stats.requests.fetch_add(1, Ordering::SeqCst);
        self.stats.misses.fetch_add(1, Ordering::SeqCst);
        self.stats
            .service_ns
            .fetch_add(service_ns, Ordering::SeqCst);
        self.stats.record_miss_ns(service_ns);
        ServedRequest {
            response: ok_response(&req.experiment, req.format, &rendered),
            outcome: Outcome::Miss,
            service_ns,
        }
    }

    /// Account and build an `overloaded` rejection.
    fn shed(&self, req: &RunRequest) -> ServedRequest {
        self.stats.shed.fetch_add(1, Ordering::SeqCst);
        ServedRequest {
            response: error_response(
                "overloaded",
                &format!(
                    "request for \"{}\" shed: {} requests already in flight",
                    req.experiment, self.config.max_in_flight
                ),
            ),
            outcome: Outcome::Shed,
            service_ns: 0,
        }
    }
}

/// Replay a served burst's request lifecycles onto the `serve` track in
/// line order — `admit → lookup-hit | (lookup-miss, evaluate) → render` for
/// accepted requests, a lone `shed`/`error` instant otherwise.
///
/// Timestamps are the running total of charged service time, starting from
/// the service's cumulative `service_ns` at burst entry (`base`), so under
/// the default virtual clock the recorded log is a byte-deterministic
/// function of the request sequence — independent of thread count and wall
/// time — while under a wall clock it degrades gracefully to measured
/// durations.
fn record_burst(rec: &mut dyn Recorder, base: u64, served: &[ServedRequest]) {
    let mut cursor = base;
    for request in served {
        match request.outcome {
            Outcome::Shed => rec.instant("serve", "shed", cursor),
            Outcome::Error => rec.instant("serve", "error", cursor),
            Outcome::Hit => {
                rec.instant("serve", "admit", cursor);
                rec.span("serve", "lookup-hit", cursor, request.service_ns);
                cursor += request.service_ns;
                rec.instant("serve", "render", cursor);
            }
            Outcome::Miss => {
                rec.instant("serve", "admit", cursor);
                rec.instant("serve", "lookup-miss", cursor);
                rec.span("serve", "evaluate", cursor, request.service_ns);
                cursor += request.service_ns;
                rec.instant("serve", "render", cursor);
            }
        }
    }
}

/// The fixed-key-order success envelope.
fn ok_response(experiment: &str, format: Format, rendered: &str) -> String {
    format!(
        "{{\"status\":\"ok\",\"experiment\":{},\"format\":\"{}\",\"report\":{}}}",
        json_escape(experiment),
        format_name(format),
        json_escape(rendered),
    )
}

/// The fixed-key-order error envelope.
fn error_response(kind: &str, detail: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"error\":\"{kind}\",\"detail\":{}}}",
        json_escape(detail)
    )
}

fn format_name(format: Format) -> &'static str {
    match format {
        Format::Text => "text",
        Format::Json => "json",
        Format::Csv => "csv",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use qla_core::Experiment;
    use qla_obs::Noop;
    use qla_report::Column;

    /// A deterministic toy experiment: one seed-and-trials-dependent value.
    struct Echo;

    impl Experiment for Echo {
        type Output = u64;
        fn name(&self) -> &'static str {
            "echo"
        }
        fn title(&self) -> &'static str {
            "Echo"
        }
        fn description(&self) -> &'static str {
            "toy"
        }
        fn default_trials(&self) -> usize {
            8
        }
        fn run(&self, ctx: &ExperimentContext) -> u64 {
            ctx.derived_seed(ctx.trials as u64)
        }
        fn report(&self, ctx: &ExperimentContext, output: &u64) -> Report {
            let mut r = Report::new("echo", "Echo")
                .with_param("trials", ctx.trials)
                .with_column(Column::new("value"));
            r.push_row(qla_report::row![*output]);
            r
        }
    }

    fn lookup() -> ExperimentLookup {
        Box::new(|name| (name == "echo").then(|| Box::new(Echo) as Box<dyn DynExperiment>))
    }

    fn service(config: ServeConfig) -> Service {
        Service::new(lookup(), config)
    }

    #[test]
    fn identical_requests_hit_the_cache_with_identical_bytes() {
        let svc = service(ServeConfig::default());
        let line = r#"{"experiment": "echo", "seed": 5}"#;
        let cold = svc.handle_line(line);
        let warm = svc.handle_line(line);
        assert_eq!(cold.body, warm.body, "cached responses must be identical");
        let snap = svc.stats();
        assert_eq!((snap.requests, snap.hits, snap.misses), (2, 1, 1));
        // The envelope deliberately carries no hit/miss marker.
        assert!(!cold.body.contains("hit") && !cold.body.contains("miss"));
        // And the embedded report is valid JSON with the experiment name.
        let parsed = Json::parse(&cold.body).unwrap();
        assert_eq!(parsed.field("status").unwrap().as_str(), Some("ok"));
        assert_eq!(parsed.field("experiment").unwrap().as_str(), Some("echo"));
    }

    #[test]
    fn different_seeds_trials_and_specs_miss_separately() {
        let svc = service(ServeConfig::default());
        for line in [
            r#"{"experiment": "echo", "seed": 1}"#,
            r#"{"experiment": "echo", "seed": 2}"#,
            r#"{"experiment": "echo", "seed": 1, "trials": 9}"#,
            r#"{"experiment": "echo", "seed": 1, "profile": "current"}"#,
        ] {
            svc.handle_line(line);
        }
        let snap = svc.stats();
        assert_eq!((snap.hits, snap.misses), (0, 4));
    }

    #[test]
    fn format_is_not_part_of_the_cache_key() {
        let svc = service(ServeConfig::default());
        svc.handle_line(r#"{"experiment": "echo", "format": "json"}"#);
        let text = svc.handle_line(r#"{"experiment": "echo", "format": "text"}"#);
        let snap = svc.stats();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert!(text.body.contains("\"format\":\"text\""));
    }

    #[test]
    fn unknown_experiments_and_bad_lines_are_typed_errors() {
        let svc = service(ServeConfig::default());
        let unknown = svc.handle_line(r#"{"experiment": "nope"}"#);
        assert!(unknown.body.contains("\"error\":\"unknown-experiment\""));
        let bad = svc.handle_line("{");
        assert!(bad.body.contains("\"error\":\"bad-request\""));
        assert_eq!(svc.stats().errors, 2);
        assert_eq!(svc.stats().requests, 0);
    }

    #[test]
    fn stats_and_shutdown_lines_round_trip() {
        let svc = service(ServeConfig::default());
        let stats = svc.handle_line(r#"{"cmd": "stats"}"#);
        assert!(stats.body.starts_with("{\"status\":\"ok\",\"requests\":0,"));
        assert!(!stats.shutdown);
        let bye = svc.handle_line(r#"{"cmd": "shutdown"}"#);
        assert!(bye.shutdown);
        assert_eq!(bye.body, "{\"status\":\"ok\",\"shutdown\":true}");
    }

    #[test]
    fn burst_admission_sheds_beyond_max_in_flight() {
        let svc = service(ServeConfig {
            max_in_flight: 2,
            ..ServeConfig::default()
        });
        let lines: Vec<String> = (0..4)
            .map(|i| format!("{{\"experiment\": \"echo\", \"seed\": {i}}}"))
            .collect();
        let served = svc.handle_burst(&lines, &Executor::SEQUENTIAL, &mut Noop);
        let outcomes: Vec<Outcome> = served.iter().map(|s| s.outcome).collect();
        assert_eq!(
            outcomes,
            vec![Outcome::Miss, Outcome::Miss, Outcome::Shed, Outcome::Shed]
        );
        assert!(served[2].response.contains("\"error\":\"overloaded\""));
        let snap = svc.stats();
        assert_eq!((snap.requests, snap.shed, snap.in_flight), (2, 2, 0));
        assert_eq!(snap.peak_in_flight, 2);
    }

    #[test]
    fn burst_results_are_thread_count_invariant() {
        let lines: Vec<String> = (0..12)
            .map(|i| format!("{{\"experiment\": \"echo\", \"seed\": {}}}", i % 5))
            .collect();
        let serve_with = |executor: Executor| {
            let svc = service(ServeConfig::default());
            let served = svc.handle_burst(&lines, &executor, &mut Noop);
            let bodies: Vec<String> = served.iter().map(|s| s.response.clone()).collect();
            (bodies, svc.stats())
        };
        let (seq_bodies, seq_stats) = serve_with(Executor::SEQUENTIAL);
        for jobs in [2usize, 8] {
            let (par_bodies, par_stats) = serve_with(Executor::from_jobs(jobs));
            assert_eq!(par_bodies, seq_bodies, "{jobs} jobs");
            assert_eq!(par_stats, seq_stats, "{jobs} jobs");
        }
        // 5 distinct requests evaluated, 7 duplicates followed as hits.
        assert_eq!((seq_stats.misses, seq_stats.hits), (5, 7));
    }

    #[test]
    fn burst_duplicates_hit_within_a_single_burst() {
        let svc = service(ServeConfig::default());
        let line = r#"{"experiment": "echo"}"#.to_string();
        let served = svc.handle_burst(&[line.clone(), line], &Executor::SEQUENTIAL, &mut Noop);
        assert_eq!(served[0].outcome, Outcome::Miss);
        assert_eq!(served[1].outcome, Outcome::Hit);
        assert_eq!(served[0].response, served[1].response);
    }

    #[test]
    fn burst_rejects_control_commands() {
        let svc = service(ServeConfig::default());
        let served = svc.handle_burst(
            &["{\"cmd\": \"shutdown\"}".to_string()],
            &Executor::SEQUENTIAL,
            &mut Noop,
        );
        assert_eq!(served[0].outcome, Outcome::Error);
        assert!(served[0].response.contains("only run requests"));
    }

    #[test]
    fn eviction_is_counted_and_evicted_keys_recompute() {
        let svc = service(ServeConfig {
            cache_capacity: 2,
            ..ServeConfig::default()
        });
        for seed in [1, 2, 3] {
            svc.handle_line(&format!("{{\"experiment\": \"echo\", \"seed\": {seed}}}"));
        }
        assert_eq!(svc.stats().evictions, 1);
        // Seed 1 was evicted; serving it again is a miss, not a hit.
        svc.handle_line(r#"{"experiment": "echo", "seed": 1}"#);
        let snap = svc.stats();
        assert_eq!((snap.hits, snap.misses), (0, 4));
    }

    #[test]
    fn recorded_bursts_serve_identically_and_log_the_lifecycle() {
        use qla_obs::{EventLog, ObsConfig};
        let lines: Vec<String> = (0..5)
            .map(|i| format!("{{\"experiment\": \"echo\", \"seed\": {}}}", i % 2))
            .collect();
        let plain_svc = service(ServeConfig::default());
        let plain = plain_svc.handle_burst(&lines, &Executor::SEQUENTIAL, &mut Noop);

        let svc = service(ServeConfig::default());
        let mut log = EventLog::for_point(ObsConfig::full(), "pass");
        let recorded = svc.handle_burst(&lines, &Executor::SEQUENTIAL, &mut log);
        let bodies = |served: &[ServedRequest]| -> Vec<String> {
            served.iter().map(|s| s.response.clone()).collect()
        };
        assert_eq!(bodies(&recorded), bodies(&plain));

        // 2 misses + 3 in-burst hits: one admit + render per accepted
        // request, with the lookup classified per outcome.
        let named = |name: &str| log.events().iter().filter(|e| e.name == name).count();
        assert_eq!(named("admit"), 5);
        assert_eq!(named("render"), 5);
        assert_eq!(named("lookup-miss"), 2);
        assert_eq!(named("evaluate"), 2);
        assert_eq!(named("lookup-hit"), 3);

        // Same burst again on a fresh service: byte-identical log.
        let svc2 = service(ServeConfig::default());
        let mut log2 = EventLog::for_point(ObsConfig::full(), "pass");
        let _ = svc2.handle_burst(&lines, &Executor::SEQUENTIAL, &mut log2);
        assert_eq!(log, log2);

        // And a disabled recorder records nothing while serving the same.
        let svc3 = service(ServeConfig::default());
        let mut off = EventLog::off();
        let silent = svc3.handle_burst(&lines, &Executor::SEQUENTIAL, &mut off);
        assert_eq!(bodies(&silent), bodies(&plain));
        assert!(off.events().is_empty());
    }

    #[test]
    fn endpoint_counters_track_stats_and_shutdown() {
        let svc = service(ServeConfig::default());
        svc.handle_line(r#"{"cmd": "stats"}"#);
        svc.handle_line(r#"{"cmd": "stats"}"#);
        svc.handle_line(r#"{"cmd": "shutdown"}"#);
        let snap = svc.stats();
        // The first poll saw one stats request already counted.
        assert_eq!(snap.stats_requests, 2);
        assert_eq!(snap.shutdown_requests, 1);
        let rendered = snap.render_json();
        assert!(rendered.contains("\"stats_requests\":2"));
        assert!(rendered.contains("\"shutdown_requests\":1"));
    }

    #[test]
    fn service_time_percentiles_split_by_class() {
        let svc = service(ServeConfig::default());
        let line = r#"{"experiment": "echo", "trials": 100}"#.to_string();
        let _ = svc.handle_burst(&[line.clone(), line], &Executor::SEQUENTIAL, &mut Noop);
        let snap = svc.stats();
        assert_eq!(snap.hit_p50_ns, crate::clock::VIRTUAL_HIT_NS);
        assert_eq!(snap.hit_p99_ns, crate::clock::VIRTUAL_HIT_NS);
        let miss =
            crate::clock::VIRTUAL_MISS_BASE_NS + 100 * crate::clock::VIRTUAL_MISS_PER_TRIAL_NS;
        assert_eq!(snap.miss_p50_ns, miss);
        assert_eq!(snap.miss_p99_ns, miss);
    }

    #[test]
    fn virtual_service_times_separate_hits_from_misses() {
        let svc = service(ServeConfig::default());
        let line = r#"{"experiment": "echo", "trials": 100}"#.to_string();
        let served = svc.handle_burst(&[line.clone(), line], &Executor::SEQUENTIAL, &mut Noop);
        assert!(served[0].service_ns > 100 * served[1].service_ns);
        assert_eq!(
            served[0].service_ns,
            crate::clock::VIRTUAL_MISS_BASE_NS + 100 * crate::clock::VIRTUAL_MISS_PER_TRIAL_NS
        );
        assert_eq!(served[1].service_ns, crate::clock::VIRTUAL_HIT_NS);
    }
}
