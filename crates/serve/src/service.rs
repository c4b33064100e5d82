//! The evaluation service: one request pipeline with two callers.
//!
//! A [`Service`] owns the LRU result cache, the counters and the experiment
//! lookup. Every run request goes through the same three phases:
//!
//! 1. **Admit and look up**, in line order under the service lock. A
//!    request is shed with an `overloaded` error when
//!    [`ServeConfig::max_in_flight`] requests are already in flight.
//!    Otherwise it takes an in-flight slot and is answered from the cache,
//!    follows an earlier miss of the same batch, or becomes a miss.
//! 2. **Evaluate the misses**, without the lock, through an [`Executor`]:
//!    several misses share its workers, and a lone miss gets all of them.
//! 3. **Insert and respond**, in line order under the lock. Each miss is
//!    cached, each admitted request is counted, and its slot is released
//!    as its response is built.
//!
//! Two callers feed the pipeline:
//!
//! * [`Service::handle_line`] serves one protocol line, for the TCP server
//!   and `--once` mode. A run request is a batch of one, evaluated on the
//!   [`ServeConfig::jobs`] pool; `stats` and `shutdown` are answered
//!   directly.
//! * [`Service::handle_burst`] serves a batch of concurrent requests, for
//!   the `serve-load` experiment. With nothing else in flight, the
//!   responses, the cache state and every counter are a pure function of
//!   the request sequence, independent of thread count.
//!
//! Malformed lines and unknown experiments are errors before admission, so
//! they never take a slot. The counters ([`StatsSnapshot`]) and the
//! service-time samples sit with the cache under the one lock: a request's
//! accounting is one critical section, and a `stats` line always shows
//! `hits + misses == requests`.
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
use crate::stats::StatsSnapshot;
use qla_core::{content_hash, DynExperiment, Executor, ExperimentContext, LruCache};
use qla_obs::{Noop, Recorder};
use qla_report::{json_escape, Format, Report};
use std::sync::{Mutex, MutexGuard};

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

/// Everything the service lock guards: the cache, the counters, and the
/// service-time samples the counters' percentiles summarise.
struct State {
    cache: LruCache<u64, CachedResult>,
    stats: StatsSnapshot,
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
}

impl State {
    /// Count an admitted request as served and release its slot.
    fn answered(&mut self, served: &ServedRequest) {
        let stats = &mut self.stats;
        stats.requests += 1;
        stats.service_ns += served.service_ns;
        if served.outcome == Outcome::Hit {
            stats.hits += 1;
            self.hit_ns.push(served.service_ns);
        } else {
            stats.misses += 1;
            self.miss_ns.push(served.service_ns);
        }
        stats.leave();
    }
}

/// The evaluation service. See the module docs.
pub struct Service {
    lookup: ExperimentLookup,
    config: ServeConfig,
    state: Mutex<State>,
}

/// A run request resolved against the registry, ready for admission.
struct Job {
    req: RunRequest,
    trials: usize,
    key: u64,
    canonical: String,
}

/// Phase-1 verdict for one line.
enum Plan {
    /// Answered without a slot: an error or a shed.
    Done(ServedRequest),
    /// A cache hit, answered in phase 1; its slot is released and it is
    /// counted in phase 3.
    Hit(ServedRequest),
    /// A miss: evaluate job `index` in phase 2.
    Evaluate(usize),
    /// A duplicate of the miss `job` earlier in the same batch, answered
    /// in `format` from its result in phase 3.
    Follow { job: usize, format: Format },
}

impl Service {
    /// A service over the given experiment lookup and configuration.
    #[must_use]
    pub fn new(lookup: ExperimentLookup, config: ServeConfig) -> Self {
        Service {
            lookup,
            config,
            state: Mutex::new(State {
                cache: LruCache::new(config.cache_capacity),
                stats: StatsSnapshot::default(),
                hit_ns: Vec::new(),
                miss_ns: Vec::new(),
            }),
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
        let state = self.state();
        let (stats, hit_ns, miss_ns) = (state.stats, state.hit_ns.clone(), state.miss_ns.clone());
        drop(state);
        stats.with_percentiles(hit_ns, miss_ns)
    }

    /// Serve one protocol line (the TCP and `--once` path).
    pub fn handle_line(&self, line: &str) -> LineResponse {
        let body = match parse_command(line) {
            Err(detail) => return self.bad_request(&detail),
            Ok(Command::Stats) => {
                self.state().stats.stats_requests += 1;
                self.stats().render_json()
            }
            Ok(Command::Shutdown) => {
                self.state().stats.shutdown_requests += 1;
                return LineResponse {
                    body: "{\"status\":\"ok\",\"shutdown\":true}".to_string(),
                    shutdown: true,
                };
            }
            Ok(Command::Run(req)) => {
                let executor = Executor::from_jobs(self.config.jobs);
                let mut served = self.serve_runs(vec![Ok(*req)], &executor, &mut Noop);
                served.pop().expect("one response per request").response
            }
        };
        LineResponse {
            body,
            shutdown: false,
        }
    }

    /// Answer a line that is not a request with a `bad-request` error, and
    /// count it in `errors`.
    pub(crate) fn bad_request(&self, detail: &str) -> LineResponse {
        self.state().stats.errors += 1;
        LineResponse {
            body: error_response("bad-request", detail),
            shutdown: false,
        }
    }

    /// Serve a batch of concurrent requests, returning one
    /// [`ServedRequest`] per line in order. `executor` spreads cache misses
    /// over worker threads; every other phase is sequential, so the
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
        let requests = lines
            .iter()
            .map(|line| match parse_command(line)? {
                Command::Run(req) => Ok(*req),
                _ => Err("only run requests are allowed in a burst".to_string()),
            })
            .collect();
        self.serve_runs(requests, executor, rec)
    }

    /// The pipeline (see the module docs) over parsed run requests, or the
    /// `bad-request` detail of lines that are not one.
    fn serve_runs(
        &self,
        requests: Vec<Result<RunRequest, String>>,
        executor: &Executor,
        rec: &mut dyn Recorder,
    ) -> Vec<ServedRequest> {
        let clock = self.config.clock;
        // Resolve each request against the registry before taking the
        // lock: what cannot be served is an error at any load.
        let resolved: Vec<Result<Job, String>> = requests
            .into_iter()
            .map(|request| self.resolve(request))
            .collect();

        // Phase 1: admit and look up, in line order.
        let mut state = self.state();
        let base = state.stats.service_ns;
        let mut jobs: Vec<Job> = Vec::new();
        let mut plans = Vec::with_capacity(resolved.len());
        for job in resolved {
            let job = match job {
                Err(response) => {
                    state.stats.errors += 1;
                    plans.push(Plan::Done(ServedRequest {
                        response,
                        outcome: Outcome::Error,
                        service_ns: 0,
                    }));
                    continue;
                }
                Ok(job) => job,
            };
            if state.stats.in_flight >= self.config.max_in_flight as u64 {
                state.stats.shed += 1;
                plans.push(Plan::Done(self.shed(&job.req)));
                continue;
            }
            state.stats.enter();
            let format = job.req.format;
            let plan = match state.cache.get_mut(&job.key) {
                Some(entry) if entry.canonical == job.canonical => {
                    let (rendered, service_ns) =
                        clock.time(clock.hit_cost_ns(), || entry.rendered_for(format));
                    Plan::Hit(ServedRequest {
                        response: ok_response(&job.req.experiment, format, &rendered),
                        outcome: Outcome::Hit,
                        service_ns,
                    })
                }
                _ => match jobs
                    .iter()
                    .position(|j| j.key == job.key && j.canonical == job.canonical)
                {
                    Some(first) => Plan::Follow { job: first, format },
                    None => {
                        jobs.push(job);
                        Plan::Evaluate(jobs.len() - 1)
                    }
                },
            };
            plans.push(plan);
        }
        drop(state);

        // Phase 2: evaluate the misses without the lock; results come back
        // in job order regardless of scheduling.
        let results: Vec<((Report, String), u64)> = match jobs.as_slice() {
            [job] => vec![self.evaluate(job, *executor)],
            _ => executor.map(&jobs, |_, job| self.evaluate(job, Executor::SEQUENTIAL)),
        };

        // Phase 3: insert and respond, in line order.
        let mut state = self.state();
        let mut responses = Vec::with_capacity(plans.len());
        for plan in plans {
            let served = match plan {
                Plan::Done(served) => {
                    responses.push(served);
                    continue;
                }
                Plan::Hit(served) => served,
                Plan::Evaluate(index) => {
                    let job = &jobs[index];
                    let ((report, rendered), service_ns) = &results[index];
                    let entry = CachedResult {
                        canonical: job.canonical.clone(),
                        report: report.clone(),
                        rendered: vec![(job.req.format, rendered.clone())],
                    };
                    if state.cache.insert(job.key, entry).is_some() {
                        state.stats.evictions += 1;
                    }
                    ServedRequest {
                        response: ok_response(&job.req.experiment, job.req.format, rendered),
                        outcome: Outcome::Miss,
                        service_ns: *service_ns,
                    }
                }
                Plan::Follow { job: index, format } => {
                    let job = &jobs[index];
                    let (rendered, service_ns) = clock.time(clock.hit_cost_ns(), || {
                        match state.cache.get_mut(&job.key) {
                            Some(entry) if entry.canonical == job.canonical => {
                                entry.rendered_for(format)
                            }
                            // Evicted again by a later miss of this batch.
                            _ => {
                                let ((report, _), _) = &results[index];
                                report.render(format)
                            }
                        }
                    });
                    ServedRequest {
                        response: ok_response(&job.req.experiment, format, &rendered),
                        outcome: Outcome::Hit,
                        service_ns,
                    }
                }
            };
            state.answered(&served);
            responses.push(served);
        }
        drop(state);
        if rec.enabled() {
            record_burst(rec, base, &responses);
        }
        responses
    }

    /// The service lock.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service lock poisoned")
    }

    /// Resolve the experiment and canonical key, or build the error reply.
    fn resolve(&self, request: Result<RunRequest, String>) -> Result<Job, String> {
        let req = request.map_err(|detail| error_response("bad-request", &detail))?;
        let Some(experiment) = (self.lookup)(&req.experiment) else {
            return Err(error_response(
                "unknown-experiment",
                &format!("no experiment named \"{}\"", req.experiment),
            ));
        };
        let trials = req.trials.unwrap_or_else(|| experiment.default_trials());
        let canonical = req.canonical_key(trials);
        let key = content_hash(canonical.as_bytes());
        Ok(Job {
            req,
            trials,
            key,
            canonical,
        })
    }

    /// Run and render the experiment for a cache miss, charging its
    /// service time.
    fn evaluate(&self, job: &Job, executor: Executor) -> ((Report, String), u64) {
        let clock = self.config.clock;
        clock.time(clock.miss_cost_ns(job.trials), || {
            let experiment = (self.lookup)(&job.req.experiment).expect("resolved before admission");
            let ctx = ExperimentContext::new(job.trials, job.req.seed)
                .with_spec(job.req.spec.clone())
                .with_executor(executor);
            let report = experiment.run_report(&ctx);
            let rendered = report.render(job.req.format);
            (report, rendered)
        })
    }

    /// Build an `overloaded` rejection.
    fn shed(&self, req: &RunRequest) -> ServedRequest {
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
    use std::sync::Arc;

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

    /// A gate the test opens once; [`Held`] waits on it.
    type Gate = (Mutex<bool>, std::sync::Condvar);

    fn open(gate: &Gate) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    /// A toy experiment that blocks in `run` until its gate opens, so a
    /// test can hold an in-flight slot for as long as it likes.
    struct Held(Arc<Gate>);

    impl Experiment for Held {
        type Output = u64;
        fn name(&self) -> &'static str {
            "held"
        }
        fn title(&self) -> &'static str {
            "Held"
        }
        fn description(&self) -> &'static str {
            "blocks until released"
        }
        fn default_trials(&self) -> usize {
            1
        }
        fn run(&self, _ctx: &ExperimentContext) -> u64 {
            let (open, wake) = &*self.0;
            let _open = wake.wait_while(open.lock().unwrap(), |open| !*open);
            0
        }
        fn report(&self, _ctx: &ExperimentContext, output: &u64) -> Report {
            let mut r = Report::new("held", "Held").with_column(Column::new("value"));
            r.push_row(qla_report::row![*output]);
            r
        }
    }

    /// A service over `echo` plus a `held` experiment behind `gate`.
    fn gated_service(config: ServeConfig, gate: &Arc<Gate>) -> Service {
        let gate = Arc::clone(gate);
        Service::new(
            Box::new(move |name| match name {
                "echo" => Some(Box::new(Echo) as Box<dyn DynExperiment>),
                "held" => Some(Box::new(Held(Arc::clone(&gate))) as Box<dyn DynExperiment>),
                _ => None,
            }),
            config,
        )
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

    #[test]
    fn one_line_bursts_serve_exactly_like_handle_line() {
        // A seeded mix: duplicate echo requests in two formats (hits, and
        // evictions from a 2-entry cache), bad JSON, and an unknown
        // experiment.
        let lines: Vec<String> = (0..60u64)
            .map(|i| {
                let draw = qla_core::mix64(0x5eed + i);
                match draw % 8 {
                    0 => "{".to_string(),
                    1 => r#"{"experiment": "nope"}"#.to_string(),
                    _ => format!(
                        "{{\"experiment\": \"echo\", \"seed\": {}, \"format\": \"{}\"}}",
                        (draw >> 8) % 4,
                        ["json", "text"][((draw >> 16) % 2) as usize]
                    ),
                }
            })
            .collect();
        let config = ServeConfig {
            cache_capacity: 2,
            max_in_flight: 1,
            ..ServeConfig::default()
        };
        let run = |via_burst: bool| -> (Vec<String>, StatsSnapshot) {
            let gate = Arc::new(Gate::default());
            let svc = gated_service(config, &gate);
            let serve = |line: &str| -> String {
                if via_burst {
                    let mut served =
                        svc.handle_burst(&[line.to_string()], &Executor::SEQUENTIAL, &mut Noop);
                    served.remove(0).response
                } else {
                    svc.handle_line(line).body
                }
            };
            let mut bodies: Vec<String> = lines[..20].iter().map(|l| serve(l)).collect();
            std::thread::scope(|scope| {
                // A held request takes the only slot: every run request
                // of the middle third is shed, errors stay errors.
                let held = scope.spawn(|| serve(r#"{"experiment": "held"}"#));
                while svc.stats().in_flight == 0 {
                    std::thread::yield_now();
                }
                bodies.extend(lines[20..40].iter().map(|l| serve(l)));
                open(&gate);
                bodies.push(held.join().unwrap());
            });
            bodies.extend(lines[40..].iter().map(|l| serve(l)));
            (bodies, svc.stats())
        };
        let (line_bodies, line_stats) = run(false);
        let (burst_bodies, burst_stats) = run(true);
        assert_eq!(line_bodies, burst_bodies);
        assert_eq!(line_stats, burst_stats);
        let snap = line_stats;
        assert!(snap.hits > 0 && snap.misses > 0, "{snap:?}");
        assert!(
            snap.evictions > 0 && snap.shed > 0 && snap.errors > 0,
            "{snap:?}"
        );
        assert_eq!(snap.hits + snap.misses, snap.requests);
        assert_eq!((snap.in_flight, snap.peak_in_flight), (0, 1));
        assert_eq!(
            line_bodies
                .iter()
                .filter(|b| b.contains("\"error\":\"overloaded\""))
                .count() as u64,
            snap.shed
        );
    }

    #[test]
    fn burst_follows_survive_an_eviction_by_a_later_miss() {
        let svc = service(ServeConfig {
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        let lines: Vec<String> = [1, 2, 1]
            .iter()
            .map(|seed| format!("{{\"experiment\": \"echo\", \"seed\": {seed}}}"))
            .collect();
        let served = svc.handle_burst(&lines, &Executor::SEQUENTIAL, &mut Noop);
        let outcomes: Vec<Outcome> = served.iter().map(|s| s.outcome).collect();
        assert_eq!(outcomes, vec![Outcome::Miss, Outcome::Miss, Outcome::Hit]);
        assert_eq!(served[0].response, served[2].response);
        assert_eq!(svc.stats().evictions, 1);
    }
}
