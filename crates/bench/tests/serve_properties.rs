//! Property tests for the `qla-serve` evaluation service as wired to the
//! real experiment registry: any valid request, served twice, returns
//! byte-identical response lines — the cache-hit path is indistinguishable
//! from the cold path, whatever the experiment, profile, seed, trial
//! budget, or output format.

use proptest::prelude::*;
use qla_bench::registry;
use qla_serve::{serve_once, ServeConfig, Service};

/// Cheap registered experiments a property case can afford to run at a
/// tiny trial budget. (The heavyweights — the Monte-Carlo sweeps, the
/// scenario matrix, and `serve-load` itself — get their determinism
/// coverage from the golden and unit suites.)
const EXPERIMENTS: [&str; 5] = [
    "table1",
    "channel-bandwidth",
    "ecc-latency",
    "recursion-analysis",
    "fig9-connection",
];

const PROFILES: [&str; 4] = ["expected", "current", "relaxed-speed", "relaxed-failures"];
const FORMATS: [&str; 3] = ["text", "json", "csv"];

fn service() -> Service {
    Service::new(Box::new(registry::find), ServeConfig::default())
}

/// Serve `lines` against a fresh service and return one response line per
/// request line.
fn serve_lines(service: &Service, lines: &str) -> Vec<String> {
    let mut out = Vec::new();
    serve_once(service, lines.as_bytes(), &mut out).expect("in-memory serve cannot fail");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    text.lines().map(ToString::to_string).collect()
}

proptest! {
    // The core service contract: request → response is a pure function of
    // the request bytes. Serving the same line twice in one session must
    // yield byte-identical responses (second time from cache), and a fresh
    // cold service must produce those same bytes again.
    #[test]
    fn any_valid_request_served_twice_is_byte_identical(
        experiment_index in 0usize..EXPERIMENTS.len(),
        profile_index in 0usize..PROFILES.len(),
        format_index in 0usize..FORMATS.len(),
        seed in 0u64..10_000,
        trials in 1usize..5,
    ) {
        let request = format!(
            "{{\"experiment\": \"{}\", \"profile\": \"{}\", \"seed\": {seed}, \
             \"trials\": {trials}, \"format\": \"{}\"}}",
            EXPERIMENTS[experiment_index], PROFILES[profile_index], FORMATS[format_index],
        );
        let session = format!("{request}\n{request}\n");

        let warm = service();
        let responses = serve_lines(&warm, &session);
        prop_assert_eq!(responses.len(), 2);
        prop_assert_eq!(&responses[0], &responses[1], "hit path diverged from cold path");
        prop_assert!(responses[0].starts_with("{\"status\":\"ok\""), "{}", responses[0]);

        let stats = warm.stats();
        prop_assert_eq!(stats.requests, 2);
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.misses, 1);

        // A separate cold service reproduces the same bytes from scratch.
        let cold = serve_lines(&service(), &format!("{request}\n"));
        prop_assert_eq!(&cold[0], &responses[0], "fresh service diverged");
    }

    // Spelling the same machine as an inline spec instead of a profile
    // name must land in the same cache entry and return the same bytes:
    // the canonical key hashes the rendered spec, not the request text.
    #[test]
    fn profile_and_equivalent_inline_spec_share_a_cache_entry(
        experiment_index in 0usize..EXPERIMENTS.len(),
        profile_index in 0usize..PROFILES.len(),
        seed in 0u64..10_000,
    ) {
        let profile = PROFILES[profile_index];
        let spec = qla_core::MachineSpec::builtin(profile).expect("built-in");
        let inline = qla_report::json_escape(&spec.render());
        let by_profile = format!(
            "{{\"experiment\": \"{0}\", \"profile\": \"{profile}\", \"seed\": {seed}, \
             \"trials\": 2, \"format\": \"json\"}}",
            EXPERIMENTS[experiment_index],
        );
        let by_spec = format!(
            "{{\"experiment\": \"{0}\", \"spec\": {inline}, \"seed\": {seed}, \
             \"trials\": 2, \"format\": \"json\"}}",
            EXPERIMENTS[experiment_index],
        );

        let svc = service();
        let responses = serve_lines(&svc, &format!("{by_profile}\n{by_spec}\n"));
        prop_assert_eq!(&responses[0], &responses[1]);
        let stats = svc.stats();
        prop_assert_eq!(stats.hits, 1, "inline spec missed the profile's cache entry");
        prop_assert_eq!(stats.misses, 1);
    }
}

#[test]
fn an_inline_spec_past_the_simulator_clock_is_a_bad_request_and_serving_goes_on() {
    // 10^14 windows of fault onset overflow the simulator's u64
    // nanosecond clock: the spec is refused before `fault-sweep` runs,
    // and the next line is still answered.
    let mut spec = qla_core::MachineSpec::expected();
    spec.sweep.fault.onset_windows = 100_000_000_000_000;
    let inline = qla_report::json_escape(&spec.render());
    let responses = serve_lines(
        &service(),
        &format!(
            "{{\"experiment\": \"fault-sweep\", \"spec\": {inline}}}\n\
             {{\"experiment\": \"table1\"}}\n"
        ),
    );
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(
        responses[0].starts_with("{\"status\":\"error\",\"error\":\"bad-request\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[0].contains("overflows the simulator's u64 nanosecond clock"),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].starts_with("{\"status\":\"ok\""),
        "{}",
        responses[1]
    );
}
