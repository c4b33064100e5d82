//! The seeded `serve-mix` request stream and its LRU prediction.
//!
//! A stream is a fixed multiset of requests shuffled by the seed, so every
//! seed sends the same amount of each kind of work in a different order.
//! The seed also picks each hot key's request seed, each request's format
//! and whether a built-in profile travels by name or as inline spec text.
//!
//! * **Hot keys** (40): eight cheap experiments under five scenarios (the
//!   four built-in profiles plus one edited spec), with Zipf(1) popularity
//!   over 1,168 requests — the most popular key is asked ~280 times, the
//!   least popular at least twice. The rank → (experiment, scenario)
//!   assignment is fixed, so the popularity skew never moves an expensive
//!   key to the head for one seed and to the tail for another.
//! * **Registry one-shots** (20): every registry experiment once, at a
//!   fixed seed of its own, so each is a guaranteed miss and the whole
//!   registry is on the request path. Their seeds do not follow the
//!   stream seed: they are most of a pass's host time, and a seed that
//!   drew a heavier arrival stream would move `wall_s` with the seed.
//! * **Tail group** (12): `sim-offered-load` at one fixed seed under
//!   twelve renamed copies of `expected`. The name is part of the cache
//!   key, so each is a miss, and nothing else differs, so all twelve do
//!   the same work. With 1,200 requests the nearest-rank p99 is the 13th
//!   slowest request: below the six heaviest registry experiments
//!   (`trace-scaling`, `fault-sweep`, `multi-tenant-fairness`,
//!   `scheduler-utilization`, `sim-vs-analytic`, `trace-replay`) and above
//!   every hot miss, it falls in the middle of the thirteen
//!   `sim-offered-load` misses (the group plus the registry one-shot). The
//!   p99 therefore measures one sim-backed miss, not whichever of a mixed
//!   population of misses a seed happens to put at that rank.
//! * **Cache capacity 24**, below the 72 distinct keys (and below the 40
//!   hot ones), so one-shots and tail keys evict and hot keys re-miss.
//! * **Inline specs**: a quarter of the hot requests under a built-in
//!   profile, dealt out by the seed, carry the spec text instead of the
//!   profile name, which shares the cache entry (same canonical key) but
//!   puts spec parsing on the hit path; edited-spec and tail keys always
//!   travel inline. About a quarter of all requests carry inline text —
//!   enough to move the p50, too few to make it.
//! * **Formats**: exactly half json, 3/10 text and 1/5 csv, dealt out by
//!   the seed, so the first request of a key in a new format pays a render
//!   on a hit.
//!
//! The inline and format shares are exact rather than drawn per request:
//! inline hits are slower than every by-name hit, so a seed that drew a
//! few more of them would move the p50 with the seed.

use qla_core::MachineSpec;
use qla_report::json_escape;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Result-cache capacity of the server under test.
pub const CACHE_CAPACITY: usize = 24;
/// Requests to hot keys in one stream.
pub const HOT_REQUESTS: usize = 1168;
/// Cheap experiments of the hot set, with their trial budgets.
pub const HOT_EXPERIMENTS: [(&str, Option<usize>); 8] = [
    ("table1", None),
    ("ecc-latency", None),
    ("fig7-threshold", Some(200)),
    ("channel-bandwidth", None),
    ("recursion-analysis", None),
    ("table2-shor", None),
    ("fig9-connection", None),
    ("sensitivity", Some(200)),
];
/// Scenarios of the hot set, in popularity order; `None` is the edited
/// spec.
pub const HOT_SCENARIOS: [Option<&str>; 5] = [
    Some("expected"),
    Some("current"),
    Some("relaxed-failures"),
    Some("relaxed-speed"),
    None,
];
/// The experiment of the tail group, the identical misses that set the
/// p99.
pub const TAIL_EXPERIMENT: &str = "sim-offered-load";
/// Requests (and distinct keys) of the tail group.
pub const TAIL_REQUESTS: usize = 12;
/// The master seed of every tail request: disjoint from the hot seeds
/// (below 1,000,000) and the registry one-shot seeds.
pub const TAIL_SEED: u64 = 2_000_000;
/// Trial budget of one-shot requests to experiments that sample.
pub const ONE_SHOT_TRIALS: usize = 1000;

/// One distinct cache key of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    /// Registry experiment name.
    pub experiment: String,
    /// The scenario's spec.
    pub spec: MachineSpec,
    /// Built-in profile name, or `None` for an edited spec.
    pub profile: Option<&'static str>,
    /// The request's master seed.
    pub seed: u64,
    /// Explicit trial budget.
    pub trials: Option<usize>,
    /// Whether the key is asked exactly once.
    pub one_shot: bool,
}

/// One request line of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index into [`Stream::keys`].
    pub key: usize,
    /// `json`, `text` or `csv`.
    pub format: &'static str,
    /// Whether the spec travels as inline text.
    pub inline: bool,
    /// The newline-terminated protocol line.
    pub line: String,
}

/// A generated request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The distinct keys.
    pub keys: Vec<Key>,
    /// The requests, in send order.
    pub requests: Vec<Request>,
}

/// The LRU replay of a stream against a cache of some capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// Whether each request hits.
    pub hit: Vec<bool>,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Total evictions.
    pub evictions: u64,
}

/// The stream for `seed`.
///
/// # Panics
/// Panics if an edited spec fails to parse or validate — a bug in the
/// generator, not an input error.
#[must_use]
pub fn generate(seed: u64) -> Stream {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E_4E_E0_31);
    let mut keys = Vec::new();
    let mut counts = Vec::new();
    let weights: Vec<f64> = (0..HOT_EXPERIMENTS.len() * HOT_SCENARIOS.len())
        .map(|rank| 1.0 / (rank + 1) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    for (rank, weight) in weights.iter().enumerate() {
        let (experiment, trials) = HOT_EXPERIMENTS[rank % HOT_EXPERIMENTS.len()];
        let profile = HOT_SCENARIOS[rank / HOT_EXPERIMENTS.len()];
        let spec = match profile {
            Some(name) => MachineSpec::builtin(name).expect("built-in profile"),
            None => edited_spec(rank, &mut rng),
        };
        keys.push(Key {
            experiment: experiment.to_string(),
            spec,
            profile,
            seed: rng.random_range(0..1_000_000u64),
            trials,
            one_shot: false,
        });
        counts.push(((HOT_REQUESTS as f64 * weight / total).round() as usize).max(2));
    }
    // Absorb the rounding into the head so the hot total is exact.
    let rounded: usize = counts.iter().sum();
    counts[0] = counts[0] + HOT_REQUESTS - rounded;

    for (i, name) in qla_bench::registry::names().into_iter().enumerate() {
        let samples = matches!(name, "fig7-threshold" | "sensitivity");
        keys.push(Key {
            experiment: name.to_string(),
            spec: MachineSpec::expected(),
            profile: Some("expected"),
            // Disjoint from the hot seeds, distinct per one-shot.
            seed: 1_000_000 + i as u64,
            trials: samples.then_some(ONE_SHOT_TRIALS),
            one_shot: true,
        });
        counts.push(1);
    }
    for i in 0..TAIL_REQUESTS {
        keys.push(Key {
            experiment: TAIL_EXPERIMENT.to_string(),
            spec: renamed_expected(&format!("tail-{i}")),
            profile: None,
            seed: TAIL_SEED,
            trials: None,
            one_shot: true,
        });
        counts.push(1);
    }

    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(key, &count)| std::iter::repeat_n(key, count))
        .collect();
    shuffle(&mut order, &mut rng);
    // Exact shares dealt out by the seed: every stream has as many
    // requests in each format, and as many inline built-in specs, as any
    // other, so the seed does not shift where the p50 falls.
    let n = order.len();
    let (text, csv) = (n * 3 / 10, n / 5);
    let mut formats: Vec<&'static str> = [("json", n - text - csv), ("text", text), ("csv", csv)]
        .into_iter()
        .flat_map(|(format, count)| std::iter::repeat_n(format, count))
        .collect();
    shuffle(&mut formats, &mut rng);
    let by_name = |key: usize| keys[key].profile.is_some() && !keys[key].one_shot;
    let optional = order.iter().filter(|&&key| by_name(key)).count();
    let mut inline_flags: Vec<bool> = (0..optional).map(|i| i < optional / 4).collect();
    shuffle(&mut inline_flags, &mut rng);
    let mut inline_flags = inline_flags.into_iter();
    let requests = order
        .into_iter()
        .zip(formats)
        .map(|(key, format)| {
            let k = &keys[key];
            let inline = if by_name(key) {
                inline_flags
                    .next()
                    .expect("one flag per hot built-in request")
            } else {
                k.profile.is_none()
            };
            Request {
                key,
                format,
                inline,
                line: request_line(k, format, inline),
            }
        })
        .collect();
    Stream { keys, requests }
}

/// Fisher–Yates shuffle of `items` in place.
fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// `expected` with a new name and a seed-chosen movement failure rate.
fn edited_spec(rank: usize, rng: &mut ChaCha8Rng) -> MachineSpec {
    const MOVE_PER_CELL: [&str; 4] = ["0.0000015", "0.000002", "0.000003", "0.000005"];
    let rate = MOVE_PER_CELL[rng.random_range(0..MOVE_PER_CELL.len())];
    let text = MachineSpec::expected()
        .render()
        .replace("name = expected\n", &format!("name = edited-{rank}\n"))
        .replace(
            "tech.fail.move_per_cell = 0.000001\n",
            &format!("tech.fail.move_per_cell = {rate}\n"),
        );
    let spec = MachineSpec::parse(&text).expect("edited spec parses");
    spec.validate().expect("edited spec validates");
    spec
}

/// `expected` under another name, with nothing else changed.
fn renamed_expected(name: &str) -> MachineSpec {
    let mut spec = MachineSpec::expected();
    spec.name = name.to_string();
    spec
}

/// The protocol line for one request of `key`.
fn request_line(key: &Key, format: &str, inline: bool) -> String {
    let scenario = match (inline, key.profile) {
        (false, Some(profile)) => format!("\"profile\": \"{profile}\""),
        _ => format!("\"spec\": {}", json_escape(&key.spec.render())),
    };
    let trials = key
        .trials
        .map_or(String::new(), |t| format!(", \"trials\": {t}"));
    format!(
        "{{\"experiment\": \"{}\", {scenario}, \"seed\": {}{trials}, \"format\": \"{format}\"}}\n",
        key.experiment, key.seed
    )
}

/// Replay `stream` through an LRU cache of `capacity` entries with the
/// service's semantics: a hit refreshes recency, a miss inserts and
/// evicts the least recently used entry when full.
#[must_use]
pub fn predict(stream: &Stream, capacity: usize) -> Prediction {
    let mut cache: Vec<(usize, u64)> = Vec::with_capacity(capacity);
    let mut hit = Vec::with_capacity(stream.requests.len());
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for (clock, request) in stream.requests.iter().enumerate() {
        let clock = clock as u64;
        if let Some(entry) = cache.iter_mut().find(|(key, _)| *key == request.key) {
            entry.1 = clock;
            hits += 1;
            hit.push(true);
            continue;
        }
        misses += 1;
        hit.push(false);
        if cache.len() == capacity {
            let lru = (0..cache.len())
                .min_by_key(|&i| cache[i].1)
                .expect("full cache is non-empty");
            cache.swap_remove(lru);
            evictions += 1;
        }
        cache.push((request.key, clock));
    }
    Prediction {
        hit,
        hits,
        misses,
        evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        assert_eq!(generate(7), generate(7));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let (a, b) = (generate(7), generate(8));
        assert_ne!(a.requests, b.requests);
        // ... with the same amount of each kind of work.
        let shape = |s: &Stream| {
            let mut per_key: Vec<(String, bool, usize)> = s
                .keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let n = s.requests.iter().filter(|r| r.key == i).count();
                    (k.experiment.clone(), k.one_shot, n)
                })
                .collect();
            per_key.sort();
            let inline = s.requests.iter().filter(|r| r.inline).count();
            let formats: Vec<usize> = ["json", "text", "csv"]
                .iter()
                .map(|f| s.requests.iter().filter(|r| r.format == *f).count())
                .collect();
            (per_key, inline, formats)
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn the_stream_has_the_documented_shape() {
        let s = generate(2005);
        let hot = s.keys.iter().filter(|k| !k.one_shot).count();
        assert_eq!(hot, HOT_EXPERIMENTS.len() * HOT_SCENARIOS.len());
        assert_eq!(s.keys.len(), hot + 20 + TAIL_REQUESTS);
        assert_eq!(s.requests.len(), 1200);
        assert!(CACHE_CAPACITY < hot);
        for (i, key) in s.keys.iter().enumerate() {
            let n = s.requests.iter().filter(|r| r.key == i).count();
            assert!(if key.one_shot { n == 1 } else { n >= 2 }, "{key:?}: {n}");
        }
        // Canonical keys are distinct, so the prediction's key ids match
        // the service's cache keys one to one.
        let mut canonical: Vec<String> = s
            .keys
            .iter()
            .map(|k| {
                format!(
                    "{} {} {:?} {}",
                    k.experiment,
                    k.seed,
                    k.trials,
                    k.spec.render()
                )
            })
            .collect();
        canonical.sort();
        canonical.dedup();
        assert_eq!(canonical.len(), s.keys.len());
        let inline = s.requests.iter().filter(|r| r.inline).count();
        assert!(inline > s.requests.len() / 8 && inline < s.requests.len() / 2);
        for format in ["json", "text", "csv"] {
            assert!(s.requests.iter().any(|r| r.format == format));
        }
    }

    #[test]
    fn the_tail_group_repeats_one_computation_under_distinct_keys() {
        for seed in [2005, 7] {
            let s = generate(seed);
            let tail: Vec<&Key> = s
                .keys
                .iter()
                .filter(|k| k.spec.name.starts_with("tail-"))
                .collect();
            assert_eq!(tail.len(), TAIL_REQUESTS);
            for key in &tail {
                assert_eq!(key.experiment, TAIL_EXPERIMENT);
                assert_eq!(key.seed, TAIL_SEED);
                assert!(key.one_shot);
                let mut spec = key.spec.clone();
                spec.name = "expected".to_string();
                assert_eq!(spec, MachineSpec::expected());
            }
        }
    }

    #[test]
    fn every_line_parses_as_a_run_request() {
        for request in generate(11).requests {
            let parsed = qla_serve::parse_command(request.line.trim_end());
            assert!(
                matches!(parsed, Ok(qla_serve::Command::Run(_))),
                "{}",
                request.line
            );
        }
    }

    #[test]
    fn prediction_follows_lru_semantics() {
        let s = generate(3);
        let p = predict(&s, CACHE_CAPACITY);
        assert_eq!(p.hits + p.misses, s.requests.len() as u64);
        assert!(p.evictions > 0 && p.evictions < p.misses);
        // Every one-shot misses; the first request of every key misses.
        let mut seen = vec![false; s.keys.len()];
        for (request, &hit) in s.requests.iter().zip(&p.hit) {
            if !seen[request.key] {
                assert!(!hit);
                seen[request.key] = true;
            }
        }
        // An unbounded cache misses exactly once per key.
        let unbounded = predict(&s, s.keys.len());
        assert_eq!(unbounded.misses, s.keys.len() as u64);
        assert_eq!(unbounded.evictions, 0);
    }
}
