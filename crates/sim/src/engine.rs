//! The discrete-event engine: EPR links, ancilla factories, admission
//! control, and the window-paced round model.
//!
//! # The model
//!
//! The simulated machine is the Section 5 communication fabric, viewed as a
//! queueing network:
//!
//! * **Logical-qubit tiles** refresh in lock-step error-correction windows
//!   of length `W` ([`SimConfig::window`]). The window clock is global —
//!   the paper schedules all communication "while the logical qubits are
//!   undergoing error correction", so the window grid is the machine's
//!   heartbeat and everything below is quantised to it.
//! * **EPR channels**: every mesh edge carries
//!   [`SimConfig::channels_per_edge`] physical channels (the paper's
//!   bandwidth counts channels *per direction*; an undirected edge of the
//!   routing mesh therefore carries `2 × bandwidth`, matching
//!   [`Mesh::edge_capacity_per_window`]). Channels produce purified pairs
//!   in lock-step **rounds** of length `s` ([`SimConfig::pair_service`]):
//!   round `r` of window `w` starts at `w·W + r·s`, and at most
//!   [`SimConfig::pairs_per_window`] rounds fit in a window — a pair that
//!   would straddle the boundary is not started, because its consumers
//!   re-enter error correction and the purification pipeline restarts on
//!   the next window. Each edge serves its segment jobs from a FIFO queue,
//!   up to `channels_per_edge` jobs per round.
//! * **Requests** ([`CommRequest`]) are routed at release time over the
//!   static dimension-order route — along the row, then along the column
//!   — which is [`Topology::route`] with every edge usable: the greedy
//!   scheduler's router, whose monotone walk then never backtracks or
//!   falls back to a search. Producing one
//!   end-to-end pair requires one purified *segment* pair on **every** edge
//!   of the path (segments purify concurrently and are
//!   entanglement-swapped together — pairs do not hop store-and-forward),
//!   so a request for `P` pairs enqueues `P` segment jobs on each path edge
//!   and completes when the last of them is served.
//! * **Ancilla factories** prepare the logical ancilla blocks a
//!   fault-tolerant Toffoli consumes before its communication starts:
//!   [`SimConfig::ancilla_capacity`] parallel preparation slots, each
//!   taking [`SimConfig::ancilla_prep`], fed FIFO.
//! * **Admission control**: at most [`SimConfig::max_in_flight`] work items
//!   are in flight; later arrivals wait in a FIFO backlog (the scheduler's
//!   finite reorder window).
//!
//! # Data layout
//!
//! Per-edge state lives in vectors indexed by the topology's dense edge id
//! (`edge-N` in recorded labels is `Mesh::edges()[N]`). An edge's FIFO holds
//! run-length `(request, count)` jobs: a `P`-pair request is one run per
//! path edge, not `P` copies. A round moves up to `channels` jobs off the
//! front runs (splitting the last one if needed) into the edge's reusable
//! in-service buffer, and the round's `BatchDone` settles that buffer. This
//! relies on one ordering fact, checked by a `debug_assert!`: a round's
//! `BatchDone` is pushed before the edge's next `RoundStart`, can be no later
//! than it, and the event queue, which pops earlier instants first and
//! the events of one instant in push order, therefore pops it first.
//!
//! The per-event path compiles into one function, [`simulate_observed`]:
//! the event loop of `run`, with the queue's `pop` and `push`, the round
//! handlers and what they call (`channels_at`, `account_channels`,
//! `clipped`, `complete_request`) inlined into it. `schedule_round` is
//! `#[inline(always)]`: it has two callers, and once `push` is inlined the
//! compiler keeps it out of line. The per-item steps (admission, release,
//! ancilla preparation, item completion) stay calls.
//!
//! In the uncontended limit this collapses to the closed-form
//! [`SimConfig::uncontended_completion`] — exactly, not approximately,
//! which is what the `sim-vs-analytic` cross-validation and the property
//! tests pin.
//! Everything is integer-time ([`SimTime`]) and FIFO, so a run is a pure
//! function of `(mesh, config, work items)`: byte-reproducible across
//! platforms, thread counts and repetitions.

use crate::queue::EventQueue;
use crate::time::SimTime;
use qla_obs::{Noop, ObsDetail, Recorder};
use qla_sched::{CommRequest, Edge, EdgeId, Mesh, Topology};
use serde::Serialize;
use std::collections::VecDeque;

/// Fixed parameters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimConfig {
    /// The error-correction window `W` pacing the whole machine (the
    /// level-L window of the active machine spec).
    pub window: SimTime,
    /// Per-pair service time `s` of a pipelined EPR channel
    /// ([`InterconnectParams::pair_service_time`] at tile pitch).
    ///
    /// [`InterconnectParams::pair_service_time`]: https://docs.rs/qla-network
    pub pair_service: SimTime,
    /// Service rounds per window, `m` — supplied by the analytic layer
    /// (`QlaMachine::epr_pairs_per_ecc_window`) so the simulator and the
    /// closed-form models quantise identically, including the `max(1, …)`
    /// clamp when `s > W`.
    pub pairs_per_window: usize,
    /// Physical channels per mesh edge (`2 × bandwidth`: the paper counts
    /// channels per direction).
    pub channels_per_edge: usize,
    /// Admission-control queue depth: work items in flight beyond this wait
    /// in a FIFO backlog.
    pub max_in_flight: usize,
    /// Parallel ancilla-preparation slots of the factory stage.
    pub ancilla_capacity: usize,
    /// Wall-clock time to prepare one logical ancilla block.
    pub ancilla_prep: SimTime,
    /// Optional measurement interval `[from, to)`: busy time is accumulated
    /// clipped to it, so utilisation can exclude warm-up and drain phases.
    pub measure: Option<(SimTime, SimTime)>,
}

impl SimConfig {
    /// Check the configuration invariants.
    ///
    /// # Panics
    /// Panics (loudly, naming the field) on a zero window, service time,
    /// round budget, channel count, queue depth, or factory capacity —
    /// every one of them would deadlock or degenerate the event loop.
    pub fn validate(&self) {
        assert!(self.window > SimTime::ZERO, "window must be positive");
        assert!(
            self.pair_service > SimTime::ZERO,
            "pair_service must be positive"
        );
        assert!(
            self.pairs_per_window >= 1,
            "pairs_per_window must be at least 1"
        );
        assert!(
            self.channels_per_edge >= 1,
            "channels_per_edge must be at least 1"
        );
        assert!(self.max_in_flight >= 1, "max_in_flight must be at least 1");
        assert!(
            self.ancilla_capacity >= 1,
            "ancilla_capacity must be at least 1"
        );
    }

    /// The first service-round slot at or after `t`.
    ///
    /// Slots form the grid `w·W + r·s` for `r < pairs_per_window`; the
    /// remainder of the window past the last slot is idle (the consumers'
    /// error-correction step is ending and delivery must not straddle it).
    #[must_use]
    pub fn next_slot(&self, t: SimTime) -> SimTime {
        let (w_ns, s_ns, t_ns) = (self.window.nanos(), self.pair_service.nanos(), t.nanos());
        let base = (t_ns / w_ns) * w_ns;
        let round = (t_ns - base).div_ceil(s_ns);
        debug_assert!(base + round * s_ns >= t_ns, "ceiling slot fell before t");
        if round < self.pairs_per_window as u64 {
            SimTime::from_nanos(base + round * s_ns)
        } else {
            SimTime::from_nanos(base + w_ns)
        }
    }

    /// Closed-form completion time of a request released at `release` for
    /// `pairs` pairs into an **empty** network: `ceil(pairs / channels)`
    /// consecutive service rounds starting at the first slot at or after
    /// the release, window-quantised exactly like the engine. Independent
    /// of path length — segments purify concurrently on every hop.
    ///
    /// This is the prediction the uncontended-limit property tests compare
    /// the engine against, and the baseline queueing delay is measured
    /// from.
    #[must_use]
    pub fn uncontended_completion(&self, release: SimTime, pairs: usize) -> SimTime {
        if pairs == 0 {
            return release;
        }
        let rounds = pairs.div_ceil(self.channels_per_edge);
        let mut start = self.next_slot(release);
        for _ in 1..rounds {
            start = self.next_slot(start + self.pair_service);
        }
        start + self.pair_service
    }
}

/// One unit of offered work: a Toffoli gate (ancilla demand plus its EPR
/// traffic), or a bare replayed request stream entry (zero ancillas).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkItem {
    /// Arrival time at the admission queue.
    pub arrival: SimTime,
    /// Logical ancilla blocks the factory must prepare before the item's
    /// communication is released (6 for a fault-tolerant Toffoli).
    pub ancillas: usize,
    /// The EPR-distribution requests released once the ancillas are ready.
    pub requests: Vec<CommRequest>,
    /// Owning tenant of the item (0 for single-tenant workloads). Only
    /// consulted when the [`FaultTimeline`] carries per-tenant quotas.
    pub tenant: usize,
}

impl WorkItem {
    /// A bare replayed request arriving at `arrival`: no ancilla stage,
    /// tenant 0 — the "scheduler front-end" form that turns the analytic
    /// layer's pre-batched windows into arrivals.
    #[must_use]
    pub fn request(arrival: SimTime, request: CommRequest) -> Self {
        WorkItem {
            arrival,
            ancillas: 0,
            requests: vec![request],
            tenant: 0,
        }
    }
}

/// One per-edge channel fault: during `[from, until)` the edge serves at
/// most `channels` segment jobs per round instead of
/// [`SimConfig::channels_per_edge`] (`0` is a full outage — rounds run
/// dark and queued jobs wait for recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChannelFault {
    /// The degraded mesh edge.
    pub edge: Edge,
    /// Fault onset (inclusive).
    pub from: SimTime,
    /// Fault end (exclusive): capacity recovers at this instant.
    pub until: SimTime,
    /// Surviving channels on the edge during the fault.
    pub channels: usize,
}

/// One ancilla-factory capacity fault: during `[from, until)` at most
/// `capacity` preparation slots may start new blocks (running preparations
/// finish; `0` stalls the factory until recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FactoryFault {
    /// Fault onset (inclusive).
    pub from: SimTime,
    /// Fault end (exclusive).
    pub until: SimTime,
    /// Surviving preparation slots during the fault.
    pub capacity: usize,
}

/// The compiled fault scenario a run executes: time-varying channel and
/// factory capacity plus optional per-tenant admission quotas.
///
/// The default (empty) timeline reproduces the healthy engine behaviour
/// event-for-event — [`simulate`] is exactly [`simulate_observed`] with an
/// empty timeline, which is what the zero-fault identity tests pin.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultTimeline {
    /// Per-edge channel degradations and outages.
    pub channel_faults: Vec<ChannelFault>,
    /// Factory capacity losses.
    pub factory_faults: Vec<FactoryFault>,
    /// Per-tenant `max_in_flight` admission quotas, indexed by
    /// [`WorkItem::tenant`]. Empty = no per-tenant limit (single-tenant
    /// behaviour); when non-empty every item's tenant must index into it.
    pub tenant_quotas: Vec<usize>,
}

impl FaultTimeline {
    /// Check the timeline against a mesh, a config, and the offered items.
    ///
    /// # Panics
    /// Panics (loudly, naming the offender) on a fault window that is
    /// empty or inverted, a fault naming an edge outside the mesh, a
    /// "fault" that *raises* capacity above the configured healthy value,
    /// a zero tenant quota, or an item whose tenant does not index into
    /// the quota table.
    pub fn validate(&self, mesh: &Mesh, cfg: &SimConfig, items: &[WorkItem]) {
        let edges: std::collections::HashSet<Edge> = mesh.edges().into_iter().collect();
        for fault in &self.channel_faults {
            assert!(
                fault.from < fault.until,
                "channel fault window [{:?}, {:?}) is empty",
                fault.from,
                fault.until
            );
            assert!(
                edges.contains(&fault.edge),
                "channel fault names edge {:?} outside the mesh",
                fault.edge
            );
            assert!(
                fault.channels <= cfg.channels_per_edge,
                "channel fault leaves {} channels but the edge only has {}",
                fault.channels,
                cfg.channels_per_edge
            );
        }
        for fault in &self.factory_faults {
            assert!(
                fault.from < fault.until,
                "factory fault window [{:?}, {:?}) is empty",
                fault.from,
                fault.until
            );
            assert!(
                fault.capacity <= cfg.ancilla_capacity,
                "factory fault leaves {} slots but the factory only has {}",
                fault.capacity,
                cfg.ancilla_capacity
            );
        }
        if !self.tenant_quotas.is_empty() {
            for (tenant, &quota) in self.tenant_quotas.iter().enumerate() {
                assert!(quota >= 1, "tenant {tenant} quota must be at least 1");
            }
            for item in items {
                assert!(
                    item.tenant < self.tenant_quotas.len(),
                    "work item tenant {} outside the {}-entry quota table",
                    item.tenant,
                    self.tenant_quotas.len()
                );
            }
        }
    }
}

/// Per-request timings of a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RequestOutcome {
    /// Index of the owning work item.
    pub item: usize,
    /// When the request entered the network (after admission + ancillas).
    pub release: SimTime,
    /// When its last segment job was served.
    pub completion: SimTime,
    /// Pairs requested.
    pub pairs: usize,
    /// Path length in mesh edges.
    pub hops: usize,
}

/// Per-item timings of a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ItemOutcome {
    /// Arrival at the admission queue.
    pub arrival: SimTime,
    /// When the item's communication was released into the network.
    pub released: SimTime,
    /// When its last request completed.
    pub completion: SimTime,
    /// Owning tenant (copied from [`WorkItem::tenant`]).
    pub tenant: usize,
}

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimOutcome {
    /// Per-request timings, in work-item submission order.
    pub requests: Vec<RequestOutcome>,
    /// Per-item timings, in submission order.
    pub items: Vec<ItemOutcome>,
    /// Completion time of the last request (zero for an empty run).
    pub makespan: SimTime,
    /// Events the engine processed.
    pub events: u64,
    /// Edges of the simulated mesh.
    pub edges: usize,
    /// Channel busy time, summed over all channels, in channel-nanoseconds,
    /// clipped to [`SimConfig::measure`] (the whole run when none is set).
    pub busy_channel_ns: u128,
    /// Factory busy time in slot-nanoseconds, clipped to
    /// [`SimConfig::measure`] (the whole run when none is set).
    pub busy_factory_ns: u128,
}

impl SimOutcome {
    /// Error-correction windows the whole run spanned (`ceil(makespan/W)`).
    #[must_use]
    pub fn windows_used(&self, window: SimTime) -> usize {
        self.makespan.windows_spanned(window)
    }

    /// Per-item sojourn times (completion − arrival) in submission order,
    /// ready for [`crate::LatencySummary::of`].
    #[must_use]
    pub fn sojourns(&self) -> Vec<SimTime> {
        self.items
            .iter()
            .map(|i| i.completion.saturating_since(i.arrival))
            .collect()
    }

    /// Sojourn times split by tenant (each inner list in submission
    /// order), ready for a per-tenant fairness metric. Tenants past the
    /// requested count are rejected loudly rather than silently dropped.
    ///
    /// # Panics
    /// Panics if an item's tenant is `>= tenants`.
    #[must_use]
    pub fn sojourns_by_tenant(&self, tenants: usize) -> Vec<Vec<SimTime>> {
        let mut out = vec![Vec::new(); tenants];
        for i in &self.items {
            out[i.tenant].push(i.completion.saturating_since(i.arrival));
        }
        out
    }

    /// Aggregate channel utilisation over the measurement interval (the
    /// whole makespan when none was configured): busy channel-time divided
    /// by `edges × channels × interval`.
    #[must_use]
    pub fn channel_utilization(&self, cfg: &SimConfig) -> f64 {
        let capacity =
            self.edges as u128 * cfg.channels_per_edge as u128 * u128::from(self.measured_ns(cfg));
        if capacity == 0 {
            0.0
        } else {
            self.busy_channel_ns as f64 / capacity as f64
        }
    }

    /// Ancilla-factory utilisation over the measurement interval (the whole
    /// makespan when none was configured).
    #[must_use]
    pub fn factory_utilization(&self, cfg: &SimConfig) -> f64 {
        let capacity = cfg.ancilla_capacity as u128 * u128::from(self.measured_ns(cfg));
        if capacity == 0 {
            0.0
        } else {
            self.busy_factory_ns as f64 / capacity as f64
        }
    }

    /// Length of the measurement interval in ns: [`SimConfig::measure`], or
    /// the whole makespan when none was configured.
    fn measured_ns(&self, cfg: &SimConfig) -> u64 {
        match cfg.measure {
            Some((from, to)) => to.saturating_since(from).nanos(),
            None => self.makespan.nanos(),
        }
    }
}

/// The engine's event alphabet.
enum Event {
    /// A work item reached the admission queue.
    Arrival(usize),
    /// A factory slot finished one ancilla block for the item.
    AncillaDone(usize),
    /// An edge's next service round begins.
    RoundStart(usize),
    /// A round's batch of segment jobs (the edge's in-service buffer)
    /// finished on an edge.
    BatchDone(usize),
    /// A factory fault ended: capacity is back, re-kick the factory.
    /// (Edges need no such event — a queued edge keeps scheduling rounds
    /// through an outage, so it re-probes its capacity every slot.)
    FactoryRecovered,
}

struct ItemState {
    arrival: SimTime,
    released: SimTime,
    completed: Option<SimTime>,
    ancillas_left: usize,
    requests_left: usize,
    requests: Vec<CommRequest>,
    tenant: usize,
}

struct RequestState {
    item: usize,
    release: SimTime,
    completion: SimTime,
    pairs: usize,
    hops: usize,
    jobs_left: usize,
}

#[derive(Default)]
struct EdgeState {
    /// Waiting segment jobs as FIFO runs of `(request id, count)`.
    queue: VecDeque<(usize, usize)>,
    /// Jobs across all of `queue`'s runs.
    queued: usize,
    /// The runs the current round serves, settled by its `BatchDone`.
    in_service: Vec<(usize, usize)>,
    round_pending: bool,
    busy_until: SimTime,
}

/// The simulator: mesh topology, link/factory state, and the event loop.
struct Simulator<'a> {
    cfg: &'a SimConfig,
    topology: Topology,
    edges: Vec<EdgeState>,
    /// Scratch copy of the route being released.
    route: Vec<EdgeId>,
    /// Channel faults per edge index, `(from, until, channels)`.
    edge_faults: Vec<Vec<(SimTime, SimTime, usize)>>,
    factory_faults: &'a [FactoryFault],
    tenant_quotas: &'a [usize],
    tenant_in_flight: Vec<usize>,
    events: EventQueue<Event>,
    items: Vec<ItemState>,
    requests: Vec<RequestState>,
    backlog: VecDeque<usize>,
    in_flight: usize,
    factory_busy: usize,
    factory_queue: VecDeque<usize>,
    busy_channel_ns: u128,
    busy_factory_ns: u128,
    makespan: SimTime,
    /// The observability sink. [`Noop`] on the plain entry points, so the
    /// recorded-off run is the *same code path* as the unobserved one.
    rec: &'a mut dyn Recorder,
}

/// Run the simulator over a stream of work items on a healthy machine,
/// unrecorded: [`simulate_observed`] with an empty [`FaultTimeline`] and a
/// [`Noop`] recorder.
///
/// # Panics
/// Exactly as [`simulate_observed`].
#[must_use]
pub fn simulate(mesh: &Mesh, cfg: &SimConfig, items: &[WorkItem]) -> SimOutcome {
    simulate_observed(mesh, cfg, items, &FaultTimeline::default(), &mut Noop)
}

/// Run the simulator over a stream of work items under a compiled fault
/// scenario, with an observability [`Recorder`] attached.
///
/// Items may arrive in any time order; the event queue serialises them.
/// The run ends when every item has completed (the engine always drains —
/// there is no open-ended horizon to cut off, so "offered load beyond
/// capacity" shows up as a growing makespan, exactly like a saturated
/// queueing system).
///
/// `faults` adds time-varying channel and factory capacity plus per-tenant
/// admission quotas. An empty (default) timeline reproduces the healthy
/// engine event-for-event — the zero-fault identity the acceptance tests
/// pin. Faults never drop work: a job queued on an outaged edge waits for
/// recovery, so the run still drains and degradation shows up as sojourn
/// time and makespan.
///
/// This is the one real entry point, and [`simulate`] is it with a [`Noop`]
/// recorder, so recording can never change an outcome: the engine consults
/// the recorder only to *emit*, never to decide. Recorded tracks (all
/// integer virtual-time stamps):
///
/// * `admission` — `admit` / `defer` / `quota-defer` instants per item;
/// * `factory` — one `ancilla-prep` span per preparation slot occupancy;
/// * `item` — one `sojourn` span per work item (arrival → completion);
/// * `fault` — onset/recovery instants of every timeline fault;
/// * `channel` / `queue` ([`ObsDetail::Full`] only) — per-edge service
///   round spans and post-round queue-depth samples.
///
/// # Panics
/// Panics if the configuration is invalid (see [`SimConfig::validate`]),
/// the timeline is inconsistent (see [`FaultTimeline::validate`]), or a
/// request names a node outside the mesh.
#[must_use]
pub fn simulate_observed(
    mesh: &Mesh,
    cfg: &SimConfig,
    items: &[WorkItem],
    faults: &FaultTimeline,
    rec: &mut dyn Recorder,
) -> SimOutcome {
    cfg.validate();
    faults.validate(mesh, cfg, items);
    let topology = Topology::new(mesh);
    let mut edge_faults: Vec<Vec<(SimTime, SimTime, usize)>> =
        vec![Vec::new(); topology.edge_count()];
    for fault in &faults.channel_faults {
        let id = topology.edge_id(fault.edge).expect("validated fault edge");
        edge_faults[id].push((fault.from, fault.until, fault.channels));
    }
    let mut sim = Simulator {
        cfg,
        edges: (0..topology.edge_count())
            .map(|_| EdgeState::default())
            .collect(),
        topology,
        route: Vec::new(),
        edge_faults,
        factory_faults: &faults.factory_faults,
        tenant_quotas: &faults.tenant_quotas,
        tenant_in_flight: vec![0; faults.tenant_quotas.len()],
        events: EventQueue::new(),
        items: items
            .iter()
            .map(|w| ItemState {
                arrival: w.arrival,
                released: w.arrival,
                completed: None,
                ancillas_left: w.ancillas,
                requests_left: w.requests.len(),
                requests: w.requests.clone(),
                tenant: w.tenant,
            })
            .collect(),
        requests: Vec::new(),
        backlog: VecDeque::new(),
        in_flight: 0,
        factory_busy: 0,
        factory_queue: VecDeque::new(),
        busy_channel_ns: 0,
        busy_factory_ns: 0,
        makespan: SimTime::ZERO,
        rec,
    };
    // Fault windows are known up front; emit their onset/recovery markers
    // here so the timeline shows them even when no work ever touches the
    // degraded resource.
    if sim.rec.enabled() {
        for fault in &faults.channel_faults {
            sim.rec
                .instant("fault", "channel-onset", fault.from.nanos());
            sim.rec
                .instant("fault", "channel-recovery", fault.until.nanos());
        }
        for fault in &faults.factory_faults {
            sim.rec
                .instant("fault", "factory-onset", fault.from.nanos());
            sim.rec
                .instant("fault", "factory-recovery", fault.until.nanos());
        }
    }
    // A stalled factory (capacity fault with no preparation in flight)
    // has no event of its own to wake it; schedule the recovery instants
    // up front. Edges need none — see [`Event::FactoryRecovered`].
    for fault in &faults.factory_faults {
        sim.events.push(fault.until, Event::FactoryRecovered);
    }
    for (i, item) in items.iter().enumerate() {
        sim.events.push(item.arrival, Event::Arrival(i));
    }
    sim.run()
}

impl Simulator<'_> {
    fn run(mut self) -> SimOutcome {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Arrival(item) => self.on_arrival(item, now),
                Event::AncillaDone(item) => self.on_ancilla_done(item, now),
                Event::RoundStart(edge) => self.on_round_start(edge, now),
                Event::BatchDone(edge) => self.on_batch_done(edge, now),
                Event::FactoryRecovered => self.factory_kick(now),
            }
        }
        let requests = self
            .requests
            .iter()
            .map(|r| RequestOutcome {
                item: r.item,
                release: r.release,
                completion: r.completion,
                pairs: r.pairs,
                hops: r.hops,
            })
            .collect();
        let items = self
            .items
            .iter()
            .map(|i| ItemOutcome {
                arrival: i.arrival,
                released: i.released,
                completion: i.completed.expect("the event loop drains every item"),
                tenant: i.tenant,
            })
            .collect();
        SimOutcome {
            requests,
            items,
            makespan: self.makespan,
            events: self.events.processed(),
            edges: self.topology.edge_count(),
            busy_channel_ns: self.busy_channel_ns,
            busy_factory_ns: self.busy_factory_ns,
        }
    }

    /// Surviving channels on `edge` at instant `t` (the minimum over every
    /// covering fault, so overlapping faults compose conservatively).
    fn channels_at(&self, edge: usize, t: SimTime) -> usize {
        let mut channels = self.cfg.channels_per_edge;
        for &(from, until, surviving) in &self.edge_faults[edge] {
            if from <= t && t < until {
                channels = channels.min(surviving);
            }
        }
        channels
    }

    /// Factory slots allowed to *start* a preparation at instant `t`.
    fn factory_capacity_at(&self, t: SimTime) -> usize {
        let mut capacity = self.cfg.ancilla_capacity;
        for fault in self.factory_faults {
            if fault.from <= t && t < fault.until {
                capacity = capacity.min(fault.capacity);
            }
        }
        capacity
    }

    /// Whether `item` fits under both the global and its tenant's quota.
    fn admissible(&self, item: usize) -> bool {
        self.in_flight < self.cfg.max_in_flight
            && (self.tenant_quotas.is_empty() || {
                let tenant = self.items[item].tenant;
                self.tenant_in_flight[tenant] < self.tenant_quotas[tenant]
            })
    }

    fn on_arrival(&mut self, item: usize, now: SimTime) {
        if self.admissible(item) {
            self.admit(item, now);
        } else {
            if self.rec.enabled() {
                // Name the binding limit: under the global depth it can
                // only have been the tenant quota.
                let cause = if self.in_flight < self.cfg.max_in_flight {
                    "quota-defer"
                } else {
                    "defer"
                };
                self.rec.instant("admission", cause, now.nanos());
            }
            self.backlog.push_back(item);
        }
    }

    fn admit(&mut self, item: usize, now: SimTime) {
        if self.rec.enabled() {
            self.rec.instant("admission", "admit", now.nanos());
        }
        self.in_flight += 1;
        if !self.tenant_quotas.is_empty() {
            self.tenant_in_flight[self.items[item].tenant] += 1;
        }
        if self.items[item].ancillas_left == 0 {
            self.release_requests(item, now);
        } else {
            for _ in 0..self.items[item].ancillas_left {
                self.factory_queue.push_back(item);
            }
            self.factory_kick(now);
        }
    }

    /// Admit backlogged items while capacity allows: the first (oldest)
    /// admissible item each pass, so the backlog stays FIFO per tenant and
    /// a quota-blocked tenant never blocks the others. Without quotas this
    /// reduces to plain `pop_front` — the backlog is only ever non-empty
    /// when the global limit binds, so at most one item frees per
    /// completion and order is untouched.
    fn drain_backlog(&mut self, now: SimTime) {
        while self.in_flight < self.cfg.max_in_flight {
            let Some(pos) = self.backlog.iter().position(|&item| self.admissible(item)) else {
                break;
            };
            let item = self.backlog.remove(pos).expect("position is in range");
            self.admit(item, now);
        }
    }

    fn factory_kick(&mut self, now: SimTime) {
        while self.factory_busy < self.factory_capacity_at(now) {
            let Some(item) = self.factory_queue.pop_front() else {
                break;
            };
            self.factory_busy += 1;
            let done = now + self.cfg.ancilla_prep;
            if self.rec.enabled() {
                self.rec.span(
                    "factory",
                    "ancilla-prep",
                    now.nanos(),
                    self.cfg.ancilla_prep.nanos(),
                );
            }
            self.account_factory(now, done);
            self.events.push(done, Event::AncillaDone(item));
        }
    }

    fn on_ancilla_done(&mut self, item: usize, now: SimTime) {
        self.factory_busy -= 1;
        self.items[item].ancillas_left -= 1;
        if self.items[item].ancillas_left == 0 {
            self.release_requests(item, now);
        }
        self.factory_kick(now);
    }

    fn release_requests(&mut self, item: usize, now: SimTime) {
        self.items[item].released = now;
        let comm = std::mem::take(&mut self.items[item].requests);
        if comm.is_empty() {
            self.complete_item(item, now);
            return;
        }
        let mut route = std::mem::take(&mut self.route);
        for request in comm {
            // Co-located endpoints on a single-tile mesh have no edge to
            // leave through: a zero-hop route that completes at release.
            route.clear();
            if let Some(r) = self.topology.route(request.from, request.to) {
                route.extend_from_slice(r.edges);
            }
            let hops = route.len();
            let jobs = request.pairs * hops;
            let id = self.requests.len();
            self.requests.push(RequestState {
                item,
                release: now,
                completion: now,
                pairs: request.pairs,
                hops,
                jobs_left: jobs,
            });
            if jobs == 0 {
                self.complete_request(id, now);
                continue;
            }
            for &edge in &route {
                let e = &mut self.edges[edge];
                e.queue.push_back((id, request.pairs));
                e.queued += request.pairs;
                self.schedule_round(edge, now);
            }
        }
        self.route = route;
    }

    #[inline(always)]
    fn schedule_round(&mut self, edge: usize, now: SimTime) {
        let e = &mut self.edges[edge];
        if e.round_pending || e.queue.is_empty() {
            return;
        }
        // Rounds sit on the window-quantised slot grid and never overlap
        // the previous round of this edge (`busy_until` covers the clamped
        // `pairs_per_window = 1` case where a single round outlasts W).
        let start = self.cfg.next_slot(now.max(e.busy_until));
        e.round_pending = true;
        self.events.push(start, Event::RoundStart(edge));
    }

    fn on_round_start(&mut self, edge: usize, now: SimTime) {
        // A degraded edge serves a smaller batch; an outaged edge (zero
        // surviving channels) runs the round dark and re-probes at the
        // next slot, so queued jobs simply wait out the fault.
        let capacity = self.channels_at(edge, now);
        let e = &mut self.edges[edge];
        debug_assert!(
            e.in_service.is_empty(),
            "edge {edge}: round at {now:?} started before the previous round's BatchDone"
        );
        e.round_pending = false;
        let served = e.queued.min(capacity);
        e.queued -= served;
        let mut left = served;
        while left > 0 {
            let front = e.queue.front_mut().expect("queued counts the runs' jobs");
            let take = front.1.min(left);
            e.in_service.push((front.0, take));
            front.1 -= take;
            left -= take;
            if front.1 == 0 {
                e.queue.pop_front();
            }
        }
        e.busy_until = now + self.cfg.pair_service;
        if served > 0 {
            let done = now + self.cfg.pair_service;
            if self.rec.enabled() && self.rec.detail() == ObsDetail::Full {
                // High-volume per-edge tracks, Full detail only: the busy
                // round and the queue depth left behind after the drain.
                let label = format!("edge-{edge}");
                self.rec.span(
                    "channel",
                    &label,
                    now.nanos(),
                    self.cfg.pair_service.nanos(),
                );
                self.rec
                    .counter("queue", &label, now.nanos(), self.edges[edge].queued as u64);
            }
            self.account_channels(served, now, done);
            self.events.push(done, Event::BatchDone(edge));
        }
        self.schedule_round(edge, now);
    }

    fn on_batch_done(&mut self, edge: usize, now: SimTime) {
        // Completions may release new requests onto this very edge; they
        // only queue, so the taken buffer is the whole batch.
        let mut batch = std::mem::take(&mut self.edges[edge].in_service);
        for &(id, count) in &batch {
            self.requests[id].jobs_left -= count;
            if self.requests[id].jobs_left == 0 {
                self.complete_request(id, now);
            }
        }
        batch.clear();
        self.edges[edge].in_service = batch;
    }

    fn complete_request(&mut self, id: usize, now: SimTime) {
        self.requests[id].completion = now;
        let item = self.requests[id].item;
        self.items[item].requests_left -= 1;
        if self.items[item].requests_left == 0 {
            self.complete_item(item, now);
        }
    }

    fn complete_item(&mut self, item: usize, now: SimTime) {
        if self.rec.enabled() {
            let arrival = self.items[item].arrival;
            self.rec.span(
                "item",
                "sojourn",
                arrival.nanos(),
                now.saturating_since(arrival).nanos(),
            );
        }
        self.items[item].completed = Some(now);
        self.makespan = self.makespan.max(now);
        self.in_flight -= 1;
        if !self.tenant_quotas.is_empty() {
            self.tenant_in_flight[self.items[item].tenant] -= 1;
        }
        self.drain_backlog(now);
    }

    fn account_channels(&mut self, batch: usize, from: SimTime, to: SimTime) {
        self.busy_channel_ns += self.clipped(from, to) * batch as u128;
    }

    fn account_factory(&mut self, from: SimTime, to: SimTime) {
        self.busy_factory_ns += self.clipped(from, to);
    }

    /// Overlap of `[from, to)` with the measurement interval (all of it when
    /// none is set), in ns.
    fn clipped(&self, from: SimTime, to: SimTime) -> u128 {
        match self.cfg.measure {
            None => u128::from(to.saturating_since(from).nanos()),
            Some((lo, hi)) => {
                let a = from.max(lo);
                let b = to.min(hi);
                u128::from(b.saturating_since(a).nanos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config with round-number clocks: W = 1000 ns, s = 100 ns, m = 10.
    fn cfg() -> SimConfig {
        SimConfig {
            window: SimTime::from_nanos(1_000),
            pair_service: SimTime::from_nanos(100),
            pairs_per_window: 10,
            channels_per_edge: 4,
            max_in_flight: 1_000,
            ancilla_capacity: 1_000,
            ancilla_prep: SimTime::from_nanos(1_000),
            measure: None,
        }
    }

    fn request(from: usize, to: usize, pairs: usize) -> CommRequest {
        CommRequest { from, to, pairs }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// One bare work item per timestamped request.
    fn run_requests(
        mesh: &Mesh,
        cfg: &SimConfig,
        requests: &[(SimTime, CommRequest)],
    ) -> SimOutcome {
        let items: Vec<WorkItem> = requests
            .iter()
            .map(|&(arrival, r)| WorkItem::request(arrival, r))
            .collect();
        simulate(mesh, cfg, &items)
    }

    #[test]
    fn slot_grid_quantises_to_rounds_and_windows() {
        let c = cfg();
        assert_eq!(c.next_slot(at(0)), at(0));
        assert_eq!(c.next_slot(at(1)), at(100));
        assert_eq!(c.next_slot(at(100)), at(100));
        // Slot 9 (at 900 ns) is the last of the window; 901 ns rolls over.
        assert_eq!(c.next_slot(at(900)), at(900));
        assert_eq!(c.next_slot(at(901)), at(1_000));
        // A clamped m = 1 grid only has the window boundaries.
        let clamped = SimConfig {
            pairs_per_window: 1,
            pair_service: SimTime::from_nanos(1_500),
            ..c
        };
        assert_eq!(clamped.next_slot(at(1)), at(1_000));
        assert_eq!(clamped.next_slot(at(1_000)), at(1_000));
    }

    #[test]
    fn single_small_request_takes_exactly_one_service_time() {
        // Uncontended, aligned, pairs <= channels: latency == s, the
        // closed-form pair_service_time prediction.
        let mesh = Mesh::new(4, 4, 2);
        let out = run_requests(&mesh, &cfg(), &[(SimTime::ZERO, request(0, 3, 4))]);
        assert_eq!(out.requests.len(), 1);
        assert_eq!(out.requests[0].hops, 3);
        assert_eq!(out.requests[0].completion, at(100));
        assert_eq!(out.makespan, at(100));
        assert_eq!(out.windows_used(cfg().window), 1);
    }

    #[test]
    fn engine_matches_the_closed_form_for_a_lone_request() {
        let mesh = Mesh::new(6, 3, 1);
        for (release, pairs) in [
            (0u64, 1usize),
            (0, 4),
            (0, 5),
            (0, 43),
            (350, 4),
            (950, 1), // straddles the boundary: must wait for the window
            (999, 17),
            (2_000, 80),
        ] {
            let c = cfg();
            let out = run_requests(&mesh, &c, &[(at(release), request(0, 17, pairs))]);
            assert_eq!(
                out.requests[0].completion,
                c.uncontended_completion(at(release), pairs),
                "release {release} pairs {pairs}"
            );
        }
    }

    #[test]
    fn multi_window_completion_matches_the_analytic_window_count() {
        // n = ceil(P / c) service rounds at m rounds per window must span
        // exactly ceil(P / (c·m)) windows — the identity behind the
        // sim-vs-analytic agreement in the uncontended regime.
        let mesh = Mesh::new(5, 1, 1);
        let c = cfg();
        for pairs in [1usize, 39, 40, 41, 80, 81, 397] {
            let out = run_requests(&mesh, &c, &[(SimTime::ZERO, request(0, 4, pairs))]);
            let analytic = pairs
                .div_ceil(c.channels_per_edge)
                .div_ceil(c.pairs_per_window);
            assert_eq!(out.windows_used(c.window), analytic, "pairs {pairs}");
        }
    }

    #[test]
    fn contending_requests_queue_fifo_on_the_shared_edge() {
        // Two 4-pair requests over the same single edge: the second's jobs
        // queue behind the first's and finish one round later.
        let mesh = Mesh::new(2, 1, 1);
        let c = cfg();
        let out = run_requests(
            &mesh,
            &c,
            &[
                (SimTime::ZERO, request(0, 1, 4)),
                (SimTime::ZERO, request(0, 1, 4)),
            ],
        );
        assert_eq!(out.requests[0].completion, at(100));
        assert_eq!(out.requests[1].completion, at(200));
        // And the queueing delay is visible against the closed form.
        assert!(out.requests[1].completion > c.uncontended_completion(SimTime::ZERO, 4));
    }

    #[test]
    fn colocated_requests_route_out_and_back() {
        let mesh = Mesh::new(3, 3, 1);
        let out = run_requests(&mesh, &cfg(), &[(SimTime::ZERO, request(4, 4, 2))]);
        assert_eq!(out.requests[0].hops, 1);
        assert_eq!(out.requests[0].completion, at(100));
    }

    #[test]
    fn ancilla_factory_serialises_preps_at_capacity_one() {
        let mesh = Mesh::new(3, 1, 1);
        let c = SimConfig {
            ancilla_capacity: 1,
            ..cfg()
        };
        let items = [WorkItem {
            arrival: SimTime::ZERO,
            ancillas: 6,
            requests: vec![request(0, 2, 4)],
            tenant: 0,
        }];
        let out = simulate(&mesh, &c, &items);
        // 6 sequential preps of 1000 ns gate the release.
        assert_eq!(out.items[0].released, at(6_000));
        assert_eq!(out.items[0].completion, at(6_100));
        // With 6 parallel slots the preps overlap completely.
        let wide = SimConfig {
            ancilla_capacity: 6,
            ..c
        };
        let out = simulate(&mesh, &wide, &items);
        assert_eq!(out.items[0].released, at(1_000));
    }

    #[test]
    fn admission_control_backlogs_beyond_the_queue_depth() {
        let mesh = Mesh::new(2, 1, 1);
        let c = SimConfig {
            max_in_flight: 1,
            ..cfg()
        };
        let items: Vec<WorkItem> = (0..3)
            .map(|_| WorkItem {
                arrival: SimTime::ZERO,
                ancillas: 0,
                requests: vec![request(0, 1, 4)],
                tenant: 0,
            })
            .collect();
        let out = simulate(&mesh, &c, &items);
        // Strictly serialised: each item only enters once the previous one
        // finished.
        assert_eq!(out.items[0].completion, at(100));
        assert_eq!(out.items[1].released, at(100));
        assert_eq!(out.items[1].completion, at(200));
        assert_eq!(out.items[2].completion, at(300));
    }

    #[test]
    fn runs_are_deterministic_and_utilisation_is_a_fraction() {
        let mesh = Mesh::new(4, 4, 2);
        let c = cfg();
        let items: Vec<WorkItem> = (0..8)
            .map(|i| WorkItem {
                arrival: at(137 * i as u64),
                ancillas: 2,
                requests: vec![request(i % 16, (5 * i + 3) % 16, 9)],
                tenant: 0,
            })
            .collect();
        let first = simulate(&mesh, &c, &items);
        let again = simulate(&mesh, &c, &items);
        assert_eq!(first, again, "same inputs must reproduce the same run");
        let u = first.channel_utilization(&c);
        assert!(u > 0.0 && u <= 1.0, "channel utilisation {u}");
        let f = first.factory_utilization(&c);
        assert!(f > 0.0 && f <= 1.0, "factory utilisation {f}");
        assert!(first.events > 0);
    }

    #[test]
    fn measurement_interval_clips_busy_accounting() {
        let mesh = Mesh::new(2, 1, 1);
        let measured = SimConfig {
            measure: Some((at(0), at(50))),
            ..cfg()
        };
        // One 4-pair round spans [0, 100) ns; only 50 ns × 4 channels fall
        // inside the interval.
        let out = run_requests(&mesh, &measured, &[(SimTime::ZERO, request(0, 1, 4))]);
        assert_eq!(out.busy_channel_ns, 200);
    }

    #[test]
    fn busy_accounting_covers_the_whole_run_without_an_interval() {
        let mesh = Mesh::new(2, 1, 1);
        // The same 4-pair round: all 100 ns × 4 channels count.
        let out = run_requests(&mesh, &cfg(), &[(SimTime::ZERO, request(0, 1, 4))]);
        assert_eq!(out.busy_channel_ns, 400);
    }

    #[test]
    #[should_panic(expected = "pairs_per_window must be at least 1")]
    fn degenerate_configs_fail_loudly() {
        let mesh = Mesh::new(2, 1, 1);
        let bad = SimConfig {
            pairs_per_window: 0,
            ..cfg()
        };
        let _ = simulate(&mesh, &bad, &[]);
    }

    fn two_node_edge(mesh: &Mesh) -> Edge {
        let edges = mesh.edges();
        assert_eq!(edges.len(), 1);
        edges[0]
    }

    #[test]
    fn an_empty_fault_timeline_reproduces_simulate_exactly() {
        let mesh = Mesh::new(4, 4, 2);
        let c = cfg();
        let items: Vec<WorkItem> = (0..8)
            .map(|i| WorkItem {
                arrival: at(137 * i as u64),
                ancillas: 2,
                requests: vec![request(i % 16, (5 * i + 3) % 16, 9)],
                tenant: 0,
            })
            .collect();
        assert_eq!(
            simulate(&mesh, &c, &items),
            simulate_observed(&mesh, &c, &items, &FaultTimeline::default(), &mut Noop),
            "a healthy timeline must not perturb the run"
        );
    }

    #[test]
    fn a_channel_outage_parks_jobs_until_recovery() {
        let mesh = Mesh::new(2, 1, 1);
        let c = cfg();
        let faults = FaultTimeline {
            channel_faults: vec![ChannelFault {
                edge: two_node_edge(&mesh),
                from: SimTime::ZERO,
                until: at(1_000),
                channels: 0,
            }],
            ..FaultTimeline::default()
        };
        let items = [WorkItem {
            arrival: SimTime::ZERO,
            ancillas: 0,
            requests: vec![request(0, 1, 4)],
            tenant: 0,
        }];
        // Healthy: one 4-pair round completes at s = 100 ns. Outaged: the
        // first serving round is the first slot at/after recovery.
        assert_eq!(simulate(&mesh, &c, &items).makespan, at(100));
        let out = simulate_observed(&mesh, &c, &items, &faults, &mut Noop);
        assert_eq!(out.makespan, at(1_100));
    }

    #[test]
    fn a_degraded_edge_serves_smaller_batches_then_recovers() {
        let mesh = Mesh::new(2, 1, 1);
        let c = cfg();
        let faults = FaultTimeline {
            channel_faults: vec![ChannelFault {
                edge: two_node_edge(&mesh),
                from: SimTime::ZERO,
                until: at(150),
                channels: 1,
            }],
            ..FaultTimeline::default()
        };
        let items = [WorkItem {
            arrival: SimTime::ZERO,
            ancillas: 0,
            requests: vec![request(0, 1, 4)],
            tenant: 0,
        }];
        // The rounds starting at 0 and 100 ns fall inside the fault and
        // serve 1 job each; the round at 200 ns is past it and serves the
        // remaining 2 at full width.
        let out = simulate_observed(&mesh, &c, &items, &faults, &mut Noop);
        assert_eq!(out.makespan, at(300));
        // And work arriving after recovery is completely unaffected.
        let late = [WorkItem {
            arrival: at(2_000),
            ancillas: 0,
            requests: vec![request(0, 1, 4)],
            tenant: 0,
        }];
        assert_eq!(
            simulate_observed(&mesh, &c, &late, &faults, &mut Noop),
            simulate(&mesh, &c, &late),
            "a past fault must leave later traffic untouched"
        );
    }

    #[test]
    fn a_factory_fault_stalls_preparations_until_recovery() {
        let mesh = Mesh::new(3, 1, 1);
        let c = cfg();
        let faults = FaultTimeline {
            factory_faults: vec![FactoryFault {
                from: SimTime::ZERO,
                until: at(5_000),
                capacity: 0,
            }],
            ..FaultTimeline::default()
        };
        let items = [WorkItem {
            arrival: SimTime::ZERO,
            ancillas: 1,
            requests: vec![],
            tenant: 0,
        }];
        // Healthy: the single prep runs [0, 1000). Stalled: it cannot
        // start before the recovery instant at 5000 ns.
        assert_eq!(simulate(&mesh, &c, &items).items[0].released, at(1_000));
        let out = simulate_observed(&mesh, &c, &items, &faults, &mut Noop);
        assert_eq!(out.items[0].released, at(6_000));
    }

    #[test]
    fn tenant_quotas_gate_admission_per_tenant() {
        let mesh = Mesh::new(2, 1, 1);
        let c = cfg();
        let item = |tenant: usize| WorkItem {
            arrival: SimTime::ZERO,
            ancillas: 0,
            requests: vec![request(0, 1, 4)],
            tenant,
        };
        let items = [item(0), item(0), item(1), item(1)];
        let faults = FaultTimeline {
            tenant_quotas: vec![1, 2],
            ..FaultTimeline::default()
        };
        let out = simulate_observed(&mesh, &c, &items, &faults, &mut Noop);
        // Tenant 1's two items are admitted immediately; tenant 0's second
        // waits for its first to finish (quota 1) even though the global
        // limit never binds.
        assert_eq!(out.items[0].released, SimTime::ZERO);
        assert_eq!(out.items[2].released, SimTime::ZERO);
        assert_eq!(out.items[3].released, SimTime::ZERO);
        assert_eq!(out.items[1].released, out.items[0].completion);
        assert_eq!(out.items[1].tenant, 0);
    }

    #[test]
    fn recording_never_perturbs_the_outcome_and_captures_the_run() {
        use qla_obs::{EventLog, ObsConfig};
        let mesh = Mesh::new(4, 4, 2);
        let c = SimConfig {
            max_in_flight: 2,
            ..cfg()
        };
        let items: Vec<WorkItem> = (0..6)
            .map(|i| WorkItem {
                arrival: at(137 * i as u64),
                ancillas: 2,
                requests: vec![request(i % 16, (5 * i + 3) % 16, 9)],
                tenant: 0,
            })
            .collect();
        let faults = FaultTimeline {
            factory_faults: vec![FactoryFault {
                from: SimTime::ZERO,
                until: at(500),
                capacity: 0,
            }],
            ..FaultTimeline::default()
        };
        let plain = simulate_observed(&mesh, &c, &items, &faults, &mut Noop);

        let mut full = EventLog::for_point(ObsConfig::full(), "sim");
        let observed = simulate_observed(&mesh, &c, &items, &faults, &mut full);
        assert_eq!(observed, plain, "recording must be outcome-invariant");

        let tracks = full.tracks();
        for expected in ["fault", "admission", "factory", "item", "channel", "queue"] {
            assert!(
                tracks.iter().any(|t| t == expected),
                "track {expected} missing from {tracks:?}"
            );
        }
        // Every item admits and completes; the deferred ones show up too.
        let named = |name: &str| full.events().iter().filter(|e| e.name == name).count();
        assert_eq!(named("admit"), items.len());
        assert_eq!(named("sojourn"), items.len());
        assert!(named("defer") > 0, "max_in_flight=2 must defer arrivals");
        assert_eq!(named("factory-onset"), 1);
        assert_eq!(named("factory-recovery"), 1);
        assert_eq!(named("ancilla-prep"), 2 * items.len());

        // Light detail drops the per-round channel tracks and nothing else.
        let mut light = EventLog::for_point(ObsConfig::light(), "sim");
        assert_eq!(
            simulate_observed(&mesh, &c, &items, &faults, &mut light),
            plain
        );
        assert!(light
            .tracks()
            .iter()
            .all(|t| t != "channel" && t != "queue"));
        assert!(light.events().len() < full.events().len());

        // And two observed runs record byte-identical logs.
        let mut again = EventLog::for_point(ObsConfig::full(), "sim");
        let _ = simulate_observed(&mesh, &c, &items, &faults, &mut again);
        assert_eq!(full, again);
    }

    #[test]
    #[should_panic(expected = "outside the 1-entry quota table")]
    fn an_out_of_table_tenant_fails_loudly() {
        let mesh = Mesh::new(2, 1, 1);
        let items = [WorkItem {
            arrival: SimTime::ZERO,
            ancillas: 0,
            requests: vec![request(0, 1, 1)],
            tenant: 1,
        }];
        let faults = FaultTimeline {
            tenant_quotas: vec![4],
            ..FaultTimeline::default()
        };
        let _ = simulate_observed(&mesh, &cfg(), &items, &faults, &mut Noop);
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn a_fault_on_a_foreign_edge_fails_loudly() {
        let mesh = Mesh::new(2, 1, 1);
        let faults = FaultTimeline {
            channel_faults: vec![ChannelFault {
                edge: Edge::new(40, 41),
                from: SimTime::ZERO,
                until: at(100),
                channels: 0,
            }],
            ..FaultTimeline::default()
        };
        let _ = simulate_observed(&mesh, &cfg(), &[], &faults, &mut Noop);
    }
}
