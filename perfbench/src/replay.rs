//! The traced replay: one cell rebuilt from the lower-level public calls
//! that `run_fct` makes, each call timed from here, with the fabric
//! policy and the transport wrapped in [`TimedDataplane`] and
//! [`TimedAgent`] so the time spent inside `conga-core` and
//! `conga-transport` is known without tracing inside the program.
//!
//! The replay must reproduce `run_fct` exactly: the caller compares its
//! `RunReport` JSON with the untraced cell's byte for byte, so a step
//! left out here, or a trait method the wrappers fail to forward, fails
//! the run instead of skewing its numbers.

use std::time::Instant;

use conga_analysis::fct::{ideal_fct_s, summarize, FctSample, FctSummary};
use conga_analysis::sketch::{FctAccumulator, FctSketch};
use conga_core::FabricPolicy;
use conga_experiments::{
    build_testbed, fct_scenario, merged_arrivals, uniform_arrivals, FctRun, TestbedOpts,
};
use conga_fleet::CellResult;
use conga_net::{
    ChannelId, CoreId, Dataplane, Emitter, Fib, HostAgent, LeafId, Packet, ShardedNetwork, SpineId,
    Topology, WIRE_OVERHEAD,
};
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_telemetry::{MetricsRegistry, RunReport, SeriesRegistry};
use conga_trace::TraceHandle;
use conga_transport::{FlowRecord, FlowSpec, TransportLayer};
use conga_workloads::PoissonPlan;

/// Calls into one hook and the host time spent inside them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hook {
    pub calls: u64,
    pub ns: u64,
}

impl Hook {
    #[inline(always)]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    fn add(&mut self, other: &Hook) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// The per-packet `Dataplane` hooks, in the order of
/// [`TimedDataplane::hooks`].
pub const CORE_HOOKS: [&str; 6] = [
    "leaf_ingress",
    "spine_forward",
    "spine_up_forward",
    "core_forward",
    "on_fabric_tx",
    "leaf_egress",
];

/// A [`FabricPolicy`] that counts and times every per-packet hook. Every
/// trait method is forwarded, the defaulted ones included.
pub struct TimedDataplane {
    inner: FabricPolicy,
    pub hooks: [Hook; 6],
}

impl TimedDataplane {
    pub fn new(inner: FabricPolicy) -> Self {
        TimedDataplane {
            inner,
            hooks: [Hook::default(); 6],
        }
    }
}

impl Dataplane for TimedDataplane {
    fn install(&mut self, topo: &Topology, fib: &Fib) {
        self.inner.install(topo, fib)
    }

    fn leaf_ingress(
        &mut self,
        leaf: LeafId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        let inner = &mut self.inner;
        self.hooks[0].time(|| inner.leaf_ingress(leaf, pkt, candidates, now, rng))
    }

    fn spine_forward(
        &mut self,
        spine: SpineId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        let inner = &mut self.inner;
        self.hooks[1].time(|| inner.spine_forward(spine, pkt, candidates, now, rng))
    }

    fn spine_up_forward(
        &mut self,
        spine: SpineId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        let inner = &mut self.inner;
        self.hooks[2].time(|| inner.spine_up_forward(spine, pkt, candidates, now, rng))
    }

    fn core_forward(
        &mut self,
        core: CoreId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        let inner = &mut self.inner;
        self.hooks[3].time(|| inner.core_forward(core, pkt, candidates, now, rng))
    }

    fn on_fabric_tx(&mut self, ch: ChannelId, pkt: &mut Packet, now: SimTime) {
        let inner = &mut self.inner;
        self.hooks[4].time(|| inner.on_fabric_tx(ch, pkt, now))
    }

    fn leaf_egress(&mut self, leaf: LeafId, pkt: &Packet, now: SimTime) {
        let inner = &mut self.inner;
        self.hooks[5].time(|| inner.leaf_egress(leaf, pkt, now))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.export_metrics(reg)
    }

    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.inner.set_tracer(tracer)
    }

    fn sample_series(&mut self, now: SimTime, out: &mut SeriesRegistry) {
        self.inner.sample_series(now, out)
    }
}

/// A [`TransportLayer`] that counts and times its two event hooks. Every
/// trait method is forwarded, the defaulted ones included.
pub struct TimedAgent {
    pub inner: TransportLayer,
    pub on_packet: Hook,
    pub on_timer: Hook,
}

impl HostAgent for TimedAgent {
    fn on_packet(&mut self, pkt: Packet, now: SimTime, out: &mut Emitter) {
        let inner = &mut self.inner;
        self.on_packet.time(|| inner.on_packet(pkt, now, out))
    }

    fn on_timer(&mut self, token: u64, now: SimTime, out: &mut Emitter) {
        let inner = &mut self.inner;
        self.on_timer.time(|| inner.on_timer(token, now, out))
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        HostAgent::export_metrics(&self.inner, reg)
    }

    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.inner.set_tracer(tracer)
    }

    fn sample_series(&self, now: SimTime, out: &mut SeriesRegistry) {
        self.inner.sample_series(now, out)
    }
}

/// The cell's topology and the leaf-to-leaf capacity its load is
/// relative to (that of the unfailed baseline), as `run_fct` builds them.
pub fn topology(cfg: &FctRun) -> (Topology, u64) {
    let topo = build_testbed(cfg.topo);
    let base = build_testbed(TestbedOpts {
        fail: None,
        ..cfg.topo
    });
    let capacity = base
        .leaf_uplink_capacity(LeafId(0))
        .min(base.access_capacity(LeafId(0)));
    (topo, capacity)
}

/// The cell's flow arrivals at absolute start times, and the span of the
/// arrival window in nanoseconds, as `run_fct` draws them from the seed.
pub fn arrivals(cfg: &FctRun, topo: &Topology, capacity: u64) -> (Vec<(SimTime, FlowSpec)>, u64) {
    let mut rng = SimRng::new(cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0xC04A);
    let kind = cfg.scheme.transport(cfg.tcp.with_cc(cfg.cc));
    let gaps = if topo.n_leaves == 2 {
        let group_a = topo.hosts_under(LeafId(0));
        let group_b = topo.hosts_under(LeafId(1));
        let plan = PoissonPlan::generate(
            &cfg.dist,
            group_a.len() as u32,
            group_b.len() as u32,
            capacity,
            cfg.load,
            cfg.n_flows,
            &mut rng,
        );
        merged_arrivals(&plan, &group_a, &group_b, |_| kind)
    } else {
        uniform_arrivals(
            &cfg.dist,
            topo,
            capacity,
            cfg.load,
            cfg.n_flows * 2,
            &mut rng,
            kind,
        )
    };
    let mut t = SimTime::from_nanos(0);
    let abs = gaps
        .iter()
        .map(|(gap, spec)| {
            t += *gap;
            (t, *spec)
        })
        .collect();
    (abs, t.as_nanos())
}

/// Host time and work of one traced replay, summed over domains.
#[derive(Debug, Default)]
pub struct Replay {
    pub summary: FctSummary,
    pub report_json: String,
    /// `CellResult` survived its cache codec unchanged.
    pub codec_round_trips: bool,
    pub wall_s: f64,
    pub topology_s: f64,
    pub arrivals_s: f64,
    pub shard_setup_s: f64,
    pub setup_rss_mb: f64,
    pub run_s: f64,
    pub drain_s: f64,
    pub summarize_s: f64,
    pub export_s: f64,
    pub hash_s: f64,
    pub codec_s: f64,
    pub domain_events: Vec<u64>,
    pub core: [Hook; 6],
    pub on_packet: Hook,
    pub on_timer: Hook,
    /// Flow entries the per-slice drain visited (all of them, every
    /// slice).
    pub drain_scanned: u64,
    /// Completed flows the drain consumed.
    pub drain_consumed: u64,
    pub report_bytes: u64,
}

type Net = ShardedNetwork<TimedDataplane, TimedAgent>;

/// One flow's record with `rx_done` from the receiver's domain (the
/// public form of `ShardedRun::merged_record`).
fn merged_record(net: &Net, topo: &Topology, i: usize) -> FlowRecord {
    let probe = net.domain(0).agent.inner.records[i];
    let src_d = topo.leaf_of(probe.src).0 as usize;
    let dst_d = topo.leaf_of(probe.dst).0 as usize;
    let mut r = net.domain(src_d).agent.inner.records[i];
    if dst_d != src_d {
        r.rx_done = net.domain(dst_d).agent.inner.records[i].rx_done;
    }
    r
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replay `cfg` on one worker thread, timing every layer.
pub fn replay(cfg: &FctRun) -> Replay {
    let start = Instant::now();
    let rss_before = crate::rss_mb("VmRSS");
    let mut out = Replay::default();

    let t = Instant::now();
    let (topo, capacity) = topology(cfg);
    out.topology_s = secs(t);

    let t = Instant::now();
    let (abs_arrivals, span_ns) = arrivals(cfg, &topo, capacity);
    out.arrivals_s = secs(t);

    // `ShardedRun::new`, with the wrapped types and one worker.
    let t = Instant::now();
    let policy = cfg.scheme.policy();
    let mut net: Net = ShardedNetwork::new(&topo, cfg.seed, 1, |_| {
        (
            TimedDataplane::new(policy.clone()),
            TimedAgent {
                inner: TransportLayer::new(),
                on_packet: Hook::default(),
                on_timer: Hook::default(),
            },
        )
    });
    let ecn = cfg.ecn_config();
    net.each(|d, n| {
        n.set_queue_kind(cfg.queue);
        if let Some(e) = ecn {
            n.set_ecn(e);
        }
        for f in &cfg.faults {
            let (leaf, spine) = (LeafId(f.leaf), SpineId(f.spine));
            if f.up {
                n.schedule_link_recovery(f.at, leaf, spine, f.parallel as usize);
            } else {
                n.schedule_link_fault(f.at, leaf, spine, f.parallel as usize);
            }
        }
        for f in &cfg.core_faults {
            let (spine, core) = (SpineId(f.spine), CoreId(f.core));
            if f.up {
                n.schedule_core_link_recovery(f.at, spine, core, f.parallel as usize);
            } else {
                n.schedule_core_link_fault(f.at, spine, core, f.parallel as usize);
            }
        }
        for (t0, spec) in &abs_arrivals {
            let tx_local = topo.leaf_of(spec.src).0 as usize == d;
            let id = n.agent.inner.preregister(*spec, *t0, tx_local);
            if tx_local {
                n.schedule_timer(
                    SimDuration::from_nanos(t0.as_nanos()),
                    TransportLayer::start_token(id),
                );
            }
        }
    });
    out.shard_setup_s = secs(t);
    out.setup_rss_mb = crate::rss_mb("VmRSS") - rss_before;

    // The slice loop of `run_fct`: 50 ms slices, with the streaming
    // drain after each when the cell aggregates through the sketch.
    let edge_bps = cfg.topo.host_gbps * 1_000_000_000;
    let mss = cfg.tcp.mss;
    let ideal_of = |r: &FlowRecord| {
        let (sl, dl) = (topo.leaf_of(r.src), topo.leaf_of(r.dst));
        let hops = if sl == dl {
            2
        } else if topo.pod_of_leaf(sl) != topo.pod_of_leaf(dl) {
            6
        } else {
            4
        };
        ideal_fct_s(r.bytes, edge_bps, hops, 2.5e-6, mss, WIRE_OVERHEAD)
    };
    let measure_until = SimTime::from_nanos((span_ns as f64 * 0.7) as u64);
    let total_flows = cfg.n_flows * 2;
    let drain_bound = SimTime::from_nanos(span_ns) + SimDuration::from_secs(8);
    let mut consumed = vec![false; if cfg.sketch { abs_arrivals.len() } else { 0 }];
    let mut acc = FctAccumulator::new();
    let mut sk = FctSketch::new();
    loop {
        let t_end = net.now() + SimDuration::from_millis(50);
        let t = Instant::now();
        net.run_until(t_end);
        out.run_s += secs(t);
        let t = Instant::now();
        out.drain_scanned += consumed.len() as u64;
        for (i, done) in consumed.iter_mut().enumerate() {
            if *done {
                continue;
            }
            let r = merged_record(&net, &topo, i);
            if let Some(f) = r.fct() {
                *done = true;
                out.drain_consumed += 1;
                if r.start <= measure_until {
                    acc.add(r.bytes, f.as_nanos(), ideal_of(&r));
                    sk.add(f.as_secs_f64());
                }
            }
        }
        out.drain_s += secs(t);
        let completed: usize = (0..net.n_domains())
            .map(|d| net.domain(d).agent.inner.completed_rx)
            .sum();
        if completed >= total_flows || net.now() >= drain_bound {
            break;
        }
    }

    let t = Instant::now();
    let records: Vec<FlowRecord> = (0..abs_arrivals.len())
        .map(|i| merged_record(&net, &topo, i))
        .collect();
    out.summary = if cfg.sketch {
        for (i, done) in consumed.iter().enumerate() {
            if !done && records[i].start <= measure_until {
                acc.add_incomplete();
            }
        }
        acc.summary(&sk)
    } else {
        let mut samples = Vec::new();
        let mut incomplete = 0;
        for r in &records {
            if r.start > measure_until {
                continue;
            }
            match r.fct() {
                Some(f) => samples.push(FctSample {
                    bytes: r.bytes,
                    fct_s: f.as_secs_f64(),
                    ideal_s: ideal_of(r),
                }),
                None => incomplete += 1,
            }
        }
        summarize(&samples, incomplete)
    };
    let retx_bytes: u64 = records.iter().map(|r| r.retx_bytes).sum();
    let timeouts: u64 = records.iter().map(|r| r.timeouts).sum();
    out.summarize_s = secs(t);

    // Report assembly as `run_fct` does it: mean fabric queues (which
    // settle each port's occupancy integral), metadata, merged metrics
    // and series, then the JSON the fleet stores.
    let t = Instant::now();
    let now = net.now();
    for c in (0..topo.channels.len() as u32).map(ChannelId) {
        if topo.channel(c).kind.is_fabric() {
            let d = net.tx_domain(c);
            std::hint::black_box(net.domain_mut(d).port_mut(c).mean_queue_bytes(now));
        }
    }
    let mut report = report_meta(cfg, net.domain(0).dataplane.name(), now);
    net.export_metrics(&mut report.metrics);
    std::hint::black_box(net.export_series());
    out.report_json = report.to_json();
    out.report_bytes = out.report_json.len() as u64;
    out.export_s = secs(t);

    // The fleet's share of a cell: the scenario hash `run_cells` keys the
    // cache with, and the cache-entry codec.
    let t = Instant::now();
    std::hint::black_box(fct_scenario("perfbench", "cell", cfg, false).content_hash());
    out.hash_s = secs(t);
    let mut cell = CellResult {
        summary: out.summary,
        report_json: out.report_json.clone(),
        ..CellResult::default()
    };
    let drops: u64 = (0..net.n_domains())
        .map(|d| net.domain(d).total_drops())
        .sum();
    cell.values.insert("drops".into(), drops as f64);
    cell.values.insert("retx_bytes".into(), retx_bytes as f64);
    cell.values.insert("timeouts".into(), timeouts as f64);
    let t = Instant::now();
    let parsed = CellResult::parse(&cell.to_json());
    out.codec_s = secs(t);
    out.codec_round_trips = parsed.as_ref() == Ok(&cell);

    for d in 0..net.n_domains() {
        let dom = net.domain(d);
        out.domain_events.push(dom.stats.events);
        for (sum, h) in out.core.iter_mut().zip(&dom.dataplane.hooks) {
            sum.add(h);
        }
        out.on_packet.add(&dom.agent.on_packet);
        out.on_timer.add(&dom.agent.on_timer);
    }
    drop(net);
    out.wall_s = secs(start);
    out
}

/// The report metadata `run_fct` stamps, key for key.
fn report_meta(cfg: &FctRun, policy: &str, end: SimTime) -> RunReport {
    let mut report = RunReport::new();
    report.set_meta("scheme", cfg.scheme.name());
    report.set_meta("policy", policy);
    report.set_meta("seed", cfg.seed.to_string());
    report.set_meta("load", format!("{}", cfg.load));
    report.set_meta("n_flows", cfg.n_flows.to_string());
    if cfg.cc != conga_transport::CcKind::Aimd {
        report.set_meta("cc", cfg.cc.name());
    }
    if let Some(pkts) = cfg.effective_ecn_pkts() {
        report.set_meta("ecn_threshold_pkts", pkts.to_string());
    }
    let o = &cfg.topo;
    let topology = if o.pods > 1 {
        format!(
            "{}pods:{}x{}x{}+{}cores@{}G/{}G par{}",
            o.pods,
            o.leaves,
            o.spines,
            o.hosts_per_leaf,
            o.cores,
            o.host_gbps,
            o.fabric_gbps,
            o.parallel
        )
    } else {
        format!(
            "{}x{}x{}@{}G/{}G par{}",
            o.leaves, o.spines, o.hosts_per_leaf, o.host_gbps, o.fabric_gbps, o.parallel
        )
    };
    report.set_meta("topology", topology);
    if cfg.sketch {
        report.set_meta("fct_aggregation", "sketch");
    }
    if let Some((l, s, p)) = o.fail {
        report.set_meta("failed_link", format!("leaf{l}-spine{s}#{p}"));
    }
    let transition = |up: bool| if up { "recover" } else { "fail" };
    if !cfg.faults.is_empty() {
        let sched: Vec<String> = cfg
            .faults
            .iter()
            .map(|f| {
                format!(
                    "{}@{}ns:leaf{}-spine{}#{}",
                    transition(f.up),
                    f.at.as_nanos(),
                    f.leaf,
                    f.spine,
                    f.parallel
                )
            })
            .collect();
        report.set_meta("fault_schedule", sched.join(","));
    }
    if !cfg.core_faults.is_empty() {
        let sched: Vec<String> = cfg
            .core_faults
            .iter()
            .map(|f| {
                format!(
                    "{}@{}ns:spine{}-core{}#{}",
                    transition(f.up),
                    f.at.as_nanos(),
                    f.spine,
                    f.core,
                    f.parallel
                )
            })
            .collect();
        report.set_meta("core_fault_schedule", sched.join(","));
    }
    report.set_meta("end_time_ns", end.as_nanos().to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    /// The wrappers' self-test on a small cell of every workload: the
    /// wrapped replay must export the untraced cell's `RunReport` JSON
    /// byte for byte.
    #[test]
    fn wrapped_replay_equals_the_untraced_cell() {
        for name in [
            "leafspine-enterprise",
            "clos32-websearch",
            "asym-dctcp-fault",
        ] {
            let mut cfg = by_name(name).expect("known workload").cfg(7, 0);
            cfg.n_flows = 20;
            cfg.topo = if cfg.topo.pods > 1 {
                TestbedOpts::three_tier(2, 2, 1, 2, 4)
            } else {
                cfg.topo.quick()
            };
            let r = replay(&cfg);
            let cell = crate::cell::run(&cfg);
            assert!(cell.problems.is_empty(), "{name}: {:?}", cell.problems);
            assert_eq!(r.summary, cell.summary, "{name}");
            assert_eq!(r.report_json, cell.report_json, "{name}");
            assert!(r.codec_round_trips, "{name}");
            assert!(
                r.core[0].calls > 0 && r.on_packet.calls > 0,
                "{name}: hooks not timed"
            );
        }
    }
}
