//! Untraced cells: one figure cell through the fleet path the figure
//! binaries use (`fct_cell` + `run_cells`, cache off, tracing off), and
//! the output checks every cell must pass.

use std::time::Instant;

use conga_analysis::fct::FctSummary;
use conga_experiments::{fct_cell, run_cells, FctRun, FleetOpts};
use conga_fleet::scenario::fnv1a64;
use conga_fleet::{CellResult, ResultCache};
use conga_trace::json::{parse, Value};

/// The engine counters the fidelity check compares, read from a cell's
/// `RunReport` JSON.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub events: u64,
    pub injected: u64,
    pub delivered: u64,
    pub delivered_payload: u64,
    pub drops: u64,
    pub blackholed: u64,
    pub unroutable: u64,
    pub ecn_marked: u64,
    pub bytes_retx: u64,
    pub rto_timeouts: u64,
    pub flowlet_new: u64,
}

impl Counters {
    /// Read the counters from a report; counters a run does not export
    /// (blackholes without faults, ECN without marking) read as 0.
    pub fn from_report(report_json: &str) -> Result<Counters, String> {
        let doc = parse(report_json)?;
        let counters = doc.get("counters").ok_or("report has no counters")?;
        let get = |k: &str| counters.get(k).and_then(Value::as_u64).unwrap_or(0);
        Ok(Counters {
            events: get("engine.events"),
            injected: get("engine.injected_pkts"),
            delivered: get("engine.delivered_pkts"),
            delivered_payload: get("engine.delivered_payload_bytes"),
            drops: get("engine.queue_drops"),
            blackholed: get("net.blackholed_packets"),
            unroutable: get("engine.unroutable_pkts"),
            ecn_marked: get("net.ecn_marked_pkts"),
            bytes_retx: get("transport.bytes_retx"),
            rto_timeouts: get("transport.rto_timeouts"),
            flowlet_new: get("dataplane.flowlet_new"),
        })
    }

    /// Every injected packet was delivered, dropped at a queue,
    /// blackholed by a dead link or declared unroutable.
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.drops + self.blackholed + self.unroutable
    }
}

/// What one cell produced, and every check it failed.
pub struct CellOutcome {
    pub wall_s: f64,
    pub summary: FctSummary,
    pub report_json: String,
    pub counters: Counters,
    pub problems: Vec<String>,
}

impl CellOutcome {
    /// FNV-1a/64 of the cell's report JSON.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.report_json.as_bytes())
    }

    /// The modelled statistics, deterministic for a given seed: two
    /// commits that differ only in speed print this line identically.
    pub fn model_line(&self, workload: &str, seed: u64) -> String {
        let s = &self.summary;
        let c = &self.counters;
        format!(
            "model {workload} seed={seed} digest={:016x} flows={} incomplete={} \
             mean_slowdown={:?} avg_norm_optimal={:?} p99_fct_s={:?} events={} \
             delivered={} drops={} blackholed={} ecn_marked={} rto_timeouts={}",
            self.digest(),
            s.n,
            s.incomplete,
            s.mean_slowdown,
            s.avg_norm_optimal,
            s.p99_s,
            c.events,
            c.delivered,
            c.drops,
            c.blackholed,
            c.ecn_marked,
            c.rto_timeouts,
        )
    }
}

/// Run `cfg` as one fleet cell and check its outputs.
pub fn run(cfg: &FctRun) -> CellOutcome {
    let opts = FleetOpts {
        jobs: 1,
        cache: ResultCache::disabled(),
    };
    let cell = fct_cell("perfbench", "cell", cfg.clone(), false, None);
    let t = Instant::now();
    let mut results = run_cells(vec![cell], &opts);
    let wall_s = t.elapsed().as_secs_f64();
    let r = results
        .pop()
        .expect("run_cells returns one result per cell");
    check(r, wall_s)
}

fn check(r: CellResult, wall_s: f64) -> CellOutcome {
    let mut problems = Vec::new();
    if let Some(msg) = r.text.get("failed") {
        problems.push(format!("cell panicked: {msg}"));
    }
    if r.summary.incomplete > 0 {
        problems.push(format!(
            "{} measured flows incomplete",
            r.summary.incomplete
        ));
    }
    if r.summary.n == 0 {
        problems.push("no measured flow completed".into());
    }
    let counters = match Counters::from_report(&r.report_json) {
        Ok(c) => c,
        Err(e) => {
            problems.push(format!("unreadable report: {e}"));
            Counters::default()
        }
    };
    if !counters.conserved() {
        problems.push(format!("packet conservation broken: {counters:?}"));
    }
    CellOutcome {
        wall_s,
        summary: r.summary,
        report_json: r.report_json,
        counters,
        problems,
    }
}
