//! The benchmark's workloads: one figure cell each, built from the same
//! public [`FctRun`] configuration the figure binaries use. README.md in
//! this directory records why each was chosen.

use conga_experiments::{FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga_sim::SimTime;
use conga_transport::CcKind;
use conga_workloads::FlowSizeDist;

/// One named workload.
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// A worker count besides the timed cells' one whose digest must
    /// equal theirs.
    pub alt_workers: Option<usize>,
    /// Distinct cells (seeds) one run measures.
    pub cells: u64,
    /// Packets a typical cell delivers: `wall_s` is reported at this
    /// amount of work (see `normalized_wall_s`).
    pub ref_pkts: f64,
    build: fn() -> FctRun,
}

impl Workload {
    /// The seed of cell `k` of the run with seed `seed`. A run's cells
    /// are disjoint from every other seed's.
    pub fn cell_seed(&self, seed: u64, k: u64) -> u64 {
        seed.wrapping_mul(CELL_SEED_STRIDE).wrapping_add(k)
    }

    /// Cell `k` of the run with seed `seed`, on one worker thread (the
    /// `FctRun` default).
    pub fn cfg(&self, seed: u64, k: u64) -> FctRun {
        let mut cfg = (self.build)();
        cfg.seed = self.cell_seed(seed, k);
        cfg
    }

    /// Host seconds of a cell that delivered `pkts` packets, scaled to
    /// the workload's reference amount of work. Seeds draw heavy-tailed
    /// flow sizes, so the packets one cell moves vary up to tenfold from
    /// seed to seed; host seconds per delivered packet do not. A
    /// change that leaves the modelled behaviour alone leaves `pkts`
    /// identical for a given seed, so the ratio between two commits is
    /// exactly the ratio of their host times.
    pub fn normalized_wall_s(&self, wall_s: f64, pkts: u64) -> f64 {
        wall_s * self.ref_pkts / pkts.max(1) as f64
    }
}

/// Cell seeds of one run are `seed * CELL_SEED_STRIDE + k`.
const CELL_SEED_STRIDE: u64 = 1000;

/// Fig 7(a)'s baseline testbed under the enterprise workload: many short
/// flows over a two-domain fabric, on the exact FCT path.
fn leafspine_enterprise() -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline(),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.6,
    );
    cfg.n_flows = 300;
    cfg
}

/// Fig 15(c)'s three-tier Clos at a tenth of the hosts: 8 pods of 4
/// leaves and 2 spines, 4 cores, 32 hosts per leaf (1,024 hosts, 32
/// domains), streaming the FCTs through the sketch as fig15 does.
fn clos32_websearch() -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::three_tier(8, 4, 2, 4, 32),
        Scheme::Conga,
        FlowSizeDist::web_search(),
        0.5,
    );
    cfg.n_flows = 150;
    cfg.sketch = true;
    cfg
}

/// Fig 7(b)'s asymmetric fabric (Leaf1–Spine1 #0 down from the start)
/// under data-mining sizes and DCTCP at its default marking threshold,
/// with a second leaf–spine link failing and recovering mid-run.
fn asym_dctcp_fault() -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_failure(),
        Scheme::Conga,
        FlowSizeDist::data_mining(),
        0.5,
    );
    cfg.n_flows = 100;
    cfg.cc = CcKind::Dctcp;
    cfg.faults = vec![
        LinkFaultSpec::fail(SimTime::from_millis(15), 0, 0, 1),
        LinkFaultSpec::recover(SimTime::from_millis(35), 0, 0, 1),
    ];
    cfg
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "leafspine-enterprise",
        alt_workers: None,
        cells: 8,
        ref_pkts: 6.5e5,
        build: leafspine_enterprise,
    },
    Workload {
        name: "clos32-websearch",
        alt_workers: Some(2),
        cells: 5,
        ref_pkts: 5.5e5,
        build: clos32_websearch,
    },
    Workload {
        name: "asym-dctcp-fault",
        alt_workers: None,
        cells: 8,
        ref_pkts: 2.4e6,
        build: asym_dctcp_fault,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
