//! The simulator benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's cell through the fleet path the figure
//! binaries use and reports the end-to-end metrics (`wall_s`, `setup_s`,
//! `peak_rss_mb`). `--trace 1` replays the cell through the lower-level
//! public calls with every layer timed from here and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the lines before it that start with `model` are deterministic
//! for a given seed. README.md in this directory describes the
//! workloads and what each metric should move.

mod cell;
mod replay;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use replay::{Replay, CORE_HOOKS};
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Opts {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set by `--cell <k>`, with which an untraced run starts itself once
    /// per cell: run cell `k` alone and print its record.
    cell: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut cell) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--cell" => cell = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cell,
    })
}

/// A field of `/proc/self/status` in MB (`VmRSS`, `VmHWM`).
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds a run's time metrics are scaled to: the reference
/// kernel's time on the machine the first numbers in README.md come from.
const REFERENCE_NOMINAL_S: f64 = 0.05;

/// Host seconds of a fixed reference computation shaped like the
/// simulator's inner loop: a binary-heap event queue of 64 Ki entries
/// and scattered updates to a 2 MiB table. It runs no simulator code, so
/// its time moves only with the speed the host gives this process.
fn reference_seconds() -> f64 {
    let mut state = vec![1u64; 1 << 18];
    let mut queue = std::collections::BinaryHeap::with_capacity(1 << 16);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for id in 0..1u64 << 16 {
        queue.push(std::cmp::Reverse((next() >> 40, id)));
    }
    let t = Instant::now();
    for _ in 0..400_000 {
        let Some(std::cmp::Reverse((time, id))) = queue.pop() else {
            break;
        };
        let r = next();
        let j = r as usize & (state.len() - 1);
        state[j] = state[j].wrapping_add(time ^ id);
        queue.push(std::cmp::Reverse((time + (r >> 44) + 1, id)));
    }
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(&state);
    s
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host seconds of the public set-up calls `run_fct` makes before its
/// first `run_until`: topology, arrivals and `ShardedRun::new`.
fn setup_once(cfg: &conga_experiments::FctRun) -> f64 {
    let t = Instant::now();
    let (topo, capacity) = replay::topology(cfg);
    let (arrivals, _) = replay::arrivals(cfg, &topo, capacity);
    let run = conga_experiments::ShardedRun::new(
        &topo,
        cfg.scheme.policy(),
        cfg.seed,
        cfg.shards,
        cfg.queue,
        cfg.ecn_config(),
        None,
        &cfg.faults,
        &cfg.core_faults,
        &arrivals,
    );
    let s = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(run));
    s
}

/// What one cell's own process reported.
#[derive(Default)]
struct CellRecord {
    wall_s: f64,
    digest: u64,
    delivered: u64,
    peak_rss_mb: f64,
    /// The reference kernel's host seconds around the cell.
    reference_s: f64,
    model_line: String,
    problems: Vec<String>,
}

/// `--cell <k>`: run cell `k` in this fresh process and print its record,
/// so its peak RSS is its own.
fn one_cell(o: &Opts, k: u64) {
    let cfg = o.workload.cfg(o.seed, k);
    let before = reference_seconds();
    let out = cell::run(&cfg);
    let reference_s = (before + reference_seconds()) / 2.0;
    println!("{}", out.model_line(o.workload.name, cfg.seed));
    println!(
        "cell {} {:016x} {} {} {}",
        out.wall_s,
        out.digest(),
        out.counters.delivered,
        rss_mb("VmHWM"),
        reference_s
    );
    for p in &out.problems {
        println!("problem {p}");
    }
}

/// Run cell `k` in a process of its own and read back its record.
fn run_cell_process(o: &Opts, k: u64) -> CellRecord {
    let mut rec = CellRecord::default();
    let exe = std::env::current_exe().expect("the running executable has a path");
    let out = std::process::Command::new(exe)
        .args(["--workload", o.workload.name, "--trace", "0"])
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .args(["--cell", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output();
    let out = match out {
        Ok(out) if out.status.success() => out,
        Ok(out) => {
            rec.problems
                .push(format!("cell process failed: {}", out.status));
            return rec;
        }
        Err(e) => {
            rec.problems
                .push(format!("cell process did not start: {e}"));
            return rec;
        }
    };
    let mut parsed = false;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if line.starts_with("model ") {
            rec.model_line = line.to_string();
        } else if let Some(p) = line.strip_prefix("problem ") {
            rec.problems.push(p.to_string());
        } else if let Some(fields) = line.strip_prefix("cell ") {
            let f: Vec<&str> = fields.split(' ').collect();
            if let [wall, digest, delivered, rss, reference] = f[..] {
                if let (Ok(w), Ok(d), Ok(p), Ok(r), Ok(c)) = (
                    wall.parse(),
                    u64::from_str_radix(digest, 16),
                    delivered.parse(),
                    rss.parse(),
                    reference.parse(),
                ) {
                    (rec.wall_s, rec.digest, rec.delivered) = (w, d, p);
                    (rec.peak_rss_mb, rec.reference_s) = (r, c);
                    parsed = true;
                }
            }
        }
    }
    if !parsed {
        rec.problems.push("cell process printed no record".into());
    }
    rec
}

/// `--trace 0`: set-up timed on its own, then the workload's cells
/// through `run_cells`, each in a process of its own, round robin until
/// each has run and the time is up. Every repeat of a cell must reproduce
/// its first digest.
fn untraced(o: &Opts) -> Outcome {
    let w = o.workload;
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < 5 || (start.elapsed() < budget / 10 && setups.len() < 200) {
        let k = setups.len() as u64 % w.cells;
        setups.push(setup_once(&w.cfg(o.seed, k)));
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut walls, mut rss, mut references) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests: Vec<u64> = Vec::new();
    while attempted <= w.cells || start.elapsed() < budget {
        let k = attempted % w.cells;
        let seed = w.cell_seed(o.seed, k);
        let mut rec = run_cell_process(o, k);
        attempted += 1;
        match digests.get(k as usize) {
            None => {
                digests.push(rec.digest);
                println!("{}", rec.model_line);
            }
            Some(&d) if d != rec.digest => rec
                .problems
                .push("report digest differs from a repeat of the same seed".into()),
            Some(_) => {}
        }
        eprintln!(
            "perfbench: {} cell seed {seed}: {:.3} s host, {} packets delivered, \
             peak RSS {:.1} MB, reference {:.4} s",
            w.name, rec.wall_s, rec.delivered, rec.peak_rss_mb, rec.reference_s
        );
        walls.push(w.normalized_wall_s(rec.wall_s, rec.delivered));
        references.push(rec.reference_s);
        if attempted <= w.cells {
            rss.push(rec.peak_rss_mb);
        }
        if !rec.problems.is_empty() {
            failed += 1;
            eprintln!(
                "perfbench: {} cell seed {seed} FAILED: {}",
                w.name,
                rec.problems.join("; ")
            );
        }
    }

    if let Some(alt) = w.alt_workers {
        let mut cfg = w.cfg(o.seed, 0);
        cfg.shards = alt;
        let out = cell::run(&cfg);
        attempted += 1;
        if out.digest() != digests[0] || !out.problems.is_empty() {
            failed += 1;
            eprintln!(
                "perfbench: {} FAILED: {alt} workers give digest {:016x}, one gives {:016x} {}",
                w.name,
                out.digest(),
                digests[0],
                out.problems.join("; ")
            );
        }
    }

    // Host speed on a shared machine drifts by tens of percent over
    // minutes. Both time metrics are given at the speed at which the
    // reference kernel takes REFERENCE_NOMINAL_S, measured around every
    // cell of this run.
    let (wall, setup) = (median(walls), median(setups));
    let scale = REFERENCE_NOMINAL_S / median(references);
    eprintln!(
        "perfbench: {} unscaled wall_s {wall:.4} setup_s {setup:.6}, host scale {scale:.4}",
        w.name
    );
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("wall_s".into(), wall * scale, "s"),
            ("setup_s".into(), setup * scale, "s"),
            (
                "peak_rss_mb".into(),
                rss.iter().sum::<f64>() / rss.len() as f64,
                "MB",
            ),
        ],
    }
}

/// The ways a traced replay can differ from the untraced cell.
fn fidelity(reference: &cell::CellOutcome, r: &Replay) -> Vec<String> {
    let mut diffs = Vec::new();
    if r.summary != reference.summary {
        diffs.push(format!(
            "FctSummary {:?} != untraced {:?}",
            r.summary, reference.summary
        ));
    }
    match cell::Counters::from_report(&r.report_json) {
        Ok(c) => {
            let want = &reference.counters;
            for (name, got, want) in [
                ("events", c.events, want.events),
                ("delivered", c.delivered, want.delivered),
                ("drops", c.drops, want.drops),
                ("blackholed", c.blackholed, want.blackholed),
                ("ecn_marked", c.ecn_marked, want.ecn_marked),
            ] {
                if got != want {
                    diffs.push(format!("{name}: traced {got} != untraced {want}"));
                }
            }
        }
        Err(e) => diffs.push(format!("unreadable traced report: {e}")),
    }
    // The wrapper self-test: any trait method the wrappers fail to
    // forward changes some exported counter, series or metadata.
    if r.report_json != reference.report_json {
        diffs.push("traced RunReport JSON differs from the untraced cell's".into());
    }
    if !r.codec_round_trips {
        diffs.push("CellResult does not survive to_json + parse".into());
    }
    diffs
}

/// `--trace 1`: the traced replay, alternating with the untraced cell of
/// the same seed until the time is up; every replay must match the cell
/// and every cell its first run. The first replay runs before anything
/// else in the process, so its set-up RSS growth is not hidden by memory
/// an earlier run freed.
fn traced(o: &Opts) -> Result<Outcome, String> {
    let w = o.workload;
    let cfg = w.cfg(o.seed, 0);
    let start = Instant::now();
    let mut replays = vec![replay::replay(&cfg)];
    let reference = cell::run(&cfg);
    if !reference.problems.is_empty() {
        return Err(format!(
            "untraced cell failed: {}",
            reference.problems.join("; ")
        ));
    }
    println!("{}", reference.model_line(w.name, cfg.seed));
    let mut untraced_walls = vec![reference.wall_s];
    while start.elapsed() < Duration::from_secs(o.seconds) {
        replays.push(replay::replay(&cfg));
        let again = cell::run(&cfg);
        if again.digest() != reference.digest() || !again.problems.is_empty() {
            return Err(format!(
                "untraced repeat differs: digest {:016x} != {:016x} {}",
                again.digest(),
                reference.digest(),
                again.problems.join("; ")
            ));
        }
        untraced_walls.push(again.wall_s);
    }
    for r in &replays {
        let diffs = fidelity(&reference, r);
        if !diffs.is_empty() {
            return Err(format!(
                "traced replay is not the same program: {}",
                diffs.join("; ")
            ));
        }
    }
    let attempted = (replays.len() + untraced_walls.len()) as u64;

    let c = &reference.counters;
    let first = &replays[0];
    let per_run = |f: &dyn Fn(&Replay) -> f64| median(replays.iter().map(f).collect());
    let core_self = |r: &Replay| r.core.iter().map(|h| h.ns).sum::<u64>() as f64 * 1e-9;
    let transport_self = |r: &Replay| (r.on_packet.ns + r.on_timer.ns) as f64 * 1e-9;
    let rows = |r: &Replay| {
        r.topology_s
            + r.arrivals_s
            + r.shard_setup_s
            + r.run_s
            + r.drain_s
            + r.summarize_s
            + r.export_s
            + r.hash_s
            + r.codec_s
    };
    let events: u64 = first.domain_events.iter().sum();
    let mean_events = events as f64 / first.domain_events.len() as f64;
    let max_events = first.domain_events.iter().copied().max().unwrap_or(0) as f64;

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("net.topology_s".into(), per_run(&|r| r.topology_s), "s"),
        (
            "workloads.arrivals_s".into(),
            per_run(&|r| r.arrivals_s),
            "s",
        ),
        (
            "net.shard_setup_s".into(),
            per_run(&|r| r.shard_setup_s),
            "s",
        ),
        ("net.setup_rss_mb".into(), first.setup_rss_mb, "MB"),
        ("net.run_s".into(), per_run(&|r| r.run_s), "s"),
        (
            "net.engine_self_s".into(),
            per_run(&|r| r.run_s - core_self(r) - transport_self(r)),
            "s",
        ),
        ("net.events".into(), events as f64, "count"),
        (
            "net.events_per_s".into(),
            per_run(&|r| events as f64 / r.run_s),
            "1/s",
        ),
        (
            "net.domain_events_max_over_mean".into(),
            max_events / mean_events,
            "ratio",
        ),
    ];
    for (i, hook) in CORE_HOOKS.iter().enumerate() {
        m.push((
            format!("core.{hook}.calls"),
            first.core[i].calls as f64,
            "count",
        ));
        m.push((
            format!("core.{hook}.self_s"),
            per_run(&|r| r.core[i].ns as f64 * 1e-9),
            "s",
        ));
    }
    let ingress = first.core[0].calls;
    m.extend([
        ("core.self_s".into(), per_run(&core_self), "s"),
        (
            "core.flowlet_new_ratio".into(),
            ratio(c.flowlet_new, ingress),
            "ratio",
        ),
        (
            "transport.on_packet.calls".into(),
            first.on_packet.calls as f64,
            "count",
        ),
        (
            "transport.on_packet.self_s".into(),
            per_run(&|r| r.on_packet.ns as f64 * 1e-9),
            "s",
        ),
        (
            "transport.on_timer.calls".into(),
            first.on_timer.calls as f64,
            "count",
        ),
        (
            "transport.on_timer.self_s".into(),
            per_run(&|r| r.on_timer.ns as f64 * 1e-9),
            "s",
        ),
        ("transport.self_s".into(), per_run(&transport_self), "s"),
        (
            "transport.retx_ratio".into(),
            ratio(c.bytes_retx, c.delivered_payload),
            "ratio",
        ),
        (
            "transport.rto_timeouts".into(),
            c.rto_timeouts as f64,
            "count",
        ),
        ("analysis.drain_s".into(), per_run(&|r| r.drain_s), "s"),
        (
            "analysis.drain_scanned".into(),
            first.drain_scanned as f64,
            "count",
        ),
        (
            "analysis.drain_useful_ratio".into(),
            ratio(first.drain_consumed, first.drain_scanned),
            "ratio",
        ),
        (
            "analysis.summarize_s".into(),
            per_run(&|r| r.summarize_s),
            "s",
        ),
        ("telemetry.export_s".into(), per_run(&|r| r.export_s), "s"),
        (
            "telemetry.report_bytes".into(),
            first.report_bytes as f64,
            "bytes",
        ),
        ("fleet.hash_s".into(), per_run(&|r| r.hash_s), "s"),
        ("fleet.codec_s".into(), per_run(&|r| r.codec_s), "s"),
        (
            "trace.overhead_s".into(),
            per_run(&|r| r.wall_s) - median(untraced_walls),
            "s",
        ),
        (
            "unattributed_s".into(),
            per_run(&|r| r.wall_s - rows(r)),
            "s",
        ),
        ("trace.wall_s".into(), per_run(&|r| r.wall_s), "s"),
    ]);
    eprintln!(
        "perfbench: {} traced {} replays in {:.1} s",
        w.name,
        replays.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = opts.cell {
        one_cell(&opts, k);
        return ExitCode::SUCCESS;
    }
    let outcome = if opts.trace {
        match traced(&opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", opts.workload.name);
                return ExitCode::FAILURE;
            }
        }
    } else {
        untraced(&opts)
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
