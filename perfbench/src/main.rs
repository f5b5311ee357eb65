//! End-to-end benchmark of the DiAS reproduction.
//!
//! ```text
//! dias-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats set-up plus the workload's fixed-size run for
//! `--seconds` (the median set-up time is `setup_s`), checks every run
//! against the first and against the workload's correctness checks, and
//! prints the end-to-end metrics. With
//! `--trace 1` it runs the workload untraced and then traced through the
//! span wrappers, and prints the per-layer metrics plus the tracing
//! overhead. The last line of standard output is one JSON object; the exit
//! code is non-zero when any check failed. Spans of the first traced
//! repetition and of the traced-only checks are written to
//! `.perfbench_out/<workload>.spans.csv`.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Sink, NEXT_JOB, PICK_NEXT, PLACE, VICTIM};
use workloads::{
    FleetFederation, PaperPolicies, SoakChaos, ThetaSweep, Tracer, Workload, FIRST_TRACED_RUN,
};

/// Before each timed repetition, set-ups repeat until they have taken this
/// long (at least once); `setup_s` is the median of all of them.
const SETUP_SLICE_SECONDS: f64 = 0.05;
/// Fewest timed runs, however long they take.
const MIN_RUNS: usize = 3;
/// Run id of the traced-mode work outside the traced repetitions.
const AUX_RUN: u16 = u16::MAX;
/// Where traced runs write their spans.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// A metric as printed: value and unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What one benchmark invocation found.
struct Findings {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeated runs of one workload, each compared with the first.
struct Runs<W: Workload> {
    reference: Option<W::Report>,
    walls: Vec<f64>,
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<W: Workload> Runs<W> {
    fn new() -> Self {
        Runs {
            reference: None,
            walls: Vec::new(),
            rates: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Runs once; returns false when the run errored (further runs would too).
    fn once(&mut self, setup: &W::Setup, tracer: Option<&Tracer>, what: &str) -> bool {
        let t = Instant::now();
        let result = W::run(setup, tracer);
        let wall = t.elapsed().as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.problems.push(format!("{what} run failed: {e}"));
                return false;
            }
        };
        let o = W::outcome(setup, &report);
        self.attempted += o.attempted;
        self.walls.push(wall);
        self.rates.push(o.completions as f64 / wall);
        match &self.reference {
            None => {
                self.failed += o.failed;
                self.problems.extend(o.problems);
                self.reference = Some(report);
            }
            Some(first) if W::same(first, &report) => self.failed += o.failed,
            Some(_) => {
                self.failed += o.attempted;
                self.problems.push(format!(
                    "{what} run {} differs from the first",
                    self.walls.len()
                ));
            }
        }
        true
    }

    /// Runs until `seconds` have passed and at least `min` runs were made.
    fn repeat(
        &mut self,
        setup: &W::Setup,
        seconds: f64,
        min: usize,
        tracer: impl Fn(usize) -> Option<Tracer>,
        what: &str,
    ) {
        let start = Instant::now();
        let mut i = 0;
        while i < min || start.elapsed().as_secs_f64() < seconds {
            i += 1;
            if !self.once(setup, tracer(i).as_ref(), what) {
                break;
            }
        }
    }
}

fn end_to_end<W: Workload>(args: &Args) -> Findings {
    // Each repetition gets fresh set-ups, timed for `setup_s`, so set-up is
    // sampled across the whole run like the workload itself; the last one
    // feeds the run, so its inputs land at new addresses and the median
    // spans several memory layouts instead of the one this process happened
    // to get. The previous set-up is freed first, so two never add up in
    // the peak resident set.
    let mut setup_times = Vec::new();
    let mut setup = None;
    let mut runs = Runs::<W>::new();
    let start = Instant::now();
    while runs.walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        drop(setup.take());
        let slice = Instant::now();
        let fresh = loop {
            let t = Instant::now();
            let fresh = std::hint::black_box(W::setup(args.seed));
            setup_times.push(t.elapsed().as_secs_f64());
            if slice.elapsed().as_secs_f64() >= SETUP_SLICE_SECONDS {
                break fresh;
            }
        };
        let ok = runs.once(&fresh, None, "timed");
        setup = Some(fresh);
        if !ok {
            break;
        }
    }
    let setup = setup.expect("at least one set-up");
    let o = runs
        .reference
        .as_ref()
        .map(|r| W::outcome(&setup, r))
        .unwrap_or_default();
    let ok_ratio = 1.0 - runs.failed as f64 / runs.attempted.max(1) as f64;
    Findings {
        metrics: vec![
            ("sim_jobs_per_s", median(&runs.rates), "1/s"),
            ("setup_s", median(&setup_times), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("ok_ops_ratio", ok_ratio, "ratio"),
            ("sim_low_p95_s", o.low_p95, "s"),
            ("sim_high_p95_s", o.high_p95, "s"),
            ("sim_energy_kj", o.energy_j / 1e3, "kJ"),
            (
                "sim_useful_pct",
                100.0 * (1.0 - o.wasted_s / o.delivered_s),
                "%",
            ),
        ],
        attempted: runs.attempted,
        failed: runs.failed,
        problems: runs.problems,
    }
}

fn traced<W: Workload>(args: &Args) -> Findings {
    let setup = W::setup(args.seed);
    let budget = args.seconds * 0.4;

    let mut plain = Runs::<W>::new();
    plain.repeat(&setup, budget, 2, |_| None, "untraced");

    let sink = Sink::new();
    let mut wrapped = Runs::<W>::new();
    wrapped.reference = plain.reference.clone();
    wrapped.repeat(
        &setup,
        budget,
        2,
        |i| {
            Some(Tracer {
                sink: sink.clone(),
                run: u16::try_from(i).expect("fewer than 65535 traced runs"),
            })
        },
        "traced",
    );
    let mut problems = plain.problems;
    problems.extend(wrapped.problems);
    let (attempted, failed) = (
        plain.attempted + wrapped.attempted,
        plain.failed + wrapped.failed,
    );
    let Some(reference) = plain.reference else {
        return Findings {
            metrics: Vec::new(),
            attempted,
            failed,
            problems,
        };
    };

    let aux = Tracer {
        sink: sink.clone(),
        run: AUX_RUN,
    };
    let layers = W::layers(&setup, &reference, &aux);
    problems.extend(layers.problems);
    let query = (0..3)
        .map(|_| {
            let copy = reference.clone();
            let span = sink.open(sink.name("des.stats.report_query"), AUX_RUN, 0);
            std::hint::black_box(W::query(&copy));
            sink.close(span)
        })
        .collect::<Vec<_>>();

    // Per-layer figures, per traced repetition.
    let reps = wrapped.walls.len().max(1) as f64;
    let all = sink.spans();
    let names = trace::names(&sink);
    let traced_spans: Vec<_> = all.iter().copied().filter(|s| s.run != AUX_RUN).collect();
    let stats = trace::self_times(&all, names.len());
    let traced_stats = trace::self_times(&traced_spans, names.len());
    let by_name = |n: &str, st: &[trace::NameStats]| {
        names
            .iter()
            .position(|x| x == n)
            .map(|i| st[i].clone())
            .unwrap_or_default()
    };
    let next_job = &traced_stats[usize::from(NEXT_JOB)];
    let calls = |n: u16| traced_stats[usize::from(n)].calls as f64;
    let sched_calls = calls(PLACE) + calls(PICK_NEXT) + calls(VICTIM);
    let sched_ns: u64 = [PLACE, PICK_NEXT, VICTIM]
        .iter()
        .map(|&n| traced_stats[usize::from(n)].self_ns)
        .sum();
    // Root spans are those the benchmark opened around entry points; their
    // self time is the engine and driver work no wrapper saw.
    let root_self_ns: u64 = traced_stats
        .iter()
        .enumerate()
        .filter(|(i, _)| *i >= trace::LEAF_NAMES.len())
        .map(|(_, s)| s.self_ns)
        .sum();
    let traced_wall: f64 = wrapped.walls.iter().sum();
    let sched = sink.sched();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let completions = W::outcome(&setup, &reference).completions as f64;
    let (next_p50, next_p99) = trace::duration_quantiles(&traced_spans, &[NEXT_JOB]);
    let (sched_p50, sched_p99) =
        trace::duration_quantiles(&traced_spans, &[PLACE, PICK_NEXT, VICTIM]);
    let extra = |n: &str| {
        layers
            .extra
            .iter()
            .find(|(k, _)| *k == n)
            .map_or(0.0, |(_, v)| *v)
    };
    let self_s = |n: &str| by_name(n, &traced_stats).self_ns as f64 * 1e-9 / reps;
    let aux_s = |n: &str| by_name(n, &stats).self_ns as f64 * 1e-9;
    let metrics: Metrics = vec![
        (
            "workloads.next_job.calls",
            next_job.calls as f64 / reps,
            "count",
        ),
        (
            "workloads.next_job.self_s",
            next_job.self_ns as f64 * 1e-9 / reps,
            "s",
        ),
        ("workloads.next_job.ns_p50", next_p50, "ns"),
        ("workloads.next_job.ns_p99", next_p99, "ns"),
        (
            "workloads.next_job.share",
            ratio(next_job.self_ns as f64 * 1e-9, traced_wall),
            "ratio",
        ),
        ("engine.sched.place.calls", calls(PLACE) / reps, "count"),
        (
            "engine.sched.pick_next.calls",
            calls(PICK_NEXT) / reps,
            "count",
        ),
        ("engine.sched.victim.calls", calls(VICTIM) / reps, "count"),
        ("engine.sched.self_s", sched_ns as f64 * 1e-9 / reps, "s"),
        ("engine.sched.ns_p50", sched_p50, "ns"),
        ("engine.sched.ns_p99", sched_p99, "ns"),
        (
            "engine.sched.hit_ratio",
            ratio(sched.hits as f64, sched_calls),
            "ratio",
        ),
        (
            "engine.sched.running_len_mean",
            ratio(sched.running_len as f64, sched_calls),
            "count",
        ),
        (
            "engine.sched.pending_len_mean",
            ratio(sched.pending_len as f64, calls(PICK_NEXT)),
            "count",
        ),
        ("engine.events", layers.events, "count"),
        (
            "engine.events_per_job",
            ratio(layers.events, completions),
            "count",
        ),
        (
            "engine.residual_ns_per_event",
            ratio(root_self_ns as f64 / reps, layers.events),
            "ns",
        ),
        ("engine.evictions", layers.evictions, "count"),
        (
            "engine.failure_evictions",
            layers.failure_evictions,
            "count",
        ),
        ("core.experiment.P.self_s", self_s("core.experiment.P"), "s"),
        (
            "core.experiment.NP.self_s",
            self_s("core.experiment.NP"),
            "s",
        ),
        (
            "core.experiment.DA.self_s",
            self_s("core.experiment.DA"),
            "s",
        ),
        (
            "core.experiment.DiAS.self_s",
            self_s("core.experiment.DiAS"),
            "s",
        ),
        (
            "core.stream.live_high_water",
            extra("core.stream.live_high_water"),
            "count",
        ),
        ("core.stream.windows", extra("core.stream.windows"), "count"),
        (
            "core.stream.warmup_jobs",
            extra("core.stream.warmup_jobs"),
            "count",
        ),
        ("core.sweep.record_s", aux_s("core.sweep.record"), "s"),
        ("core.sweep.replay_s", aux_s("core.sweep.replay"), "s"),
        (
            "core.sweep.checkpoints",
            extra("core.sweep.checkpoints"),
            "count",
        ),
        (
            "core.sweep.suffix_cells",
            extra("core.sweep.suffix_cells"),
            "count",
        ),
        (
            "core.sweep.skip_fraction",
            extra("core.sweep.skip_fraction"),
            "ratio",
        ),
        (
            "core.federation.epochs",
            extra("core.federation.epochs"),
            "count",
        ),
        (
            "core.federation.route_imbalance",
            extra("core.federation.route_imbalance"),
            "ratio",
        ),
        ("pool.speedup_2t", extra("pool.speedup_2t"), "ratio"),
        ("des.stats.report_query_s", median(&query), "s"),
        (
            "trace.overhead_pct",
            100.0 * (median(&wrapped.walls) / median(&plain.walls) - 1.0),
            "%",
        ),
    ];

    let path = format!("{OUT_DIR}/{}.spans.csv", args.workload);
    let written = fs::create_dir_all(OUT_DIR)
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| {
            // The first traced repetition stands for the others.
            sink.write_csv(&mut BufWriter::new(f), |run| {
                run == FIRST_TRACED_RUN || run == AUX_RUN
            })
        });
    if let Err(e) = written {
        problems.push(format!("writing {path}: {e}"));
    }
    Findings {
        metrics,
        attempted,
        failed,
        problems,
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dias-perfbench: {e}");
            eprintln!(
                "usage: dias-perfbench --workload <paper_policies|soak_chaos|fleet_federation|theta_sweep> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("paper_policies", false) => end_to_end::<PaperPolicies>,
        ("paper_policies", true) => traced::<PaperPolicies>,
        ("soak_chaos", false) => end_to_end::<SoakChaos>,
        ("soak_chaos", true) => traced::<SoakChaos>,
        ("fleet_federation", false) => end_to_end::<FleetFederation>,
        ("fleet_federation", true) => traced::<FleetFederation>,
        ("theta_sweep", false) => end_to_end::<ThetaSweep>,
        ("theta_sweep", true) => traced::<ThetaSweep>,
        (other, _) => {
            eprintln!("dias-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut r = run(&args);
    if r.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        r.problems.push("a reported metric is not finite".into());
    }

    for (name, value, unit) in &r.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for p in &r.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = r.problems.is_empty();
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
