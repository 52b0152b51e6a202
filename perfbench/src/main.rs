//! `perfbench` — the child process of the end-to-end campaign benchmark.
//!
//! `run.py` builds this package and spawns one fresh `perfbench` process per
//! repetition, so process-wide caches are paid inside the measurement, as a
//! user pays them per campaign. Each child prints `READY` when its first
//! run is about to start and one `RESULT {json}` line at the end.
//!
//! ```text
//! perfbench campaign --workload fig13_grid --seed 1 --out DIR [--setup-only] [--reference]
//! perfbench traced   --workload fig14_lanes --seed 1 --out DIR [--ground-energy]
//! perfbench service  --seed 1 --seconds 10 --trace 0 --campaign-bin PATH --out DIR
//! ```
//!
//! * `campaign` runs the workload's campaign untraced through
//!   `SweepExecutor::try_run` and writes its report (`--reference`: on a
//!   sequential scalar executor instead, for the output check).
//! * `traced` replays it through the timing wrappers of `trace.rs`.
//! * `service` runs the daemon workload of `service.rs`.

mod service;
mod trace;
mod workloads;

use qismet_bench::SweepExecutor;
use serde_json::JsonValue;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Peak resident set of process `pid` (`"self"` for this one), in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A flat JSON object of numbers and strings, in insertion order.
#[derive(Default)]
pub struct JsonLine(Vec<(String, JsonValue)>);

impl JsonLine {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.to_string(), JsonValue::F64(v)));
        self
    }

    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.0
            .push((key.to_string(), JsonValue::String(v.to_string())));
        self
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ready() {
    println!("READY");
    let _ = std::io::stdout().flush();
}

fn emit(result: &JsonLine) {
    let json = serde_json::to_string(&JsonValue::Object(result.0.clone()));
    println!("RESULT {}", json.expect("flat JSON object"));
}

/// Parsed `--flag value` options.
struct Opts {
    args: Vec<String>,
}

impl Opts {
    fn value(&self, flag: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or_else(|| format!("missing {flag}"))
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.required(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

/// One untraced campaign (or, with `--reference`, the same campaign on a
/// sequential scalar executor).
fn campaign_mode(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let name = opts.required("--workload")?;
    let seed: u64 = opts.number("--seed")?;
    let out = PathBuf::from(opts.required("--out")?);
    let workload = workloads::campaign_workload(name, seed)
        .ok_or_else(|| format!("unknown campaign workload `{name}`"))?;
    let executor = if opts.has("--reference") {
        SweepExecutor::sequential()
    } else {
        SweepExecutor::with_threads(workload.threads).with_batch_lanes(workload.batch_lanes)
    };
    ready();
    if opts.has("--setup-only") {
        return Ok(());
    }
    let t0 = Instant::now();
    let report = executor.try_run(&workload.campaign)?;
    let path = report.write_json_in(&out, None)?;
    let wall = t0.elapsed().as_secs_f64();
    emit(
        JsonLine::default()
            .num("wall_s", wall)
            .num("runs", report.records.len() as f64)
            .num("peak_rss_mb", peak_rss_mb("self"))
            .text("report", &path.display().to_string()),
    );
    Ok(())
}

/// One traced campaign, with its per-layer table.
fn traced_mode(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let name = opts.required("--workload")?;
    let seed: u64 = opts.number("--seed")?;
    let out = PathBuf::from(opts.required("--out")?);
    let workload = workloads::campaign_workload(name, seed)
        .ok_or_else(|| format!("unknown campaign workload `{name}`"))?;
    ready();
    let traced = trace::run_traced(&workload, &out)?;
    // Outside the timed window, and only when asked (it costs as much as
    // the builds): the eigensolve each build performed, as separate calls.
    let ground_ns = if opts.has("--ground-energy") {
        trace::ground_energy_ns(workload.campaign.expand().iter().map(|s| &s.app))
    } else {
        0
    };
    let t = &traced.tally;
    let mut line = JsonLine::default();
    line.num("wall_s", traced.wall_ns as f64 / 1e9)
        .num("runs", traced.report.records.len() as f64)
        .text("report", &traced.report_path.display().to_string())
        .num("threads", traced.threads as f64);
    layer_metrics(&mut line, t, ground_ns, 1.0);
    line.num("bench.expand_ms", ms(traced.expand_ns))
        .num("bench.report_ms", ms(traced.report_ns))
        .num(
            "bench.report_bytes",
            std::fs::metadata(&traced.report_path)?.len() as f64,
        )
        .num("bench.executor_idle_ms", ms(traced.idle_ns()))
        .num("trace.unaccounted_frac", traced.unaccounted_frac());
    emit(&line);
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The unit-level layer metrics of a tally, times and counts divided by
/// `per` (the number of campaigns the tally covers).
pub fn layer_metrics(line: &mut JsonLine, t: &trace::Tally, ground_ns: u64, per: f64) {
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    line.num("vqa.build_ms", ms(t.build_ns))
        .num("vqa.ground_energy_ms", ground_ns as f64 / 1e6)
        .num("qsim.eval_ms", ms(t.qsim_ns))
        .num("optim.ms", ms(t.optim_ns))
        .num("vqa.loop_other_ms", ms(t.loop_other_ns))
        .num("core.controller_ms", ms(t.controller_ns))
        .num("core.qsim_ms", ms(t.qismet_qsim_ns))
        .num("core.optim_ms", ms(t.qismet_optim_ns))
        .num("qsim.points", t.qsim_points as f64 / per)
        .num("qsim.calls", t.qsim_calls as f64 / per)
        .num("qsim.ns_per_point", ratio(t.qsim_ns, t.qsim_points))
        .num("core.attempts", t.qismet_decisions as f64 / per)
        .num(
            "core.accept_frac",
            ratio(t.qismet_accepts, t.qismet_decisions),
        )
        .num(
            "vqa.blocking_accept_frac",
            ratio(t.blocking_accepts, t.blocking_decisions),
        );
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let opts = Opts {
        args: argv.collect(),
    };
    let outcome = match mode.as_str() {
        "campaign" => campaign_mode(&opts),
        "traced" => traced_mode(&opts),
        "service" => service::service_mode(&opts),
        other => Err(format!("unknown mode `{other}` (campaign | traced | service)").into()),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
