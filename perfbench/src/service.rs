//! The `service_jobs` workload: the daemon path end to end.
//!
//! Starts the repository's `campaign --daemon` on loopback with a
//! `--state-dir`, plus two `campaign --register` workers at one thread
//! each, and times how long until both are registered (`setup_s`, over
//! several start-ups). Then two tenants each run one closed-loop client
//! with one job outstanding for the measured seconds: submit, poll
//! `job_status` at a fixed interval until the job shows `completed`,
//! submit the next. Every settled report must be byte-identical to an
//! in-process sequential run of the same grid.

use crate::trace::{self, Tally};
use crate::workloads::{service_job, CampaignWorkload};
use crate::{emit, layer_metrics, peak_rss_mb, JsonLine, Opts};
use qismet_bench::{drain_service, job_status, submit_job, GridSpec, SweepExecutor};
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FLEET_TOKEN: &str = "perfbench-fleet";
const TENANTS: [&str; 2] = ["perfbench-t0", "perfbench-t1"];
/// Daemon start-ups per invocation; `setup_s` is their median.
const SETUP_CYCLES: usize = 5;
/// Fixed `job_status` poll interval of the clients.
pub const POLL: Duration = Duration::from_millis(5);
/// How long any one wait (registration, a job, shutdown) may take.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running daemon and its two workers. Dropping it kills whatever is
/// still alive and reaps it.
struct Service {
    addr: String,
    children: Vec<Child>,
    stdout_drain: Option<std::thread::JoinHandle<()>>,
    setup_s: f64,
}

impl Service {
    fn start(bin: &Path, dir: &Path) -> Result<Service, Box<dyn std::error::Error>> {
        let dir = fresh_dir(dir)?;
        let log = |name: &str| std::fs::File::create(dir.join(name));
        let t0 = Instant::now();
        let mut daemon = Command::new(bin)
            .args([
                "--daemon",
                "127.0.0.1:0",
                "--token",
                FLEET_TOKEN,
                "--tenants",
            ])
            .arg(format!("t0={},t1={}", TENANTS[0], TENANTS[1]))
            .arg("--state-dir")
            .arg(dir.join("state"))
            .arg("--report-dir")
            .arg(dir.join("reports"))
            .stdout(Stdio::piped())
            .stderr(log("daemon.log")?)
            .spawn()?;
        let mut lines = BufReader::new(daemon.stdout.take().expect("piped stdout")).lines();
        let mut service = Service {
            addr: String::new(),
            children: vec![daemon],
            stdout_drain: None,
            setup_s: 0.0,
        };
        // The daemon prints `campaign service on <addr>: ...` once bound.
        let banner = lines.next().transpose()?.unwrap_or_default();
        service.addr = banner
            .strip_prefix("campaign service on ")
            .and_then(|rest| rest.split(": ").next())
            .ok_or_else(|| format!("unexpected daemon banner `{banner}`"))?
            .to_string();
        service.stdout_drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        for w in 0..2 {
            let worker = Command::new(bin)
                .args(["--register", &service.addr, "--token", FLEET_TOKEN])
                .args(["--worker-name", &format!("w{w}"), "--threads", "1"])
                .stdout(Stdio::null())
                .stderr(log(&format!("worker{w}.log"))?)
                .spawn()?;
            service.children.push(worker);
        }
        loop {
            let reply = job_status(&service.addr, FLEET_TOKEN)?;
            if reply.workers.iter().filter(|w| w.active).count() == 2 {
                break;
            }
            if t0.elapsed() > PATIENCE {
                return Err("workers did not register".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        service.setup_s = t0.elapsed().as_secs_f64();
        Ok(service)
    }

    /// Summed peak resident memory of the daemon and both workers.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .map(|c| peak_rss_mb(&c.id().to_string()))
            .sum()
    }

    /// Drains the daemon (which shuts the workers down) and reaps all
    /// three processes.
    fn stop(mut self) -> Result<(), Box<dyn std::error::Error>> {
        drain_service(&self.addr, FLEET_TOKEN)?;
        let t0 = Instant::now();
        for child in &mut self.children {
            while child.try_wait()?.is_none() {
                if t0.elapsed() > PATIENCE {
                    return Err("service processes did not exit after drain".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One settled job, as its client saw it.
struct Settled {
    grid: GridSpec,
    report: PathBuf,
    latency: Duration,
    submit: Duration,
    queue_wait: Duration,
    run: Duration,
}

#[derive(Default)]
struct ClientLog {
    submitted: usize,
    failed: usize,
    settled: Vec<Settled>,
    status_calls: Vec<Duration>,
    errors: Vec<String>,
}

/// A closed-loop tenant: one job outstanding, submitted again as soon as
/// the last one shows `completed`, until `deadline`.
fn client(addr: &str, tenant: usize, seed: u64, deadline: Instant) -> ClientLog {
    let token = TENANTS[tenant];
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let grid = service_job(seed, tenant, log.submitted);
        log.submitted += 1;
        let t_submit = Instant::now();
        let job_id = match submit_job(addr, token, &grid, 0) {
            Ok(s) => s.job_id,
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("submit: {e}"));
                break;
            }
        };
        let submit = t_submit.elapsed();
        let mut started: Option<Duration> = None;
        let outcome = loop {
            std::thread::sleep(POLL);
            let t_status = Instant::now();
            let reply = match job_status(addr, token) {
                Ok(r) => r,
                Err(e) => break Err(format!("status: {e}")),
            };
            let seen = t_status.elapsed();
            log.status_calls.push(seen);
            let now = t_submit.elapsed();
            let Some(job) = reply.jobs.iter().find(|j| j.job_id == job_id) else {
                break Err(format!("job {job_id} missing from status"));
            };
            match job.phase.as_str() {
                "queued" => {}
                "running" => {
                    started.get_or_insert(now);
                }
                "completed" => break Ok((now, started.unwrap_or(now), job.detail.clone())),
                other => break Err(format!("job {job_id} ended {other}: {:?}", job.detail)),
            }
            if now > PATIENCE {
                break Err(format!("job {job_id} did not settle"));
            }
        };
        match outcome {
            Ok((latency, started, Some(report))) => log.settled.push(Settled {
                grid,
                report: PathBuf::from(report),
                latency,
                submit,
                queue_wait: started.saturating_sub(submit),
                run: latency - started,
            }),
            Ok((_, _, None)) => {
                log.failed += 1;
                log.errors
                    .push(format!("job {job_id} completed without a report"));
            }
            Err(e) => {
                log.failed += 1;
                log.errors.push(e);
                break;
            }
        }
    }
    log
}

/// Nearest-rank quantile of `xs` (sorted in place), in ms.
fn quantile_ms(xs: &mut [Duration], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1].as_secs_f64() * 1e3
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// What re-running one settled job in-process found.
#[derive(Default)]
struct Checked {
    mismatches: usize,
    errors: Vec<String>,
    report_ms: Vec<f64>,
    report_bytes: Vec<f64>,
    tally: Tally,
}

/// Re-runs every settled job's grid in-process on a sequential scalar
/// executor (`traced`: through the timed runners of `trace.rs`, which are
/// sequential and scalar too) and compares the report bytes.
fn check_reports(jobs: &[Settled], dir: &Path, traced: bool) -> Checked {
    let check_one = |job: &Settled| -> Result<(bool, f64, f64, Tally), Box<dyn std::error::Error>> {
        let campaign = job.grid.to_campaign()?;
        let (path, report_ns, tally) = if traced {
            let workload = CampaignWorkload {
                campaign,
                threads: 1,
                batch_lanes: 1,
            };
            let run = trace::run_traced(&workload, dir)?;
            (run.report_path, run.report_ns, run.tally)
        } else {
            let report = SweepExecutor::sequential().try_run(&campaign)?;
            let t = Instant::now();
            let path = report.write_json_in(dir, None)?;
            (path, t.elapsed().as_nanos() as u64, Tally::default())
        };
        let want = std::fs::read(&path)?;
        let got = std::fs::read(&job.report)?;
        Ok((
            want == got,
            report_ns as f64 / 1e6,
            want.len() as f64,
            tally,
        ))
    };
    // Two checker threads, each taking every other job.
    let halves: Vec<Checked> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    let mut c = Checked::default();
                    for job in jobs.iter().skip(half).step_by(2) {
                        match check_one(job) {
                            Ok((same, ms, bytes, tally)) => {
                                c.mismatches += usize::from(!same);
                                c.report_ms.push(ms);
                                c.report_bytes.push(bytes);
                                c.tally.add(&tally);
                            }
                            Err(e) => c.errors.push(format!("{}: {e}", job.grid.name)),
                        }
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    let mut all = Checked::default();
    for c in halves {
        all.mismatches += c.mismatches;
        all.errors.extend(c.errors);
        all.report_ms.extend(c.report_ms);
        all.report_bytes.extend(c.report_bytes);
        all.tally.add(&c.tally);
    }
    all
}

pub fn service_mode(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = opts.number("--seed")?;
    let seconds: f64 = opts.number("--seconds")?;
    let traced = opts.required("--trace")? == "1";
    let bin = PathBuf::from(opts.required("--campaign-bin")?);
    let out = fresh_dir(Path::new(opts.required("--out")?))?;

    let mut setups = Vec::with_capacity(SETUP_CYCLES);
    for cycle in 1..SETUP_CYCLES {
        let service = Service::start(&bin, &out.join(format!("setup{cycle}")))?;
        setups.push(service.setup_s);
        service.stop()?;
    }
    let service = Service::start(&bin, &out.join("load"))?;
    setups.push(service.setup_s);

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let addr = service.addr.clone();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|tenant| {
                let addr = &addr;
                scope.spawn(move || client(addr, tenant, seed, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let load_s = t0.elapsed().as_secs_f64();
    let rss = service.peak_rss_mb();
    service.stop()?;

    let mut settled = Vec::new();
    let mut status_calls = Vec::new();
    let (mut submitted, mut failed) = (0, 0);
    for log in logs {
        submitted += log.submitted;
        failed += log.failed;
        for e in &log.errors {
            eprintln!("perfbench service: {e}");
        }
        settled.extend(log.settled);
        status_calls.extend(log.status_calls);
    }
    let mut checked = check_reports(&settled, &fresh_dir(&out.join("reference"))?, traced);
    for e in &checked.errors {
        eprintln!("perfbench service: reference {e}");
    }
    failed += checked.mismatches + checked.errors.len();

    let runs: usize = settled
        .iter()
        .map(|s| s.grid.to_campaign().map_or(0, |c| c.len()))
        .sum();
    let jobs = settled.len();
    let mut lat: Vec<Duration> = settled.iter().map(|s| s.latency).collect();
    let mut submit: Vec<Duration> = settled.iter().map(|s| s.submit).collect();
    let mut wait: Vec<Duration> = settled.iter().map(|s| s.queue_wait).collect();
    let mut run: Vec<Duration> = settled.iter().map(|s| s.run).collect();
    let mut line = JsonLine::default();
    line.num("submitted", submitted as f64)
        .num("failed", failed as f64)
        .num("mismatches", checked.mismatches as f64)
        .num("jobs", jobs as f64)
        .num("runs", runs as f64)
        .num("load_s", load_s)
        .num("poll_ms", POLL.as_secs_f64() * 1e3)
        .num("setup_cycles", setups.len() as f64)
        .num("runs_per_s", runs as f64 / load_s)
        .num("jobs_per_s", jobs as f64 / load_s)
        .num("job_latency_p50_ms", quantile_ms(&mut lat, 0.5))
        .num("job_latency_p90_ms", quantile_ms(&mut lat, 0.9))
        .num("setup_s", median(&mut setups))
        .num("peak_rss_mb", rss)
        .num("cluster.submit_ms", quantile_ms(&mut submit, 0.5))
        .num("cluster.status_ms", quantile_ms(&mut status_calls, 0.5))
        .num("cluster.queue_wait_ms", quantile_ms(&mut wait, 0.5))
        .num("cluster.run_ms", quantile_ms(&mut run, 0.5))
        .num("bench.report_ms", median(&mut checked.report_ms))
        .num("bench.report_bytes", median(&mut checked.report_bytes));
    if traced && jobs > 0 {
        let first = settled[0].grid.to_campaign()?;
        let ground_ns = trace::ground_energy_ns(first.expand().iter().map(|s| &s.app));
        // Layer times of the in-process re-runs, per job; the ground-state
        // solve is timed for one job's builds.
        layer_metrics(&mut line, &checked.tally, ground_ns, jobs as f64);
        // Worker-thread time over the load phase not covered by the
        // campaign layers the same jobs take in-process: wire, queue,
        // journal, report writes and waiting for the next submission.
        let capacity = 2.0 * load_s * 1e9;
        let work = checked.tally.layer_ns() as f64;
        line.num("trace.unaccounted_frac", (capacity - work) / capacity);
    }
    emit(&line);
    Ok(())
}

/// Creates `dir` (and parents) empty and returns it.
fn fresh_dir(dir: &Path) -> std::io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(dir.to_path_buf())
}
