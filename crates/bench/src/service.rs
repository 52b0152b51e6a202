//! Campaign-as-a-service: the bench-side adapter over
//! [`qismet_cluster::daemon`].
//!
//! Three roles live here, all speaking the same length-framed protocol:
//!
//! * [`CampaignPlanner`] — the daemon's [`JobPlanner`]: expands a
//!   [`GridSpec`] JSON payload into a [`Campaign`] and, when a job
//!   settles, merges its records into a [`CampaignReport`] written under
//!   the report directory — byte-identical to a sequential run of the
//!   same campaign, whatever the fleet did.
//! * [`register_worker`] — the elastic worker loop behind
//!   `campaign --register <addr>`: registers at the daemon's rendezvous
//!   address, pulls batches (re-expanding each job's grid payload once
//!   and caching it), and re-dials with backoff when the daemon
//!   connection drops. Workers join a live campaign, leave voluntarily
//!   ([`RegisterOptions::deregister_after`]), and a name quarantined by
//!   the daemon gets a typed [`ServiceError::Refused`] back.
//! * The client verbs — [`submit_job`], [`job_status`], [`cancel_job`],
//!   [`drain_service`] — one short authenticated session each, with
//!   typed [`ServiceError`]s for bad tokens, unknown jobs, and duplicate
//!   submissions.
//!
//! A campaign travels the wire as a [`GridSpec`] — the serializable
//! mirror of [`CampaignGrid`] keyed by app ids, machine names, and CLI
//! scheme names — so daemon and worker re-expand the *same* campaign and
//! prove it with the fingerprint handshake, exactly like the one-shot
//! coordinator path.

use crate::distributed::{channel_end, run_assignment, SessionOutcome, StatsTracker};
use crate::report::{CampaignReport, ReportMeta, RunRecord};
use crate::scenario::{check_magnitude, parse_scheme, Campaign, CampaignGrid, RunSpec};
use crate::{Scheme, SweepExecutor};
use qismet_cluster::daemon::{JobPlan, JobPlanner};
use qismet_cluster::queue::JobSpec;
use qismet_cluster::{
    BuildStamp, DrainOk, Hello, Message, Register, ServiceErrKind, StatusReply, Submit, Submitted,
    TcpTransport, Transport,
};
use qismet_qnoise::Machine;
use qismet_vqa::AppSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

pub use qismet_cluster::daemon::{serve, ServiceConfig, ServiceSummary};

/// The serializable campaign description clients submit and workers
/// re-expand: a [`CampaignGrid`] keyed by stable identifiers (app ids,
/// machine names, CLI scheme names) instead of in-process types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Campaign name (also names the report artifact).
    pub name: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Application ids ([`AppSpec::by_id`]).
    pub apps: Vec<u8>,
    /// Machine names (case-insensitive); empty keeps each app's native
    /// machine.
    pub machines: Vec<String>,
    /// CLI scheme names ([`parse_scheme`]).
    pub schemes: Vec<String>,
    /// QISMET threshold percentiles to sweep in addition to `schemes`.
    pub thresholds: Vec<u32>,
    /// Transient magnitudes; empty = one native-magnitude point.
    pub magnitudes: Vec<f64>,
    /// Iterations per run (already scaled).
    pub iterations: usize,
    /// Trials per grid point.
    pub trials: usize,
}

impl GridSpec {
    /// Resolves the stable identifiers and expands into a [`Campaign`].
    ///
    /// # Errors
    ///
    /// Reports the first unknown app id, machine name, or scheme name, and
    /// the first negative or non-finite magnitude.
    pub fn to_campaign(&self) -> Result<Campaign, String> {
        let mut apps = Vec::with_capacity(self.apps.len());
        for &id in &self.apps {
            apps.push(AppSpec::by_id(id).ok_or_else(|| format!("unknown app id {id}"))?);
        }
        if apps.is_empty() {
            return Err("grid has no apps".into());
        }
        let mut machines = Vec::with_capacity(self.machines.len());
        for name in &self.machines {
            machines
                .push(machine_by_name(name).ok_or_else(|| format!("unknown machine `{name}`"))?);
        }
        let mut schemes = Vec::with_capacity(self.schemes.len());
        for name in &self.schemes {
            schemes.push(parse_scheme(name).ok_or_else(|| format!("unknown scheme `{name}`"))?);
        }
        if schemes.is_empty() && self.thresholds.is_empty() {
            return Err("grid has no schemes and no thresholds".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        for &m in &self.magnitudes {
            check_magnitude(m)?;
        }
        let grid = CampaignGrid {
            apps,
            machines,
            schemes,
            thresholds: self.thresholds.clone(),
            magnitudes: self.magnitudes.clone(),
            iterations: self.iterations,
            trials: self.trials.max(1),
        };
        Ok(grid.into_campaign(self.name.clone(), self.seed))
    }

    /// The JSON payload form shipped in `Submit` and `JobOpen` frames.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("grid spec serializes")
    }

    /// Parses a payload back into a grid spec.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON or a non-grid shape.
    pub fn from_json(payload: &str) -> Result<Self, String> {
        serde_json::from_str(payload).map_err(|e| format!("payload is not a grid spec: {e}"))
    }
}

/// Looks a machine up by its display name, case-insensitively.
pub fn machine_by_name(name: &str) -> Option<Machine> {
    Machine::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

/// The CLI-facing name of a scheme — the inverse of [`parse_scheme`],
/// used to serialize grid definitions into [`GridSpec`] payloads.
pub fn scheme_cli_name(scheme: Scheme) -> String {
    match scheme {
        Scheme::Baseline => "baseline".into(),
        Scheme::Qismet => "qismet".into(),
        Scheme::QismetConservative => "qismet-conservative".into(),
        Scheme::QismetAggressive => "qismet-aggressive".into(),
        Scheme::Blocking => "blocking".into(),
        Scheme::Resampling => "resampling".into(),
        Scheme::SecondOrder => "second-order".into(),
        Scheme::KalmanBest => "kalman-best".into(),
        Scheme::OnlyTransients(p) => format!("only-transients-{p}"),
        Scheme::QismetAt(p) => format!("qismet-{p}p"),
    }
}

/// The daemon-side planner: [`GridSpec`] payloads in, byte-identical
/// [`CampaignReport`] artifacts out.
#[derive(Debug, Clone)]
pub struct CampaignPlanner {
    /// Where settled jobs write their `<name>.json` reports.
    pub report_dir: PathBuf,
}

impl JobPlanner for CampaignPlanner {
    fn open(&self, payload: &str) -> Result<JobPlan, String> {
        let campaign = GridSpec::from_json(payload)?.to_campaign()?;
        let specs = campaign.expand();
        Ok(JobPlan {
            fingerprint: campaign.fingerprint(),
            spec_count: specs.len(),
            seeds: specs.iter().map(|s| s.seed).collect(),
        })
    }

    fn finalize(
        &self,
        spec: &JobSpec,
        records: Vec<(usize, serde::Value)>,
    ) -> Result<String, String> {
        let campaign = GridSpec::from_json(&spec.payload)?.to_campaign()?;
        let mut parts = Vec::with_capacity(records.len());
        for (index, value) in &records {
            let record = RunRecord::from_value(value)
                .map_err(|e| format!("spec {index} journaled a malformed record: {e}"))?;
            parts.push((*index, record));
        }
        let expected: Vec<usize> = (0..spec.spec_count).collect();
        // The same exactly-once, expansion-order merge as the one-shot
        // coordinator — so the report bytes cannot depend on which worker
        // produced which record, or in what order.
        let records = qismet_cluster::merge_indexed(&expected, parts).map_err(|e| e.to_string())?;
        let report = CampaignReport {
            name: campaign.name.clone(),
            seed: campaign.seed,
            meta: ReportMeta::current(),
            records,
        };
        let path = report
            .write_json_in(&self.report_dir, None)
            .map_err(|e| format!("report write failed: {e}"))?;
        Ok(path.display().to_string())
    }
}

/// Typed failures of the service-client verbs and the registering worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The daemon refused the request with a typed error.
    Refused {
        /// Which refusal.
        kind: ServiceErrKind,
        /// Human-readable detail.
        detail: String,
    },
    /// The peer broke the protocol (unexpected frame).
    Protocol(String),
    /// The channel failed.
    Io(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Refused { kind, detail } => write!(f, "refused ({kind:?}): {detail}"),
            ServiceError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ServiceError::Io(detail) => write!(f, "service channel failed: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    fn io(e: impl std::fmt::Display) -> Self {
        ServiceError::Io(e.to_string())
    }
}

/// Opens one authenticated client session: TCP dial, `Hello` handshake
/// under `token`, daemon `Hello` (or typed refusal) back.
fn client_session(
    addr: &str,
    token: &str,
    timeout: Duration,
) -> Result<TcpTransport, ServiceError> {
    let mut transport = TcpTransport::connect(addr, timeout).map_err(ServiceError::io)?;
    let _ = transport.set_read_timeout(Some(timeout));
    transport
        .send(&Message::Hello(Hello {
            worker_id: 0,
            fingerprint: 0,
            spec_count: 0,
            token: token.to_string(),
            threads: 0,
            build: BuildStamp::local(cfg!(feature = "parallel")),
        }))
        .map_err(ServiceError::io)?;
    match transport.recv().map_err(ServiceError::io)? {
        Message::Hello(_) => Ok(transport),
        Message::ServiceErr(err) => Err(ServiceError::Refused {
            kind: err.kind,
            detail: err.detail,
        }),
        other => Err(ServiceError::Protocol(format!(
            "expected Hello or ServiceErr, got {other:?}"
        ))),
    }
}

/// Default dial/handshake deadline for the client verbs.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Submits a campaign to a service daemon under a tenant token.
///
/// # Errors
///
/// Typed refusals for bad tokens, unparseable grids, duplicate
/// non-terminal fingerprints, and a draining daemon; I/O otherwise.
pub fn submit_job(
    addr: &str,
    token: &str,
    grid: &GridSpec,
    priority: i64,
) -> Result<Submitted, ServiceError> {
    let mut transport = client_session(addr, token, CLIENT_TIMEOUT)?;
    transport
        .send(&Message::Submit(Submit {
            name: grid.name.clone(),
            priority,
            payload: grid.to_json(),
        }))
        .map_err(ServiceError::io)?;
    match transport.recv().map_err(ServiceError::io)? {
        Message::Submitted(submitted) => Ok(submitted),
        Message::ServiceErr(err) => Err(ServiceError::Refused {
            kind: err.kind,
            detail: err.detail,
        }),
        other => Err(ServiceError::Protocol(format!(
            "expected Submitted, got {other:?}"
        ))),
    }
}

/// Fetches the queue/fleet status visible to `token`'s tenant.
///
/// # Errors
///
/// Typed refusal for a bad token; I/O otherwise.
pub fn job_status(addr: &str, token: &str) -> Result<StatusReply, ServiceError> {
    let mut transport = client_session(addr, token, CLIENT_TIMEOUT)?;
    transport.send(&Message::Status).map_err(ServiceError::io)?;
    match transport.recv().map_err(ServiceError::io)? {
        Message::StatusReply(reply) => Ok(reply),
        Message::ServiceErr(err) => Err(ServiceError::Refused {
            kind: err.kind,
            detail: err.detail,
        }),
        other => Err(ServiceError::Protocol(format!(
            "expected StatusReply, got {other:?}"
        ))),
    }
}

/// Cancels a job by id (tenants can only cancel their own).
///
/// # Errors
///
/// Typed refusals for bad tokens and unknown/foreign/settled jobs; I/O
/// otherwise.
pub fn cancel_job(addr: &str, token: &str, job_id: u64) -> Result<u64, ServiceError> {
    let mut transport = client_session(addr, token, CLIENT_TIMEOUT)?;
    transport
        .send(&Message::Cancel(qismet_cluster::protocol::Cancel {
            job_id,
        }))
        .map_err(ServiceError::io)?;
    match transport.recv().map_err(ServiceError::io)? {
        Message::CancelOk(id) => Ok(id),
        Message::ServiceErr(err) => Err(ServiceError::Refused {
            kind: err.kind,
            detail: err.detail,
        }),
        other => Err(ServiceError::Protocol(format!(
            "expected CancelOk, got {other:?}"
        ))),
    }
}

/// Drains a service daemon: refuses new submissions, waits for every
/// queued/running job to settle, then stops the daemon. Blocks until the
/// drain completes (no read deadline — jobs may take a while).
///
/// # Errors
///
/// Typed refusal for a bad token; I/O otherwise.
pub fn drain_service(addr: &str, token: &str) -> Result<DrainOk, ServiceError> {
    let mut transport = client_session(addr, token, CLIENT_TIMEOUT)?;
    let _ = transport.set_read_timeout(None);
    transport.send(&Message::Drain).map_err(ServiceError::io)?;
    match transport.recv().map_err(ServiceError::io)? {
        Message::DrainOk(ok) => Ok(ok),
        Message::ServiceErr(err) => Err(ServiceError::Refused {
            kind: err.kind,
            detail: err.detail,
        }),
        other => Err(ServiceError::Protocol(format!(
            "expected DrainOk, got {other:?}"
        ))),
    }
}

/// How `campaign --register` behaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterOptions {
    /// Worker name — the quarantine identity strikes accrue to.
    pub name: String,
    /// Fleet token presented at registration.
    pub token: String,
    /// Executor threads (0 = all cores under `parallel`).
    pub threads: usize,
    /// In-state kernel threads per run.
    pub inner_threads: usize,
    /// Keepalive interval while a batch computes.
    pub heartbeat: Option<Duration>,
    /// Re-dial budget after a lost daemon connection (each attempt backs
    /// off doubling from 50ms to 5s). 0 = give up on first loss.
    pub max_reconnects: usize,
    /// Deregister voluntarily after serving this many batches (elastic
    /// leave; `None` = serve until the daemon shuts the fleet down).
    pub deregister_after: Option<usize>,
    /// TCP dial deadline per attempt.
    pub connect_timeout: Duration,
}

impl Default for RegisterOptions {
    fn default() -> Self {
        RegisterOptions {
            name: "worker".into(),
            token: String::new(),
            threads: 1,
            inner_threads: 1,
            heartbeat: Some(Duration::from_secs(2)),
            max_reconnects: 10,
            deregister_after: None,
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// What a registered worker did, for operator summaries and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegisterStats {
    /// Daemon sessions established (1 + reconnects).
    pub sessions: usize,
    /// Batches served to completion.
    pub batches: usize,
    /// Distinct jobs this worker expanded.
    pub jobs: usize,
}

/// How one registered session ended, worker-side.
enum RegisteredEnd {
    /// Daemon sent `Shutdown` (drain, or an acknowledged deregister).
    Finished,
    /// The channel dropped; re-dial if budget remains.
    Lost,
}

/// The elastic worker loop behind `campaign --register <addr>`: dials the
/// daemon, registers under [`RegisterOptions::name`], and serves pulled
/// batches until the daemon drains, the voluntary-leave budget is hit, or
/// the reconnect budget runs out.
///
/// # Errors
///
/// [`ServiceError::Refused`] for typed registration refusals (bad fleet
/// token, quarantined name), [`ServiceError::Protocol`] when the daemon
/// breaks the frame contract, [`ServiceError::Io`] when the connection is
/// lost with no reconnect budget left.
pub fn register_worker(addr: &str, opts: &RegisterOptions) -> Result<RegisterStats, ServiceError> {
    // Like the other worker modes: telemetry on, so `Done` frames carry
    // stats deltas (never affects computed records).
    qismet_telemetry::set_enabled(true);
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        opts.threads
    };
    let executor = SweepExecutor::with_threads(threads).with_inner_threads(opts.inner_threads);
    // Per-job expansion cache: jobs are re-announced per session, but an
    // expansion is pure, so re-joining workers re-derive identical specs.
    let mut jobs: BTreeMap<u64, (u64, Vec<RunSpec>)> = BTreeMap::new();
    let mut stats = RegisterStats::default();
    let mut reconnects_left = opts.max_reconnects;
    let mut backoff = Duration::from_millis(50);
    loop {
        let mut transport = match TcpTransport::connect(addr, opts.connect_timeout) {
            Ok(t) => t,
            Err(e) => {
                if stats.sessions == 0 || reconnects_left == 0 {
                    return Err(ServiceError::io(format!("dial {addr} failed: {e}")));
                }
                reconnects_left -= 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(5));
                continue;
            }
        };
        let _ = transport.set_read_timeout(Some(opts.connect_timeout));
        if let Err(e) = transport.send(&Message::Register(Register {
            name: opts.name.clone(),
            token: opts.token.clone(),
            threads,
            build: BuildStamp::local(cfg!(feature = "parallel")),
        })) {
            return Err(ServiceError::io(format!("registration send failed: {e}")));
        }
        let slot = match transport.recv() {
            Ok(Message::RegisterAck(slot)) => slot,
            Ok(Message::ServiceErr(err)) => {
                return Err(ServiceError::Refused {
                    kind: err.kind,
                    detail: err.detail,
                })
            }
            Ok(other) => {
                return Err(ServiceError::Protocol(format!(
                    "expected RegisterAck, got {other:?}"
                )))
            }
            Err(e) => return Err(ServiceError::io(format!("registration reply failed: {e}"))),
        };
        stats.sessions += 1;
        eprintln!(
            "[register] session {}: `{}` holds slot {slot} at {addr}",
            stats.sessions, opts.name
        );
        match serve_registered(&mut transport, &executor, opts, &mut jobs, &mut stats, slot) {
            Ok(RegisteredEnd::Finished) => return Ok(stats),
            Ok(RegisteredEnd::Lost) => {
                if reconnects_left == 0 {
                    return Err(ServiceError::Io(
                        "daemon connection lost with no reconnect budget left".into(),
                    ));
                }
                reconnects_left -= 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(5));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serves one registered session: `Ready`-pull loop until shutdown,
/// voluntary leave, or channel loss.
fn serve_registered(
    transport: &mut TcpTransport,
    executor: &SweepExecutor,
    opts: &RegisterOptions,
    jobs: &mut BTreeMap<u64, (u64, Vec<RunSpec>)>,
    stats: &mut RegisterStats,
    slot: u64,
) -> Result<RegisteredEnd, ServiceError> {
    let mut wire_stats = StatsTracker::default();
    // The daemon may park us while no work is runnable: no read deadline.
    let _ = transport.set_read_timeout(None);
    let mut current: Option<u64> = None;
    loop {
        if matches!(opts.deregister_after, Some(limit) if stats.batches >= limit) {
            // Voluntary leave: no strike, daemon acknowledges with
            // Shutdown (best-effort — it may already be gone).
            let _ = transport.send(&Message::Deregister);
            let _ = transport.recv();
            eprintln!(
                "[register] `{}` deregistered after {} batch(es)",
                opts.name, stats.batches
            );
            return Ok(RegisteredEnd::Finished);
        }
        if transport.send(&Message::Ready).is_err() {
            return Ok(RegisteredEnd::Lost);
        }
        let message = match transport.recv() {
            Ok(message) => message,
            Err(e) => {
                return match channel_end("registered read", e) {
                    Ok(_) => Ok(RegisteredEnd::Lost),
                    Err(e) => Err(ServiceError::io(e)),
                }
            }
        };
        let assign = match message {
            Message::Shutdown => return Ok(RegisteredEnd::Finished),
            Message::Pong => continue,
            Message::JobOpen(open) => {
                // Re-expand the payload ourselves and prove we agree via
                // the fingerprint — same trust model as the Hello
                // handshake on the one-shot path.
                let expanded = GridSpec::from_json(&open.payload)
                    .and_then(|grid| grid.to_campaign())
                    .map(|campaign| {
                        let specs = campaign.expand();
                        (campaign.fingerprint(), specs)
                    });
                let (fingerprint, specs) = match expanded {
                    Ok(pair) => pair,
                    Err(detail) => {
                        // Typed refusal; the daemon cuts this session and
                        // re-dispatches elsewhere.
                        let _ = transport.send(&Message::ServiceErr(
                            qismet_cluster::protocol::ServiceErr {
                                kind: ServiceErrKind::BadPayload,
                                detail,
                            },
                        ));
                        return Ok(RegisteredEnd::Lost);
                    }
                };
                if jobs.insert(open.job_id, (fingerprint, specs)).is_none() {
                    stats.jobs += 1;
                }
                let (fingerprint, specs) = &jobs[&open.job_id];
                if transport
                    .send(&Message::JobReady(qismet_cluster::protocol::JobReady {
                        job_id: open.job_id,
                        fingerprint: *fingerprint,
                        spec_count: specs.len(),
                    }))
                    .is_err()
                {
                    return Ok(RegisteredEnd::Lost);
                }
                current = Some(open.job_id);
                match transport.recv() {
                    Ok(Message::Assign(assign)) => assign,
                    Ok(Message::Shutdown) => return Ok(RegisteredEnd::Finished),
                    Ok(other) => {
                        return Err(ServiceError::Protocol(format!(
                            "expected Assign after JobReady, got {other:?}"
                        )))
                    }
                    Err(_) => return Ok(RegisteredEnd::Lost),
                }
            }
            Message::Assign(assign) => assign,
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected JobOpen/Assign/Shutdown, got {other:?}"
                )))
            }
        };
        let Some(job_id) = current else {
            return Err(ServiceError::Protocol(
                "daemon assigned a batch before opening a job".into(),
            ));
        };
        let specs = &jobs[&job_id].1;
        match run_assignment(
            executor,
            specs,
            slot as usize,
            &assign.indices,
            transport,
            opts.heartbeat,
            &mut wire_stats,
        ) {
            Ok(None) => stats.batches += 1,
            Ok(Some(SessionOutcome::Shutdown)) => return Ok(RegisteredEnd::Finished),
            Ok(Some(_)) => return Ok(RegisteredEnd::Lost),
            Err(e) => return Err(ServiceError::io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridSpec {
        GridSpec {
            name: "svc".into(),
            seed: 11,
            apps: vec![1, 2],
            machines: vec!["Guadalupe".into()],
            schemes: vec!["baseline".into(), "qismet-85p".into()],
            thresholds: vec![75],
            magnitudes: vec![0.25],
            iterations: 40,
            trials: 2,
        }
    }

    #[test]
    fn grid_spec_roundtrips_and_expands_like_the_native_grid() {
        let spec = grid();
        let parsed = GridSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        let campaign = parsed.to_campaign().unwrap();
        // 2 apps x 1 machine x 1 magnitude x (2 schemes + 1 threshold).
        assert_eq!(campaign.scenarios.len(), 2 * 3);
        assert_eq!(campaign.len(), 2 * 3 * 2);
        // Two independent expansions agree on the fingerprint — the
        // daemon/worker handshake invariant.
        assert_eq!(
            campaign.fingerprint(),
            GridSpec::from_json(&spec.to_json())
                .unwrap()
                .to_campaign()
                .unwrap()
                .fingerprint()
        );
    }

    #[test]
    fn grid_spec_rejects_unknown_identifiers() {
        let mut bad = grid();
        bad.apps = vec![99];
        assert!(bad.to_campaign().unwrap_err().contains("app id 99"));
        let mut bad = grid();
        bad.machines = vec!["nonesuch".into()];
        assert!(bad.to_campaign().unwrap_err().contains("nonesuch"));
        let mut bad = grid();
        bad.schemes = vec!["warp-drive".into()];
        assert!(bad.to_campaign().unwrap_err().contains("warp-drive"));
        let mut bad = grid();
        bad.schemes.clear();
        bad.thresholds.clear();
        assert!(bad.to_campaign().is_err());
    }

    #[test]
    fn grid_spec_rejects_negative_and_non_finite_magnitudes() {
        // A bad magnitude is refused when the job is opened, not left to
        // panic inside a worker's run.
        for m in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = grid();
            bad.magnitudes = vec![0.25, m];
            let err = bad.to_campaign().unwrap_err();
            assert!(
                err.contains("invalid magnitude") && err.contains("finite and non-negative"),
                "magnitude {m}: {err}"
            );
            let planner = CampaignPlanner {
                report_dir: std::env::temp_dir(),
            };
            assert!(planner.open(&bad.to_json()).is_err(), "magnitude {m}");
        }
        let mut ok = grid();
        ok.magnitudes = vec![0.0, 1.5];
        assert!(ok.to_campaign().is_ok());
    }

    #[test]
    fn scheme_cli_names_roundtrip_through_the_parser() {
        for scheme in [
            Scheme::Baseline,
            Scheme::Qismet,
            Scheme::QismetConservative,
            Scheme::QismetAggressive,
            Scheme::Blocking,
            Scheme::Resampling,
            Scheme::SecondOrder,
            Scheme::KalmanBest,
            Scheme::OnlyTransients(90),
            Scheme::QismetAt(85),
        ] {
            assert_eq!(parse_scheme(&scheme_cli_name(scheme)), Some(scheme));
        }
    }

    #[test]
    fn planner_open_matches_expansion() {
        let planner = CampaignPlanner {
            report_dir: std::env::temp_dir(),
        };
        let spec = grid();
        let plan = planner.open(&spec.to_json()).unwrap();
        let campaign = spec.to_campaign().unwrap();
        assert_eq!(plan.fingerprint, campaign.fingerprint());
        assert_eq!(plan.spec_count, campaign.len());
        let seeds: Vec<u64> = campaign.expand().iter().map(|s| s.seed).collect();
        assert_eq!(plan.seeds, seeds);
        assert!(planner.open("{not json").is_err());
    }
}
