//! Distributed extraction over the JSON-lines wire.
//!
//! This module turns `pf-core`'s transport-agnostic distributed driver
//! ([`pf_core::distributed_extract`]) into a networked system built from
//! the pieces the service already has:
//!
//! * **Worker mode** — a server started with [`ServerConfig::worker`](crate::ServerConfig::worker)
//!   (`parafactor serve --worker`) answers the `sub` op: one leased
//!   sub-job in, one result line out. The worker is stateless between
//!   sub-jobs; everything it needs (network snapshot, target set, lease
//!   id) rides in the request, so any worker can run any lease and a
//!   failed worker can be replaced by re-dispatching the same line
//!   elsewhere.
//! * **Coordinator** — the `dist` op partitions a workload and drives
//!   the leases either over in-process workers ([`LocalTransport`]) or
//!   over TCP peers ([`RemoteTransport`]), folding the lease statistics
//!   into the metrics registry (`leases_issued`, `failovers`, … — see
//!   `docs/OBSERVABILITY.md`).
//!
//! ## Wire codec
//!
//! Functions cross the wire **by name**, not by id: each sub-result
//! encodes an SOP as an array of cubes, each cube an array of literal
//! strings (`"n42"` or `"!n42"`). Names are stable between the
//! coordinator's snapshot and the worker's parsed copy (the network
//! text round-trips through `pf_network::io`), while raw ids are not
//! guaranteed to be — and a name-keyed diff lets the coordinator assign
//! its own private id block per lease, which is what keeps duplicated
//! and re-dispatched leases collision-free in the merge.
//!
//! Remote workers do not stream heartbeats: the dispatch connection is
//! synchronous (one request line, one response line), so liveness is
//! the connection itself. Lease timeouts for remote runs should budget
//! the full sub-job, not a heartbeat interval.

use crate::job::{knobs_from_json, knobs_to_json, Wire};
use crate::json::{parse, Json};
use crate::retry::RetryPolicy;
use crate::server::{checked_count, transient_io};
use crate::service::Client;
use pf_core::merge::{NewNode, WorkerResult};
use pf_core::seq::ExtractConfig;
use pf_core::{
    block_base_for, execute_sub_job, DistConfig, DistEvent, DistStats, DistTransport, FaultPlan,
    LocalTransport, RunCtl, SubJob, SubKind,
};
use pf_network::io::{read_network, write_network};
use pf_network::SignalId;
use pf_sop::fx::FxHashMap;
use pf_sop::{Cube, Lit, Sop, Var};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// Encodes one SOP as nested JSON arrays of literal names.
fn sop_to_json(f: &Sop, name_of: &dyn Fn(u32) -> String) -> Json {
    Json::Arr(
        f.iter()
            .map(|cube| {
                Json::Arr(
                    cube.iter()
                        .map(|l| {
                            let name = name_of(l.var().index());
                            Json::Str(if l.is_negated() {
                                format!("!{name}")
                            } else {
                                name
                            })
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Decodes [`sop_to_json`]'s format back through a name → id resolver.
fn sop_from_json(v: &Json, id_of: &dyn Fn(&str) -> Result<u32, String>) -> Result<Sop, String> {
    let Json::Arr(cubes) = v else {
        return Err("function must be an array of cubes".into());
    };
    let mut out = Vec::with_capacity(cubes.len());
    for cube in cubes {
        let Json::Arr(lits) = cube else {
            return Err("cube must be an array of literal strings".into());
        };
        let mut parsed = Vec::with_capacity(lits.len());
        for lit in lits {
            let s = lit.as_str().ok_or("literal must be a string")?;
            let (neg, name) = match s.strip_prefix('!') {
                Some(rest) => (true, rest),
                None => (false, s),
            };
            parsed.push(Lit::new(Var::new(id_of(name)?), neg));
        }
        out.push(Cube::from_lits(parsed));
    }
    Ok(Sop::from_cubes(out))
}

/// Builds the `sub` request line for a lease. `faults` optionally
/// forwards a fault-plan spec + seed so chaos tests can arm the worker's
/// execution checkpoints remotely.
pub fn encode_sub_request(job: &SubJob, faults: Option<(&str, u64)>) -> Json {
    let mut members = vec![
        ("op".to_string(), Json::str("sub")),
        ("lease".to_string(), Json::u64(job.lease)),
        ("kind".to_string(), Json::str(job.kind.as_str())),
        ("network".to_string(), Json::str(write_network(&job.base))),
        (
            "targets".to_string(),
            Json::Arr(
                job.targets
                    .iter()
                    .map(|&t| Json::str(job.base.name(t)))
                    .collect(),
            ),
        ),
    ];
    members.extend(knobs_to_json(&job.extract.search, Wire::Sub));
    if let Some((spec, seed)) = faults {
        members.push(("fault_plan".to_string(), Json::str(spec)));
        members.push(("fault_seed".to_string(), Json::u64(seed)));
    }
    Json::Obj(members)
}

/// Encodes a worker's result for the wire. New-node ids (the lease's
/// private block) are translated to their names; everything else keeps
/// the snapshot's names.
fn encode_sub_result(job: &SubJob, wr: &WorkerResult, report: &pf_core::ExtractReport) -> Json {
    let block_names: FxHashMap<u32, &str> = wr
        .new_nodes
        .iter()
        .map(|n| (n.worker_id, n.name.as_str()))
        .collect();
    let name_of = |idx: u32| -> String {
        match block_names.get(&idx) {
            Some(n) => (*n).to_string(),
            None => job.base.name(idx as SignalId).to_string(),
        }
    };
    Json::obj([
        ("status", Json::str("ok")),
        ("lease", Json::u64(job.lease)),
        (
            "report",
            Json::obj([
                ("lc_before", Json::u64(report.lc_before as u64)),
                ("lc_after", Json::u64(report.lc_after as u64)),
                ("extractions", Json::u64(report.extractions as u64)),
                ("total_value", Json::num(report.total_value as f64)),
                ("budget_exhausted", Json::Bool(report.budget_exhausted)),
                ("timed_out", Json::Bool(report.timed_out)),
                ("cancelled", Json::Bool(report.cancelled)),
                (
                    "resub_pairs_considered",
                    Json::u64(report.resub_pairs_considered as u64),
                ),
                (
                    "resub_pairs_divided",
                    Json::u64(report.resub_pairs_divided as u64),
                ),
                (
                    "resub_worklist_rounds",
                    Json::u64(report.resub_worklist_rounds as u64),
                ),
            ]),
        ),
        (
            "rewritten",
            Json::Arr(
                wr.rewritten
                    .iter()
                    .map(|(node, func)| {
                        Json::Arr(vec![
                            Json::str(job.base.name(*node)),
                            sop_to_json(func, &name_of),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "new_nodes",
            Json::Arr(
                wr.new_nodes
                    .iter()
                    .map(|n| Json::Arr(vec![Json::str(&n.name), sop_to_json(&n.func, &name_of)]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a worker's `"status":"ok"` response back into the
/// coordinator's id space: new nodes get sequential ids in the lease's
/// private block, every other name resolves against the dispatched
/// snapshot.
pub fn decode_sub_response(
    response: &Json,
    job: &SubJob,
) -> Result<(WorkerResult, pf_core::ExtractReport), String> {
    let lease = response
        .get("lease")
        .and_then(Json::as_u64)
        .ok_or("response missing \"lease\"")?;
    if lease != job.lease {
        return Err(format!("lease mismatch: sent {}, got {lease}", job.lease));
    }
    let new_nodes_json = match response.get("new_nodes") {
        Some(Json::Arr(items)) => items.as_slice(),
        _ => return Err("response missing \"new_nodes\"".into()),
    };
    let rewritten_json = match response.get("rewritten") {
        Some(Json::Arr(items)) => items.as_slice(),
        _ => return Err("response missing \"rewritten\"".into()),
    };
    let pair = |v: &Json| -> Result<(String, Json), String> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                let name = items[0].as_str().ok_or("entry name must be a string")?;
                Ok((name.to_string(), items[1].clone()))
            }
            _ => Err("entry must be a [name, function] pair".into()),
        }
    };
    // Pass 1: assign this lease's block ids so functions can reference
    // any new node, not just earlier ones.
    let base_id = block_base_for(job.lease);
    let mut block_ids: FxHashMap<String, u32> = FxHashMap::default();
    let mut decoded_nodes = Vec::with_capacity(new_nodes_json.len());
    for (i, v) in new_nodes_json.iter().enumerate() {
        let (name, func) = pair(v)?;
        let id = base_id + i as u32;
        if block_ids.insert(name.clone(), id).is_some() {
            return Err(format!("duplicate new node {name:?}"));
        }
        decoded_nodes.push((name, id, func));
    }
    let id_of = |name: &str| -> Result<u32, String> {
        if let Some(&id) = block_ids.get(name) {
            return Ok(id);
        }
        job.base
            .find(name)
            .ok_or_else(|| format!("unknown signal {name:?} in result"))
    };
    let mut wr = WorkerResult::default();
    for (name, id, func) in decoded_nodes {
        wr.new_nodes.push(NewNode {
            worker_id: id,
            name,
            func: sop_from_json(&func, &id_of)?,
        });
    }
    for v in rewritten_json {
        let (name, func) = pair(v)?;
        let node = job
            .base
            .find(&name)
            .ok_or_else(|| format!("rewritten node {name:?} is not in the snapshot"))?;
        wr.rewritten.push((node, sop_from_json(&func, &id_of)?));
    }
    let rj = response
        .get("report")
        .ok_or("response missing \"report\"")?;
    let get_u = |k: &str| rj.get(k).and_then(Json::as_u64).unwrap_or(0);
    let get_b = |k: &str| rj.get(k).and_then(Json::as_bool).unwrap_or(false);
    let report = pf_core::ExtractReport {
        lc_before: get_u("lc_before") as usize,
        lc_after: get_u("lc_after") as usize,
        extractions: get_u("extractions") as usize,
        total_value: rj.get("total_value").and_then(Json::as_f64).unwrap_or(0.0) as i64,
        budget_exhausted: get_b("budget_exhausted"),
        timed_out: get_b("timed_out"),
        cancelled: get_b("cancelled"),
        resub_pairs_considered: get_u("resub_pairs_considered") as usize,
        resub_pairs_divided: get_u("resub_pairs_divided") as usize,
        resub_worklist_rounds: get_u("resub_worklist_rounds") as usize,
        ..Default::default()
    };
    Ok((wr, report))
}

// ---------------------------------------------------------------------
// Worker op
// ---------------------------------------------------------------------

/// Handles one `sub` request (worker mode). Panics inside the sub-job
/// answer `"status":"failed"` on the same connection — the worker
/// survives, matching the coordinator's lease semantics (a failed lease
/// fails over; the worker slot stays usable).
pub fn handle_sub(request: &Json) -> Json {
    match run_sub(request) {
        Ok(response) => response,
        Err(msg) => Json::obj([("status", Json::str("error")), ("error", Json::str(msg))]),
    }
}

fn run_sub(request: &Json) -> Result<Json, String> {
    let lease = request
        .get("lease")
        .and_then(Json::as_u64)
        .ok_or("missing \"lease\"")?;
    let kind = match request.get("kind").and_then(Json::as_str) {
        Some(s) => SubKind::parse(s).ok_or_else(|| format!("unknown sub kind {s:?}"))?,
        None => SubKind::Extract,
    };
    let text = request
        .get("network")
        .and_then(Json::as_str)
        .ok_or("missing \"network\"")?;
    let base = read_network(text).map_err(|e| format!("bad network: {e}"))?;
    let targets: Vec<SignalId> = match request.get("targets") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                let name = v.as_str().ok_or("target must be a string")?;
                base.find(name)
                    .ok_or_else(|| format!("unknown target {name:?}"))
            })
            .collect::<Result<_, String>>()?,
        _ => return Err("missing \"targets\"".into()),
    };
    let mut extract = ExtractConfig::default();
    knobs_from_json(request, &mut extract.search, Wire::Sub)?;
    if let Some(spec) = request.get("fault_plan").and_then(Json::as_str) {
        let seed = request
            .get("fault_seed")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let plan = FaultPlan::parse(spec, seed).map_err(|e| format!("bad fault_plan: {e}"))?;
        extract.ctl = extract.ctl.with_faults(Arc::new(plan));
    }
    let job = SubJob {
        lease,
        targets: Arc::new(targets),
        base: Arc::new(base),
        extract,
        kind,
    };
    match std::panic::catch_unwind(AssertUnwindSafe(|| execute_sub_job(&job))) {
        Ok((wr, report)) => Ok(encode_sub_result(&job, &wr, &report)),
        Err(payload) => Ok(Json::obj([
            ("status", Json::str("failed")),
            ("lease", Json::u64(lease)),
            ("error", Json::str(panic_message(payload))),
        ])),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "sub-job panicked".to_string()
    }
}

// ---------------------------------------------------------------------
// Remote transport
// ---------------------------------------------------------------------

/// [`DistTransport`] over TCP peers running in worker mode.
///
/// Each dispatch opens one connection on its own thread: the request
/// line goes out, the thread blocks on the response line (bounded by
/// `read_timeout`), and the parsed result comes back as a
/// [`DistEvent`]. Connect/read failures retry with the policy's
/// backoff on transient I/O errors ([`transient_io`]); a peer that
/// stays unreachable is marked dead and reported as
/// [`DistEvent::WorkerDied`], which fails its leases over.
pub struct RemoteTransport {
    peers: Vec<String>,
    alive: Vec<Arc<AtomicBool>>,
    tx: Sender<DistEvent>,
    rx: Mutex<Receiver<DistEvent>>,
    retry: RetryPolicy,
    read_timeout: Duration,
    faults: Option<(String, u64)>,
}

impl RemoteTransport {
    /// A transport over `peers` (worker-mode server addresses) with a
    /// 30 s per-dispatch read timeout and default retry policy.
    pub fn new(peers: Vec<String>) -> Self {
        let (tx, rx) = mpsc::channel();
        RemoteTransport {
            alive: peers
                .iter()
                .map(|_| Arc::new(AtomicBool::new(true)))
                .collect(),
            peers,
            tx,
            rx: Mutex::new(rx),
            retry: RetryPolicy::default(),
            read_timeout: Duration::from_secs(30),
            faults: None,
        }
    }

    /// Overrides the retry policy and per-dispatch read timeout.
    pub fn with_limits(mut self, retry: RetryPolicy, read_timeout: Duration) -> Self {
        self.retry = retry;
        self.read_timeout = read_timeout;
        self
    }

    /// Forwards a fault-plan spec + seed inside every sub request so
    /// the workers arm their execution checkpoints (chaos testing).
    pub fn forward_faults(mut self, spec: impl Into<String>, seed: u64) -> Self {
        self.faults = Some((spec.into(), seed));
        self
    }

    /// How many peers are currently believed alive.
    pub fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }
}

/// One request line → one response line, with a read timeout and
/// transient-error retry. Unlike [`crate::server::request_lines`] this
/// never blocks forever on a hung peer — the coordinator's lease
/// deadline needs dispatch threads to eventually finish.
fn request_one(
    addr: &str,
    line: &str,
    read_timeout: Duration,
    retry: &RetryPolicy,
) -> std::io::Result<String> {
    let mut attempt = 0u32;
    loop {
        match request_one_once(addr, line, read_timeout) {
            Err(e) if transient_io(&e) && attempt < retry.max_retries => {
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

fn request_one_once(addr: &str, line: &str, read_timeout: Duration) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed before answering",
        ));
    }
    Ok(response.trim_end().to_string())
}

impl DistTransport for RemoteTransport {
    fn workers(&self) -> usize {
        self.peers.len()
    }

    fn alive(&self, w: usize) -> bool {
        self.alive[w].load(Ordering::Acquire)
    }

    fn dispatch(&self, w: usize, job: SubJob) -> Result<(), String> {
        if !self.alive(w) {
            return Err(format!("peer {w} is down"));
        }
        let faults = self.faults.as_ref().map(|(s, seed)| (s.as_str(), *seed));
        let line = encode_sub_request(&job, faults).to_string();
        let addr = self.peers[w].clone();
        let tx = self.tx.clone();
        let alive = Arc::clone(&self.alive[w]);
        let retry = self.retry.clone();
        let read_timeout = self.read_timeout;
        std::thread::spawn(move || {
            let event = match request_one(&addr, &line, read_timeout, &retry) {
                Err(_) => {
                    // Unreachable past the retry budget: the peer (or
                    // the route to it) is gone. Its leases fail over.
                    alive.store(false, Ordering::Release);
                    DistEvent::WorkerDied { worker: w }
                }
                Ok(text) => match parse(&text) {
                    Err(e) => DistEvent::Failed {
                        lease: job.lease,
                        worker: w,
                        message: format!("unparseable worker response: {e}"),
                    },
                    Ok(response) => match response.get("status").and_then(Json::as_str) {
                        Some("ok") => match decode_sub_response(&response, &job) {
                            Ok((wr, report)) => DistEvent::Completed {
                                lease: job.lease,
                                worker: w,
                                result: Box::new(wr),
                                report: Box::new(report),
                            },
                            Err(msg) => DistEvent::Failed {
                                lease: job.lease,
                                worker: w,
                                message: msg,
                            },
                        },
                        _ => DistEvent::Failed {
                            lease: job.lease,
                            worker: w,
                            message: response
                                .get("error")
                                .and_then(Json::as_str)
                                .unwrap_or("worker rejected the sub-job")
                                .to_string(),
                        },
                    },
                },
            };
            // The coordinator may already be gone (degraded wind-down);
            // a dead receiver just drops the late event.
            let _ = tx.send(event);
        });
        Ok(())
    }

    fn poll(&self, timeout: Duration) -> Option<DistEvent> {
        match self.rx.lock().unwrap().recv_timeout(timeout) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator op
// ---------------------------------------------------------------------

/// Handles one `dist` request (coordinator). Runs the distributed
/// driver over in-process workers (`"workers": N`) or TCP peers
/// (`"peers": ["host:port", …]`), bills the run through the standard
/// submitted/accepted/completed counters, and folds the lease
/// statistics into the registry.
pub fn handle_dist(request: &Json, client: &Client) -> Json {
    client.metrics().submitted.inc();
    match run_dist(request, client) {
        Ok(response) => response,
        Err(msg) => {
            client.metrics().rejected_invalid.inc();
            Json::obj([
                ("status", Json::str("rejected")),
                ("reason", Json::str("invalid")),
                ("error", Json::str(msg)),
            ])
        }
    }
}

fn run_dist(request: &Json, client: &Client) -> Result<Json, String> {
    let workload = request
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("missing \"workload\"")?;
    let mut nw = match client.cache() {
        Some(cache) => {
            let ctl = RunCtl::new();
            let (input, _) = crate::job::resolve_memoized(cache, client.metrics(), workload, &ctl)?;
            input.network.unpack()
        }
        None => crate::job::resolve_workload(workload)?,
    };

    // An absent option keeps its default; a present one must be
    // well-formed, with the same checks as the CLI's `dist` flags.
    let count = |key: &str| request.get(key).map(|v| checked_count(v, key)).transpose();
    let mut cfg = DistConfig::default();
    if let Some(parts) = count("parts")? {
        cfg.parts = parts;
    }
    if let Some(r) = request.get("recovery") {
        cfg.recovery = r.as_bool().ok_or("\"recovery\" must be true or false")?;
    }
    if let Some(shards) = count("recovery_shards")? {
        cfg.recovery_shards = shards;
    }
    if let Some(ms) = count("lease_timeout_ms")? {
        if ms == 0 {
            return Err("\"lease_timeout_ms\" must be a positive integer".into());
        }
        cfg.lease_timeout = Duration::from_millis(ms as u64);
    }
    let seed = count("fault_seed")?.unwrap_or(0) as u64;
    let faults = match request.get("fault_plan") {
        None => None,
        Some(v) => {
            let spec = v.as_str().ok_or("\"fault_plan\" must be a string")?;
            Some((spec.to_string(), seed))
        }
    };

    let peers: Vec<String> = match request.get("peers") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or("\"peers\" entries must be strings".to_string())
            })
            .collect::<Result<_, String>>()?,
        Some(_) => return Err("\"peers\" must be an array of addresses".into()),
    };

    let workers = count("workers")?.unwrap_or(2);
    if workers > 64 {
        return Err("\"workers\" must be at most 64".into());
    }
    // Local chaos plans arm both planes: the transport's message /
    // pickup checkpoints and the sub-jobs' execution checkpoints.
    let plan = match &faults {
        None => None,
        Some((spec, seed)) => Some(Arc::new(
            FaultPlan::parse(spec, *seed).map_err(|e| format!("bad fault_plan: {e}"))?,
        )),
    };

    // Everything is validated; from here the run is accepted and must
    // land in exactly one outcome counter.
    client.metrics().accepted.inc();
    let (report, stats) = if peers.is_empty() {
        if let Some(p) = &plan {
            cfg.extract.ctl = cfg.extract.ctl.clone().with_faults(Arc::clone(p));
        }
        let transport = LocalTransport::with_faults(workers, plan, Duration::from_millis(100));
        pf_core::distributed_extract(&mut nw, &transport, &cfg)
    } else {
        let mut transport = RemoteTransport::new(peers);
        if let Some((spec, seed)) = &faults {
            transport = transport.forward_faults(spec.clone(), *seed);
        }
        pf_core::distributed_extract(&mut nw, &transport, &cfg)
    };

    if report.timed_out {
        client.metrics().timed_out.inc();
    } else {
        client.metrics().completed.inc();
    }
    client.metrics().record_dist(&stats);
    Ok(dist_response(&report, &stats))
}

/// The `dist` op's response body — also what `parafactor dist` prints,
/// so the CLI and the wire stay field-for-field identical.
pub fn dist_response(report: &pf_core::ExtractReport, stats: &DistStats) -> Json {
    Json::obj([
        ("status", Json::str("completed")),
        (
            "metrics",
            Json::obj([
                ("lc_before", Json::u64(report.lc_before as u64)),
                ("lc_after", Json::u64(report.lc_after as u64)),
                ("saved", Json::num(report.saved() as f64)),
                ("extractions", Json::u64(report.extractions as u64)),
                ("degraded", Json::Bool(report.degraded)),
                ("recovery_rects", Json::u64(report.recovery_rects as u64)),
                (
                    "resub_pairs_considered",
                    Json::u64(report.resub_pairs_considered as u64),
                ),
                (
                    "resub_pairs_divided",
                    Json::u64(report.resub_pairs_divided as u64),
                ),
                (
                    "resub_worklist_rounds",
                    Json::u64(report.resub_worklist_rounds as u64),
                ),
                ("run_us", Json::u64(report.elapsed.as_micros() as u64)),
                (
                    "phases",
                    Json::Obj(
                        report
                            .phases
                            .iter()
                            .map(|p| (p.name.to_string(), Json::u64(p.elapsed.as_micros() as u64)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "dist",
            Json::obj([
                ("leases_issued", Json::u64(stats.leases_issued)),
                ("leases_resolved", Json::u64(stats.leases_resolved)),
                ("leases_expired", Json::u64(stats.leases_expired)),
                ("leases_stolen", Json::u64(stats.leases_stolen)),
                ("failovers", Json::u64(stats.failovers)),
                ("degraded_jobs", Json::u64(stats.degraded_jobs)),
                ("recovery_rects", Json::u64(stats.recovery_rects)),
                ("recovery_conflicts", Json::u64(stats.recovery_conflicts)),
                ("stale_results", Json::u64(stats.stale_results)),
                ("balanced", Json::Bool(stats.balanced())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{request_lines, Server, ServerConfig};
    use crate::service::{Service, ServiceConfig};
    use pf_core::merge::merge_worker_results;
    use pf_network::sim::{equivalent_random, EquivConfig};
    use pf_network::Network;
    use pf_workloads::{generate, CircuitProfile};

    /// Re-applies a decoded worker result to a copy of the snapshot,
    /// proving the codec preserves semantics.
    fn apply_result(base: &Network, wr: WorkerResult) -> Network {
        let mut out = base.clone();
        merge_worker_results(&mut out, vec![wr]).expect("decoded result merges");
        out
    }

    /// Silences the default panic hook for injected faults so chaos
    /// tests don't spray backtraces into the output.
    fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let message = info
                    .payload()
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()));
                if message
                    .as_deref()
                    .is_some_and(|m| m.contains("fault injected"))
                {
                    return;
                }
                previous(info);
            }));
        });
    }

    fn test_network() -> Network {
        generate(&CircuitProfile::small("serve-dist", 7))
    }

    fn sample_job(lease: u64, targets: Vec<SignalId>, base: Network) -> SubJob {
        SubJob {
            lease,
            targets: Arc::new(targets),
            base: Arc::new(base),
            extract: ExtractConfig::default(),
            kind: SubKind::Extract,
        }
    }

    #[test]
    fn codec_round_trips_a_sub_job_result() {
        let nw = test_network();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let job = sample_job(3, targets, nw.clone());
        let (wr, report) = execute_sub_job(&job);
        assert!(report.extractions > 0, "workload must extract something");

        let encoded = encode_sub_result(&job, &wr, &report);
        let reparsed = parse(&encoded.to_string()).expect("wire round-trip");
        let (decoded, decoded_report) = decode_sub_response(&reparsed, &job).expect("decode");
        assert_eq!(decoded_report.extractions, report.extractions);
        assert_eq!(decoded_report.lc_after, report.lc_after);

        // Semantics survive the trip: applying the decoded diff gives a
        // network equivalent to applying the original one.
        let direct = apply_result(&nw, wr);
        let via_wire = apply_result(&nw, decoded);
        assert_eq!(direct.literal_count(), via_wire.literal_count());
        assert!(equivalent_random(&direct, &via_wire, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn sub_request_round_trips_through_the_worker_handler() {
        let nw = test_network();
        let lc_before = nw.literal_count();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let job = sample_job(9, targets, nw.clone());
        let request_line = encode_sub_request(&job, None).to_string();
        let request = parse(&request_line).unwrap();
        let response = handle_sub(&request);
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        let (wr, _) = decode_sub_response(&response, &job).expect("decode");
        let merged = apply_result(&nw, wr);
        assert!(merged.literal_count() < lc_before, "extraction happened");
        assert!(merged.validate().is_ok());
        // New nodes landed in the lease's private name/id space.
        assert!(merged.node_ids().any(|n| merged.name(n).starts_with("d9_")));
    }

    #[test]
    fn worker_faults_forwarded_in_the_request_fail_the_sub_job() {
        let nw = test_network();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let job = sample_job(4, targets, nw);
        let request = encode_sub_request(&job, Some(("dist:work=panic", 7)));
        quiet_injected_panics();
        let response = handle_sub(&request);
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("failed")
        );
        assert_eq!(response.get("lease").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn malformed_sub_requests_answer_structured_errors() {
        // A well-formed lease with one extra member: the knob values
        // below must be rejected as `submit` rejects them, not run at
        // their defaults.
        let with_knob = |member: &str| {
            format!(
                r#"{{"op":"sub","lease":1,"network":"inputs a b\nnode f = a | b\noutputs f\n","targets":["f"]{member}}}"#
            )
        };
        let ok = handle_sub(&parse(&with_knob(r#","batch_rects":1"#)).unwrap());
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"), "{ok}");
        for bad in [
            r#"{"op":"sub"}"#.to_string(),
            r#"{"op":"sub","lease":1,"network":"not a network","targets":[]}"#.to_string(),
            r#"{"op":"sub","lease":1,"network":"","targets":["nope"]}"#.to_string(),
            with_knob(r#","batch_rects":"x""#),
            with_knob(r#","batch_rects":-3"#),
            with_knob(r#","batch_rects":1.5"#),
            with_knob(r#","batch_rects":0"#),
            with_knob(r#","batch_rects":65"#),
            with_knob(r#","tile_width":"x""#),
            with_knob(r#","tile_width":-1"#),
        ] {
            let request = parse(&bad).unwrap();
            let response = handle_sub(&request);
            assert_eq!(
                response.get("status").and_then(Json::as_str),
                Some("error"),
                "{bad}"
            );
        }
    }

    #[test]
    fn sub_request_tile_width_is_bounded() {
        let nw = test_network();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let job = sample_job(5, targets, nw);
        let with_width = |w: u64| {
            let Json::Obj(mut members) = encode_sub_request(&job, None) else {
                unreachable!("a sub request is an object")
            };
            for (key, value) in &mut members {
                if key == "tile_width" {
                    *value = Json::u64(w);
                }
            }
            handle_sub(&Json::Obj(members))
        };
        let response = with_width(1 << 40);
        assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("tile_width 1099511627776 is out of range 0..=64")
        );
        let widest = with_width(pf_kcmatrix::SearchConfig::MAX_TILE_WIDTH as u64);
        assert_eq!(widest.get("status").and_then(Json::as_str), Some("ok"));
    }

    fn start_worker_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind_with(
            "127.0.0.1:0",
            ServiceConfig::default(),
            ServerConfig {
                worker: true,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn shutdown(addr: std::net::SocketAddr) {
        let _ = request_lines(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    }

    #[test]
    fn remote_transport_extracts_over_tcp() {
        let (a0, h0) = start_worker_server();
        let (a1, h1) = start_worker_server();
        let mut nw = test_network();
        let original = nw.clone();
        let transport = RemoteTransport::new(vec![a0.to_string(), a1.to_string()]);
        let cfg = DistConfig {
            lease_timeout: Duration::from_secs(10),
            ..DistConfig::default()
        };
        let (report, stats) = pf_core::distributed_extract(&mut nw, &transport, &cfg);
        assert!(report.lc_after < report.lc_before);
        assert!(!report.degraded);
        assert!(report.recovery_rects > 0 || report.extractions > 0);
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.leases_resolved, stats.leases_issued);
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        shutdown(a0);
        shutdown(a1);
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn explicit_classic_job_stays_classic_on_remote_workers() {
        // A worker fills an absent search knob with its own default, so
        // the request must carry both, `topk = 1` included: the classic
        // job over two TCP workers ends at the network the same job
        // reaches in process — which is not where the batched default
        // ends on this circuit.
        let base = generate(&pf_workloads::scale_profile(
            &pf_workloads::profile_by_name("misex3").expect("misex3 profile exists"),
            0.3,
        ));
        let classic = DistConfig {
            lease_timeout: Duration::from_secs(10),
            extract: ExtractConfig {
                search: pf_kcmatrix::SearchConfig::classic(),
                ..DistConfig::default().extract
            },
            ..DistConfig::default()
        };
        let run_local = |cfg: &DistConfig| {
            let mut nw = base.clone();
            let (report, _) =
                pf_core::distributed_extract(&mut nw, &pf_core::LocalTransport::new(2), cfg);
            assert!(!report.degraded);
            pf_kcmatrix::network_digest(&nw)
        };
        let in_process = run_local(&classic);
        let batched = DistConfig {
            lease_timeout: classic.lease_timeout,
            ..DistConfig::default()
        };
        assert_ne!(in_process, run_local(&batched), "the circuit tells K apart");

        let job = SubJob {
            extract: classic.extract.clone(),
            ..sample_job(1, base.node_ids().collect(), base.clone())
        };
        let request = encode_sub_request(&job, None);
        assert_eq!(request.get("batch_rects").and_then(Json::as_u64), Some(1));
        assert_eq!(
            request.get("tile_width").and_then(Json::as_u64),
            Some(classic.extract.search.tile_width as u64)
        );

        let (a0, h0) = start_worker_server();
        let (a1, h1) = start_worker_server();
        let transport = RemoteTransport::new(vec![a0.to_string(), a1.to_string()]);
        let mut nw = base.clone();
        let (report, stats) = pf_core::distributed_extract(&mut nw, &transport, &classic);
        assert!(!report.degraded);
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(pf_kcmatrix::network_digest(&nw), in_process);
        shutdown(a0);
        shutdown(a1);
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn dead_peer_fails_over_to_the_live_one() {
        // Reserve an address with no listener behind it: connects are
        // refused, the retry budget burns down, the peer is declared
        // dead, and its leases fail over to the live worker.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (live, h) = start_worker_server();
        let mut nw = test_network();
        let original = nw.clone();
        let transport = RemoteTransport::new(vec![dead_addr, live.to_string()]).with_limits(
            RetryPolicy {
                max_retries: 1,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                seed: 1,
            },
            Duration::from_secs(10),
        );
        let cfg = DistConfig {
            lease_timeout: Duration::from_secs(10),
            ..DistConfig::default()
        };
        let (report, stats) = pf_core::distributed_extract(&mut nw, &transport, &cfg);
        assert!(stats.failovers >= 1, "{stats:?}");
        assert!(stats.balanced(), "{stats:?}");
        assert!(!report.degraded);
        assert_eq!(transport.alive_count(), 1);
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        shutdown(live);
        h.join().unwrap();
    }

    #[test]
    fn dist_op_local_mode_completes_and_balances_the_books() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        let request = parse(r#"{"op":"dist","workload":"gen:misex3@0.05","workers":2}"#).unwrap();
        let response = handle_dist(&request, &client);
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("completed"),
            "{response}"
        );
        let dist = response.get("dist").unwrap();
        assert_eq!(dist.get("balanced").and_then(Json::as_bool), Some(true));
        assert!(dist.get("leases_issued").and_then(Json::as_u64).unwrap() >= 2);
        let m = client.metrics();
        assert!(m.balanced(), "registry identity holds after a dist run");
        assert_eq!(m.submitted.get(), 1);
        assert_eq!(m.completed.get(), 1);
        assert_eq!(m.cache_memo_misses.get(), 1, "the dist op generated once");

        // A second dist run and a submitted job share the memoised input.
        let again = handle_dist(&request, &client);
        assert_eq!(
            again.get("status").and_then(Json::as_str),
            Some("completed")
        );
        let job = crate::job::JobSpec::new(crate::job::Algorithm::Seq, "gen:misex3@0.05");
        let outcome = client.submit(job).expect("accepted").wait();
        assert!(matches!(outcome, crate::job::JobOutcome::Completed(_)));
        assert_eq!(m.cache_memo_misses.get(), 1);
        assert_eq!(m.cache_memo_hits.get(), 2);
        service.shutdown();
    }

    #[test]
    fn dist_op_rejects_garbage() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        for bad in [
            r#"{"op":"dist"}"#,
            r#"{"op":"dist","workload":"gen:nosuch@0.1"}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","workers":65}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","peers":"nope"}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","fault_plan":"dist:work=wat"}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","parts":"x"}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","parts":-2}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","lease_timeout_ms":"soon"}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","lease_timeout_ms":0}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","recovery":"maybe"}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","recovery_shards":1.5}"#,
            r#"{"op":"dist","workload":"gen:misex3@0.05","fault_plan":7}"#,
        ] {
            let response = handle_dist(&parse(bad).unwrap(), &client);
            assert_eq!(
                response.get("status").and_then(Json::as_str),
                Some("rejected"),
                "{bad}"
            );
        }
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.submitted.get(), m.rejected_invalid.get());
        // The control: the same options well-formed run to completion.
        let good = r#"{"op":"dist","workload":"gen:misex3@0.05","parts":2,"lease_timeout_ms":5000,"recovery":true,"recovery_shards":1,"fault_seed":3}"#;
        let response = handle_dist(&parse(good).unwrap(), &client);
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("completed"),
            "{response}"
        );
        service.shutdown();
    }
}
