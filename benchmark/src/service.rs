//! The `serve_mix` workload: the TCP service in this process on an
//! ephemeral loopback port, two closed-loop connections submitting jobs
//! drawn by seed from a universe five times the size of the result cache.
//! A job is one `submit` request; its wall is the client-side latency.

use crate::adapter::{self, parse_json, Json, Network};
use crate::eval::Reference;
use crate::golden::Golden;
use crate::inputs::{
    service_candidates, service_universe, RequestStream, ServiceJob, MIN_SERVICE_CIRCUITS,
    SERVICE_CACHE_ENTRIES, SERVICE_CONNECTIONS, SERVICE_WORKERS,
};
use crate::metrics::Values;
use crate::stats::{mean, median, quantile, quietest, ratio};
use crate::trace::{self_times_ns, Recorder};
use crate::{procfs, Plan, RunResult};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests sent before the measured window so the LRU cache is in its
/// steady state (twice its capacity).
const WARMUP_REQUESTS: usize = 2 * SERVICE_CACHE_ENTRIES;
/// A fixed-seed run is valid only with the cache hit ratio in this band:
/// outside it the traffic mix is not the one the workload describes.
const HIT_RATIO_BAND: (f64, f64) = (0.25, 0.35);

/// One distinct circuit of the universe, as the service resolves it.
struct UniverseCircuit {
    network: Network,
    lc_before: usize,
}

/// The universe with its request lines and resolved circuits.
struct Universe {
    jobs: Vec<ServiceJob>,
    lines: Vec<String>,
    /// `circuits[i % circuits.len()]` is job `i`'s circuit (jobs are
    /// grouped by algorithm over one circuit list).
    circuits: Vec<UniverseCircuit>,
    /// The circuits' fingerprints folded together, for `golden.json`.
    fingerprint: u64,
    lc_before: usize,
    generate_ms: f64,
    nodes: usize,
    resolve_us: f64,
    digest_us: f64,
}

/// `(fingerprint, literal count)` of the universe as generated now.
pub fn universe_fingerprint() -> Result<(u64, usize), String> {
    Universe::build(&Golden::recording()).map(|u| (u.fingerprint, u.lc_before))
}

impl Universe {
    fn build(golden: &Golden) -> Result<Universe, String> {
        let mut circuits = Vec::new();
        let mut specs = Vec::new();
        let (mut resolve_us, mut digest_us) = (Vec::new(), Vec::new());
        let (mut digests, mut combined, mut nodes) = (HashSet::new(), 0u64, 0usize);
        for spec in service_candidates() {
            let t = Instant::now();
            let network = adapter::resolve(&ServiceJob::workload_spec(&spec))?;
            resolve_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let digest = adapter::digest_hex(&network);
            digest_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !digests.insert(digest) {
                continue; // the same circuit as an earlier scale: the cache would alias the two
            }
            let flat = adapter::flatten(&network);
            combined = combined.rotate_left(7) ^ flat.fingerprint();
            nodes += flat.num_nodes();
            circuits.push(UniverseCircuit {
                lc_before: flat.literal_count(),
                network,
            });
            specs.push(spec);
        }
        if circuits.len() < MIN_SERVICE_CIRCUITS {
            return Err(format!(
                "only {} distinct service circuits, {MIN_SERVICE_CIRCUITS} needed",
                circuits.len()
            ));
        }
        let jobs = service_universe(&specs);
        let lines: Vec<String> = jobs.iter().map(ServiceJob::request_line).collect();
        let lc_before: usize = circuits.iter().map(|c| c.lc_before).sum();
        golden.check_universe(combined, lc_before)?;
        Ok(Universe {
            jobs,
            lines,
            circuits,
            fingerprint: combined,
            lc_before,
            generate_ms: resolve_us.iter().sum::<f64>() / 1e3,
            nodes,
            resolve_us: mean(&resolve_us),
            digest_us: mean(&digest_us),
        })
    }

    fn circuit(&self, job: usize) -> &UniverseCircuit {
        &self.circuits[job % self.circuits.len()]
    }
}

/// One client connection.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A hung service must fail the run, not hang it.
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Connection {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        Ok(response)
    }

    /// The `metrics` object of a `metrics` or `shutdown` response.
    fn snapshot(&mut self, op: &str) -> Result<Json, String> {
        let response = self
            .request(&format!("{{\"op\":\"{op}\"}}"))
            .map_err(|e| e.to_string())?;
        parse_json(&response)?
            .get("metrics")
            .cloned()
            .ok_or(format!("{op}: no metrics in {response}"))
    }
}

/// One answered request.
#[derive(Clone, Debug, Default)]
struct Sample {
    job: usize,
    end_ns: u64,
    latency_us: f64,
    queue_wait_us: f64,
    run_us: f64,
    hit: bool,
    completed: bool,
    rejected: bool,
    lc_before: usize,
    lc_after: usize,
}

fn read_sample(job: usize, end_ns: u64, latency_us: f64, response: &str) -> Sample {
    let mut s = Sample {
        job,
        end_ns,
        latency_us,
        ..Sample::default()
    };
    let Ok(json) = parse_json(response) else {
        return s;
    };
    let status = json.get("status").and_then(Json::as_str).unwrap_or("");
    s.completed = status == "completed";
    s.rejected = status == "rejected";
    if let Some(m) = json.get("metrics") {
        let num = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        s.queue_wait_us = num("queue_wait_us");
        s.run_us = num("run_us");
        s.lc_before = num("lc_before") as usize;
        s.lc_after = num("lc_after") as usize;
        s.hit = m.get("phases").is_some_and(|p| p.get("cache").is_some());
    }
    s
}

/// How long a client keeps sending.
#[derive(Clone, Copy)]
enum Until {
    Count(usize),
    Deadline(Instant),
}

/// One closed-loop client: sends the stream's next request as soon as the
/// previous one is answered. When `record` is set, every request becomes
/// a `request` span with `queue_wait` and `run` children from the
/// response.
fn drive(
    conn: &mut Connection,
    stream: &mut RequestStream,
    lines: &[String],
    until: Until,
    origin: Instant,
    rec: &mut Recorder,
    record: bool,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    loop {
        match until {
            Until::Count(n) if samples.len() >= n => break,
            Until::Deadline(d) if Instant::now() >= d => break,
            _ => {}
        }
        let job = stream.next().expect("the stream is endless");
        let t0 = Instant::now();
        let response = conn
            .request(&lines[job])
            .map_err(|e| format!("request failed: {e}"))?;
        let t1 = Instant::now();
        let start_ns = (t0 - origin).as_nanos() as u64;
        let end_ns = (t1 - origin).as_nanos() as u64;
        let sample = read_sample(job, end_ns, (end_ns - start_ns) as f64 / 1e3, &response);
        if record {
            rec.set_job(samples.len() as u32);
            let span = rec.interval("request", start_ns, end_ns);
            let wait_ns = (sample.queue_wait_us * 1e3) as u64;
            rec.child(span, "queue_wait", start_ns, wait_ns);
            rec.child(
                span,
                "run",
                start_ns + wait_ns,
                (sample.run_us * 1e3) as u64,
            );
        }
        samples.push(sample);
    }
    Ok(samples)
}

/// Every connection driving at once, each from its own thread with its
/// own stream and recorder; samples come back in completion order.
fn drive_all(
    conns: &mut [Connection],
    streams: &mut [RequestStream],
    recs: &mut [Recorder],
    lines: &[String],
    until: Until,
    origin: Instant,
    record: bool,
) -> Result<Vec<Sample>, String> {
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let clients = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .zip(recs.iter_mut());
        let handles: Vec<_> = clients
            .map(|((conn, stream), rec)| {
                scope.spawn(move || drive(conn, stream, lines, until, origin, rec, record))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|s| s.end_ns);
    Ok(all)
}

/// Everything set-up builds.
struct Session {
    universe: Universe,
    service: adapter::Service,
    conns: Vec<Connection>,
    streams: Vec<RequestStream>,
    recs: Vec<Recorder>,
    warmup: Vec<Sample>,
}

impl Session {
    fn set_up(seed: u64, golden: &Golden, origin: Instant) -> Result<Session, String> {
        let universe = Universe::build(golden)?;
        let service = adapter::Service::start(SERVICE_WORKERS, SERVICE_CACHE_ENTRIES)
            .map_err(|e| e.to_string())?;
        let mut conns = Vec::new();
        for _ in 0..SERVICE_CONNECTIONS {
            conns.push(Connection::open(service.addr).map_err(|e| e.to_string())?);
        }
        let mut streams: Vec<RequestStream> = (0..SERVICE_CONNECTIONS)
            .map(|c| RequestStream::new(seed, c, universe.circuits.len()))
            .collect();
        let mut recs: Vec<Recorder> = (0..SERVICE_CONNECTIONS)
            .map(|_| Recorder::new(origin))
            .collect();
        let each = Until::Count(WARMUP_REQUESTS / SERVICE_CONNECTIONS);
        let warmup = drive_all(
            &mut conns,
            &mut streams,
            &mut recs,
            &universe.lines,
            each,
            origin,
            false,
        )?;
        Ok(Session {
            universe,
            service,
            conns,
            streams,
            recs,
            warmup,
        })
    }

    /// Stops the service; returns its final metrics snapshot.
    fn shut_down(mut self) -> Result<Json, String> {
        let last = self.conns[0].snapshot("shutdown");
        drop(self.conns);
        self.service.join();
        last
    }
}

/// Checks every answer. Deterministic algorithms must return the literal
/// counts an in-process run of the same job gives (whose output the
/// evaluator checks against the resolved circuit); Algorithm L, whose
/// output depends on the schedule, must not grow the circuit; a cache
/// hit must repeat an earlier miss of the same job. Returns one verdict
/// per sample.
fn verify(universe: &Universe, samples: &[Sample], seed: u64) -> Vec<bool> {
    let mut expected: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut misses: BTreeMap<usize, HashSet<usize>> = BTreeMap::new();
    let mut verdicts = Vec::with_capacity(samples.len());
    for s in samples {
        let circuit = universe.circuit(s.job);
        let algorithm = universe.jobs[s.job].algorithm;
        let want = *expected.entry(s.job).or_insert_with(|| {
            if algorithm == "lshaped" {
                return None;
            }
            let mut nw = circuit.network.clone();
            let outcome = adapter::run_as_service(algorithm, &mut nw);
            let reference = Reference::new(&adapter::flatten(&circuit.network), seed)?;
            let flat = adapter::flatten(&nw);
            let sound = outcome.completed
                && flat.literal_count() == outcome.lc_after
                && reference.matches(&flat);
            // An unsound reference fails every answer for this job.
            Some(if sound { outcome.lc_after } else { usize::MAX })
        });
        let mut ok = s.completed && s.lc_before == circuit.lc_before && s.lc_after <= s.lc_before;
        ok &= want.is_none_or(|lc| lc == s.lc_after);
        let seen = misses.entry(s.job).or_default();
        if s.hit {
            ok &= seen.contains(&s.lc_after);
        } else {
            seen.insert(s.lc_after);
        }
        verdicts.push(ok);
    }
    verdicts
}

fn counter(snapshot: &Json, key: &str) -> f64 {
    snapshot.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The service's balance identities on its final snapshot.
fn balanced(m: &Json) -> bool {
    let c = |key: &str| counter(m, key);
    let rejected =
        c("rejected_full") + c("rejected_shutdown") + c("rejected_invalid") + c("quarantined");
    c("submitted") == c("accepted") + rejected
        && c("accepted") == c("completed") + c("timed_out") + c("failed") + c("drained")
        && c("cache_lookups") == c("cache_hits") + c("cache_misses")
}

/// Runs `serve_mix` according to `plan`.
pub fn run(
    name: &str,
    plan: &Plan,
    golden: &Golden,
    started: Instant,
) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut session: Option<Session> = None;
    for repeat in 0..plan.setup_repeats {
        let t = if repeat == 0 { started } else { Instant::now() };
        if let Some(previous) = session.take() {
            previous.shut_down()?;
        }
        session = Some(Session::set_up(plan.seed, golden, started)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    let mut result = RunResult::default();
    let mut values = Values::default();
    let lines = session.universe.lines.clone();

    // Measured window, tracing off.
    let before = session.conns[0].snapshot("metrics")?;
    let cpu0 = procfs::cpu_seconds();
    let t = Instant::now();
    let window_start_ns = (t - started).as_nanos() as f64;
    let until = Until::Deadline(t + Duration::from_secs_f64(plan.untraced_secs));
    let Session {
        conns,
        streams,
        recs,
        ..
    } = &mut session;
    let measured = drive_all(conns, streams, recs, &lines, until, started, false)?;
    let window_s = t.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let after = session.conns[0].snapshot("metrics")?;

    // Traced window: the same traffic, continued, with spans.
    let mut traced = Vec::new();
    if plan.traced_secs > 0.0 {
        let until = Until::Deadline(Instant::now() + Duration::from_secs_f64(plan.traced_secs));
        let Session {
            conns,
            streams,
            recs,
            ..
        } = &mut session;
        traced = drive_all(conns, streams, recs, &lines, until, started, true)?;
    }

    // Coverage sweep: `lc_after` sums over the whole universe, so jobs
    // the draw never asked for are asked once now, outside every window.
    let seen: HashSet<usize> = session
        .warmup
        .iter()
        .chain(&measured)
        .chain(&traced)
        .map(|s| s.job)
        .collect();
    let mut sweep = Vec::new();
    for job in (0..lines.len()).filter(|j| !seen.contains(j)) {
        let t0 = Instant::now();
        let response = session.conns[0]
            .request(&lines[job])
            .map_err(|e| e.to_string())?;
        let end_ns = started.elapsed().as_nanos() as u64;
        sweep.push(read_sample(
            job,
            end_ns,
            t0.elapsed().as_secs_f64() * 1e6,
            &response,
        ));
    }

    let t = Instant::now();
    let all: Vec<Sample> = session
        .warmup
        .iter()
        .chain(&measured)
        .chain(&traced)
        .chain(&sweep)
        .cloned()
        .collect();
    let verdicts = verify(&session.universe, &all, plan.seed);
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    let (w, m, tr) = (session.warmup.len(), measured.len(), traced.len());
    let failed_in =
        |range: std::ops::Range<usize>| verdicts[range].iter().filter(|ok| !**ok).count() as u64;
    result.attempted = (m + tr) as u64;
    result.failed = failed_in(w..w + m + tr);
    if failed_in(0..w) + failed_in(w + m + tr..all.len()) > 0 {
        result
            .notes
            .push("a warm-up or sweep answer failed verification".into());
        result.invalid = true;
    }
    let good: Vec<&Sample> = measured
        .iter()
        .zip(&verdicts[w..w + m])
        .filter(|(_, ok)| **ok)
        .map(|(s, _)| s)
        .collect();
    result.samples = good.len();
    let latencies_ms: Vec<f64> = good.iter().map(|s| s.latency_us / 1e3).collect();

    // The last answer per job, over the whole universe.
    let mut last: BTreeMap<usize, usize> = BTreeMap::new();
    for s in &all {
        last.insert(s.job, s.lc_after);
    }
    if last.len() != lines.len() {
        return Err("the coverage sweep missed a job".into());
    }

    let universe = &session.universe;
    let window = |key: &str| counter(&after, key) - counter(&before, key);
    let hit_ratio = ratio(window("cache_hits"), window("cache_lookups"));
    if plan.strict && !(HIT_RATIO_BAND.0..=HIT_RATIO_BAND.1).contains(&hit_ratio) {
        result.notes.push(format!("cache.hit_ratio {hit_ratio:.3} outside {HIT_RATIO_BAND:?}: not the workload's traffic mix"));
        result.invalid = true;
    }
    if plan.report_e2e {
        values.set("setup_s", median(&setups));
        let timed: Vec<(f64, f64)> = good
            .iter()
            .map(|s| {
                (
                    (s.end_ns as f64 - window_start_ns) / 1e9,
                    s.latency_us / 1e3,
                )
            })
            .collect();
        let quiet = quietest(&timed, window_s);
        values.set("job_wall_ms_p50", quiet.p50);
        values.set("job_wall_ms_p90", quiet.p90);
        values.set("jobs_per_s", quiet.per_second);
        values.set("lc_after", last.values().sum::<usize>() as f64);
    }
    if plan.traced_secs > 0.0 {
        let of = |f: fn(&Sample) -> f64, pick: fn(&Sample) -> bool| -> Vec<f64> {
            good.iter().filter(|s| pick(s)).map(|s| f(s)).collect()
        };
        let every = |_: &Sample| true;
        values.set("workloads.generate_ms", universe.generate_ms);
        values.set("workloads.nodes", universe.nodes as f64);
        values.set("workloads.lc_before", universe.lc_before as f64);
        values.set(
            "serve.queue_wait_us_p50",
            quantile(&of(|s| s.queue_wait_us, every), 0.5),
        );
        values.set(
            "serve.queue_wait_us_p90",
            quantile(&of(|s| s.queue_wait_us, every), 0.9),
        );
        values.set("serve.run_us_p50", quantile(&of(|s| s.run_us, every), 0.5));
        values.set(
            "serve.hit.wall_ms_p50",
            quantile(&of(|s| s.latency_us / 1e3, |s| s.hit), 0.5),
        );
        values.set(
            "serve.miss.wall_ms_p50",
            quantile(&of(|s| s.latency_us / 1e3, |s| !s.hit), 0.5),
        );
        values.set(
            "serve.rejected",
            measured.iter().filter(|s| s.rejected).count() as f64,
        );
        values.set("serve.resolve_us", universe.resolve_us);
        values.set("serve.digest_us", universe.digest_us);
        values.set("cache.hit_ratio", hit_ratio);
        values.set("cache.evictions", window("cache_evictions"));
        values.set("network.verify_ms", ratio(verify_ms, all.len() as f64));
        values.set(
            "proc.cpu_ms_per_job",
            1e3 * ratio(cpu_s, measured.len() as f64),
        );
        values.set("proc.cpu_per_wall", ratio(cpu_s, window_s));

        // Front-end time by self time of the traced `request` spans:
        // client latency minus the queue wait and run the service
        // reported (parse + serialise + socket + thread hand-offs).
        let mut spans = Recorder::new(started);
        std::mem::take(&mut session.recs)
            .into_iter()
            .for_each(|r| spans.merge(r));
        let fronts: Vec<f64> = spans
            .spans()
            .iter()
            .zip(self_times_ns(spans.spans()))
            .filter(|(s, _)| s.name == "request")
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect();
        values.set("serve.front_us_p50", quantile(&fronts, 0.5));
        values.set("core.trace_overhead_pct", {
            let traced_ms: Vec<f64> = traced.iter().map(|s| s.latency_us / 1e3).collect();
            let p50 = quantile(&latencies_ms, 0.5);
            100.0 * ratio(quantile(&traced_ms, 0.5) - p50, p50)
        });

        // Standalone front-end pieces.
        let t = Instant::now();
        let parsed = lines.iter().filter(|l| parse_json(l).is_ok()).count();
        values.set(
            "serve.parse_us",
            ratio(t.elapsed().as_secs_f64() * 1e6, parsed as f64),
        );
        let report = adapter::WireReport::of_seq_run(&mut universe.circuits[0].network.clone());
        let t = Instant::now();
        let bytes: usize = (0..lines.len()).map(|_| report.serialise().len()).sum();
        values.set(
            "serve.serialise_us",
            ratio(t.elapsed().as_secs_f64() * 1e6, lines.len() as f64),
        );
        std::hint::black_box(bytes);
        crate::write_trace(name, spans.spans(), plan, &result)?;
    }

    let last_snapshot = session.shut_down()?;
    let is_balanced = balanced(&last_snapshot);
    if !is_balanced {
        result
            .notes
            .push("the final metrics snapshot violates a balance identity".into());
        result.invalid = true;
    }
    if plan.traced_secs > 0.0 {
        values.set("serve.balanced", f64::from(u8::from(is_balanced)));
    }
    if plan.report_e2e {
        values.set(
            "verified_jobs_pct",
            100.0
                * ratio(
                    (result.attempted - result.failed) as f64,
                    result.attempted as f64,
                ),
        );
        values.set("peak_rss_mb", procfs::peak_rss_mb());
    }
    result.values = values;
    Ok(result)
}
