//! The `serve-warm` and `serve-cold` workloads: a closed loop of clients
//! driving an in-process `agemul-serve` server over TCP loopback, and a
//! traced in-process replay of the same request stream.

use std::collections::HashMap;
use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use agemul::{quantize_factors, MultiplierDesign, PatternProfile};
use agemul_aging::aging_factors;
use agemul_circuits::MultiplierKind;
use agemul_conformance::Json;
use agemul_harness::{run_request_supervised, Attempt, CaseError, CaseStatus, SupervisorConfig};
use agemul_netlist::DelayAssignment;
use agemul_serve::{
    read_frame, response_ok, roundtrip, spawn, write_frame, DesignQuery, Request, RequestBody,
    ServeConfig, ServerHandle, ServerState,
};

use crate::calib;
use crate::check::{self, decode_reply, Delays, Reply, Tally};
use crate::gen::{Key, RequestStream, COLD_WIDTH, WARM_WIDTH};
use crate::report::{median, nproc, peak_rss_mb, windowed, Metric, Window};
use crate::trace::{self, timed, Tracer};
use crate::{Outcome, SETUPS};

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serve {
    /// Every timed request is a cache hit on a warmed 32-bit key.
    Warm,
    /// Every timed request is a fresh 16-bit key: a miss that also evicts.
    Cold,
}

/// Per-shard profile-cache capacity of the `serve-cold` server: small, so
/// misses also evict.
const COLD_SHARD_CAPACITY: usize = 4;
/// Per-shard capacity of the `serve-warm` server: the nine keys fit.
const WARM_SHARD_CAPACITY: usize = 64;

impl Serve {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Serve::Warm => "serve-warm",
            Serve::Cold => "serve-cold",
        }
    }

    fn stream(self, seed: u64) -> RequestStream {
        match self {
            Serve::Warm => RequestStream::warm(seed),
            Serve::Cold => RequestStream::cold(seed),
        }
    }

    /// The cache outcome every timed response must carry.
    fn expected_cache(self) -> &'static str {
        match self {
            Serve::Warm => "hit",
            Serve::Cold => "miss",
        }
    }

    fn shard_capacity(self) -> usize {
        match self {
            Serve::Warm => WARM_SHARD_CAPACITY,
            Serve::Cold => COLD_SHARD_CAPACITY,
        }
    }

    /// Client connections of the timed closed loop. A hit costs a few
    /// hundred microseconds, so two clients on two cores would measure
    /// mostly how the scheduler pairs four busy threads; one client keeps
    /// the hit path's own latency in view. Misses cost milliseconds, so
    /// `serve-cold` runs one client per core and saturates the CPU.
    fn clients(self) -> usize {
        match self {
            Serve::Warm => 1,
            Serve::Cold => workers(),
        }
    }

    /// Whether the timed phase runs every thread of the process on one
    /// core. On `serve-warm` one request is in flight at a time, so the
    /// client and the server take turns; on one core each hand-over is a
    /// switch between threads, where on two it wakes the other core, and
    /// on a busy host that wake-up alone took milliseconds and set the
    /// tail. `serve-cold` keeps both cores busy and is not pinned.
    fn pinned(self) -> bool {
        self == Serve::Warm
    }

    /// The designs the workload's keys use.
    fn designs(self) -> Vec<(MultiplierKind, usize)> {
        match self {
            Serve::Warm => MultiplierKind::PAPER.map(|k| (k, WARM_WIDTH)).to_vec(),
            Serve::Cold => MultiplierKind::ALL.map(|k| (k, COLD_WIDTH)).to_vec(),
        }
    }
}

/// Timed requests after which `peak_rss_mb` is read. The server's maps
/// grow with every fresh key, so a reading at the end of the phase would
/// follow how many requests the run completed; a reading at a fixed count
/// follows what each request leaves behind.
const RSS_AFTER: u64 = 1000;

/// Length of one window of the timed phase. The clients pause between
/// windows, and the host-speed calibration runs while no request is in
/// flight.
const WINDOW: Duration = Duration::from_secs(1);

/// Pins every thread of this process, and so every thread it starts
/// later, to the first core (Linux `sched_setaffinity`).
fn pin_to_one_core() -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1;
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks {
        let name = task
            .map_err(|e| format!("/proc/self/task: {e}"))?
            .file_name();
        let tid: i32 = name
            .to_str()
            .and_then(|n| n.parse().ok())
            .ok_or(format!("/proc/self/task: bad entry {name:?}"))?;
        // SAFETY: the mask is a live u64 and its size is passed with it.
        if unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) } != 0 {
            return Err(format!(
                "sched_setaffinity({tid}): {}",
                std::io::Error::last_os_error()
            ));
        }
    }
    Ok(())
}

/// Server workers, set-up clients and reference threads: one per core, at
/// most two.
fn workers() -> usize {
    nproc().clamp(1, 2)
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay {addr}: {e}"))?;
    Ok(conn)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One set-up: spawn the server and send the set-up keys (the nine warm
/// keys, or one fresh cold key per architecture, which builds every design
/// without repeating a timed key).
fn setup(w: Serve, stream: &mut RequestStream) -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let handle = spawn(ServeConfig {
        workers: workers(),
        shard_capacity: Some(w.shard_capacity()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.tcp_addr().ok_or("server has no TCP address")?;
    let keys: Vec<Key> = match w {
        Serve::Warm => stream.warm_set().to_vec(),
        Serve::Cold => MultiplierKind::ALL
            .into_iter()
            .map(|k| stream.fresh_cold_key(k))
            .collect(),
    };
    let n = workers();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n)
            .map(|c| {
                let keys = &keys;
                s.spawn(move || -> Result<(), String> {
                    let mut conn = connect(addr)?;
                    for key in keys.iter().skip(c).step_by(n) {
                        let response =
                            roundtrip(&mut conn, &key.request(0)).map_err(|e| e.to_string())?;
                        match decode_reply(0, &response) {
                            Reply::Served { cache, .. } if cache == "miss" => {}
                            other => return Err(format!("set-up of {key:?}: {other:?}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "set-up client panicked".to_string())?)
    })?;
    Ok((handle, t0.elapsed().as_secs_f64()))
}

/// The `stats` counters a run diffs over its timed phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    led: u64,
    coalesced: u64,
    shed: u64,
}

impl Counters {
    fn fetch(addr: SocketAddr) -> Result<Counters, String> {
        let mut conn = connect(addr)?;
        let stats = Request {
            id: 0,
            deadline_ms: None,
            body: RequestBody::Stats,
        };
        let response = roundtrip(&mut conn, &stats.to_json()).map_err(|e| e.to_string())?;
        let result = response
            .get("result")
            .ok_or("stats response has no result")?;
        let get = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("stats response has no {k}"))
        };
        let flight = result.get("flight").ok_or("stats response has no flight")?;
        Ok(Counters {
            hits: get(result, "hits")?,
            misses: get(result, "misses")?,
            evictions: get(result, "evictions")?,
            led: get(flight, "led")?,
            coalesced: get(flight, "coalesced")?,
            shed: get(result, "shed")?,
        })
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            led: self.led - before.led,
            coalesced: self.coalesced - before.coalesced,
            shed: self.shed - before.shed,
        }
    }

    fn hit_ratio(self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// The workload's premise, checked on the counters of its timed phase.
    /// `lookups` counts the server-cache lookups the phase made: one per
    /// served request, plus one per in-process replay of a warm request.
    fn premise(self, w: Serve, served: u64, lookups: u64) -> Result<(), String> {
        let ok = match w {
            Serve::Warm => self.misses == 0 && self.hits == lookups,
            Serve::Cold => self.hits == 0 && self.misses == served && self.evictions > 0,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} premise broken over {served} served requests: {self:?}",
                w.name()
            ))
        }
    }

    fn record(self) -> Vec<(&'static str, f64)> {
        vec![
            ("cache.hits", self.hits as f64),
            ("cache.misses", self.misses as f64),
            ("cache.evictions", self.evictions as f64),
            ("cache.hit_ratio", self.hit_ratio()),
            ("flight.led", self.led as f64),
            ("flight.coalesced", self.coalesced as f64),
            ("server.shed", self.shed as f64),
        ]
    }
}

/// A running account of replies: counts, latencies, and the value served
/// for each key. Every later reply for a key must repeat the first one;
/// [`check`](Ledger::check) then compares each key's value with its
/// library reference, so every served value is checked without keeping
/// one record per request.
#[derive(Default)]
struct Ledger {
    tally: Tally,
    /// Latency of every request, µs.
    latencies_us: Vec<f64>,
    served: HashMap<KeyId, (Key, Delays, u64)>,
    problems: Vec<String>,
}

impl Ledger {
    fn record(&mut self, w: Serve, key: Key, sent: Instant, reply: Reply) {
        self.tally.attempted += 1;
        self.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        match reply {
            Reply::Served {
                delays,
                cache,
                retries,
                degraded,
            } => {
                self.tally.retries += retries;
                self.tally.degraded += u64::from(degraded);
                if cache != w.expected_cache() {
                    self.problems
                        .push(format!("{key:?} answered from cache as {cache}"));
                }
                self.add(key, delays, 1);
            }
            Reply::Shed => self.tally.shed += 1,
            Reply::Error(e) => {
                self.tally.errors += 1;
                self.problems.push(e);
            }
        }
    }

    fn add(&mut self, key: Key, delays: Delays, count: u64) {
        let entry = self.served.entry(key_id(&key)).or_insert((key, delays, 0));
        if entry.1.same_bits(&delays) {
            entry.2 += count;
        } else {
            self.tally.wrong += count;
            self.problems
                .push(format!("{key:?} served {delays:?} and also {:?}", entry.1));
        }
    }

    fn merge(&mut self, other: Ledger) {
        self.tally.add(&other.tally);
        self.latencies_us.extend(other.latencies_us);
        self.problems.extend(other.problems);
        for (key, delays, count) in other.served.into_values() {
            self.add(key, delays, count);
        }
    }

    /// Requests answered with a profile summary.
    fn served(&self) -> u64 {
        self.served.values().map(|(_, _, n)| n).sum()
    }

    /// Compares every served key with its library reference.
    fn check(&mut self) -> Result<(), String> {
        let truth = references(self.served.values().map(|(k, _, _)| *k).collect())?;
        for (id, (key, delays, count)) in &self.served {
            if !truth.get(id).is_some_and(|r| r.same_bits(delays)) {
                self.tally.wrong += count;
                self.problems
                    .push(format!("wrong output for {key:?}: {delays:?}"));
            }
        }
        Ok(())
    }
}

/// Library references for every distinct key, computed on `workers()`
/// threads.
fn references(keys: Vec<Key>) -> Result<HashMap<KeyId, Delays>, String> {
    let designs: HashMap<MultiplierKind, MultiplierDesign> = {
        let mut kinds: Vec<(MultiplierKind, usize)> =
            keys.iter().map(|k| (k.kind, k.width)).collect();
        kinds.sort_by_key(|(k, w)| (k.label(), *w));
        kinds.dedup();
        kinds
            .into_iter()
            .map(|(k, w)| MultiplierDesign::new(k, w).map(|d| (k, d)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    };
    let bti = check::bti();
    let n = workers();
    let out = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n)
            .map(|c| {
                let (keys, designs, bti, out) = (&keys, &designs, &bti, &out);
                s.spawn(move || -> Result<(), String> {
                    for key in keys.iter().skip(c).step_by(n) {
                        let r = check::reference(&designs[&key.kind], key, bti)?;
                        lock(out).insert(key_id(key), r);
                    }
                    Ok(())
                })
            })
            .collect();
        workers.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "reference worker panicked".to_string())?
        })
    })?;
    Ok(out.into_inner().unwrap_or_else(PoisonError::into_inner))
}

/// A key's identity for reference lookup.
type KeyId = (MultiplierKind, usize, u64, usize, u64);

fn key_id(key: &Key) -> KeyId {
    (
        key.kind,
        key.width,
        key.years.to_bits(),
        key.patterns,
        key.seed,
    )
}

/// The untraced run: set up `SETUPS` times (median reported), then drive
/// the last server with a closed loop of [`Serve::clients`] connections for
/// `seconds`, in windows of [`WINDOW`] with the host-speed calibration
/// between them, then check every served value and the workload premise.
pub fn run(w: Serve, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut stream = w.stream(seed);
    let (mut setup_times, mut setup_hosts) = (Vec::new(), Vec::new());
    let mut server: Option<ServerHandle> = None;
    for _ in 0..SETUPS {
        // One server at a time, so the memory high-water mark is one
        // server's.
        if let Some(old) = server.take() {
            old.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        let (handle, secs) = setup(w, &mut stream)?;
        let host = calib::host_factor();
        setup_times.push(secs / host);
        setup_hosts.push(host);
        server = Some(handle);
    }
    let handle = server.ok_or("no set-up ran")?;
    let addr = handle.tcp_addr().ok_or("server has no TCP address")?;
    if w.pinned() {
        pin_to_one_core()?;
    }

    let before = Counters::fetch(addr)?;
    let stream = Mutex::new(stream);
    let n = w.clients();
    let mut conns: Vec<TcpStream> = (0..n).map(|_| connect(addr)).collect::<Result<_, _>>()?;
    let completed = AtomicU64::new(0);
    let rss_at = OnceLock::new();
    let mut ledger = Ledger::default();
    let mut windows = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let window_start = Instant::now();
        let window_end = (window_start + WINDOW).min(end);
        let results = std::thread::scope(|s| {
            let workers: Vec<_> = conns
                .drain(..)
                .map(|mut conn| {
                    let (stream, completed, rss_at) = (&stream, &completed, &rss_at);
                    s.spawn(move || {
                        let mut ledger = Ledger::default();
                        while Instant::now() < window_end {
                            let (id, key) = lock(stream).next_request();
                            let request = key.request(id);
                            let t0 = Instant::now();
                            let reply = match roundtrip(&mut conn, &request) {
                                Ok(response) => decode_reply(id, &response),
                                Err(e) => {
                                    // The stream may be mid-frame; start over.
                                    if let Ok(fresh) = connect(addr) {
                                        conn = fresh;
                                    }
                                    Reply::Error(format!("request {id}: {e}"))
                                }
                            };
                            ledger.record(w, key, t0, reply);
                            if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
                                let _ = rss_at.set(peak_rss_mb());
                            }
                        }
                        (conn, ledger)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().map_err(|_| "client panicked".to_string()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mut window = Window {
            seconds: window_start.elapsed().as_secs_f64(),
            ..Window::default()
        };
        for (conn, l) in results {
            conns.push(conn);
            window.latencies_us.extend_from_slice(&l.latencies_us);
            ledger.merge(l);
        }
        window.host = calib::host_factor();
        windows.push(window);
    }
    drop(conns);
    let delta = Counters::fetch(addr)?.since(before);
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let rss = rss_at.get().copied().unwrap_or_else(peak_rss_mb);

    ledger.check()?;
    let served = ledger.served();
    let premise = delta.premise(w, served, served);
    let stats = windowed(&windows);

    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("latency_p50_us", stats.p50_us, "us"),
            Metric::new("latency_p95_us", stats.p95_us, "us"),
            Metric::new("latency_p99_us", stats.p99_us, "us"),
            Metric::new("throughput_ops_s", stats.throughput, "1/s"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ],
        counts: counts(delta, &ledger.tally),
        samples: vec![
            ("setup", setup_times.len()),
            ("latency", ledger.latencies_us.len()),
            ("windows", stats.windows),
        ],
        tally: ledger.tally,
        problems: ledger.problems,
        premise,
        notes: vec![
            ("clients", n.to_string()),
            ("server_workers", workers().to_string()),
            ("host_factor", format!("{:.4}", stats.host)),
            ("setup_host_factor", format!("{:.4}", median(&setup_hosts))),
            ("raw_latency_p50_us", format!("{:.3}", stats.raw_p50_us)),
            (
                "raw_throughput_ops_s",
                format!("{:.3}", stats.raw_throughput),
            ),
            (
                "peak_rss_after_requests",
                completed.into_inner().min(RSS_AFTER).to_string(),
            ),
        ],
    })
}

fn counts(delta: Counters, t: &Tally) -> Vec<(&'static str, f64)> {
    let mut c = delta.record();
    c.push(("supervisor.retries", t.retries as f64));
    c.push(("supervisor.degraded", t.degraded as f64));
    c
}

/// Requests whose fingerprint runs inside `get_or_insert_with`: the
/// assignment is kept so the call can be timed alone after the request.
type PendingFingerprint = Mutex<Option<(Option<usize>, DelayAssignment)>>;

/// One supervised attempt of a replayed `profile` request.
type EvalAttempt<'a> =
    dyn Fn(&DesignQuery, &PendingFingerprint) -> Result<Arc<PatternProfile>, String> + Sync + 'a;

/// Replays one request frame in process through the public calls the
/// server makes for it, with a span around each. `eval` is the
/// supervised attempt (hit or miss path). Returns the profile summary and
/// the request's in-process time in nanoseconds.
fn replay(t: &Tracer, frame: &[u8], eval: &EvalAttempt<'_>) -> Result<(Delays, u64), String> {
    let pending: PendingFingerprint = Mutex::new(None);
    let t0 = Instant::now();
    let out = t.span("serve.request", || -> Result<Delays, String> {
        let json = t
            .span("proto.read_frame", || read_frame(&mut Cursor::new(frame)))
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?;
        let request = t.span("proto.decode", || Request::from_json(&json))?;
        let RequestBody::Profile(query) = &request.body else {
            return Err("not a profile request".into());
        };
        let config = SupervisorConfig {
            deadline: request.deadline_ms.map(Duration::from_millis),
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            degrade: true,
            checkpoint_every: 1,
            stall_per_case: None,
        };
        let label = format!(
            "profile/{}{}@{}y/{}x{:#x}",
            query.kind.label(),
            query.width,
            query.years,
            query.patterns,
            query.seed
        );
        let summary = Mutex::new(None);
        let record = t
            .span("harness.supervise", || {
                run_request_supervised(&label, &config, &|_: &Attempt| {
                    let profile = eval(query, &pending).map_err(CaseError::Failed)?;
                    let delays = Delays {
                        avg_ns: profile.avg_delay_ns(),
                        max_ns: profile.max_delay_ns(),
                    };
                    *lock(&summary) = Some(delays);
                    Ok(Json::Obj(vec![
                        ("ops".into(), Json::UInt(profile.len() as u64)),
                        ("avg_delay_ns".into(), Json::Num(delays.avg_ns)),
                        ("max_delay_ns".into(), Json::Num(delays.max_ns)),
                    ]))
                })
            })
            .map_err(|e| e.to_string())?;
        let CaseStatus::Done { value } = record.status else {
            return Err(format!("replay quarantined: {:?}", record.status));
        };
        let response = response_ok(
            request.id,
            &record.engine,
            record.retries,
            record.degraded,
            value,
        );
        let mut wire = Vec::new();
        t.span("proto.encode", || write_frame(&mut wire, &response))
            .map_err(|e| e.to_string())?;
        let delays = lock(&summary).take();
        delays.ok_or_else(|| "replay produced no profile".to_string())
    });
    let elapsed = t0.elapsed().as_nanos() as u64;
    if let Some((Some(idx), delays)) = lock(&pending).take() {
        let (_, ns) = timed(|| std::hint::black_box(delays.fingerprint()));
        t.attach(Some(idx), "netlist.fingerprint", ns);
    }
    Ok((out?, elapsed))
}

/// The hit path of `ServerState::profile` on the warmed server state.
fn eval_hit(
    state: &ServerState,
    t: &Tracer,
    q: &DesignQuery,
    pending: &PendingFingerprint,
) -> Result<Arc<PatternProfile>, String> {
    let (design, workload, factors) = t.span("state.lookup", || {
        Ok::<_, String>((
            state.design(q.kind, q.width)?,
            state.workload(q.width, q.patterns, q.seed),
            state.factors(q)?,
        ))
    })?;
    let quantized = t.span("cache.quantize", || factors.map(|f| quantize_factors(&f)));
    let delays = t
        .span("design.delay_assignment", || {
            design.delay_assignment(quantized.as_deref())
        })
        .map_err(|e| e.to_string())?;
    let (profile, idx) = t.span_idx("cache.lookup", || {
        state
            .cache()
            .get_or_insert_with(&design, &delays, workload.pairs(), || {
                Err::<PatternProfile, String>("a warmed key missed the cache".into())
            })
    });
    *lock(pending) = Some((idx, delays));
    profile
}

/// The miss path of `ServerState::profile`, stage by stage, on the replay's
/// own state and cache.
fn eval_miss(
    state: &ServerState,
    t: &Tracer,
    q: &DesignQuery,
    pending: &PendingFingerprint,
) -> Result<Arc<PatternProfile>, String> {
    let (design, workload) = t.span("state.lookup", || {
        Ok::<_, String>((
            state.design(q.kind, q.width)?,
            state.workload(q.width, q.patterns, q.seed),
        ))
    })?;
    let pairs = workload.pairs();
    let stats = t
        .span("design.workload_stats", || design.workload_stats(pairs))
        .map_err(|e| e.to_string())?;
    let factors = t.span("aging.factors", || {
        aging_factors(design.circuit().netlist(), &stats, state.bti(), q.years)
    });
    let quantized = t.span("cache.quantize", || quantize_factors(&factors));
    let delays = t
        .span("design.delay_assignment", || {
            design.delay_assignment(Some(&quantized))
        })
        .map_err(|e| e.to_string())?;
    t.span("design.verify", || design.verify_functional(pairs))
        .map_err(|e| e.to_string())?;
    let built = t
        .span("design.profile", || {
            design.profile_with_delays(pairs, &delays)
        })
        .map_err(|e| e.to_string())?;
    let (profile, idx) = t.span_idx("cache.insert", || {
        state
            .cache()
            .get_or_insert_with(&design, &delays, pairs, || Ok::<_, String>(built))
    });
    *lock(pending) = Some((idx, delays));
    profile
}

/// The traced run: one client sends the request stream over TCP, and
/// each request is first replayed in process, alternately with spans
/// (traced) and without (untraced, for the tracing overhead). Run after
/// the round trip instead, the replay of a fresh `serve-cold` key was
/// faster than the server's own build of it (warm caches), and
/// `transport_us` came out negative. The spans go to `trace_path` as JSON
/// lines.
pub fn trace(
    w: Serve,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    let mut stream = w.stream(seed);
    let (handle, _) = setup(w, &mut stream)?;
    let addr = handle.tcp_addr().ok_or("server has no TCP address")?;
    if w.pinned() {
        pin_to_one_core()?;
    }
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);

    // Design generation, timed per design the workload serves.
    for (kind, width) in w.designs() {
        for _ in 0..SETUPS {
            tracer
                .span("circuits.generate", || MultiplierDesign::new(kind, width))
                .map_err(|e| e.to_string())?;
        }
    }
    // The miss path replays on its own state, so the TCP request that
    // follows each replay still misses on the server.
    let state = match w {
        Serve::Warm => Arc::clone(handle.state()),
        Serve::Cold => {
            let own = ServerState::new(Some(w.shard_capacity()));
            for (kind, width) in w.designs() {
                own.design(kind, width)?;
            }
            Arc::new(own)
        }
    };
    let eval = |t: &Tracer, q: &DesignQuery, p: &PendingFingerprint| match w {
        Serve::Warm => eval_hit(&state, t, q, p),
        Serve::Cold => eval_miss(&state, t, q, p),
    };

    let before = Counters::fetch(addr)?;
    let mut conn = connect(addr)?;
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let (mut traced_ns, mut untraced_ns, mut transport_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut replay_problems = Vec::new();
    let end = start + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let (id, key) = stream.next_request();
        let request = key.request(id);
        let mut frame = Vec::new();
        write_frame(&mut frame, &request).map_err(|e| e.to_string())?;
        let t = if id.is_multiple_of(2) {
            &tracer
        } else {
            &quiet
        };
        t.set_request(id);
        let replayed = replay(t, &frame, &|q, p| eval(t, q, p));
        let t0 = Instant::now();
        let reply = match roundtrip(&mut conn, &request) {
            Ok(response) => decode_reply(id, &response),
            Err(e) => Reply::Error(format!("request {id}: {e}")),
        };
        let rtt_ns = t0.elapsed().as_nanos() as u64;
        match (&reply, replayed) {
            (Reply::Served { delays, .. }, Ok((mine, ns))) => {
                if !mine.same_bits(delays) {
                    replay_problems.push(format!("served {delays:?}, replayed {mine:?}"));
                }
                if t.enabled() {
                    traced_ns.push(ns as f64);
                    transport_us.push((rtt_ns as f64 - ns as f64) / 1e3);
                } else {
                    untraced_ns.push(ns as f64);
                }
            }
            (_, Err(e)) => replay_problems.push(format!("replay of request {id}: {e}")),
            _ => {}
        }
        ledger.record(w, key, t0, reply);
    }
    drop(conn);
    let delta = Counters::fetch(addr)?.since(before);
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    ledger.check()?;
    ledger.tally.wrong += replay_problems.len() as u64;
    ledger.problems.extend(replay_problems);
    let served = ledger.served();
    let replays = match w {
        Serve::Warm => (traced_ns.len() + untraced_ns.len()) as u64,
        Serve::Cold => 0,
    };
    let premise = delta.premise(w, served, served + replays);

    let spans = tracer.spans();
    let by_layer = trace::self_times_by_layer(&spans);
    let mut metrics = crate::layer_metrics(&by_layer);
    let unattributed = by_layer.get("serve.request").map_or(0.0, |v| median(v));
    metrics.push(Metric::new("transport_us", median(&transport_us), "us"));
    metrics.push(Metric::new("serve.unattributed_us", unattributed, "us"));
    metrics.push(Metric::new(
        "trace.overhead_us",
        (median(&traced_ns) - median(&untraced_ns)) / 1e3,
        "us",
    ));
    Ok(Outcome {
        metrics,
        counts: counts(delta, &ledger.tally),
        samples: vec![
            ("latency", ledger.latencies_us.len()),
            ("traced", traced_ns.len()),
            ("untraced", untraced_ns.len()),
        ],
        tally: ledger.tally,
        problems: ledger.problems,
        premise,
        notes: vec![
            ("clients", "1".to_string()),
            ("server_workers", workers().to_string()),
        ],
    })
}
