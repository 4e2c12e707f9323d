//! `serve-mixed`: `mapperd` in-process under open-loop Poisson load.
//!
//! One generator thread sends each request at its due time over at most two
//! connections, to the one with fewer answers outstanding; one reader thread
//! per connection timestamps the answers. Latency runs from the due time, so
//! a stall also charges the requests queued behind it. The mix is 85% hot
//! shapes (warmed in set-up, so they hit the cache), 10% fresh shapes (a new
//! graph each, so each runs a cold search) and 5% named scale-family shapes
//! (regenerated by the server on every request). The loaded daemon gates
//! through `slo_pct` and `cpu_ms_per_op`. The latency metrics time the same
//! request sequence through the daemon's `handle_line`, one request at a time,
//! on a freshly warmed daemon that serves no sockets (the faster of two
//! passes per request, one before and one after the load window); the
//! latencies the client and the daemon saw under load are printed beside
//! them.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omega_core::dse::{explore, CacheOutcome, DseCache, DseOptions, ExploreOutcome};
use omega_core::mapper::Objective;
use omega_core::{AccelConfig, GnnWorkload};
use omega_graph::DatasetSpec;
use omega_serve::{Decision, MapRequest, MapResponse, MapperServer, ServeOptions, WorkloadSpec};

use crate::stats::{self, median, ms, quantile, Rng};
use crate::trace::{span, Tracer};
use crate::{Args, Outcome, THREADS};

/// Mean arrival rate of the Poisson schedule.
const RATE_PER_S: f64 = 40.0;
/// The decision latency limit behind `slo_pct`.
const SLO_MS: f64 = 50.0;
/// Client connections the generator spreads requests over.
const CONNECTIONS: usize = 2;
/// Hidden widths of the hot shapes.
const HOT_G: [usize; 4] = [16, 32, 64, 128];
/// The named scale-family shape and its hidden widths.
const NAMED: &str = "rmat-14";
const NAMED_G: [usize; 2] = [16, 32];
/// A generator later than this at p99 (half the latency limit) invalidates
/// the load window.
const MAX_LATE_MS: f64 = 25.0;
/// How long before each due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(500);
/// Sequential passes of the request sequence through `handle_line`: one
/// before the load window, the other after it. A third pass steadied nothing
/// measurable and would cost each run another 9 s.
const SEQUENTIAL_PASSES: usize = 2;
/// Load windows a run may measure before it reports a late one.
const WINDOWS: usize = 3;
/// An answer that has not arrived this long after the last due time is a
/// timeout.
const TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hot,
    Fresh,
    Named,
}

/// Span names of the traced replay's parse, build and respond stages, by
/// class (indexed by `Class as usize`); each span's median is the per-layer
/// metric of the same name.
const STAGE_SPANS: [[&str; 3]; 3] = [
    [
        "serve.parse_us.hot",
        "serve.build_us.hot",
        "serve.respond_us.hot",
    ],
    [
        "serve.parse_us.fresh",
        "serve.build_us.fresh",
        "serve.respond_us.fresh",
    ],
    [
        "serve.parse_us.named",
        "serve.build_us.named",
        "serve.respond_us.named",
    ],
];

/// One arrival of the mix; a fresh arrival names the dataset it generates.
#[derive(Clone, Copy)]
enum Slot {
    Hot,
    Fresh(fn() -> DatasetSpec),
    Named,
}

/// 85 / 10 / 5 per 40 arrivals, with three of the four fresh ones on Cora so
/// the fresh-latency median falls inside one dataset's mode. The seed
/// shuffles each block: the mix is exact and only the order varies.
const MIX_BLOCK: [Slot; 40] = {
    let mut block = [Slot::Hot; 40];
    block[34] = Slot::Fresh(DatasetSpec::cora);
    block[35] = Slot::Fresh(DatasetSpec::cora);
    block[36] = Slot::Fresh(DatasetSpec::cora);
    block[37] = Slot::Fresh(DatasetSpec::mutag);
    block[38] = Slot::Named;
    block[39] = Slot::Named;
    block
};

/// One distinct request shape; its first answer is checked.
struct Shape {
    class: Class,
    spec: WorkloadSpec,
}

struct Request {
    due: Duration,
    class: Class,
    shape: usize,
    line: String,
}

/// The answer to one request, as the client saw it.
struct Answer {
    at: Instant,
    response: MapResponse,
}

fn request_line(id: u64, spec: &WorkloadSpec) -> String {
    let request = MapRequest {
        id: Some(id),
        workload: Some(spec.clone()),
        ..Default::default()
    };
    serde_json::to_string(&request).expect("a map request always serialises")
}

fn named_spec(g: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: None,
        v: 0,
        f: 0,
        g,
        degrees: None,
        mean_degree: None,
        attention_heads: None,
        post_op: None,
        dataset: Some(NAMED.into()),
    }
}

/// The hot and named shapes, then the seeded schedule with its fresh shapes.
fn build_schedule(seed: u64, seconds: f64) -> (Vec<Shape>, Vec<Request>) {
    let mut shapes = Vec::new();
    for spec in [DatasetSpec::citeseer(), DatasetSpec::cora()] {
        let dataset = spec.generate(seed);
        for g in HOT_G {
            let wl = GnnWorkload::gcn_layer(&dataset, g);
            shapes.push(Shape {
                class: Class::Hot,
                spec: WorkloadSpec::of(&wl),
            });
        }
    }
    let hot = shapes.len();
    for g in NAMED_G {
        shapes.push(Shape {
            class: Class::Named,
            spec: named_spec(g),
        });
    }
    let mut rng = Rng::new(seed);
    let mut requests = Vec::new();
    let mut block = MIX_BLOCK;
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / RATE_PER_S;
        if t >= seconds {
            return (shapes, requests);
        }
        let i = requests.len();
        if i % block.len() == 0 {
            for j in (1..block.len()).rev() {
                block.swap(j, rng.below(j + 1));
            }
        }
        let (class, shape) = match block[i % block.len()] {
            Slot::Hot => (Class::Hot, rng.below(hot)),
            Slot::Named => (Class::Named, hot + rng.below(NAMED_G.len())),
            Slot::Fresh(dataset) => {
                let wl = GnnWorkload::gcn_layer(&dataset().generate(rng.next_u64()), HOT_G[0]);
                shapes.push(Shape {
                    class: Class::Fresh,
                    spec: WorkloadSpec::of(&wl),
                });
                (Class::Fresh, shapes.len() - 1)
            }
        };
        let line = request_line(i as u64, &shapes[shape].spec);
        requests.push(Request {
            due: Duration::from_secs_f64(t),
            class,
            shape,
            line,
        });
    }
}

/// Binds a daemon and warms it with every hot and named shape.
fn start_server(shapes: &[Shape]) -> Result<MapperServer, String> {
    let server = MapperServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: THREADS,
        search_threads: 1,
        quiet: true,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("bind failed: {e}"))?;
    for shape in shapes.iter().filter(|s| s.class != Class::Fresh) {
        let answer = server.handle_line(&request_line(0, &shape.spec));
        let response: MapResponse = serde_json::from_str(&answer)
            .map_err(|e| format!("warm-up answer does not parse: {e:?}"))?;
        if !response.ok {
            return Err(format!("warm-up request failed: {:?}", response.error));
        }
    }
    Ok(server)
}

/// What one load window measured.
struct Window {
    sent: Vec<Instant>,
    start: Instant,
    answers: Vec<Option<Answer>>,
    cpu_s: f64,
    /// Server counters before and after the window.
    before: omega_serve::ServerStats,
    after: omega_serve::ServerStats,
}

impl Window {
    fn late_ms(&self, requests: &[Request]) -> Vec<f64> {
        requests
            .iter()
            .zip(&self.sent)
            .map(|(r, s)| ms(s.saturating_duration_since(self.start + r.due)))
            .collect()
    }

    /// Client latency from the due time; `None` when unanswered.
    fn latency_ms(&self, requests: &[Request], i: usize) -> Option<f64> {
        let answer = self.answers[i].as_ref()?;
        Some(ms(answer
            .at
            .saturating_duration_since(self.start + requests[i].due)))
    }
}

/// Serves the schedule from `server` over real sockets.
fn load(server: MapperServer, requests: &[Request]) -> Result<Window, String> {
    let addr = server
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    let server = Arc::new(server);
    let before = server.stats();
    let daemon = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let conns = (0..CONNECTIONS)
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect::<std::io::Result<Vec<TcpStream>>>()
        .map_err(|e| format!("connect failed: {e}"));
    let conns = match conns {
        Ok(c) => c,
        Err(e) => {
            server.request_shutdown();
            let _ = daemon.join();
            return Err(e);
        }
    };
    let outstanding: Vec<AtomicUsize> = (0..CONNECTIONS).map(|_| AtomicUsize::new(0)).collect();
    let answers: Mutex<Vec<Option<Answer>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let received = AtomicUsize::new(0);
    let mut sent = Vec::with_capacity(requests.len());
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let written = std::thread::scope(|s| {
        for (c, conn) in conns.iter().enumerate() {
            let reader = conn.try_clone().map(BufReader::new);
            let (outstanding, answers, received) = (&outstanding, &answers, &received);
            s.spawn(move || {
                let Ok(reader) = reader else { return };
                for line in reader.lines() {
                    let at = Instant::now();
                    let Ok(line) = line else { return };
                    outstanding[c].fetch_sub(1, Ordering::SeqCst);
                    let Ok(response) = serde_json::from_str::<MapResponse>(&line) else {
                        continue;
                    };
                    let Some(id) = response
                        .id
                        .map(|id| id as usize)
                        .filter(|&id| id < requests.len())
                    else {
                        continue;
                    };
                    answers.lock().expect("no reader panics")[id] = Some(Answer { at, response });
                    received.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let mut result = Ok(());
        for (i, r) in requests.iter().enumerate() {
            let due = start + r.due;
            // Sleep to just short of the due time, then spin: a sleeping
            // thread wakes late by the scheduler's latency, which would be
            // charged to the request.
            if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            sent.push(Instant::now());
            let c = (0..CONNECTIONS)
                .min_by_key(|&c| (outstanding[c].load(Ordering::SeqCst), (c + i) % CONNECTIONS))
                .expect("at least one connection");
            outstanding[c].fetch_add(1, Ordering::SeqCst);
            let mut w = &conns[c];
            if let Err(e) = w
                .write_all(r.line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
            {
                result = Err(format!("send failed: {e}"));
                break;
            }
        }
        let give_up = Instant::now() + TIMEOUT;
        while received.load(Ordering::SeqCst) < sent.len() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(2));
        }
        for conn in &conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        result
    });
    let cpu_s = stats::cpu_seconds() - cpu0;
    let after = server.stats();
    server.request_shutdown();
    daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))?;
    written?;
    let answers = answers.into_inner().expect("no reader panics");
    Ok(Window {
        sent,
        start,
        answers,
        cpu_s,
        before,
        after,
    })
}

/// Requests that failed in any of `passes` (a label and one answer per
/// request): unanswered, `ok:false`, degraded, or naming another best
/// dataflow or cycle count than an untimed in-process `dse::explore` of the
/// request's shape.
fn check(
    shapes: &[Shape],
    requests: &[Request],
    passes: &[(String, Vec<Option<&MapResponse>>)],
) -> u64 {
    let cfg = AccelConfig::paper_default();
    let opts = DseOptions {
        threads: 1,
        ..DseOptions::new(Objective::Runtime)
    };
    let mut expected: BTreeMap<usize, Option<(String, u64)>> = BTreeMap::new();
    let mut failed = 0;
    let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
    for (i, r) in requests.iter().enumerate() {
        let mut bad = false;
        for (label, answers) in passes {
            let verdict = match answers[i] {
                None => Err("no answer".to_string()),
                Some(a) if !a.ok => Err(format!("ok:false ({:?})", a.error)),
                Some(a) if a.decision_quality.as_deref() != Some("exact") => {
                    Err(format!("degraded ({:?})", a.decision_quality))
                }
                Some(a) => {
                    let best = a.best.as_ref().map(|d| (d.dataflow.clone(), d.cycles));
                    let want = expected.entry(r.shape).or_insert_with(|| {
                        let wl = shapes[r.shape].spec.to_workload().ok()?;
                        let outcome = explore(&wl, &cfg, &opts);
                        outcome
                            .best()
                            .map(|b| (b.dataflow.to_string(), b.report.total_cycles))
                    });
                    if best.is_some() && best == *want {
                        Ok(())
                    } else {
                        Err(format!("best {best:?} != in-process {want:?}"))
                    }
                }
            };
            if let Err(reason) = verdict {
                bad = true;
                *reasons
                    .entry(format!("{label}, {:?}: {reason}", r.class))
                    .or_default() += 1;
            }
        }
        failed += u64::from(bad);
    }
    for (reason, n) in &reasons {
        eprintln!("check failed ({n} requests): {reason}");
    }
    println!(
        "checked {} requests x {} passes over {} distinct shapes against in-process dse::explore: {} failed",
        requests.len(),
        passes.len(),
        expected.len(),
        failed
    );
    failed
}

/// One pass of the request sequence through the daemon's `handle_line`.
struct Pass {
    /// Each request's wall time, request line to response line, in ms.
    ms: Vec<f64>,
    /// Each request's parsed answer.
    answers: Vec<Option<MapResponse>>,
}

impl Pass {
    fn answers(&self) -> Vec<Option<&MapResponse>> {
        self.answers.iter().map(Option::as_ref).collect()
    }
}

/// Serves the request sequence one request at a time through `handle_line`
/// on a freshly warmed daemon that serves no sockets: the daemon's own
/// request path without the scheduling noise of a loaded host.
fn sequential(shapes: &[Shape], requests: &[Request]) -> Result<Pass, String> {
    let server = start_server(shapes)?;
    let mut pass = Pass {
        ms: Vec::with_capacity(requests.len()),
        answers: Vec::with_capacity(requests.len()),
    };
    for r in requests {
        let t0 = Instant::now();
        let line = server.handle_line(&r.line);
        pass.ms.push(ms(t0.elapsed()));
        pass.answers.push(serde_json::from_str(&line).ok());
    }
    Ok(pass)
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let (shapes, requests) = build_schedule(args.seed, args.seconds);
    let (setup_s, server) = stats::setup_median(5, || start_server(&shapes))?;
    println!(
        "setup {setup_s:.4} s (median of the later 3 of 5 bind + warm-ups; done at {:.3} s): \
         {} requests, {} shapes",
        args.started.elapsed().as_secs_f64(),
        requests.len(),
        shapes.len()
    );
    let mut passes = vec![sequential(&shapes, &requests)?];
    // A window whose generator fell behind its schedule measured the host,
    // not the daemon: it is discarded and measured again on a freshly warmed
    // daemon. When every window is late the whole machine stalled; latency
    // from the due time already charges that stall, so the least late window
    // is reported, flagged.
    let mut window = load(server, &requests)?;
    let mut late_p99 = quantile(&window.late_ms(&requests), 0.99);
    for attempt in 1..WINDOWS {
        if late_p99 <= MAX_LATE_MS {
            break;
        }
        println!("window {attempt} invalid: generator late p99 {late_p99:.2} ms > {MAX_LATE_MS} ms; measuring again");
        let retry = load(start_server(&shapes)?, &requests)?;
        let retry_late = quantile(&retry.late_ms(&requests), 0.99);
        if retry_late < late_p99 {
            (window, late_p99) = (retry, retry_late);
        }
    }
    if late_p99 > MAX_LATE_MS {
        println!("INVALID: generator late p99 {late_p99:.2} ms in all {WINDOWS} windows; the least late is reported");
    }
    for _ in 1..SEQUENTIAL_PASSES {
        passes.push(sequential(&shapes, &requests)?);
    }
    let late = window.late_ms(&requests);
    let loaded: Vec<Option<&MapResponse>> = window
        .answers
        .iter()
        .map(|a| a.as_ref().map(|a| &a.response))
        .collect();
    let mut answers = vec![("load".to_string(), loaded)];
    for (k, pass) in passes.iter().enumerate() {
        answers.push((format!("sequential {}", k + 1), pass.answers()));
    }
    let failed = check(&shapes, &requests, &answers);

    let n = requests.len();
    // An unanswered request never meets a limit: it sorts past every answer.
    let latency: Vec<f64> = (0..n)
        .map(|i| window.latency_ms(&requests, i).unwrap_or(f64::MAX))
        .collect();
    let service: Vec<f64> = (0..n)
        .map(|i| {
            let answer = window.answers[i].as_ref();
            answer
                .and_then(|a| a.response.latency_us)
                .map_or(f64::MAX, |us| us as f64 / 1e3)
        })
        .collect();
    let ok_within = (0..n)
        .filter(|&i| {
            window.answers[i].as_ref().is_some_and(|a| a.response.ok) && latency[i] <= SLO_MS
        })
        .count();
    // Each request counts its fastest sequential pass, which drops host
    // interference that hit only one of them.
    let handled: Vec<f64> = (0..n)
        .map(|i| passes.iter().map(|p| p.ms[i]).fold(f64::MAX, f64::min))
        .collect();
    let of_class = |class: Class, ms: &[f64]| -> Vec<f64> {
        (0..n)
            .filter(|&i| requests[i].class == class)
            .map(|i| ms[i])
            .collect()
    };
    println!(
        "slo {:.2}% within {SLO_MS} ms of the due time; generator late p99 {:.3} ms",
        100.0 * ok_within as f64 / n as f64,
        quantile(&late, 0.99)
    );
    println!(
        "latency (ms)  client p50  client p99  daemon p50  daemon p99  handle p50  handle p99       n"
    );
    for (label, class) in [
        ("all", None),
        ("hot", Some(Class::Hot)),
        ("fresh", Some(Class::Fresh)),
        ("named", Some(Class::Named)),
    ] {
        let [c, d, h] = [&latency, &service, &handled]
            .map(|ms| class.map_or_else(|| ms.clone(), |class| of_class(class, ms)));
        println!(
            "  {label:<10} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>7}",
            median(&c),
            quantile(&c, 0.99),
            median(&d),
            quantile(&d, 0.99),
            median(&h),
            quantile(&h, 0.99),
            c.len()
        );
    }
    // The gated latencies are the sequential handle_line times: under load,
    // the client's and even the daemon's own timings swing by half from run
    // to run on a shared 2-vCPU host (thread wake-ups and short bursts under
    // host steal). The loaded daemon is gated through slo_pct and
    // cpu_ms_per_op.
    let mut m = BTreeMap::from([
        ("sweep_p50_ms", median(&of_class(Class::Fresh, &handled))),
        ("cpu_ms_per_op", window.cpu_s * 1e3 / n as f64),
        ("decision_p50_ms", median(&handled)),
        ("decision_p99_ms", quantile(&handled, 0.99)),
        ("slo_pct", 100.0 * ok_within as f64 / n as f64),
        ("setup_s", setup_s),
    ]);
    if let Some(t) = tracer {
        traced_metrics(&mut m, t, args, &shapes, &requests, &window, &late)?;
    }
    m.insert("peak_rss_mb", stats::peak_rss_mb());
    Ok(Outcome {
        attempted: n as u64,
        failed,
        metrics: m,
    })
}

/// The request sequence replayed in-process, stage by stage, on a fresh
/// `DseCache` warmed like the daemon: parse → `to_workload` → lookup →
/// `explore_traced` on a miss → serialise. `handle_line` is one opaque call,
/// so only this replay can split a request's time by layer; it runs in the
/// traced run only.
struct Replay {
    /// Each request's time through the whole path, in milliseconds.
    total_ms: Vec<f64>,
    /// The outcomes of the fresh requests' cold searches.
    fresh: Vec<Arc<ExploreOutcome>>,
    /// The first fresh workload, for the layer probes.
    first_fresh: Option<GnnWorkload>,
}

fn replay(shapes: &[Shape], requests: &[Request], t: Option<&Tracer>) -> Result<Replay, String> {
    // The daemon's search options.
    let cfg = AccelConfig::paper_default();
    let opts = DseOptions {
        threads: 1,
        ..DseOptions::new(Objective::Runtime)
    };
    let cache = DseCache::new();
    for shape in shapes.iter().filter(|s| s.class != Class::Fresh) {
        cache.explore(&shape.spec.to_workload()?, &cfg, &opts);
    }
    let mut out = Replay {
        total_ms: Vec::with_capacity(requests.len()),
        fresh: Vec::new(),
        first_fresh: None,
    };
    for (i, r) in requests.iter().enumerate() {
        let op = i as u64;
        let [parse, build, respond] = STAGE_SPANS[r.class as usize];
        let t0 = Instant::now();
        span(t, "serve.replay", op, None, |root| -> Result<(), String> {
            let request: MapRequest = span(t, parse, op, root, |_| serde_json::from_str(&r.line))
                .map_err(|e| format!("replay parse: {e:?}"))?;
            let spec = request.workload.ok_or("replayed request has no workload")?;
            let wl = span(t, build, op, root, |_| spec.to_workload())?;
            let (outcome, how) = match span(t, "cache.lookup", op, root, |_| {
                cache.lookup(&wl, &cfg, &opts)
            }) {
                Some(outcome) => (outcome, CacheOutcome::Hit),
                None => {
                    let searched = span(t, "serve.search", op, root, |_| {
                        cache.explore_traced(&wl, &cfg, &opts)
                    });
                    if r.class == Class::Fresh {
                        out.fresh.push(Arc::clone(&searched.0));
                        out.first_fresh.get_or_insert(wl);
                    }
                    searched
                }
            };
            span(t, respond, op, root, |_| {
                let decisions: Vec<Decision> = outcome
                    .ranked
                    .iter()
                    .map(|r| Decision {
                        dataflow: r.dataflow.to_string(),
                        cycles: r.report.total_cycles,
                        energy_pj: r.report.energy.total_pj(),
                        buffer_peak_bytes: r.report.buffer_peak_bytes,
                        score: r.score,
                    })
                    .collect();
                let response = MapResponse {
                    id: request.id,
                    ok: true,
                    cache: Some(
                        if how == CacheOutcome::Hit {
                            "hit"
                        } else {
                            "search"
                        }
                        .into(),
                    ),
                    decision_quality: Some("exact".into()),
                    best: decisions.first().cloned(),
                    ranked: Some(decisions),
                    ..Default::default()
                };
                std::hint::black_box(serde_json::to_string(&response).map(|s| s.len()))
            })
            .map_err(|e| format!("replay serialise: {e:?}"))?;
            Ok(())
        })?;
        out.total_ms.push(ms(t0.elapsed()));
    }
    Ok(out)
}

/// The per-layer metrics of serve-mixed: the server's counters and the
/// client's view of the load window, and the spans of a traced replay.
fn traced_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    t: &Tracer,
    args: &Args,
    shapes: &[Shape],
    requests: &[Request],
    w: &Window,
    late: &[f64],
) -> Result<(), String> {
    // The same replay untraced and then traced: the difference of their
    // medians is what the spans cost a request.
    let untraced = replay(shapes, requests, None)?;
    let traced = replay(shapes, requests, Some(t))?;
    m.insert(
        "trace.overhead_ms",
        median(&traced.total_ms) - median(&untraced.total_ms),
    );

    let handle: Vec<f64> = w
        .answers
        .iter()
        .flatten()
        .filter_map(|a| a.response.latency_us)
        .map(|u| u as f64)
        .collect();
    let wait: Vec<f64> = (0..requests.len())
        .filter_map(|i| {
            let server_us = w.answers[i].as_ref()?.response.latency_us? as f64;
            Some(w.latency_ms(requests, i)? * 1e3 - server_us)
        })
        .collect();
    m.insert("serve.handle_us.p50", median(&handle));
    m.insert("serve.handle_us.p99", quantile(&handle, 0.99));
    m.insert("serve.wait_us.p50", median(&wait));
    m.insert("serve.wait_us.p99", quantile(&wait, 0.99));
    m.insert("serve.late_ms", quantile(late, 0.99));
    let (b, a) = (&w.before, &w.after);
    m.insert("serve.errors", (a.errors - b.errors) as f64);
    m.insert("serve.shed", (a.shed - b.shed) as f64);
    m.insert(
        "serve.degraded",
        ((a.degraded_warm + a.degraded_preset) - (b.degraded_warm + b.degraded_preset)) as f64,
    );
    let hits = (a.hits - b.hits) as f64;
    m.insert("cache.hits", hits);
    m.insert("cache.searches", (a.searches - b.searches) as f64);
    m.insert("cache.coalesced", (a.coalesced - b.coalesced) as f64);
    m.insert("cache.hit_ratio", hits / requests.len() as f64);

    // The named shape's graph and workload, built as `to_workload` does.
    let mut nnz = 0;
    for _ in 0..3 {
        let graph = span(Some(t), "graph.generate", 0, None, |_| {
            omega_graph::scale_graph(NAMED, omega_serve::SCALE_DATASET_SEED)
        })
        .ok_or("the named shape is not a scale-family name")?;
        nnz = span(Some(t), "workload.build", 0, None, |_| {
            GnnWorkload::from_graph(&graph, NAMED_G[0])
        })
        .nnz;
    }
    m.insert(
        "graph.generate_ms",
        median(&t.durations_ms("graph.generate")),
    );
    m.insert("graph.nnz", nnz as f64);
    m.insert(
        "workload.build_ms",
        median(&t.durations_ms("workload.build")),
    );

    let mut respond = Vec::new();
    for stages in STAGE_SPANS {
        for name in stages {
            m.insert(name, median(&t.durations_ms(name)) * 1e3);
        }
        respond.extend(t.durations_ms(stages[2]));
    }
    let search_ms = median(&t.durations_ms("serve.search"));
    m.insert("serve.search_ms.fresh", search_ms);
    m.insert(
        "cache.lookup_us",
        median(&t.durations_ms("cache.lookup")) * 1e3,
    );
    m.insert("output.serialize_ms", median(&respond));

    // The engines and the search run only for the fresh shapes: their counts
    // per cold search (1 search thread, as served), and the layer probes on
    // the first fresh workload.
    let column = |get: fn(&ExploreOutcome) -> f64| -> f64 {
        median(&traced.fresh.iter().map(|o| get(o)).collect::<Vec<_>>())
    };
    let sims = column(|o| o.phase_sims as f64);
    let hits = column(|o| o.phase_cache_hits as f64);
    m.insert("evaluate.phase_sims", sims);
    m.insert("evaluate.phase_cache_hits", hits);
    m.insert("evaluate.phase_hit_ratio", hits / (hits + sims).max(1.0));
    m.insert("engine.class_replays", column(|o| o.class_replays as f64));
    m.insert("engine.ms_per_phase_sim", search_ms / sims.max(1.0));
    m.insert("dse.explore_ms", search_ms);
    m.insert("dse.evaluated", column(|o| o.evaluated as f64));
    m.insert("dse.pruned", column(|o| o.pruned as f64));
    m.insert(
        "dse.prune_ratio",
        column(|o| o.pruned as f64 / o.space as f64),
    );
    if let Some(wl) = &traced.first_fresh {
        crate::sweep::layer_probes(m, wl, &AccelConfig::paper_default(), args.seed, t);
        m.insert(
            "mapper.preset_gap_ms",
            median(&t.durations_ms("mapper.preset_gap")),
        );
    }
    Ok(())
}
