//! `benchmark` — the repository's end-to-end benchmark of `quest serve`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark compare A.json… -- B.json…
//! ```
//!
//! A run builds `quest` from the checkout it is started in, boots it as a
//! child process, drives it over loopback from this one process (two
//! connections, two threads), checks every response, and ends its standard
//! output with one JSON line: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones. `--out` writes every metric of the run with its
//! sample count and the host facts; `compare` sets such files side by side.
//! README.md describes the workloads and metrics.

mod client;
mod json;
mod load;
mod prom;
mod report;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use qatk_corpus::generator::{Corpus, CorpusConfig};

use crate::client::{get, Conn, Server};
use crate::load::{run_phase, window_rates, Lane, LaneResult, Pace};
use crate::prom::{host_steal, vm_hwm_kib, Scrape, TICKS_PER_SEC};
use crate::report::{Host, Metric, RunResult};
use crate::stats::{median, percentile};
use crate::workload::{
    learned_text_body, make_inputs, Checker, Hits, Inputs, Kind, Spec, Template,
};

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark compare A.json… -- B.json…
workloads: suggest, suggest_ngram, classify_external, learn_durable";

/// End-to-end metrics, in the order BENCHMARK.json lists them.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "capacity_rps",
    "cpu_us_per_req",
    "p50_ms",
    "p90_ms",
    "acc10_pct",
    "rss_mb",
];

/// Cold boots per run (set-up), and SIGKILL-restart cycles on the durable
/// workload.
const BOOTS: usize = 3;
/// Unmeasured closed-loop traffic before the first measured phase.
const WARMUP_SECS: f64 = 1.0;
/// The measured time alternates closed- and open-loop segments this many
/// times, so each metric samples the whole run rather than one stretch of
/// it: a shared machine's speed drifts within seconds.
const ROUNDS: usize = 4;
/// Capacity is the median completion rate over windows this long.
const WINDOW_SECS: f64 = 0.5;
/// Requests whose answers must survive a restart byte for byte.
const RESTART_PROBES: usize = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match report::compare(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(2),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match Options::parse(&args).and_then(|o| run(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let value = |name: &str| -> Option<&str> {
            let i = args.iter().position(|a| a == name)?;
            args.get(i + 1).map(String::as_str)
        };
        let number = |name: &str, default: u64| -> Result<u64, String> {
            value(name).map_or(Ok(default), |v| {
                v.parse().map_err(|_| format!("bad {name} `{v}`\n{USAGE}"))
            })
        };
        let name = value("--workload").ok_or(USAGE)?;
        let spec = workload::spec(name).ok_or_else(|| format!("no workload `{name}`\n{USAGE}"))?;
        let seconds = number("--seconds", 10)?;
        if seconds < 2 {
            return Err("--seconds must be at least 2".to_owned());
        }
        Ok(Options {
            spec,
            seed: number("--seed", 1)?,
            seconds,
            trace: match value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("bad --trace `{v}` (0 or 1)")),
            },
            out: value("--out").map(PathBuf::from),
        })
    }
}

/// Errors and operation counts of a run.
#[derive(Default)]
struct Log {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

const MAX_LOGGED_ERRORS: usize = 20;

impl Log {
    fn absorb(&mut self, results: &[LaneResult]) {
        for r in results {
            self.attempted += r.attempted;
            self.failed += r.failed;
            for e in &r.errors {
                self.error(e.clone());
            }
        }
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < MAX_LOGGED_ERRORS {
            eprintln!("benchmark: check failed: {e}");
            self.errors.push(e);
        }
    }

    /// One operation outside the load phases (a restart probe).
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.error(e);
        }
    }
}

fn run(o: &Options) -> Result<(), String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let quest = build_quest(&target)?;
    let work = WorkDir::create(&target)?;
    let corpus = Corpus::generate(CorpusConfig::default());
    let inputs = make_inputs(o.spec, &corpus, o.seed);
    let cx = Ctx {
        spec: o.spec,
        quest,
        work: work.0.clone(),
        corpus: &corpus,
        inputs: &inputs,
        secs: o.seconds as f64,
    };
    let mut log = Log::default();
    let mut metrics = match o.spec.learn_rate {
        None => measure_reads(&cx, &mut log)?,
        Some(_) => measure_durable(&cx, &mut log)?,
    };
    drop(work);
    if o.trace {
        let traced = traced::run(o.spec, &corpus, &inputs).unwrap_or_else(|e| {
            log.op(Err(format!("traced phase: {e}")));
            traced::Traced {
                samples: Vec::new(),
            }
        });
        metrics.extend(stage_metrics(&traced, value_of(&metrics, "cpu_us_per_req")));
    }
    for name in END_TO_END {
        if !value_of(&metrics, name).is_some_and(|v| v.is_finite() && v > 0.0) {
            log.op(Err(format!("end-to-end metric {name} was not measured")));
        }
    }
    let result = RunResult {
        workload: o.spec.name.to_owned(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        host: Host::current(),
        correct: log.failed == 0,
        attempted: log.attempted,
        failed: log.failed,
        errors: log.errors,
        metrics,
    };
    if let Some(path) = &o.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, result.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let names: Vec<String> = if o.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|n| (*n).to_owned()).collect()
    };
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    for name in &names {
        if !result.metrics.iter().any(|m| m.name == *name) {
            return Err(format!("metric {name} missing from the run"));
        }
    }
    println!("{}", result.summary_line(&names));
    Ok(())
}

fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name)?.value
}

/// Build the program under test from the checkout the benchmark runs in.
fn build_quest(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "quest"])
        .args(["--bin", "quest"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building quest failed ({status})"));
    }
    let quest = target.join("release").join("quest");
    if !quest.is_file() {
        return Err(format!("{} missing after the build", quest.display()));
    }
    Ok(quest)
}

/// A scratch directory under the target directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(target: &Path) -> Result<WorkDir, String> {
        let dir = target
            .join("benchmark")
            .join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Ctx<'a> {
    spec: &'static Spec,
    quest: PathBuf,
    work: PathBuf,
    corpus: &'a Corpus,
    inputs: &'a Inputs,
    secs: f64,
}

impl Ctx<'_> {
    /// `quest serve` flags. A durable server gets its own files in `dir`
    /// and replicates to a follower port nobody connects to: that is the
    /// configuration in which acked learns are persisted.
    fn serve_args(&self, dir: Option<&Path>) -> Vec<String> {
        let mut args = vec!["--model".to_owned(), self.spec.model.to_owned()];
        if let Some(dir) = dir {
            args.extend([
                "--db".to_owned(),
                dir.join("quest.db").display().to_string(),
                "--wal".to_owned(),
                dir.join("quest.wal").display().to_string(),
                "--replicate-to".to_owned(),
                "127.0.0.1:0".to_owned(),
            ]);
        }
        args
    }

    /// Boot the server `BOOTS` times from scratch and keep the last one.
    /// Returns it, its flags and the seconds each boot took to answer.
    fn set_up(&self) -> Result<(Server, Vec<String>, Vec<f64>), String> {
        let boot = |i: usize| -> Result<(Server, Vec<String>, f64), String> {
            let dir = match self.spec.learn_rate {
                None => None,
                Some(_) => {
                    let dir = self.work.join(format!("boot-{i}"));
                    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                    Some(dir)
                }
            };
            let args = self.serve_args(dir.as_deref());
            let (server, secs) = Server::boot(&self.quest, &args)?;
            Ok((server, args, secs))
        };
        let mut times = Vec::new();
        for i in 1..BOOTS {
            let (server, _, secs) = boot(i)?;
            times.push(secs);
            server.kill()?;
        }
        let (server, args, secs) = boot(BOOTS)?;
        times.push(secs);
        Ok((server, args, times))
    }
}

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    match get(addr, "/metrics")? {
        (200, text) => Ok(Scrape::parse(&text)),
        (status, _) => Err(format!("/metrics answered {status}")),
    }
}

/// `/healthz` as parsed JSON.
fn healthz(addr: std::net::SocketAddr) -> Result<json::Value, String> {
    match get(addr, "/healthz")? {
        (200, text) => json::parse(&text).map_err(|e| format!("/healthz: {e}")),
        (status, _) => Err(format!("/healthz answered {status}")),
    }
}

fn health_u64(h: &json::Value, key: &str) -> Result<u64, String> {
    h.get(key)
        .and_then(json::Value::as_u64)
        .ok_or_else(|| format!("/healthz lacks {key}"))
}

/// Nanosecond samples as milliseconds, ascending.
fn sorted_ms<'a>(samples: impl IntoIterator<Item = &'a Vec<u64>>) -> Vec<f64> {
    let ms: Vec<f64> = samples
        .into_iter()
        .flatten()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    stats::sorted(&ms)
}

/// The `q`-quantile of ascending `sorted`, if enough samples lie beyond it.
fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    percentile(sorted, q).filter(|_| stats::supported(sorted.len(), q))
}

/// The read stream's end-to-end latency and accuracy, and its p99 as a
/// per-layer figure.
fn read_metrics(open: &[&LaneResult], measured: &[&LaneResult]) -> Vec<Metric> {
    let lat = sorted_ms(open.iter().map(|r| &r.latency_ns));
    let late = sorted_ms(open.iter().map(|r| &r.late_ns));
    let n = lat.len() as u64;
    let mut hits = Hits::default();
    for r in measured {
        hits += r.hits;
    }
    vec![
        Metric::new("p50_ms", "ms", percentile(&lat, 0.50), n),
        Metric::new("p90_ms", "ms", tail(&lat, 0.90), n),
        Metric::new(
            "acc10_pct",
            "%",
            (hits.total > 0).then(|| 100.0 * hits.hit as f64 / hits.total as f64),
            hits.total,
        ),
        Metric::new("loadgen.p99_ms", "ms", tail(&lat, 0.99), n),
        Metric::new(
            "loadgen.late_p99_ms",
            "ms",
            tail(&late, 0.99),
            late.len() as u64,
        ),
    ]
}

fn cpu_us_per_req(ticks: u64, completed: usize) -> Metric {
    let value = (completed > 0).then(|| ticks as f64 / TICKS_PER_SEC * 1e6 / completed as f64);
    Metric::new("cpu_us_per_req", "us", value, completed as u64)
}

fn seconds_metric(name: &str, times: &[f64]) -> Metric {
    Metric::new(name, "s", median(times), times.len() as u64)
}

/// The share of the machine's CPU time the hypervisor gave to others
/// during the measured rounds: when it is high, the run measured the
/// neighbours as much as the program.
fn steal_metric((steal0, total0): (u64, u64), (steal1, total1): (u64, u64)) -> Metric {
    let total = total1.saturating_sub(total0);
    let value = (total > 0).then(|| 100.0 * steal1.saturating_sub(steal0) as f64 / total as f64);
    Metric::new("host.steal_pct", "%", value, total)
}

fn rss_metric(pid: u32) -> Result<Metric, String> {
    Ok(Metric::new(
        "rss_mb",
        "MB",
        Some(vm_hwm_kib(pid)? as f64 / 1024.0),
        1,
    ))
}

/// Kill the server with SIGKILL and start it again on the same flags.
/// Returns the new server, the seconds to its first `/healthz` 200 and
/// that answer.
fn restart(
    server: Server,
    cx: &Ctx<'_>,
    args: &[String],
) -> Result<(Server, f64, json::Value), String> {
    server.kill()?;
    let (server, secs) = Server::boot(&cx.quest, args)?;
    let health = healthz(server.addr)?;
    Ok((server, secs, health))
}

/// Per-layer figures of the restarts: their time and the WAL records
/// recovery replayed.
fn restart_metrics(times: &[f64], records: &[f64]) -> Vec<Metric> {
    vec![
        seconds_metric("quest.restart_s", times),
        Metric::new(
            "store.recovery_records",
            "count",
            median(records),
            records.len() as u64,
        ),
    ]
}

/// `/suggest`, `/suggest` with char n-grams, `/classify_batch`: closed and
/// open loop on both connections in alternating segments, then one
/// SIGKILL and restart.
fn measure_reads(cx: &Ctx<'_>, log: &mut Log) -> Result<Vec<Metric>, String> {
    let (server, args, setup) = cx.set_up()?;
    let (addr, pid) = (server.addr, server.pid());
    let mut lanes: Vec<Lane<'_>> = (0..2)
        .map(|k| Lane {
            templates: &cx.inputs.reads,
            next: k,
            step: 2,
            pace: Pace::Closed,
            checker: Checker::new(cx.corpus, cx.spec.read, true),
        })
        .collect();
    log.absorb(&run_phase(addr, &mut lanes, WARMUP_SECS, pid)?.lanes);

    let before = scrape(addr)?;
    let steal0 = host_steal()?;
    let segment = cx.secs / (2 * ROUNDS) as f64;
    let rate = cx.spec.read_rate;
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for lane in &mut lanes {
            lane.pace = Pace::Closed;
        }
        closed.push(run_phase(addr, &mut lanes, segment, pid)?);
        for (k, lane) in lanes.iter_mut().enumerate() {
            lane.pace = Pace::Open {
                rate: rate / 2.0,
                offset: k as f64 / rate,
            };
        }
        open.push(run_phase(addr, &mut lanes, segment, pid)?);
    }
    let after = scrape(addr)?;
    let steal = steal_metric(steal0, host_steal()?);
    let rss = rss_metric(pid)?;
    for phase in closed.iter().chain(&open) {
        log.absorb(&phase.lanes);
    }

    let windows: Vec<f64> = closed
        .iter()
        .flat_map(|p| {
            let done: Vec<u64> = p
                .lanes
                .iter()
                .flat_map(|r| r.done_at_ns.iter().copied())
                .collect();
            window_rates(
                &done,
                p.secs,
                ((p.secs / WINDOW_SECS).round() as usize).max(1),
            )
        })
        .collect();
    let completed: usize = closed
        .iter()
        .flat_map(|p| &p.lanes)
        .map(|r| r.latency_ns.len())
        .sum();
    let ticks: u64 = closed.iter().map(|p| p.cpu_ticks).sum();

    // a stateless server must answer the same requests the same way
    let (server, restarted, health) = restart(server, cx, &args)?;
    let mut conn = Conn::connect(server.addr)?;
    for j in 0..RESTART_PROBES {
        let idx = 2 * j;
        let tpl = &cx.inputs.reads[idx];
        log.op(probe(&mut conn, &mut lanes[0].checker, idx, tpl).map(|_| ()));
    }
    drop(server);

    let open_lanes: Vec<&LaneResult> = open.iter().flat_map(|p| &p.lanes).collect();
    let measured: Vec<&LaneResult> = closed.iter().chain(&open).flat_map(|p| &p.lanes).collect();
    let mut m = vec![
        seconds_metric("setup_s", &setup),
        Metric::new("capacity_rps", "1/s", median(&windows), completed as u64),
        cpu_us_per_req(ticks, completed),
    ];
    m.extend(read_metrics(&open_lanes, &measured));
    m.push(rss);
    m.extend(scrape_metrics(cx.spec, &before, &after, 0));
    m.push(steal);
    m.extend(restart_metrics(
        &[restarted],
        &[health_u64(&health, "records_replayed")? as f64],
    ));
    m.push(Metric::new("loadgen.learn_p50_ms", "ms", None, 0));
    m.push(Metric::new("loadgen.learn_p80_ms", "ms", None, 0));
    Ok(m)
}

/// Send one request outside the load phases and check its answer.
fn probe(
    conn: &mut Conn,
    checker: &mut Checker<'_>,
    idx: usize,
    tpl: &Template,
) -> Result<Hits, String> {
    match conn.send(&tpl.raw)? {
        (200, body) => checker.check(idx, tpl, body),
        (status, body) => Err(format!(
            "HTTP {status} after restart: {}",
            String::from_utf8_lossy(body)
        )),
    }
}

/// `/learn` against a WAL-backed replicating leader: closed-loop segments
/// alone for capacity and CPU, alternating with open-loop segments beside
/// an open-loop `/suggest` stream, then three SIGKILL-and-restart cycles on
/// the same files.
fn measure_durable(cx: &Ctx<'_>, log: &mut Log) -> Result<Vec<Metric>, String> {
    let (mut server, args, setup) = cx.set_up()?;
    let (addr, pid) = (server.addr, server.pid());
    let learn_rate = cx.spec.learn_rate.expect("durable workloads learn");
    let mut lanes = vec![
        Lane {
            templates: &cx.inputs.learns,
            next: 0,
            step: 1,
            pace: Pace::Closed,
            checker: Checker::new(cx.corpus, Kind::Learn, false),
        },
        Lane {
            templates: &cx.inputs.reads,
            next: 0,
            step: 1,
            pace: Pace::Closed,
            checker: Checker::new(cx.corpus, cx.spec.read, false),
        },
    ];
    log.absorb(&run_phase(addr, &mut lanes, WARMUP_SECS, pid)?.lanes);

    let before = scrape(addr)?;
    let steal0 = host_steal()?;
    let segment = cx.secs / (2 * ROUNDS) as f64;
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        lanes[0].pace = Pace::Closed;
        closed.push(run_phase(addr, &mut lanes[..1], segment, pid)?);
        lanes[0].pace = Pace::Open {
            rate: learn_rate,
            offset: 0.0,
        };
        lanes[1].pace = Pace::Open {
            rate: cx.spec.read_rate,
            offset: 0.0,
        };
        open.push(run_phase(addr, &mut lanes, segment, pid)?);
    }
    let after = scrape(addr)?;
    let steal = steal_metric(steal0, host_steal()?);
    let rss = rss_metric(pid)?;
    for phase in closed.iter().chain(&open) {
        log.absorb(&phase.lanes);
    }

    // learns ran back to back, so each segment's last completion ends its
    // busy time
    let learned: usize = closed.iter().map(|p| p.lanes[0].latency_ns.len()).sum();
    let busy_s: f64 = closed
        .iter()
        .map(|p| {
            p.lanes[0]
                .done_at_ns
                .iter()
                .max()
                .map_or(0.0, |&ns| ns as f64 / 1e9)
        })
        .sum();
    let capacity = (learned > 0 && busy_s > 0.0).then(|| learned as f64 / busy_s);
    let ticks: u64 = closed.iter().map(|p| p.cpu_ticks).sum();
    let learn_lat = sorted_ms(closed.iter().map(|p| &p.lanes[0].latency_ns));
    let acked = learned
        + open
            .iter()
            .map(|p| p.lanes[0].latency_ns.len())
            .sum::<usize>();

    // restarts: everything acked must come back, and the last learned
    // text must still be suggested with its code
    let last_ack = lanes[0].checker.last_epoch.ok_or("no learn was acked")?;
    let kb_before = health_u64(&healthz(addr)?, "kb_len")?;
    let learns = lanes[0].templates;
    let taught = learns[(lanes[0].next + learns.len() - 1) % learns.len()].bundles[0];
    let check_tpl = Template::new(
        "/suggest",
        &learned_text_body(cx.corpus, taught),
        vec![taught],
    );
    let mut times = Vec::new();
    let mut records = Vec::new();
    for _ in 0..BOOTS {
        let (s, secs, h) = restart(server, cx, &args)?;
        server = s;
        times.push(secs);
        records.push(health_u64(&h, "records_replayed")? as f64);
        let (epoch, kb) = (health_u64(&h, "epoch")?, health_u64(&h, "kb_len")?);
        log.op(if epoch >= last_ack && kb >= kb_before {
            Ok(())
        } else {
            Err(format!(
                "after restart epoch {epoch}, kb_len {kb}; the last ack saw epoch {last_ack}, kb_len {kb_before}"
            ))
        });
        let mut checker = Checker::new(cx.corpus, Kind::Suggest, false);
        let mut conn = Conn::connect(server.addr)?;
        log.op(probe(&mut conn, &mut checker, 0, &check_tpl).and_then(|h| {
            if h.hit == 1 {
                Ok(())
            } else {
                Err(format!(
                    "learned code of {} not suggested after restart",
                    cx.corpus.bundles[taught].reference_number
                ))
            }
        }));
    }
    drop(server);

    let reads: Vec<&LaneResult> = open.iter().map(|p| &p.lanes[1]).collect();
    let mut m = vec![
        seconds_metric("setup_s", &setup),
        Metric::new("capacity_rps", "1/s", capacity, learned as u64),
        cpu_us_per_req(ticks, learned),
    ];
    m.extend(read_metrics(&reads, &reads));
    m.push(rss);
    m.extend(scrape_metrics(cx.spec, &before, &after, acked as u64));
    m.push(steal);
    m.extend(restart_metrics(&times, &records));
    let n = learn_lat.len() as u64;
    m.push(Metric::new(
        "loadgen.learn_p50_ms",
        "ms",
        percentile(&learn_lat, 0.5),
        n,
    ));
    m.push(Metric::new(
        "loadgen.learn_p80_ms",
        "ms",
        percentile(&learn_lat, 0.8),
        n,
    ));
    Ok(m)
}

/// Per-layer counters from the server's `/metrics`, between the scrape
/// before the first measured phase and the one after the last.
fn scrape_metrics(spec: &Spec, b: &Scrape, a: &Scrape, learns: u64) -> Vec<Metric> {
    let delta = |k: &str| Scrape::delta(b, a, k);
    let per_learn = |k: &str| delta(k).filter(|_| learns > 0).map(|d| d / learns as f64);
    let endpoint = match spec.primary() {
        Kind::Suggest => "suggest",
        Kind::Classify => "classify_batch",
        Kind::Learn => "learn",
    };
    vec![
        Metric::new(
            "store.fsyncs_per_learn",
            "count",
            per_learn("qatk_store_wal_syncs_total"),
            learns,
        ),
        Metric::new(
            "store.wal_bytes_per_learn",
            "bytes",
            per_learn("qatk_store_wal_bytes_total"),
            learns,
        ),
        Metric::new(
            "store.wal_appends_per_learn",
            "count",
            per_learn("qatk_store_wal_appends_total"),
            learns,
        ),
        Metric::new(
            "store.checkpoints",
            "count",
            delta("qatk_store_checkpoints_total"),
            1,
        ),
        Metric::new(
            "store.wal_flush_mean_us",
            "us",
            Scrape::hist_mean(b, a, "qatk_store_wal_flush_latency_ns").map(|ns| ns / 1e3),
            delta("qatk_store_wal_flush_latency_ns_count").unwrap_or(0.0) as u64,
        ),
        Metric::new(
            "quest.epoch_swaps_per_learn",
            "count",
            per_learn("qatk_quest_epoch_swaps_total"),
            learns,
        ),
        Metric::new(
            "core.rank_candidates_mean",
            "count",
            Scrape::hist_mean(b, a, "qatk_core_rank_candidates"),
            delta("qatk_core_rank_candidates_count").unwrap_or(0.0) as u64,
        ),
        // every batch worker records one busy time, so busy observations
        // per batch is the mean fan-out
        Metric::new(
            "core.batch_workers_mean",
            "count",
            delta("qatk_core_batch_worker_busy_ns_count")
                .zip(delta("qatk_core_batch_total").filter(|n| *n > 0.0))
                .map(|(workers, batches)| workers / batches),
            delta("qatk_core_batch_total").unwrap_or(0.0) as u64,
        ),
        Metric::new(
            "serve.server_mean_us",
            "us",
            Scrape::hist_mean(b, a, &format!("qatk_serve_{endpoint}_latency_ns"))
                .map(|ns| ns / 1e3),
            delta(&format!("qatk_serve_{endpoint}_latency_ns_count")).unwrap_or(0.0) as u64,
        ),
        Metric::new(
            "serve.rejected_busy",
            "count",
            delta("qatk_serve_rejected_busy_total"),
            1,
        ),
        Metric::new(
            "serve.handler_panics",
            "count",
            delta("qatk_serve_handler_panics_total"),
            1,
        ),
        Metric::new(
            "serve.parse_errors",
            "count",
            delta("qatk_serve_parse_errors_total"),
            1,
        ),
    ]
}

/// A stage's metric names and unit: medians and p95s in µs, or in ms for
/// the whole-snapshot learn stages.
fn stage_unit(stage: &str) -> (&'static str, f64) {
    match stage {
        "core.cow_build" | "core.seal" => ("ms", 1e6),
        _ => ("us", 1e3),
    }
}

/// Every per-layer metric name, in the order BENCHMARK.json lists them.
fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for stage in traced::STAGES {
        let (unit, _) = stage_unit(stage);
        names.push(format!("{stage}_{unit}"));
        names.push(format!("{stage}_p95_{unit}"));
    }
    for n in [
        "quest.handle_self_us",
        "bench.stage_sum_pct",
        "serve.overhead_us",
        "store.fsyncs_per_learn",
        "store.wal_bytes_per_learn",
        "store.wal_appends_per_learn",
        "store.checkpoints",
        "store.wal_flush_mean_us",
        "store.recovery_records",
        "quest.restart_s",
        "quest.epoch_swaps_per_learn",
        "core.rank_candidates_mean",
        "core.batch_workers_mean",
        "serve.server_mean_us",
        "serve.rejected_busy",
        "serve.handler_panics",
        "serve.parse_errors",
        "loadgen.p99_ms",
        "loadgen.late_p99_ms",
        "loadgen.learn_p50_ms",
        "loadgen.learn_p80_ms",
        "host.steal_pct",
    ] {
        names.push(n.to_owned());
    }
    names
}

/// Stage medians and p95s, the handler's self time, how much of the
/// handler the stages account for, and the server's cost outside it.
fn stage_metrics(t: &traced::Traced, cpu_us_per_req: Option<f64>) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut inside_us = 0.0;
    for stage in traced::STAGES {
        let (unit, per) = stage_unit(stage);
        let samples = stats::sorted(t.of(stage));
        let n = samples.len() as u64;
        let med = median(&samples).unwrap_or(0.0);
        let p95 = percentile(&samples, 0.95).unwrap_or(0.0);
        if traced::inside_handle(stage) {
            inside_us += med / 1e3;
        }
        m.push(Metric::new(
            &format!("{stage}_{unit}"),
            unit,
            Some(med / per),
            n,
        ));
        m.push(Metric::new(
            &format!("{stage}_p95_{unit}"),
            unit,
            Some(p95 / per),
            n,
        ));
    }
    let handle_us = median(t.of("quest.handle")).map(|ns| ns / 1e3);
    let n = t.of("quest.handle").len() as u64;
    m.push(Metric::new(
        "quest.handle_self_us",
        "us",
        handle_us.map(|h| h - inside_us),
        n,
    ));
    m.push(Metric::new(
        "bench.stage_sum_pct",
        "%",
        handle_us
            .filter(|h| *h > 0.0)
            .map(|h| 100.0 * inside_us / h),
        n,
    ));
    m.push(Metric::new(
        "serve.overhead_us",
        "us",
        cpu_us_per_req.zip(handle_us).map(|(cpu, h)| cpu - h),
        n,
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run prints exactly the workloads and metrics BENCHMARK.json
    /// declares, in its order.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), per_layer_names());
        let workloads: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
