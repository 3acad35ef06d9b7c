//! Result files, host facts, and `benchmark compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, escape, Value};
use crate::stats::{median, quartiles};

/// One measured number. `value` is `None` when the server does not expose
/// what it is computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Option<f64>,
    /// How many observations the value summarises.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: Option<f64>, samples: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples,
        }
    }
}

/// Facts about the machine and build a result depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: u64,
    pub rustc: String,
    pub profile: String,
    pub kernel: String,
}

impl Host {
    pub fn current() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|k| k.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
            kernel,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub host: Host,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn num(v: f64) -> String {
    // `{}` prints the shortest text that reads back as the same f64
    format!("{v}")
}

impl RunResult {
    /// The line the benchmark ends its standard output with: the named
    /// metrics only, absent values as 0.
    pub fn summary_line(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .expect("every listed metric is measured");
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(name),
                num(m.value.unwrap_or(0.0)),
                escape(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The full result file: every metric with its sample count, the
    /// errors, and the host.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace
        );
        let _ = writeln!(
            out,
            "  \"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"kernel\": \"{}\"}},",
            self.host.nproc,
            escape(&self.host.rustc),
            escape(&self.host.profile),
            escape(&self.host.kernel)
        );
        let _ = writeln!(
            out,
            "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},",
            self.correct, self.attempted, self.failed
        );
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        let _ = writeln!(out, "  \"errors\": [{}],", errors.join(", "));
        out.push_str("  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let value = m.value.map_or_else(|| "null".to_owned(), num);
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {}}}",
                escape(&m.name),
                escape(&m.unit),
                m.samples
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        let str_of = |v: &Value, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string `{k}`"))
        };
        let u64_of = |v: &Value, k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing number `{k}`"))
        };
        let bool_of = |v: &Value, k: &str| -> Result<bool, String> {
            match v.get(k) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing boolean `{k}`")),
            }
        };
        let host = doc.get("host").ok_or("missing `host`")?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("missing `metrics`")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    unit: str_of(m, "unit")?,
                    value: m.get("value").and_then(Value::as_f64),
                    samples: u64_of(m, "samples")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            workload: str_of(&doc, "workload")?,
            seed: u64_of(&doc, "seed")?,
            seconds: u64_of(&doc, "seconds")?,
            trace: bool_of(&doc, "trace")?,
            host: Host {
                nproc: u64_of(host, "nproc")?,
                rustc: str_of(host, "rustc")?,
                profile: str_of(host, "profile")?,
                kernel: str_of(host, "kernel")?,
            },
            correct: bool_of(&doc, "correct")?,
            attempted: u64_of(&doc, "attempted")?,
            failed: u64_of(&doc, "failed")?,
            errors: doc
                .get("errors")
                .and_then(Value::as_arr)
                .ok_or("missing `errors`")?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_owned))
                .collect(),
            metrics,
        })
    }
}

/// A metric's declared direction and bound, from BENCHMARK.json.
struct Declared {
    lower_is_better: bool,
    bound: Option<f64>,
}

fn declared_metrics(path: &Path) -> Result<BTreeMap<String, Declared>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Value::as_arr).unwrap_or(&[]) {
            let (Some(name), Some(better)) = (
                m.get("name").and_then(Value::as_str),
                m.get("better").and_then(Value::as_str),
            ) else {
                return Err(format!("{}: malformed {section} entry", path.display()));
            };
            out.insert(
                name.to_owned(),
                Declared {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// `benchmark compare A.json… -- B.json…`: per workload and metric, each
/// set's quartiles and median, and a verdict against the bound declared in
/// BENCHMARK.json. Returns whether any bounded metric regressed.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare A.json… -- B.json…")?;
    let load = |files: &[String]| -> Result<Vec<RunResult>, String> {
        files
            .iter()
            .map(|f| {
                let text =
                    std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
                RunResult::from_json(&text).map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("each side needs at least one result file".to_owned());
    }
    let cores: Vec<u64> = a.iter().chain(&b).map(|r| r.host.nproc).collect();
    if cores.iter().any(|&c| c != cores[0]) {
        return Err(format!(
            "refusing to compare results from hosts with different core counts: {cores:?}"
        ));
    }
    let declared = declared_metrics(Path::new("BENCHMARK.json"))?;
    let mut regressed = false;
    print!("{}", render_comparison(&a, &b, &declared, &mut regressed));
    Ok(regressed)
}

struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
    /// (max − min) / median.
    range: f64,
}

fn summarize(values: &[f64]) -> Option<Summary> {
    let median = median(values)?;
    let (q1, q3) = quartiles(values)?;
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    Some(Summary {
        q1,
        median,
        q3,
        range: if median != 0.0 {
            (max - min) / median.abs()
        } else {
            0.0
        },
    })
}

fn render_comparison(
    a: &[RunResult],
    b: &[RunResult],
    declared: &BTreeMap<String, Declared>,
    regressed: &mut bool,
) -> String {
    let mut out = String::new();
    let workloads: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let (ra, rb): (Vec<&RunResult>, Vec<&RunResult>) = (
            a.iter().filter(|r| r.workload == w).collect(),
            b.iter().filter(|r| r.workload == w).collect(),
        );
        let _ = writeln!(
            out,
            "\n== {w}: A {} runs ({} incorrect), B {} runs ({} incorrect)",
            ra.len(),
            ra.iter().filter(|r| !r.correct).count(),
            rb.len(),
            rb.iter().filter(|r| !r.correct).count()
        );
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>8}  verdict",
            "metric",
            "A q1",
            "A median",
            "A q3",
            "A rng%",
            "B q1",
            "B median",
            "B q3",
            "B rng%",
            "worse%"
        );
        let mut names: Vec<(String, String)> = ra
            .iter()
            .chain(&rb)
            .flat_map(|r| r.metrics.iter().map(|m| (m.name.clone(), m.unit.clone())))
            .collect();
        names.sort();
        names.dedup_by(|x, y| x.0 == y.0);
        for (name, unit) in names {
            let values = |rs: &[&RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.name == name)?.value)
                    .collect()
            };
            let (Some(sa), Some(sb)) = (summarize(&values(&ra)), summarize(&values(&rb))) else {
                continue;
            };
            let d = declared.get(&name);
            let lower = d.is_none_or(|d| d.lower_is_better);
            let worse = if sa.median != 0.0 {
                let delta = (sb.median - sa.median) / sa.median.abs();
                if lower {
                    delta
                } else {
                    -delta
                }
            } else {
                0.0
            };
            let verdict = match d.and_then(|d| d.bound) {
                None => "-".to_owned(),
                Some(bound) => {
                    let spread = (sa.q3 - sa.q1).abs() / sa.median.abs().max(f64::MIN_POSITIVE);
                    if worse > bound {
                        *regressed = true;
                        format!("WORSE than the {:.0}% bound", bound * 100.0)
                    } else if spread > bound {
                        format!(
                            "unresolved: A's spread exceeds the {:.0}% bound",
                            bound * 100.0
                        )
                    } else {
                        format!("within the {:.0}% bound", bound * 100.0)
                    }
                }
            };
            let _ = writeln!(
                out,
                "{:<28} {:>12.4} {:>12.4} {:>12.4} {:>7.2} | {:>12.4} {:>12.4} {:>12.4} {:>7.2} | {:>8.2}  {verdict}",
                format!("{name} ({unit})"),
                sa.q1,
                sa.median,
                sa.q3,
                sa.range * 100.0,
                sb.q1,
                sb.median,
                sb.q3,
                sb.range * 100.0,
                worse * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "learn_durable".into(),
            seed: 7,
            seconds: 10,
            trace: true,
            host: Host {
                nproc: 2,
                rustc: "rustc 1.95.0 (59807616e 2026-04-14)".into(),
                profile: "release".into(),
                kernel: "6.18.44".into(),
            },
            correct: false,
            attempted: 12345,
            failed: 1,
            errors: vec!["HTTP 500 for request 3: {\"error\":\"x\"}".into()],
            metrics: vec![
                Metric::new("p99_ms", "ms", Some(1.2345678901234567), 5000),
                Metric::new("store.checkpoints", "count", None, 0),
                Metric::new("acc10_pct", "%", Some(88.0), 2500),
            ],
        }
    }

    #[test]
    fn result_files_round_trip() {
        let r = sample();
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r, "every digit and the absent value survive");
    }

    #[test]
    fn summary_line_lists_the_requested_metrics() {
        let line = sample().summary_line(&["p99_ms", "store.checkpoints"]);
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":12345,\"failed\":1,\"metrics\":{\
             \"p99_ms\":{\"value\":1.2345678901234567,\"unit\":\"ms\"},\
             \"store.checkpoints\":{\"value\":0,\"unit\":\"count\"}}}"
        );
        assert!(json::parse(&line).is_ok());
    }

    #[test]
    fn comparison_flags_a_regression_beyond_the_bound() {
        let mut declared = BTreeMap::new();
        declared.insert(
            "p99_ms".to_owned(),
            Declared {
                lower_is_better: true,
                bound: Some(0.1),
            },
        );
        let with = |v: f64| {
            let mut r = sample();
            r.metrics[0].value = Some(v);
            r
        };
        let a = vec![with(1.0), with(1.01), with(0.99)];
        let mut regressed = false;
        render_comparison(&a, &[with(1.05), with(1.04)], &declared, &mut regressed);
        assert!(!regressed);
        let text = render_comparison(&a, &[with(1.2), with(1.3)], &declared, &mut regressed);
        assert!(regressed, "{text}");
        assert!(text.contains("WORSE"));
    }
}
