//! Reading the server from outside: its `/metrics` exposition and its
//! `/proc/<pid>` accounting.

use std::collections::BTreeMap;

/// One `/metrics` scrape: every sample line, keyed by name plus label set
/// (`name` or `name{le="255"}`), with exemplar suffixes stripped.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // an OpenMetrics exemplar rides after ` # ` on bucket lines
            let sample = line.split_once(" # ").map_or(line, |(s, _)| s).trim_end();
            let Some((key, value)) = sample.rsplit_once(' ') else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                samples.insert(key.to_owned(), v);
            }
        }
        Scrape(samples)
    }

    /// A sample's value; `None` when the exposition lacks the name.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// Growth of a counter between two scrapes. A counter missing from both
    /// is absent (`None`); one missing only before had not been registered
    /// yet and counts from zero.
    pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> Option<f64> {
        let end = after.get(key)?;
        Some(end - before.get(key).unwrap_or(0.0))
    }

    /// Mean observation of histogram `name` between two scrapes
    /// (`_sum` growth over `_count` growth); `None` without observations.
    pub fn hist_mean(before: &Scrape, after: &Scrape, name: &str) -> Option<f64> {
        let count = Scrape::delta(before, after, &format!("{name}_count"))?;
        let sum = Scrape::delta(before, after, &format!("{name}_sum"))?;
        (count > 0.0).then(|| sum / count)
    }
}

/// CPU time the process has used (user + system, live and exited threads)
/// in clock ticks, from the text of `/proc/<pid>/stat`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // the command name may contain spaces and parentheses; fields resume
    // after the last `)`, starting at field 3 (state)
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in KiB, from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `(steal, total)` ticks of all CPUs, from the `cpu` line of
/// `/proc/stat`: time the hypervisor ran something else while a virtual CPU
/// wanted to run, out of user, nice, system, idle, iowait, irq, softirq and
/// steal time together.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

pub fn host_steal() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_host_steal(&text).ok_or_else(|| "/proc/stat: no cpu line".to_owned())
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 per second
/// by the kernel ABI.
pub const TICKS_PER_SEC: f64 = 100.0;

pub fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat_cpu_ticks(&text).ok_or_else(|| format!("{path}: no utime/stime fields"))
}

pub fn vm_hwm_kib(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kib(&text).ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP qatk_store_wal_syncs_total wal syncs
# TYPE qatk_store_wal_syncs_total counter
qatk_store_wal_syncs_total 10
# TYPE qatk_serve_suggest_latency_ns histogram
qatk_serve_suggest_latency_ns_bucket{le=\"65535\"} 4 # {trace_id=\"9125c3ac4fb1abc5\"} 58784
qatk_serve_suggest_latency_ns_bucket{le=\"+Inf\"} 4
qatk_serve_suggest_latency_ns_sum 200000
qatk_serve_suggest_latency_ns_count 4
";

    const AFTER: &str = "\
qatk_store_wal_syncs_total 4610
qatk_store_checkpoints_total 2
qatk_serve_suggest_latency_ns_bucket{le=\"65535\"} 14 # {trace_id=\"9125c3ac4fb1abc5\"} 58784
qatk_serve_suggest_latency_ns_bucket{le=\"131071\"} 24 # {trace_id=\"e1bc67a11ec800cf\"} 90000
qatk_serve_suggest_latency_ns_bucket{le=\"+Inf\"} 24
qatk_serve_suggest_latency_ns_sum 1400000
qatk_serve_suggest_latency_ns_count 24
";

    #[test]
    fn scrapes_strip_exemplars_and_report_missing_names_as_absent() {
        let (b, a) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(
            a.get("qatk_serve_suggest_latency_ns_bucket{le=\"131071\"}"),
            Some(24.0),
            "the exemplar suffix is not the value"
        );
        assert_eq!(
            Scrape::delta(&b, &a, "qatk_store_wal_syncs_total"),
            Some(4600.0)
        );
        // registered between the scrapes: counts from zero
        assert_eq!(
            Scrape::delta(&b, &a, "qatk_store_checkpoints_total"),
            Some(2.0)
        );
        // in neither scrape: absent, not zero
        assert_eq!(Scrape::delta(&b, &a, "qatk_store_wal_bytes_total"), None);
        assert_eq!(Scrape::hist_mean(&b, &a, "qatk_nope_ns"), None);
        let mean = Scrape::hist_mean(&b, &a, "qatk_serve_suggest_latency_ns").unwrap();
        assert_eq!(mean, 60000.0);
    }

    #[test]
    fn parses_proc_stat_and_status() {
        let stat = "4242 (quest (serve) x) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    731 112 0 0 20 0 6 0 123456 1048576 5000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(843));
        assert_eq!(parse_stat_cpu_ticks("4242 (quest) S 1"), None);
        let status = "Name:\tquest\nVmPeak:\t  300000 kB\nVmHWM:\t   22540 kB\nVmRSS:\t 20000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(22540));
        assert_eq!(parse_vm_hwm_kib("Name:\tquest\n"), None);
        let stat =
            "cpu  671519 0 117805 1224109 71938 0 37908 14901 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            parse_host_steal(stat),
            Some((14901, 671519 + 117805 + 1224109 + 71938 + 37908 + 14901))
        );
        assert_eq!(parse_host_steal("cpu  1 2 3\n"), None);
    }
}
