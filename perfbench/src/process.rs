//! The `credence-serve` process: boot and set-up timing, `/proc` readings,
//! and `/metrics` scrapes.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::{get, Conn, ConnGauge};
use crate::workload::ratio;

/// Linux reports process CPU time in ticks of `USER_HZ`, which is 100 on
/// every mainstream kernel configuration.
const TICKS_PER_SECOND: f64 = 100.0;
const BOOT_TIMEOUT: Duration = Duration::from_secs(150);

/// Machine-wide CPU ticks from `/proc/stat`: (busy, steal, total).
pub fn machine_ticks() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    let busy = at(0) + at(1) + at(2) + at(5) + at(6);
    (busy, at(7), v.iter().take(8).sum())
}

/// Share of the machine's CPU time stolen by the hypervisor between two
/// `machine_ticks` readings.
pub fn stolen(before: (u64, u64, u64), after: (u64, u64, u64)) -> f64 {
    ratio((after.1 - before.1) as f64, (after.2 - before.2) as f64)
}

/// A running `credence-serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `credence-serve --addr <free port> --corpus <file>` and wait for
    /// its first 200 on `/api/v1/health`; returns the server and the time
    /// from spawn to that answer.
    pub fn boot(bin: &Path, corpus: &Path) -> io::Result<(Self, Duration)> {
        let addr = free_addr()?;
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("--addr")
            .arg(addr.to_string())
            .arg("--corpus")
            .arg(corpus)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut server = Self { child, addr };
        let health = get("/api/v1/health");
        let gauge = Arc::new(ConnGauge::default());
        loop {
            let mut conn = Conn::new(addr, Arc::clone(&gauge));
            if let Ok(reply) = conn.send(&health) {
                if reply.status == 200 {
                    return Ok((server, start.elapsed()));
                }
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!("credence-serve exited: {status}")));
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err(io::Error::other("credence-serve did not answer in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// User plus system CPU time of the whole process.
    pub fn cpu(&self) -> io::Result<Duration> {
        cpu_time(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// User plus system CPU time (exited threads included) from a
/// `/proc/<pid>/stat` file.
pub fn cpu_time(stat_path: &str) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(stat_path)?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    let total = ticks(11)? + ticks(12)?;
    Ok(Duration::from_secs_f64(total / TICKS_PER_SECOND))
}

/// A free loopback port (the listener is dropped before the server binds).
fn free_addr() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// One `/metrics` scrape: every sample line, keyed by series (name plus
/// labels).
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn fetch(conn: &mut Conn) -> io::Result<Self> {
        let reply = conn.send(&get("/metrics"))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        Ok(Self::parse(&String::from_utf8_lossy(&reply.body)))
    }

    pub fn parse(text: &str) -> Self {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_string(), v);
                }
            }
        }
        Self(series)
    }

    /// The sum over every series of `family` (all label sets), or `None`
    /// when the family is absent.
    pub fn family(&self, family: &str) -> Option<f64> {
        let mut found = false;
        let mut sum = 0.0;
        for (key, v) in &self.0 {
            let name = key.split('{').next().unwrap_or(key);
            if name == family {
                found = true;
                sum += v;
            }
        }
        found.then_some(sum)
    }

    /// Series of `family` keyed by their label text.
    pub fn labelled(&self, family: &str) -> Vec<(String, f64)> {
        self.0
            .iter()
            .filter_map(|(key, v)| {
                let (name, labels) = key.split_once('{')?;
                (name == family).then(|| (labels.trim_end_matches('}').to_string(), *v))
            })
            .collect()
    }
}

/// `after − before` for one family, `None` when either scrape lacks it.
pub fn delta(before: &Scrape, after: &Scrape, family: &str) -> Option<f64> {
    Some(after.family(family)? - before.family(family)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_families_and_reports_missing_ones() {
        let s = Scrape::parse("# HELP x y\nfoo_total{a=\"1\"} 2\nfoo_total{a=\"2\"} 3.5\nbar 7\n");
        assert_eq!(s.family("foo_total"), Some(5.5));
        assert_eq!(s.family("bar"), Some(7.0));
        assert_eq!(s.family("baz"), None);
        assert_eq!(s.labelled("foo_total").len(), 2);
        let t = Scrape::parse("foo_total{a=\"1\"} 4\n");
        assert_eq!(delta(&s, &t, "foo_total"), Some(-1.5));
        assert_eq!(delta(&s, &t, "bar"), None);
    }
}
