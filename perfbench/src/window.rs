//! The HTTP part of a run: a warm-up prefix, the measured window, the
//! `rank`/`explain` write probe, and the checks on every answer. Reads run
//! in a closed loop on one connection from the calling thread; on `ingest`
//! a second thread sends one write per second, open loop, on a second
//! connection.
//! `/metrics` is scraped just before and just after the window, outside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::answers::{self, fnv};
use crate::client::{Conn, ConnGauge, Reply};
use crate::inproc::Replay;
use crate::process::{self, machine_ticks, stolen, Scrape, Server};
use crate::workload::{Kind, Op, Workload};

/// One read of the warm-up or the window.
pub struct Sample {
    /// Position in the cycled read stream.
    pub pos: usize,
    pub total: Duration,
    pub connect: Duration,
    pub ttfb: Duration,
    /// From the window start to the last byte of the answer.
    pub done: Duration,
    pub ok: bool,
    /// Explanations (explain families taking `n`) or rows (`/rank`).
    pub found: Option<usize>,
}

/// What the HTTP part measured.
pub struct Measured {
    pub reads: Vec<Sample>,
    /// Write latencies (ms): from due time on `ingest`, from send on the
    /// `rank`/`explain` write probe; each with the share of the machine's
    /// CPU time stolen by the hypervisor while it ran.
    pub write_ms: Vec<(f64, f64)>,
    /// How late the `ingest` write generator sent its writes (max, ms).
    pub writes_late_ms: f64,
    /// Send-to-answer time of each `ingest` window write.
    pub write_served: Vec<Duration>,
    pub writes_sent: usize,
    pub wall: Duration,
    /// Completion time of each window write, from the window start.
    pub write_done: Vec<Duration>,
    /// Readings about once a second through the window; the first is the
    /// start, the last the end of the window.
    pub ticks: Vec<Tick>,
    pub before: Scrape,
    pub after: Scrape,
    /// Scrape after the write probe (equal to `after` on `ingest`).
    pub last: Scrape,
    pub rss_mib: f64,
    /// Connections opened in the window.
    pub opened: u64,
    pub max_conns: usize,
    pub max_threads: usize,
    /// Shares of the machine's CPU time over the window that were stolen by
    /// the hypervisor and that went to other processes.
    pub host: (f64, f64),
    pub attempted: usize,
    pub failures: Vec<String>,
    pub exhaustive_checked: usize,
}

/// Threads of this process now.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Checks each HTTP answer against the dry run (`rank`, `explain`: the same
/// bytes) or against its endpoint's fields (`ingest`, where publishes change
/// the answers), and keeps `/rank` bodies for the exhaustive comparison.
struct Checker<'a> {
    wl: &'a Workload,
    dry: &'a Replay,
    /// Read indices whose `/rank` answer is compared with exhaustive search.
    sampled: Vec<usize>,
    kept: Vec<(usize, Vec<u8>)>,
    last_generation: u64,
    failures: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(wl: &'a Workload, dry: &'a Replay) -> Self {
        let ranks: Vec<usize> = (0..wl.warmup.min(wl.reads.len()))
            .filter(|&i| matches!(wl.reads[i], Op::Rank { .. }))
            .collect();
        let stride = (ranks.len() / 32).max(1);
        Self {
            wl,
            dry,
            sampled: ranks.into_iter().step_by(stride).take(32).collect(),
            kept: Vec::new(),
            last_generation: 0,
            failures: Vec::new(),
        }
    }

    /// Check one read answer; returns (ok, found).
    fn read(&mut self, pos: usize, reply: Result<&Reply, &String>) -> (bool, Option<usize>) {
        let idx = pos % self.wl.reads.len();
        let op = &self.wl.reads[idx];
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.failures.push(format!("{}: {e}", op.path()));
                return (false, None);
            }
        };
        let ingest = self.wl.kind == Kind::Ingest;
        if matches!(op, Op::Rank { .. })
            && (ingest
                || (self.sampled.contains(&idx) && !self.kept.iter().any(|(i, _)| *i == idx)))
        {
            self.kept.push((idx, reply.body.clone()));
        }
        if !ingest {
            if (200..300).contains(&reply.status) && fnv(&reply.body) == self.dry.hashes[idx] {
                return (true, self.dry.found[idx]);
            }
            self.failures.push(format!(
                "{} answered {} with other bytes than the in-process run: {}",
                op.path(),
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
            return (false, None);
        }
        match answers::check(op, reply.status, &reply.body) {
            Ok(a) if a.generation < self.last_generation => {
                self.failures.push(format!(
                    "a read saw generation {} after {}",
                    a.generation, self.last_generation
                ));
                (false, None)
            }
            Ok(a) => {
                self.last_generation = a.generation;
                (true, a.found)
            }
            Err(e) => {
                self.failures.push(e);
                (false, None)
            }
        }
    }
}

/// One reading of the window's clocks.
#[derive(Clone, Copy)]
pub struct Tick {
    /// Time from the window start.
    pub at: Duration,
    /// Server user+sys CPU time in the window so far.
    pub cpu: Duration,
    /// The machine's CPU ticks (`machine_ticks`).
    pub machine: (u64, u64, u64),
}

/// Reads the server's CPU time and the machine's CPU ticks about once a
/// second from the loop that owns it, so that the window can be cut into
/// slices.
struct Ticker<'a> {
    server: &'a Server,
    base: Duration,
    next: Duration,
    readings: Vec<Tick>,
}

impl<'a> Ticker<'a> {
    fn new(server: &'a Server) -> std::io::Result<Self> {
        Ok(Self {
            server,
            base: server.cpu()?,
            next: Duration::from_secs(1),
            readings: vec![Tick {
                at: Duration::ZERO,
                cpu: Duration::ZERO,
                machine: machine_ticks(),
            }],
        })
    }

    fn read(&mut self, at: Duration) {
        if let Ok(cpu) = self.server.cpu() {
            self.readings.push(Tick {
                at,
                cpu: cpu.saturating_sub(self.base),
                machine: machine_ticks(),
            });
        }
    }

    fn poll(&mut self, at: Duration) {
        if at >= self.next {
            self.read(at);
            self.next += Duration::from_secs(1);
        }
    }
}

type Raw = Vec<(usize, Duration, Result<Reply, String>)>;

/// Run reads on `conn`, one after another from stream position `first`,
/// until `stop` says so for the next position.
fn closed_loop(
    conn: &mut Conn,
    wires: &[Vec<u8>],
    first: usize,
    start: Instant,
    stop: &dyn Fn(usize) -> bool,
    mut ticker: Option<&mut Ticker<'_>>,
) -> Raw {
    let mut out = Vec::with_capacity(1 << 14);
    for pos in first.. {
        if let Some(t) = ticker.as_deref_mut() {
            t.poll(start.elapsed());
        }
        if stop(pos) {
            break;
        }
        let reply = conn
            .send(&wires[pos % wires.len()])
            .map_err(|e| e.to_string());
        out.push((pos, start.elapsed(), reply));
    }
    out
}

pub fn drive(
    wl: &Workload,
    server: &Server,
    dry: &Replay,
    window: Duration,
) -> Result<Measured, String> {
    let gauge = Arc::new(ConnGauge::default());
    let mut a = Conn::new(server.addr, Arc::clone(&gauge));
    let mut b = Conn::new(server.addr, Arc::clone(&gauge));
    let wires: Vec<Vec<u8>> = wl.reads.iter().map(Op::wire).collect();
    let mut checker = Checker::new(wl, dry);
    let mut max_threads = threads();
    let mut attempted = 0;

    // Warm-up prefix: fills the caches before anything is timed.
    let warmup = wl.warmup;
    let start = Instant::now();
    for (pos, _, reply) in closed_loop(&mut a, &wires, 0, start, &|pos| pos >= warmup, None) {
        attempted += 1;
        checker.read(pos, reply.as_ref());
    }

    let err = |e: std::io::Error| e.to_string();
    let before = Scrape::fetch(&mut a).map_err(err)?;
    let opened_before = a.opened + b.opened;
    let mut ticker = Ticker::new(server).map_err(err)?;
    let own_cpu = || process::cpu_time("/proc/self/stat").unwrap_or_default();
    let (machine_before, own_before) = (machine_ticks(), own_cpu());
    let start = Instant::now();
    let mut write_ms = Vec::new();
    let mut writes_late_ms: f64 = 0.0;
    let mut acks = Vec::new();
    let mut write_done = Vec::new();
    let mut write_served = Vec::new();
    let raw = match wl.kind {
        Kind::Rank | Kind::Explain => {
            let deadline = start + window;
            closed_loop(
                &mut a,
                &wires,
                warmup,
                start,
                &|_| Instant::now() >= deadline,
                Some(&mut ticker),
            )
        }
        Kind::Ingest => {
            // A second thread sends one write per second on connection b,
            // open loop, each timed from when it was due; connection a reads
            // until the last write has returned.
            let done = AtomicBool::new(false);
            let writes = &wl.writes;
            let (reads, writer) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let mut out = Vec::new();
                    for (j, op) in writes.iter().enumerate() {
                        let due = start + Duration::from_secs(j as u64);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let (sent, ticks) = (Instant::now(), machine_ticks());
                        let reply = b.send(&op.wire()).map_err(|e| e.to_string());
                        let now = Instant::now();
                        let steal = stolen(ticks, machine_ticks());
                        out.push((now - due, steal, sent - due, now - sent, now - start, reply));
                    }
                    done.store(true, Ordering::SeqCst);
                    out
                });
                max_threads = max_threads.max(threads());
                let reads = closed_loop(
                    &mut a,
                    &wires,
                    warmup,
                    start,
                    &|_| done.load(Ordering::SeqCst),
                    Some(&mut ticker),
                );
                max_threads = max_threads.max(threads());
                (reads, writer.join().expect("writer thread panicked"))
            });
            for (latency, steal, late, served, done_at, reply) in writer {
                write_ms.push((latency.as_secs_f64() * 1e3, steal));
                writes_late_ms = writes_late_ms.max(late.as_secs_f64() * 1e3);
                write_served.push(served);
                write_done.push(done_at);
                acks.push(reply);
            }
            reads
        }
    };
    ticker.read(start.elapsed());
    // Machine-wide CPU over the window, to tell host noise from our own:
    // the share stolen by the hypervisor, and the share of the machine's
    // busy time that neither the server nor this process used.
    let (machine_after, own_after) = (machine_ticks(), own_cpu());
    let total = (machine_after.2 - machine_before.2) as f64;
    let busy_ms = (machine_after.0 - machine_before.0) as f64 * 10.0;
    let ours_ms = (own_after - own_before).as_secs_f64() * 1e3
        + ticker
            .readings
            .last()
            .map_or(0.0, |r| r.cpu.as_secs_f64() * 1e3);
    let host = (
        (machine_after.1 - machine_before.1) as f64 / total.max(1.0),
        ((busy_ms - ours_ms) / 10.0 / total.max(1.0)).max(0.0),
    );
    let mut wall = write_done.iter().copied().max().unwrap_or_default();
    let mut reads = Vec::with_capacity(raw.len());
    for (pos, done, reply) in raw {
        attempted += 1;
        wall = wall.max(done);
        let (ok, found) = checker.read(pos, reply.as_ref());
        let r = reply.as_ref().ok();
        reads.push(Sample {
            pos,
            total: r.map_or(window, |r| r.total),
            connect: r.map_or(Duration::ZERO, |r| r.connect),
            ttfb: r.map_or(Duration::ZERO, |r| r.ttfb),
            done,
            ok,
            found,
        });
    }
    let opened = a.opened + b.opened - opened_before;
    let after = Scrape::fetch(&mut a).map_err(err)?;

    // Write acknowledgements carry strictly increasing generations.
    let mut last_ack = None;
    let mut check_write = |op: &Op, reply: Result<&Reply, &String>, failures: &mut Vec<String>| {
        let checked = reply
            .map_err(|e| format!("{}: {e}", op.path()))
            .and_then(|r| answers::check(op, r.status, &r.body));
        match checked {
            Ok(a) if matches!(op, Op::Write { .. }) => {
                if last_ack.is_some_and(|g| a.generation <= g) {
                    failures.push(format!(
                        "write acknowledged generation {} after {last_ack:?}",
                        a.generation
                    ));
                }
                last_ack = Some(a.generation);
            }
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    };
    for (op, reply) in wl.writes.iter().zip(&acks) {
        attempted += 1;
        check_write(op, reply.as_ref(), &mut checker.failures);
    }

    // The write probe of `rank` and `explain`: a side corpus and sequential
    // rewrites of it, after the window.
    let mut last = after.clone();
    if wl.kind != Kind::Ingest {
        for op in &wl.writes {
            attempted += 1;
            let (sent, ticks) = (Instant::now(), machine_ticks());
            let reply = a.send(&op.wire()).map_err(|e| e.to_string());
            if matches!(op, Op::Write { .. }) {
                let latency = sent.elapsed().as_secs_f64() * 1e3;
                write_ms.push((latency, stolen(ticks, machine_ticks())));
            }
            check_write(op, reply.as_ref(), &mut checker.failures);
        }
        last = Scrape::fetch(&mut a).map_err(err)?;
    }
    let rss_mib = server.peak_rss_mib().map_err(err)?;

    // A seeded sample of `/rank` answers equals exhaustive search over an
    // index built from the same corpus (for `ingest`, every kept answer:
    // sentence reorders keep every score).
    let index =
        credence_index::InvertedIndex::build(wl.docs.clone(), credence_text::Analyzer::english());
    let mut exhaustive_checked = 0;
    let stride = (checker.kept.len() / 32).max(1);
    for (idx, body) in checker.kept.iter().step_by(stride) {
        let query = wl.reads[*idx].query().expect("a /rank read");
        exhaustive_checked += 1;
        if let Err(e) = answers::matches_exhaustive(&index, query, body) {
            checker.failures.push(e);
        }
    }
    if exhaustive_checked == 0 {
        checker
            .failures
            .push("no /rank answer was compared with exhaustive search".into());
    }

    Ok(Measured {
        reads,
        write_ms,
        writes_late_ms,
        write_served,
        writes_sent: wl
            .writes
            .iter()
            .filter(|op| matches!(op, Op::Write { .. }))
            .count(),
        wall,
        write_done,
        ticks: ticker.readings,
        before,
        after,
        last,
        rss_mib,
        opened,
        max_conns: gauge.max(),
        max_threads,
        host,
        attempted,
        failures: checker.failures,
        exhaustive_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn the_closed_loop_keeps_to_one_connection() {
        // A server that answers every request and closes, like credence-serve.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut s = stream.unwrap();
                let mut buf = [0u8; 1024];
                let mut got = Vec::new();
                while !got.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut buf).unwrap();
                    got.extend_from_slice(&buf[..n]);
                }
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
                );
            }
        });
        let gauge = Arc::new(ConnGauge::default());
        let mut conn = Conn::new(addr, Arc::clone(&gauge));
        let wires = vec![crate::client::get("/x"); 7];
        let raw = closed_loop(
            &mut conn,
            &wires,
            5,
            Instant::now(),
            &|pos| pos >= 200,
            None,
        );
        let positions: Vec<usize> = raw.iter().map(|r| r.0).collect();
        assert_eq!(positions, (5..200).collect::<Vec<_>>());
        assert!(raw
            .iter()
            .all(|r| r.2.as_ref().is_ok_and(|reply| reply.body == b"ok")));
        assert_eq!(gauge.max(), 1, "{} connections open at once", gauge.max());
        assert_eq!(conn.opened, 195);
    }
}
