//! The client side of the real `domd` binary: process control, the
//! open-loop line sender, and `/proc` readings of the program under test.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pids of every child still running, so the watchdog can stop them.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn register(pid: u32) {
    CHILDREN.lock().expect("child registry").push(pid);
}

fn unregister(pid: u32) {
    CHILDREN
        .lock()
        .expect("child registry")
        .retain(|p| *p != pid);
}

/// Kills every registered child (watchdog path; the process exits next).
pub fn kill_all_children() {
    let pids = CHILDREN.lock().map(|v| v.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

/// How long a request may stay unanswered before the run fails.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `domd serve` with its stdin/stdout pipes.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    /// Request lines sent so far, which is the next line's `seq`.
    sent: u64,
}

/// One request of an open-loop run; times are from the run's start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub scheduled: Duration,
    pub sent: Duration,
    pub received: Option<Duration>,
    pub response: Option<String>,
}

impl Sample {
    /// Latency from the scheduled send time, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.received
            .map(|r| r.saturating_sub(self.scheduled).as_secs_f64() * 1e3)
    }

    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.scheduled).as_secs_f64() * 1e3
    }
}

/// `seq=` of a response line.
pub fn response_seq(line: &str) -> Option<u64> {
    field(line, "seq")?.parse().ok()
}

/// The value of ` key=` in a response line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

impl Server {
    pub fn spawn(domd: &Path, args: &[String], stderr_to: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(stderr_to)
            .map_err(|e| format!("creating {}: {e}", stderr_to.display()))?;
        let mut child = Command::new(domd)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", domd.display()))?;
        register(child.id());
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Server {
            child,
            stdin,
            stdout,
            sent: 0,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one line and waits for its response (closed loop).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let seq = self.sent;
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to server: {e}"))?;
        self.sent += 1;
        let stdout = self.stdout.as_mut().ok_or("server stdout closed")?;
        let mut buf = String::new();
        loop {
            buf.clear();
            match stdout.read_line(&mut buf) {
                Ok(0) => return Err(format!("server closed stdout before answering {line:?}")),
                Ok(_) if response_seq(&buf) == Some(seq) => return Ok(buf.trim_end().to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("reading from server: {e}")),
            }
        }
    }

    /// Sends `lines` open loop, line `i` due at `i / rate` seconds after
    /// the start, from this thread, while one reader thread timestamps
    /// the responses. Waits until every response is in; a server still
    /// owing answers [`RESPONSE_TIMEOUT`] after the last send is killed,
    /// leaving those samples unanswered.
    pub fn open_loop(&mut self, lines: &[String], rate: f64) -> Result<Vec<Sample>, String> {
        let n = lines.len();
        let base = self.sent;
        let payload: Vec<Vec<u8>> = lines
            .iter()
            .map(|l| format!("{l}\n").into_bytes())
            .collect();
        let mut stdin = self.stdin.take().ok_or("server stdin closed")?;
        let mut stdout = self.stdout.take().ok_or("server stdout closed")?;
        let child = &mut self.child;
        let start = Instant::now() + Duration::from_millis(2);
        let mut sent = vec![Duration::ZERO; n];
        let mut write_error = None;
        let (stdout, received) = std::thread::scope(|s| {
            let reader = s.spawn(move || {
                let mut received: Vec<Option<(Duration, String)>> = vec![None; n];
                let mut got = 0;
                let mut buf = String::new();
                while got < n {
                    buf.clear();
                    match stdout.read_line(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            let at = Instant::now().saturating_duration_since(start);
                            let Some(i) = response_seq(&buf).and_then(|s| s.checked_sub(base))
                            else {
                                continue;
                            };
                            if let Some(slot) = received.get_mut(i as usize) {
                                if slot.is_none() {
                                    *slot = Some((at, buf.trim_end().to_string()));
                                    got += 1;
                                }
                            }
                        }
                    }
                }
                (stdout, received)
            });
            for (i, bytes) in payload.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                wait_until(due);
                sent[i] = Instant::now().saturating_duration_since(start);
                if let Err(e) = stdin.write_all(bytes).and_then(|()| stdin.flush()) {
                    write_error = Some(format!("writing to server: {e}"));
                    break;
                }
            }
            let deadline = Instant::now() + RESPONSE_TIMEOUT;
            while !reader.is_finished() {
                std::thread::sleep(Duration::from_millis(5));
                if Instant::now() > deadline {
                    let _ = child.kill();
                }
            }
            reader.join().expect("response reader panicked")
        });
        self.stdin = Some(stdin);
        self.stdout = Some(stdout);
        self.sent += n as u64;
        if let Some(e) = write_error {
            return Err(e);
        }
        let start_off = |i: usize| Duration::from_secs_f64(i as f64 / rate);
        Ok(received
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let (received, response) = match r {
                    Some((at, line)) => (Some(at), Some(line)),
                    None => (None, None),
                };
                Sample {
                    scheduled: start_off(i),
                    sent: sent[i],
                    received,
                    response,
                }
            })
            .collect())
    }

    /// Peak resident set (VmHWM) and CPU time so far.
    pub fn usage(&self) -> Usage {
        proc_usage(self.pid())
    }

    /// Closes stdin (the clean shutdown path) and waits for exit.
    pub fn quit(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                unregister(self.pid());
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("server did not exit after stdin closed".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        unregister(self.child.id());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.reap();
        } else {
            unregister(self.child.id());
        }
    }
}

/// Sleeps until shortly before `due`, then yields until it passes.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Resource readings of one process from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// VmHWM in MB (10^6 bytes).
    pub peak_rss_mb: f64,
    /// User + system CPU time in milliseconds.
    pub cpu_ms: f64,
}

/// Clock ticks per second of `/proc/<pid>/stat` (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

pub fn proc_usage(pid: u32) -> Usage {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let hwm_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    Usage {
        peak_rss_mb: hwm_kb * 1024.0 / 1e6,
        cpu_ms: stat_ticks(&stat, 11, 12) * 1e3 / CLK_TCK,
    }
}

/// CPU time of this process's waited-for children (cutime + cstime), ms.
pub fn children_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat_ticks(&stat, 13, 14) * 1e3 / CLK_TCK
}

/// Sum of two fields of a `/proc/*/stat` line, counted after the
/// parenthesized command name (field 3 `state` is index 0).
fn stat_ticks(stat: &str, a: usize, b: usize) -> f64 {
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    get(a) + get(b)
}

/// Runs a `domd` command to completion, polling its peak RSS. Returns
/// (wall seconds, peak RSS MB, CPU ms, stdout).
pub fn run_to_end(
    domd: &Path,
    args: &[String],
    stderr_to: &Path,
) -> Result<(f64, f64, f64, String), String> {
    let stderr = std::fs::File::create(stderr_to).map_err(|e| e.to_string())?;
    let cpu_before = children_cpu_ms();
    let t0 = Instant::now();
    let mut child = Command::new(domd)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", domd.display()))?;
    let pid = child.id();
    register(pid);
    let mut stdout = child.stdout.take().ok_or("no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut out);
        out
    });
    let mut peak = 0.0f64;
    let status = loop {
        peak = peak.max(proc_usage(pid).peak_rss_mb);
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let wall = t0.elapsed().as_secs_f64();
    unregister(pid);
    let out = reader.join().map_err(|_| "stdout reader panicked")?;
    if !status.success() {
        return Err(format!("domd {} exited with {status}", args.join(" ")));
    }
    Ok((wall, peak, children_cpu_ms() - cpu_before, out))
}
