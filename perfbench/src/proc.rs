//! Child processes and `/proc` readings: the `gbc serve` child, the
//! server's memory, the generator's own CPU time, and run facts.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn self_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second).
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/<pid>/status`, in KB.
pub fn status_kb(pid: u32, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The commit under test: `git rev-parse` confined to the current
/// directory, else `unknown`.
pub fn commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_deref().and_then(Path::parent).map(|p| p.as_os_str().to_owned());
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(c) = ceiling {
        git.env("GIT_CEILING_DIRECTORIES", c);
    }
    match git.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// A running `gbc serve` child. Dropping it kills the server and waits
/// for it to end.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `gbc serve 127.0.0.1:0 FILES --threads N` in `dir` and wait
    /// until `/healthz` answers 200. Returns the server and the seconds
    /// from spawn to that answer.
    pub fn start(
        gbc: &Path,
        dir: &Path,
        files: &[String],
        threads: usize,
    ) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(gbc)
            .arg("serve")
            .arg("127.0.0.1:0")
            .args(files)
            .args(["--threads", &threads.to_string()])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", gbc.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut addr = None;
        let mut seen = String::new();
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("gbc serve exited before listening: {seen}"));
            }
            seen.push_str(&line);
            addr = line
                .split_once("http://")
                .and_then(|(_, rest)| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok());
        }
        // Keep draining stderr so the server can never block on it.
        let stderr = std::thread::spawn(move || {
            let _ = lines.read_to_end(&mut Vec::new());
        });
        let server =
            Server { child, addr: addr.expect("loop ends with an address"), stderr: Some(stderr) };
        let deadline = t0 + Duration::from_secs(60);
        loop {
            if matches!(client::get(server.addr, "/healthz"), Ok(r) if r.status == 200) {
                return Ok((server, t0.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                return Err("gbc serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
