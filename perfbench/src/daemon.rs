//! Running `qavad` for one workload: a private socket and cache file per
//! daemon, a protocol shutdown, and a clean-exit check.

use qavad::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to bind, and to exit after `shutdown`.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Daemon {
    child: Option<Child>,
    pub pid: u32,
    pub socket: PathBuf,
    pub cache_file: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns `qavad` with a fresh socket and cache file under `dir` and
    /// returns once it has answered `hello`.
    pub fn start(qavad: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("qavad.sock");
        let cache_file = dir.join("warm.cache");
        let log = |name: &str| {
            std::fs::File::create(dir.join(name))
                .map_err(|e| format!("cannot create daemon log: {e}"))
        };
        let child = Command::new(qavad)
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-file")
            .arg(&cache_file)
            .stdin(Stdio::null())
            .stdout(log("stdout.log")?)
            .stderr(log("stderr.log")?)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", qavad.display()))?;
        let mut daemon = Daemon {
            pid: child.id(),
            child: Some(child),
            socket,
            cache_file,
            dir: dir.to_path_buf(),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(mut client) = Client::connect(&daemon.socket) {
                client.hello()?;
                return Ok(daemon);
            }
            if let Some(status) = daemon.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "qavad exited during start-up ({status}): {}",
                    daemon.stderr()
                ));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("qavad did not bind its socket in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("a running daemon has its child handle")
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket)
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(self.dir.join("stderr.log")).unwrap_or_default()
    }

    /// Shuts the daemon down over the protocol and waits for it. A
    /// nonzero exit, a missed exit deadline, or anything on its stderr
    /// (spill failures and cache warnings are printed there) is an error.
    pub fn stop(mut self) -> Result<(), String> {
        let answered = self.connect().and_then(|mut c| c.shutdown().map(drop));
        let t0 = Instant::now();
        let status = loop {
            if let Some(status) = self.child_mut().try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if t0.elapsed() > EXIT_TIMEOUT {
                return Err("qavad did not exit after a shutdown request".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        self.child = None;
        answered.map_err(|e| format!("shutdown request failed: {e}"))?;
        let stderr = self.stderr();
        let _ = std::fs::remove_dir_all(&self.dir);
        if !status.success() {
            return Err(format!("qavad exited with {status}: {stderr}"));
        }
        if !stderr.trim().is_empty() {
            return Err(format!("qavad wrote to stderr: {}", stderr.trim()));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// Last resort on an error path: a daemon that was not stopped over
    /// the protocol is killed, and always reaped.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// User plus system CPU seconds of a process, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &text[text.rfind(')').ok_or("malformed stat line")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed stat line".to_string())
    };
    // USER_HZ is 100 on every Linux ABI this builds for.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set (VmHWM) of a process, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}
