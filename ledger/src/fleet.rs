//! Child processes: building the release `hyperbench` binary from the
//! enclosing checkout, spawning `serve` / `route` on ephemeral ports,
//! readiness, `/proc` accounting, and a drop guard that kills and reaps
//! every child on success, failure and panic.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (fixed at 100 on
/// every Linux ABI this runs on).
const CLK_TCK: f64 = 100.0;

/// How long a child may take from spawn to a healthy `/v1/healthz`.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// Cargo's target directory for this invocation, relative to the
/// checkout root the ledger is run from.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Builds the release `hyperbench` binary of the checkout in the
/// current directory and returns its path. A no-op rebuild costs a
/// fraction of a second; the time is outside every metric.
pub fn build_binary() -> Result<PathBuf, String> {
    if !Path::new("crates/harness/Cargo.toml").is_file() {
        return Err(
            "run the ledger from the root of a hyperbench checkout (crates/harness not found)"
                .to_string(),
        );
    }
    let output = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "hyperbench-harness",
            "--bin",
            "hyperbench",
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "building hyperbench failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let binary = target_dir().join("release").join("hyperbench");
    if !binary.is_file() {
        return Err(format!("{} missing after the build", binary.display()));
    }
    binary
        .canonicalize()
        .map_err(|e| format!("{}: {e}", binary.display()))
}

/// The directory every file of one run lives in:
/// `<target>/ledger/<run>/`. Bulk inputs (packs, WALs) are removed when
/// the run ends; `report.json` and `trace.jsonl` stay.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    pub fn create(label: &str) -> Result<RunDir, String> {
        let path = target_dir()
            .join("ledger")
            .join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// A fresh subdirectory for one set-up's inputs.
    pub fn data_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn remove_data(&self, name: &str) {
        let _ = std::fs::remove_dir_all(self.path.join(name));
    }
}

/// One `/proc/<pid>` reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime of the whole process, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`), in MiB.
    pub hwm_mb: f64,
    pub threads: u64,
}

pub fn proc_sample(pid: u32) -> Option<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces and parentheses; fields are
    // positional only after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |name: &str| -> Option<f64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
    };
    Some(ProcSample {
        cpu_ms: (utime + stime) * 1000.0 / CLK_TCK,
        hwm_mb: field("VmHWM:")? / 1024.0,
        threads: field("Threads:")? as u64,
    })
}

/// A spawned `hyperbench` child. Dropping it kills and reaps it.
pub struct Child {
    pub name: String,
    pub cmdline: Vec<String>,
    pub addr: SocketAddr,
    stderr_path: PathBuf,
    process: std::process::Child,
    binary: PathBuf,
}

impl Child {
    /// Spawns `binary args… --addr 127.0.0.1:0`, reads the bound address
    /// off the startup banner and polls `/v1/healthz` until it answers.
    /// A child that dies or never turns healthy fails with its stderr.
    pub fn spawn(binary: &Path, name: &str, args: &[String], dir: &Path) -> Result<Child, String> {
        Child::spawn_at(binary, name, args, dir, "127.0.0.1:0")
    }

    /// [`Child::spawn`] on a given address (a restart takes its old one).
    pub fn spawn_at(
        binary: &Path,
        name: &str,
        args: &[String],
        dir: &Path,
        addr: &str,
    ) -> Result<Child, String> {
        let mut cmdline = args.to_vec();
        cmdline.extend(["--addr".to_string(), addr.to_string()]);
        let stderr_path = dir.join(format!("{name}.stderr"));
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("{}: {e}", stderr_path.display()))?;
        let mut command = Command::new(binary);
        command
            .args(&cmdline)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        // SAFETY: `prctl(PR_SET_PDEATHSIG, SIGKILL)` is async-signal-safe
        // and touches no memory of the forked child; it makes the kernel
        // kill the child should the ledger itself be killed, which no
        // drop guard can cover. The signal follows the spawning thread,
        // so children are only ever spawned from the main thread.
        unsafe {
            command.pre_exec(|| {
                extern "C" {
                    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
                }
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut process = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = process.stdout.take().expect("stdout was piped");
        let mut child = Child {
            name: name.to_string(),
            cmdline,
            // Placeholder until the banner is read; the guard already
            // owns the process, so every error path below reaps it.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_path,
            process,
            binary: binary.to_path_buf(),
        };
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| child.failure(&format!("reading the banner: {e}")))?;
        child.addr = parse_banner(&banner)
            .ok_or_else(|| child.failure(&format!("no address in banner {banner:?}")))?;
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            if let Ok((200, _)) = http::once(child.addr, &http::get("/v1/healthz")) {
                return Ok(child);
            }
            if let Ok(Some(status)) = child.process.try_wait() {
                return Err(child.failure(&format!("exited with {status} before turning healthy")));
            }
            if Instant::now() >= deadline {
                return Err(child.failure("not healthy within the deadline"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn failure(&self, what: &str) -> String {
        let stderr = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        format!(
            "{} ({} {}): {what}\n--- stderr ---\n{stderr}",
            self.name,
            self.binary.display(),
            self.cmdline.join(" ")
        )
    }

    pub fn pid(&self) -> u32 {
        self.process.id()
    }

    pub fn sample(&self) -> ProcSample {
        proc_sample(self.pid()).unwrap_or_default()
    }

    /// `kill -9` and reap, leaving the files as the crash left them.
    /// Idempotent: a reaped child is not signalled again.
    pub fn kill(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The bound address in a `serve` banner (`… on http://ADDR (…`) or a
/// `route` banner (`ADDR <ip:port>`).
pub fn parse_banner(line: &str) -> Option<SocketAddr> {
    let line = line.trim();
    if let Some(addr) = line.strip_prefix("ADDR ") {
        return addr.trim().parse().ok();
    }
    let rest = &line[line.find("http://")? + "http://".len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// Sums of `/proc` readings over a set of children.
pub fn sample_all(children: &[&Child]) -> ProcSample {
    let mut total = ProcSample::default();
    for child in children {
        let s = child.sample();
        total.cpu_ms += s.cpu_ms;
        total.hwm_mb += s.hwm_mb;
        total.threads += s.threads;
    }
    total
}

/// The ledger's own CPU time so far, in milliseconds.
pub fn self_cpu_ms() -> f64 {
    proc_sample(std::process::id()).map_or(0.0, |s| s.cpu_ms)
}
