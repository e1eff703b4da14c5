//! Building the shipped `seqhide` binary and running it as a child
//! process, with wall time and peak RSS as the OS reports them.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Builds `seqhide` from the checkout's sources (`cargo build --release`,
/// a no-op when fresh) and returns the binary's path. Honours
/// `CARGO_TARGET_DIR` as cargo does.
pub fn build_seqhide(root: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() || !root.join("src").is_dir() {
        return Err(format!(
            "{} holds no seqhide sources to build",
            root.display()
        ));
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--quiet", "--bin", "seqhide"])
        .arg("--manifest-path")
        .arg(&manifest)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building seqhide failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_absolute() { t } else { root.join(t) })
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join("seqhide");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built no binary at {}", bin.display()))
    }
}

/// What one finished child run cost, and how it ended.
pub struct Run {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// The program's exit code (`128 + signal` when killed).
    pub code: u64,
    pub stdout: String,
    pub stderr: String,
}

/// The flag that turns this binary into the measuring launcher.
pub const MEASURE_FLAG: &str = "--measure";
/// Prefix of the launcher's report line on its stderr.
const REPORT: &str = "perfbench-measure";

/// Runs `program args` to completion, capturing its output, and reports
/// its wall time, peak resident set size and exit code. An error means
/// the program could not be run and measured, not that it failed.
///
/// The child is started by a fresh copy of this binary (see
/// [`measure_main`]) rather than by the benchmark process itself: Linux
/// carries the spawning process's high-water RSS over `exec` into the
/// child's `ru_maxrss`, so a child spawned from a benchmark holding a
/// generated database would report the benchmark's peak, not its own.
pub fn run(program: &Path, args: &[OsString]) -> Result<Run, String> {
    use std::io::Read;
    let me = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(me)
        .arg(MEASURE_FLAG)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn the measuring launcher: {e}"))?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    // Both pipes are small for every command the benchmark runs; read
    // stdout first, then stderr, then reap.
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("reading child stdout: {e}"))?;
    }
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr)
            .map_err(|e| format!("reading child stderr: {e}"))?;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the launcher: {e}"))?;
    let report = stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(REPORT))
        .ok_or_else(|| {
            format!(
                "{} reported nothing ({status}): {}",
                program.display(),
                stderr.trim()
            )
        })?;
    let nums: Vec<u64> = report
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    let [wall_ns, maxrss_kb, code] = nums[..] else {
        return Err(format!("malformed launcher report '{report}'"));
    };
    if !status.success() {
        return Err(format!("the measuring launcher exited with {status}"));
    }
    Ok(Run {
        wall_s: wall_ns as f64 / 1e9,
        peak_rss_mb: maxrss_kb as f64 / 1024.0,
        code,
        stdout,
        stderr: stderr
            .lines()
            .filter(|l| !l.starts_with(REPORT))
            .collect::<Vec<_>>()
            .join("\n"),
    })
}

/// The launcher: runs `argv[0] argv[1..]` with inherited stdio, waits for
/// it, and prints `perfbench-measure <wall ns> <peak RSS KiB> <exit code>`
/// as the last line of stderr. Returns the process exit code to use.
pub fn measure_main(argv: &[OsString]) -> i32 {
    let Some((program, args)) = argv.split_first() else {
        eprintln!("{MEASURE_FLAG} needs a program");
        return 2;
    };
    let start = Instant::now();
    let measured = Command::new(program)
        .args(args)
        .spawn()
        .map_err(|e| format!("cannot spawn {program:?}: {e}"))
        .and_then(|mut child| reap(&mut child));
    match measured {
        Ok((code, maxrss_kb)) => {
            let wall_ns = start.elapsed().as_nanos();
            eprintln!("{REPORT} {wall_ns} {maxrss_kb} {code}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` and returns its exit code (or `128 + signal`) and
/// its peak RSS in KiB. The standard library has no per-child resource
/// usage, hence `wait4`.
fn reap(child: &mut Child) -> Result<(i32, i64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it:
        // the `Child` is only dropped after this returns, and dropping does
        // not wait); `status` and `usage` are valid, writable and laid out
        // as the C `int` and `struct rusage` wait4 fills in.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 failed: {err}"));
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok((code, usage.maxrss))
}
