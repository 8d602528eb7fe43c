//! Driving the real `minicc` binary from outside: per-request processes
//! for the CLI lanes, one `minicc serve` child for the warm lane, and the
//! resident-set accounting of both.

use sfcc_daemon::{Reply, Request};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The command that builds both binaries the benchmark needs.
pub const BUILD_COMMAND: &str = "cargo build --release -p sfcc-buildsys --bin minicc && \
     cargo build --release --manifest-path sfbench/Cargo.toml (with one CARGO_TARGET_DIR for both)";

/// Finds the `minicc` binary under test: `explicit` when given, else the
/// file beside the running `sfbench` executable.
///
/// # Errors
///
/// Names the build command when no binary is there.
pub fn locate_minicc(explicit: Option<&Path>) -> Result<PathBuf, String> {
    let candidate = match explicit {
        Some(path) => path.to_path_buf(),
        None => {
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot resolve the sfbench executable: {e}"))?;
            exe.with_file_name("minicc")
        }
    };
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "no `minicc` binary at `{}` — sfbench measures the real compiler process and \
             expects it beside itself; build both with: {BUILD_COMMAND}",
            candidate.display()
        ))
    }
}

/// One `minicc build <dir> -o <out> <flags...>` process, timed from spawn
/// to exit. `Err` is a failed build (spawn failure or non-zero exit).
pub fn cli_build(
    minicc: &Path,
    dir: &Path,
    out: &Path,
    flags: &[String],
) -> (Duration, Result<(), String>) {
    let start = Instant::now();
    let status = Command::new(minicc)
        .arg("build")
        .arg(dir)
        .arg("-o")
        .arg(out)
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let elapsed = start.elapsed();
    let outcome = match status {
        Ok(status) if status.success() => Ok(()),
        Ok(status) => Err(format!("minicc build `{}`: {status}", dir.display())),
        Err(e) => Err(format!("cannot spawn `{}`: {e}", minicc.display())),
    };
    (elapsed, outcome)
}

/// One `build` request to the daemon at `socket`, timed from connect to
/// reply. `Err` is a failed request: transport failure or a typed daemon
/// error (`build`, `busy`, `timeout`, …).
pub fn warm_build(
    socket: &Path,
    dir: &Path,
    out: &Path,
    flags: &[String],
) -> (Duration, Result<Reply, String>) {
    let request = Request {
        cmd: "build".to_string(),
        dir: Some(dir.display().to_string()),
        out: Some(out.display().to_string()),
        args: flags.to_vec(),
        ..Request::default()
    };
    let start = Instant::now();
    let reply = sfcc_daemon::roundtrip(socket, &request);
    let elapsed = start.elapsed();
    let outcome = reply.and_then(|reply| match &reply.error {
        None if reply.ok => Ok(reply),
        Some((kind, message)) => Err(format!("daemon error ({}): {message}", kind.label())),
        None => Err("daemon replied ok:false without an error".to_string()),
    });
    (elapsed, outcome)
}

/// A `minicc serve` child. Dropping it kills the process, so a panicking
/// run never leaves a daemon behind; [`ServeChild::shutdown`] is the
/// orderly path.
pub struct ServeChild {
    child: Child,
    socket: PathBuf,
}

impl ServeChild {
    /// Starts `minicc serve <root> --socket <socket>` and waits until it
    /// answers a ping.
    ///
    /// # Errors
    ///
    /// The spawn failed, the child exited, or it did not answer within ten
    /// seconds.
    pub fn start(minicc: &Path, root: &Path, socket: &Path) -> Result<ServeChild, String> {
        // sockaddr_un holds 108 bytes including the terminator.
        if socket.as_os_str().len() > 100 {
            return Err(format!(
                "socket path `{}` is too long for a unix socket; use a shorter --out",
                socket.display()
            ));
        }
        let child = Command::new(minicc)
            .arg("serve")
            .arg(root)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn `{} serve`: {e}", minicc.display()))?;
        let mut serve = ServeChild {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if socket.exists() && serve.answers() {
                return Ok(serve);
            }
            if let Ok(Some(status)) = serve.child.try_wait() {
                return Err(format!("`minicc serve` exited during start-up: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("`minicc serve` did not answer a ping within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The socket clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Whether the daemon answers a `ping` right now.
    fn answers(&self) -> bool {
        sfcc_daemon::roundtrip_with_timeout(
            &self.socket,
            &Request::bare("ping"),
            Duration::from_secs(5),
        )
        .is_ok_and(|reply| reply.ok)
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it if
    /// it has not within five seconds.
    pub fn shutdown(mut self) {
        let _ = sfcc_daemon::roundtrip_with_timeout(
            &self.socket,
            &Request::bare("shutdown"),
            Duration::from_secs(5),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills and reaps.
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Largest resident set, in KiB, of any child process this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`): every `minicc build` and
/// every reaped `minicc serve` of a run, since `sfbench` spawns nothing
/// else.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_kb() -> u64 {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs of
    /// which `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        ru_utime: [i64; 2],
        ru_stime: [i64; 2],
        ru_maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value whose layout is that of
    // the C `struct rusage` on 64-bit Linux (18 eight-byte fields), which
    // is all `getrusage` requires of its out-pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss.max(0) as u64
    } else {
        0
    }
}

/// Without a known `struct rusage` layout the children's peak is not
/// measured.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_kb() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_minicc_names_the_build_command() {
        let err = locate_minicc(Some(Path::new("/nonexistent/minicc"))).unwrap_err();
        assert!(
            err.contains("cargo build --release -p sfcc-buildsys"),
            "{err}"
        );
        assert!(err.contains("/nonexistent/minicc"), "{err}");
    }

    #[test]
    fn overlong_socket_paths_are_refused_before_spawning() {
        let socket = PathBuf::from(format!("/tmp/{}/d.sock", "x".repeat(120)));
        let err = ServeChild::start(Path::new("/bin/true"), Path::new("/tmp"), &socket)
            .err()
            .expect("refused");
        assert!(err.contains("too long"), "{err}");
    }
}
