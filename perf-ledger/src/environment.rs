//! What a result was measured on, read at run time: cores, commit,
//! compiler, build profile, seed, and the process's peak memory.

use crate::Args;
use olsq2_service::json::{object, Json};
use std::process::{Command, Stdio};

/// The trimmed standard output of a short informational command, or null
/// when it cannot run. Git is stopped at the working directory, so a
/// checkout without its own history reports no commit rather than that of
/// an enclosing repository.
fn command_output(program: &str, argv: &[&str]) -> Json {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(argv)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or(Json::Null, |out| {
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .to_string()
                .into()
        })
}

/// The environment record printed with every result.
pub fn record(args: &Args, service_workers: Option<usize>) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    object([
        ("available_parallelism", cores.into()),
        ("commit", command_output("git", &["rev-parse", "HEAD"])),
        ("rustc", command_output("rustc", &["-V"])),
        ("profile", profile.into()),
        ("seed", args.seed.into()),
        ("workload", args.workload.name().into()),
        ("trace", args.trace.into()),
        (
            "service_workers",
            service_workers.map_or(Json::Null, Json::from),
        ),
    ])
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
