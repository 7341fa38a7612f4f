//! Process and host facts read from `/proc` and the checkout.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User plus system CPU time of all threads of this process, in seconds
/// (`utime + stime` of `/proc/self/stat`, at the kernel's 100 Hz tick).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (tick(11) + tick(12)) / 100.0
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was built from: `HEAD` of a `.git` directory in
/// the working directory when there is one, else `"unknown"` (a source
/// export carries no history).
pub fn commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|h| h.trim().to_owned())
            .or_else(|_| packed_ref(git, r).ok_or(()))
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn packed_ref(git: &Path, name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_owned())
    })
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_positive_values() {
        assert!(peak_rss_mib() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() >= 0.0, "{x}");
        assert!(nproc() >= 1);
    }
}
