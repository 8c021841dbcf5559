//! What the operating system says about this process.

use std::fs;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture Linux runs on.
const TICK_NS: u64 = 10_000_000;

/// CPU time (user + system) of every thread of this process so far.
pub fn cpu_time_ns() -> Result<u64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').ok_or("/proc/self/stat: no command field")?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) * TICK_NS),
        _ => Err("/proc/self/stat: utime/stime missing".into()),
    }
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: VmHWM missing".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_and_cpu_time_advances() {
        let before = cpu_time_ns().unwrap();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(cpu_time_ns().unwrap() > before);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
