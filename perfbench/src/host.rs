//! What the kernel reports about a process and about the machine.
//!
//! The benchmark's timings are CPU time: what the kernel charged to the
//! process doing the work. On a virtual machine whose host runs other
//! tenants, wall time also counts the time the host took the virtual CPUs
//! away ("steal") and the time a thread waited for the host to wake a
//! halted virtual CPU. Neither is the program's doing, and both change
//! from minute to minute. A guest kernel with paravirtual steal-time
//! accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`, as on KVM guests) leaves
//! stolen time out of a task's run time, and a thread that sleeps is
//! charged nothing.

/// Clock ticks per second of the `utime` and `stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user plus system) the kernel has charged to process
/// `pid` (a number, or `self`), its ended threads included. The
/// resolution is one clock tick, 10 ms.
pub fn cpu_s(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The command name (field 2) is in parentheses and may hold spaces;
    // count fields after its closing one. Field 3 is the state, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| format!("unexpected {path}"))?;
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()
        .filter(|t: &Vec<u64>| t.len() == 2)
        .ok_or_else(|| format!("no utime/stime in {path}"))?;
    Ok((ticks[0] + ticks[1]) as f64 / USER_HZ)
}

/// Peak resident memory (`VmHWM`) of process `pid`, MiB.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// The machine's (steal, total) CPU ticks from `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Share of the machine's CPU time the host stole between two
/// [`steal_ticks`] readings; 0 where either is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_not_with_sleep() {
        let start = cpu_s("self").unwrap();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 300 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = cpu_s("self").unwrap() - start;
        assert!(busy >= 0.2, "300 ms of work charged {busy} s");
        let before = cpu_s("self").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let slept = cpu_s("self").unwrap() - before;
        assert!(slept < 0.1, "300 ms of sleep charged {slept} s");
        assert!(cpu_s("no-such-process").is_err());
    }

    #[test]
    fn peak_rss_and_steal_read_this_machine() {
        assert!(vm_hwm_mb("self").unwrap() > 0.0);
        let a = steal_ticks();
        assert!(a.is_some());
        let share = steal_share(a, steal_ticks());
        assert!((0.0..=1.0).contains(&share));
        assert_eq!(steal_share(None, a), 0.0);
    }
}
