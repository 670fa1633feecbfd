//! Hypervisor steal correction for wall-clock timings.
//!
//! On a shared virtual machine the host takes CPU time away from busy
//! vCPUs ("steal", the eighth field of the `cpu` line of `/proc/stat`),
//! and it does so in episodes that come and go over minutes. Every wall
//! timing of a CPU-bound loop stretches by the stolen share, so two runs
//! of the same code can differ by 20% or more.
//!
//! Over a measured window the process received `busy` CPU time (utime +
//! stime of all its threads, which the kernel accounts without steal)
//! while its vCPUs lost `steal`. Steal only accrues while a vCPU wants to
//! run, so the window ran `(busy + steal) / busy` times slower than it
//! would have without the host's other tenants. Timings are divided by
//! that dilation; runs on an idle host have a dilation of 1.

use std::fs;

/// Process CPU and machine steal, in clock ticks, at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CpuSnapshot {
    busy: u64,
    steal: u64,
}

/// Reads the process's CPU time and the machine's steal time; `None`
/// where `/proc` does not provide them.
pub fn snapshot() -> Option<CpuSnapshot> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let busy = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    let machine = fs::read_to_string("/proc/stat").ok()?;
    let steal = machine
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(CpuSnapshot { busy, steal })
}

/// Slow-down of the window between two snapshots due to steal (≥ 1), or
/// 1 when either snapshot is missing or the window was idle.
pub fn dilation(from: Option<CpuSnapshot>, to: Option<CpuSnapshot>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) if b.busy > a.busy => {
            let busy = (b.busy - a.busy) as f64;
            let steal = b.steal.saturating_sub(a.steal) as f64;
            (busy + steal) / busy
        }
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dilation_is_busy_plus_steal_over_busy() {
        let a = Some(CpuSnapshot {
            busy: 100,
            steal: 7,
        });
        let b = Some(CpuSnapshot {
            busy: 500,
            steal: 107,
        });
        assert_eq!(dilation(a, b), 1.25);
        assert_eq!(dilation(a, a), 1.0);
        assert_eq!(dilation(None, b), 1.0);
    }

    #[test]
    fn snapshot_reads_proc_on_linux() {
        if cfg!(target_os = "linux") {
            let s = snapshot().expect("/proc/self/stat and /proc/stat");
            assert!(s.steal < u64::MAX);
        }
    }
}
