//! CPU time and peak memory read from `/proc`, standard library only.
//! The benchmark reads these around calls into the program; the program
//! itself is not instrumented.

use std::time::Duration;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`). The
/// kernel fixes it at 100 on every architecture this runs on, and
/// reading it via `sysconf` would need a libc binding.
const TICKS_PER_S: u64 = 100;

/// `utime + stime` in clock ticks from one `/proc/<pid>/stat` (or
/// `/proc/<pid>/task/<tid>/stat`) line. The command name (field 2) is
/// parenthesized and may itself hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name: state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let kib = it.next()?.parse().ok()?;
    (it.next()? == "kB").then_some(kib)
}

/// CPU ticks to time.
pub fn ticks_to_duration(ticks: u64) -> Duration {
    Duration::from_micros(ticks * (1_000_000 / TICKS_PER_S))
}

fn stat_ticks(path: &str) -> u64 {
    let line = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_stat_ticks(&line).unwrap_or_else(|| panic!("malformed {path}: {line}"))
}

/// User + system CPU of the whole process so far, in ticks.
pub fn process_ticks() -> u64 {
    stat_ticks("/proc/self/stat")
}

/// User + system CPU of the calling thread so far, in ticks.
pub fn thread_ticks() -> u64 {
    stat_ticks("/proc/thread-self/stat")
}

/// Peak resident set of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "4242 (perf bench) S 1 4242 4242 0 -1 4194304 1337 0 0 0 \
                        250 17 0 0 20 0 3 0 123456 1000000 2500 18446744073709551615";

    #[test]
    fn stat_sums_utime_and_stime() {
        assert_eq!(parse_stat_ticks(LINE), Some(267));
    }

    #[test]
    fn stat_survives_parentheses_in_the_name() {
        let line = LINE.replace("(perf bench)", "(a) b (c))");
        assert_eq!(parse_stat_ticks(&line), Some(267));
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn live_stat_files_parse() {
        let p = process_ticks();
        let t = thread_ticks();
        assert!(t <= p + 1, "thread {t} > process {p}");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn vm_hwm_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("VmHWM: 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }

    #[test]
    fn ticks_are_centiseconds() {
        assert_eq!(ticks_to_duration(3), Duration::from_millis(30));
    }
}
