//! Process-level resource readings from Linux `/proc`.
//!
//! Both readers return `None` when `/proc` is absent or unreadable, so a
//! caller reports the metric as missing instead of as zero.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`).
/// Linux fixes it at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, all threads
/// included, exited ones too. Resolution is one tick (10 ms).
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces, so
    // split after its closing parenthesis: the rest starts at field 3.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "4242 (idd pipe) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
    }

    #[test]
    fn missing_fields_are_none_not_zero() {
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
