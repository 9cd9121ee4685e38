//! Process-level counters read from `/proc/self`: CPU time, resident set,
//! context switches.  Linux only, like the reactor under test.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI the
/// toolchain targets; `/proc/self/stat` reports CPU time in these.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds of the whole process, exited threads
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        parse_cpu(&stat).unwrap_or_default()
    }

    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

fn parse_cpu(stat: &str) -> Option<Cpu> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fixed fields start after its closing one.  utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the command.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let user: f64 = fields.next()?.parse().ok()?;
    let sys: f64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_s: user / TICKS_PER_S,
        sys_s: sys / TICKS_PER_S,
    })
}

/// Seconds since boot that the hypervisor ran something else while one of
/// this guest's CPUs had work (`steal`, the 8th value of `/proc/stat`'s
/// `cpu` line).
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal(&stat).unwrap_or(0.0)
}

fn parse_steal(stat: &str) -> Option<f64> {
    let ticks: f64 = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()?;
    Some(ticks / TICKS_PER_S)
}

fn status_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn status_field(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kb(&status, key).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in bytes.
pub fn rss_bytes() -> f64 {
    status_field("VmRSS:") * 1024.0
}

/// Voluntary and involuntary context switches summed over the live
/// threads (`/proc/self/task/*/status`).  Threads that exit between two
/// reads take their counts with them, so bracket phases whose threads
/// persist.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtxSwitches {
    pub voluntary: f64,
    pub involuntary: f64,
}

impl CtxSwitches {
    pub fn now() -> CtxSwitches {
        let mut total = CtxSwitches::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            total.voluntary += status_kb(&status, "voluntary_ctxt_switches:").unwrap_or(0.0);
            total.involuntary += status_kb(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0.0);
        }
        total
    }

    pub fn since(&self, earlier: CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary - earlier.voluntary,
            involuntary: self.involuntary - earlier.involuntary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_survive_a_hostile_command_name() {
        let stat = "42 (led) ger (x)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(
            parse_cpu(stat),
            Some(Cpu {
                user_s: 2.5,
                sys_s: 0.5
            })
        );
        assert_eq!(parse_cpu("garbage"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat =
            "cpu  832515 0 234344 995208 2117 0 25195 17168 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(171.68));
        assert_eq!(parse_steal("cpu0 1 2 3"), None);
    }

    #[test]
    fn status_lines_parse_with_and_without_units() {
        let status = "Name:\tledger\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(204800.0));
        assert_eq!(status_kb(status, "voluntary_ctxt_switches:"), Some(17.0));
        assert_eq!(status_kb(status, "VmRSS:"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_bytes() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::spin_loop();
        }
        assert!(Cpu::now().total_s() > 0.0);
    }
}
