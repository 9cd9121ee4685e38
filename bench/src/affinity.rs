//! Thread placement, applied from outside like any deployment setting.
//!
//! Tree workloads follow the paper's SetBench methodology: worker `t` is
//! pinned to the `t`-th allowed core.  Service workloads run with every
//! thread of the process on the first allowed core: the main thread is
//! pinned before anything is spawned, and shard owners, reactors and
//! supervisors inherit its mask.  On this box a wake-up that crosses virtual
//! CPUs costs about 20 us and varies with the hypervisor (`net-rtt-update`
//! reads 70 us +-13% spread over two cores, 10.4 us +-2% on one), so on two
//! cores the service workloads measure the host's interrupt delivery; on one
//! core every hand-off costs what the code makes it cost.

use std::fs;
use std::sync::OnceLock;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs in a `Cpus_allowed_list` value such as `0-1,4`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The CPUs the thread behind a `/proc/.../status` file may run on.
fn cpus_in(status_path: &str) -> Vec<usize> {
    let status = fs::read_to_string(status_path).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default()
}

/// The CPUs this process was given, read once: pinning the main thread
/// narrows what `/proc/self/status` reports afterwards.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| cpus_in("/proc/self/status"))
}

/// Pins the calling thread (and so every thread it spawns later) to the
/// `slot`-th allowed CPU, modulo their number.  Best effort: a refusal
/// leaves the thread where it was.
pub fn pin_to_core(slot: usize) {
    let cpus = allowed_cpus();
    let Some(&cpu) = cpus.get(slot % cpus.len().max(1)) else {
        return;
    };
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes for the
    // whole call, which only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("2,4-6"), vec![2, 4, 5, 6]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert!(!allowed_cpus().is_empty(), "this process runs somewhere");
    }

    #[test]
    fn pinning_sticks_wraps_and_is_inherited() {
        let given = allowed_cpus();
        std::thread::spawn(move || {
            pin_to_core(0);
            assert_eq!(cpus_in("/proc/thread-self/status"), given[..1]);
            let child = std::thread::spawn(|| cpus_in("/proc/thread-self/status"));
            assert_eq!(
                child.join().unwrap(),
                given[..1],
                "spawned threads inherit the mask"
            );
            pin_to_core(given.len() + 1); // slots wrap around the allowed cpus
            assert_eq!(
                cpus_in("/proc/thread-self/status"),
                [given[1 % given.len()]]
            );
        })
        .join()
        .unwrap();
    }
}
