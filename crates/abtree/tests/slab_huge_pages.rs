//! The node slab's huge-page threshold: the blocks carved before the slab
//! reaches `slab::HUGE_AFTER_BYTES` stay on 4 KiB pages, and every block
//! after that is eligible for one 2 MiB transparent huge page, as
//! `/proc/self/smaps` reports it.
//!
//! One test in this binary on purpose: the slab is process-wide, so the
//! first slot it carves must be this test's, and nothing else may carve in
//! between.  Skips (with the reason printed) off Linux and on a host whose
//! transparent huge pages are `never`.

use abtree::slab;

/// Why this host cannot show the threshold, if it cannot.
fn skip_reason() -> Option<String> {
    if !cfg!(target_os = "linux") {
        return Some("transparent huge pages are Linux only".into());
    }
    let path = "/sys/kernel/mm/transparent_hugepage/enabled";
    match std::fs::read_to_string(path) {
        Ok(mode) if mode.contains("[never]") => Some(format!("{path} reads {}", mode.trim())),
        Ok(_) => None,
        Err(err) => Some(format!("{path}: {err}")),
    }
}

/// The `THPeligible` flag of the mapping that holds `addr`, and whether
/// that mapping covers all of `addr`'s 2 MiB-aligned block.
fn thp_eligible(addr: usize) -> (bool, bool) {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut lines = smaps.lines();
    while let Some(line) = lines.next() {
        let Some((start, end)) = line
            .split_whitespace()
            .next()
            .and_then(|range| range.split_once('-'))
            .and_then(|(s, e)| {
                let hex = |x| usize::from_str_radix(x, 16).ok();
                Some((hex(s)?, hex(e)?))
            })
        else {
            continue;
        };
        if !(start..end).contains(&addr) {
            continue;
        }
        let block = addr & !(slab::BLOCK_BYTES - 1);
        let covers = start <= block && block + slab::BLOCK_BYTES <= end;
        for field in lines.by_ref() {
            if let Some(flag) = field.strip_prefix("THPeligible:") {
                return (flag.trim() == "1", covers);
            }
        }
        panic!("the mapping {line} has no THPeligible field");
    }
    panic!("no mapping holds {addr:#x}");
}

#[test]
fn only_blocks_past_the_threshold_are_huge_page_eligible() {
    if let Some(reason) = skip_reason() {
        println!("skipped: {reason}");
        return;
    }
    assert!(
        slab::carved() * slab::SLOT_BYTES < slab::HUGE_AFTER_BYTES,
        "this test carves the slab's first blocks"
    );
    let mut slots = vec![slab::alloc()];
    // Half a block past the threshold: the magazine the last `alloc` came
    // from was carved wholly after it.
    while slab::carved() * slab::SLOT_BYTES <= slab::HUGE_AFTER_BYTES + slab::BLOCK_BYTES / 2 {
        slots.push(slab::alloc());
    }
    let (early, late) = (slots[0] as usize, *slots.last().unwrap() as usize);
    println!("early slot {early:#x}, late slot {late:#x}");

    let (eligible, _) = thp_eligible(early);
    assert!(
        !eligible,
        "a block carved before the threshold stays on 4 KiB pages"
    );
    let (eligible, covers) = thp_eligible(late);
    assert!(
        eligible,
        "a block carved past the threshold may be a huge page"
    );
    assert!(covers, "the late slot's 2 MiB-aligned block is one mapping");

    for slot in slots {
        // SAFETY: each slot came from `slab::alloc`, once, and nothing
        // references it.
        unsafe { slab::release(slot) };
    }
}
