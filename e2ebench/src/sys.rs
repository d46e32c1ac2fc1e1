//! Process facts read from the kernel: peak resident memory and the core count.

use std::fs;

/// Resets the kernel's resident-memory high-water mark (`VmHWM`) to the current
/// resident size, so a later [`peak_rss_mb`] covers only what follows.  Writing `5` to
/// `/proc/self/clear_refs` is the documented reset.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark via /proc/self/clear_refs: {e}"))
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

extern "C" {
    /// glibc: returns free heap memory to the kernel; `pad` bytes stay at the heap top.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free heap pages to the kernel.  Without it, memory a set-up
/// phase freed stays resident and the peak-RSS mark measures that instead of the
/// measured phase.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only takes a byte count, touches no caller memory, and may
    // run at any time between allocations; this thread holds no allocator state here.
    unsafe {
        malloc_trim(0);
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
