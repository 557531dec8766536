//! The benchmark's contact with the host: CPU pinning, peak RSS, a
//! counting allocator for the traced pass, and the fsync stand-in that
//! keeps device time out of `serve_durable`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// ------------------------------------------------------------ fsync

static SYNC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Every `fdatasync`/`fsync` the process issues lands here instead of in
/// libc: counted, not performed. The benchmark may only write inside its
/// checkout, which sits on a shared disk whose flush latency swings 3x
/// between identical runs; with the flush skipped the WAL's bytes stay in
/// the page cache, which is what a tmpfs data dir would have given. The
/// engine's code path up to the system call is unchanged, and the number
/// of flushes is reported exactly.
#[cfg(target_os = "linux")]
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    SYNC_CALLS.fetch_add(1, Relaxed);
    0
}

/// See [`fdatasync`].
#[cfg(target_os = "linux")]
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    SYNC_CALLS.fetch_add(1, Relaxed);
    0
}

/// Flushes requested (and skipped) since process start.
pub fn sync_calls() -> u64 {
    SYNC_CALLS.load(Relaxed)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_FDATASYNC: c_long = 75;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_FDATASYNC: c_long = 83;

/// The real `fdatasync`, by system-call number, for the one ungated
/// reading of the checkout disk's flush latency.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn real_fdatasync(file: &std::fs::File) -> bool {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
    }
    // SAFETY: fdatasync(2) takes one int argument, the descriptor is open
    // for the lifetime of `file`, and the call touches no memory of ours.
    unsafe { syscall(SYS_FDATASYNC, file.as_raw_fd() as c_long) == 0 }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn real_fdatasync(_file: &std::fs::File) -> bool {
    false
}

// -------------------------------------------------------- scheduling

/// Pin the calling thread to one CPU where the host permits; a refusal
/// (the CPU does not exist, or the sandbox forbids it) leaves the thread
/// where it was.
#[cfg(target_os = "linux")]
pub fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: pid 0 names the calling thread; `mask` is a live 8-byte
    // bitmap and the size passed is its size.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------- allocator

/// Passes through to the system allocator; counts only while the traced
/// pass has switched counting on, so the untraced numbers pay one relaxed
/// load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Switch allocation counting on (call before the first engine exists, so
/// the live-heap figure is absolute).
pub fn count_allocations() {
    COUNTING.store(true, Relaxed);
}

#[derive(Clone, Copy, Debug, Default)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live: i64,
}

pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed),
    }
}
