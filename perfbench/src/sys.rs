//! The few facts about the machine a result is recorded with.

use std::ffi::{c_char, c_int, c_ulong, c_void, CString};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether `fsync`/`fdatasync` reach the disk.
///
/// Timed runs keep the store and journal on a RAM-backed directory
/// ([`mount_ram`]), where both calls return at once. Where that mount is
/// refused, the state sits on whatever disk holds the checkout, and a
/// served job's dozen durable checkpoints would stall on it for
/// milliseconds at a time. So the benchmark binary interposes both calls
/// and, while this flag is off, returns success at once, as on tmpfs.
/// Every write, rename and directory entry still happens. The traced run
/// turns the flag on to measure what the disk adds
/// (`runtime.disk_overhead_ms_per_job`).
static REAL_SYNC: AtomicBool = AtomicBool::new(false);

pub fn set_real_sync(on: bool) {
    REAL_SYNC.store(on, Ordering::SeqCst);
}

pub fn real_sync() -> bool {
    REAL_SYNC.load(Ordering::SeqCst)
}

/// Call libc's own `fsync` or `fdatasync` (the next definition after
/// the benchmark binary's interposers).
pub fn libc_sync(datasync: bool, fd: c_int) -> c_int {
    static FSYNC: OnceLock<usize> = OnceLock::new();
    static FDATASYNC: OnceLock<usize> = OnceLock::new();
    let (cell, name) = if datasync {
        (&FDATASYNC, c"fdatasync")
    } else {
        (&FSYNC, c"fsync")
    };
    // SAFETY: `RTLD_NEXT` lookup of a libc symbol by NUL-terminated name.
    let addr = *cell.get_or_init(|| unsafe { dlsym(RTLD_NEXT, name.as_ptr()) } as usize);
    if addr == 0 {
        return -1;
    }
    // SAFETY: both symbols have the signature `int (int)`.
    let f: extern "C" fn(c_int) -> c_int = unsafe { std::mem::transmute(addr) };
    f(fd)
}

const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Put `dir` on a RAM-backed filesystem for this process alone: a
/// private mount namespace with a tmpfs at `dir` (Linux; needs
/// `CAP_SYS_ADMIN`). Nothing outside the process sees the mount, and it
/// goes with the process. Returns whether it took; if not, `dir` is a
/// plain directory on whatever disk holds it.
///
/// Why: a served job publishes about a dozen checkpoints, each a write
/// to a temp file renamed over the last. On a VM disk, even with the
/// fsyncs elided, those renames and unlinks wait on the filesystem
/// journal, and so on the disk: the `operator` workload's job latency
/// and `setup_s` moved by 1.5–2× between runs while CPU-bound reads did
/// not.
pub fn mount_ram(dir: &Path) -> bool {
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let Ok(target) = CString::new(dir.as_os_str().as_bytes()) else {
        return false;
    };
    // SAFETY: plain syscalls on NUL-terminated strings. The tmpfs is
    // mounted only once the new namespace's mounts are private, so it
    // cannot propagate out of the process.
    unsafe {
        unshare(CLONE_NEWNS) == 0
            && mount(
                c"none".as_ptr(),
                c"/".as_ptr(),
                std::ptr::null(),
                MS_REC | MS_PRIVATE,
                std::ptr::null(),
            ) == 0
            && mount(
                c"tmpfs".as_ptr(),
                target.as_ptr(),
                c"tmpfs".as_ptr(),
                MS_NOSUID | MS_NODEV,
                c"size=2g,mode=0700".as_ptr().cast(),
            ) == 0
    }
}

/// Detach the tmpfs [`mount_ram`] put at `dir`.
pub fn unmount(dir: &Path) {
    if let Ok(target) = CString::new(dir.as_os_str().as_bytes()) {
        // SAFETY: a syscall on a NUL-terminated path.
        unsafe { umount2(target.as_ptr(), MNT_DETACH) };
    }
}

const CLONE_NEWNS: c_int = 0x0002_0000;
const MS_NOSUID: c_ulong = 2;
const MS_NODEV: c_ulong = 4;
const MS_REC: c_ulong = 0x4000;
const MS_PRIVATE: c_ulong = 0x4_0000;
const MNT_DETACH: c_int = 2;

extern "C" {
    fn unshare(flags: c_int) -> c_int;
    fn mount(
        source: *const c_char,
        target: *const c_char,
        fstype: *const c_char,
        flags: c_ulong,
        data: *const c_void,
    ) -> c_int;
    fn umount2(target: *const c_char, flags: c_int) -> c_int;
    fn statfs(path: *const c_char, buf: *mut StatFs) -> i32;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has run, in ms (0 if the clock fails).
pub fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid `struct timespec` for the call to fill.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1000.0 + ts.tv_nsec as f64 / 1e6
}

/// Generous stand-in for `struct statfs`; `f_type` is its first word.
#[repr(C)]
struct StatFs {
    f_type: i64,
    rest: [u64; 31],
}

/// Reset this process's peak resident set to its current size (Linux:
/// `5` to `/proc/self/clear_refs`), so [`peak_rss_mb`] covers only what
/// comes after. Returns whether the kernel took the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type of the directory holding `path` (the store lives
/// there: its fsync cost is part of every served job).
pub fn fs_type(path: &Path) -> String {
    let probe = path
        .ancestors()
        .find(|p| p.exists())
        .unwrap_or(Path::new("."));
    let probe = if probe.as_os_str().is_empty() {
        Path::new(".")
    } else {
        probe
    };
    let Ok(c_path) = CString::new(probe.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    let mut buf = StatFs {
        f_type: 0,
        rest: [0; 31],
    };
    // SAFETY: `c_path` is NUL-terminated and `buf` is larger than the
    // kernel's `struct statfs`.
    let rc = unsafe { statfs(c_path.as_ptr(), &mut buf) };
    if rc != 0 {
        return "unknown".into();
    }
    match buf.f_type as u32 {
        0x0102_1994 => "tmpfs".into(),
        0xEF53 => "ext4".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x6573_5546 => "fuse".into(),
        other => format!("0x{other:x}"),
    }
}
