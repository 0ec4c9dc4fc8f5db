//! One query in flight needs one core.
//!
//! A one-connection closed loop never has two threads runnable for long,
//! yet left alone the kernel spreads the client, the server's reader and
//! its two pool workers over both cores, and how it happens to spread
//! them decides whether a cached answer takes 740 µs or 1,000 µs — for
//! minutes on end, with nothing changed. Run on one core the same answer
//! takes 700–745 µs every time. So set-up, and the whole of a
//! one-connection run, is confined to the core it starts on — program
//! threads included, they inherit the mask. Set-up on one core also makes
//! the order in which the 100,000-tuple shipment is built, copied and
//! freed the same every time, and with it the peak RSS. `shared_mix`
//! gets every core back before it is timed: contention between cores is
//! what it measures.

use std::sync::OnceLock;

/// `cpu_set_t`: 1,024 bits.
type CpuSet = [u64; 16];
const SET_BYTES: usize = std::mem::size_of::<CpuSet>();

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The cores the process was allowed before anything was pinned.
static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();

fn allowed() -> Option<CpuSet> {
    *ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live `cpu_set_t` of the size passed; pid 0
        // names the calling thread.
        (unsafe { sched_getaffinity(0, SET_BYTES, &mut set) } == 0).then_some(set)
    })
}

fn set_affinity(tid: i32, set: &CpuSet) -> bool {
    // SAFETY: `set` is a live, initialised `cpu_set_t` of the size passed.
    unsafe { sched_setaffinity(tid, SET_BYTES, set) == 0 }
}

/// Confine the calling thread, and every thread it later spawns, to the
/// core it is on now. Returns whether the kernel agreed.
pub fn to_current_core() -> bool {
    if allowed().is_none() {
        return false;
    }
    // SAFETY: no arguments, no memory touched.
    let cpu = unsafe { sched_getcpu() };
    let mut set: CpuSet = [0; 16];
    match usize::try_from(cpu)
        .ok()
        .and_then(|c| Some((set.get_mut(c / 64)?, c % 64)))
    {
        Some((word, bit)) => *word = 1 << bit,
        None => return false,
    }
    set_affinity(0, &set)
}

/// Give every thread of the process its original cores back.
pub fn release() -> bool {
    let Some(set) = allowed() else {
        return false;
    };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut released = true;
    for tid in tasks.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        // A thread that exited between the listing and the call needs no
        // cores.
        let gone = || !std::path::Path::new(&format!("/proc/self/task/{tid}")).exists();
        released &= set_affinity(tid, &set) || gone();
    }
    released
}
