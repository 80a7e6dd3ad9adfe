//! Host fingerprint, process CPU time and output digests.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host fingerprint printed with every result: results from
/// different fingerprints must never be compared.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout's own `.git` counts, never an enclosing repository.
    let git_rev = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let mut features = Vec::new();
    if cfg!(target_feature = "avx2") {
        features.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        features.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        features.push("avx512f");
    }
    format!(
        "{{\"cores\":{},\"cpu\":\"{}\",\"rustflags\":\"{}\",\"target_features\":\"{}\",\"git_rev\":\"{}\",\"source_digest\":\"{:016x}\"}}",
        cores(),
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTFLAGS").replace('"', "'"),
        features.join(","),
        git_rev,
        source_digest()
    )
}

/// FNV-1a over every `.rs` file under `crates/` plus `Cargo.lock`, in
/// path order: identifies the source when the checkout is not a git
/// repository.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    files.push("Cargo.lock".into());
    let mut h = Fnv::new();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

/// Process CPU seconds (user + system, all threads) from `getrusage`.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on Linux
    // (two `struct timeval` of two `long`s, then fourteen `long`s), and
    // `u` is a valid, exclusively borrowed instance for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return f64::NAN;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Bitwise digest of a forward's outputs: every shape and every f32
/// bit pattern, in output order.
pub fn digest(outputs: &[rtoss_tensor::Tensor]) -> u64 {
    let mut h = Fnv::new();
    for t in outputs {
        for &d in t.shape() {
            h.bytes(&(d as u64).to_le_bytes());
        }
        for v in t.as_slice() {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

/// Formats a metric map entry list as the benchmark's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push(',');
        }
        // A non-finite value is written as null (and the run is
        // reported incorrect by the caller).
        let v = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(m, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds() > a, "{x}");
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = rtoss_tensor::Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = rtoss_tensor::Tensor::from_vec(vec![1.0, 2.0000002], &[2]).unwrap();
        let c = rtoss_tensor::Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        assert_ne!(digest(std::slice::from_ref(&a)), digest(&[b]));
        assert_ne!(digest(std::slice::from_ref(&a)), digest(&[c]));
        assert_eq!(digest(std::slice::from_ref(&a)), digest(&[a]));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
