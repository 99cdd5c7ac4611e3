//! Measurement helpers: process memory from `/proc/self/status`, wall-clock
//! timing, quantiles, a content fingerprint, and the one-line JSON record a
//! pass prints. Nothing here calls into the program under test.

use std::time::Instant;

/// Resident-set figures of this process, in bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rss {
    /// `VmRSS`: resident now.
    pub now: u64,
    /// `VmHWM`: the peak resident set so far.
    pub peak: u64,
}

/// Reads `VmRSS` and `VmHWM` of this process. Both read 0 where the
/// kernel offers no `/proc/self/status`.
pub fn rss() -> Rss {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    Rss {
        now: field("VmRSS:"),
        peak: field("VmHWM:"),
    }
}

/// Bytes to MiB.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// CPU seconds this process has used so far, all its threads included
/// (finished ones too): `CLOCK_PROCESS_CPUTIME_ID`. Unlike wall time it
/// does not count time the host took the CPU away from the process
/// (steal), which on a shared VM moves wall times by tens of percent.
/// Reads 0 where the clock is unavailable.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    // Linux's id of the per-process CPU-time clock.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for) for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` and returns its result with the elapsed `(wall, CPU)` seconds.
pub fn timed_cpu<R>(f: impl FnOnce() -> R) -> (R, (f64, f64)) {
    let c0 = cpu_s();
    let (r, wall) = timed(f);
    (r, (wall, cpu_s() - c0))
}

/// Seconds from `a` to `b`.
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: a compact fingerprint for
/// comparing simulated outputs across passes.
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A JSON value of the pass record.
#[derive(Clone, Debug)]
pub enum Val {
    /// A measured or simulated number.
    Num(f64),
    /// A list of samples.
    List(Vec<f64>),
    /// Text (fingerprints, names).
    Str(String),
}

impl From<f64> for Val {
    fn from(x: f64) -> Val {
        Val::Num(x)
    }
}

impl From<u64> for Val {
    fn from(x: u64) -> Val {
        Val::Num(x as f64)
    }
}

impl From<usize> for Val {
    fn from(x: usize) -> Val {
        Val::Num(x as f64)
    }
}

impl From<Vec<f64>> for Val {
    fn from(x: Vec<f64>) -> Val {
        Val::List(x)
    }
}

impl From<String> for Val {
    fn from(x: String) -> Val {
        Val::Str(x)
    }
}

/// An insertion-ordered JSON object of [`Val`]s.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(String, Val)>);

impl Obj {
    /// Sets `key` (keys are written once; a repeated key is a bug).
    pub fn set(&mut self, key: &str, v: impl Into<Val>) {
        assert!(
            self.0.iter().all(|(k, _)| k != key),
            "key {key} written twice"
        );
        self.0.push((key.to_owned(), v.into()));
    }

    /// The number stored under `key` (0 when absent or not a number).
    pub fn num(&self, key: &str) -> f64 {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Num(x))) => *x,
            _ => 0.0,
        }
    }

    /// The object as JSON text.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), val_json(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One output check: its name, whether it held, and what was seen.
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name.
    pub name: String,
    /// Whether the check held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// The checks of one pass.
#[derive(Clone, Debug, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    /// Records a check.
    pub fn add(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.0.push(Check {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }

    /// The checks as a JSON list of `[name, ok, detail]` triples.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|c| format!("[{}, {}, {}]", quote(&c.name), c.ok, quote(&c.detail)))
            .collect();
        format!("[{}]", items.join(", "))
    }
}

fn num_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn val_json(v: &Val) -> String {
    match v {
        Val::Num(x) => num_json(*x),
        Val::List(xs) => {
            let items: Vec<String> = xs.iter().map(|x| num_json(*x)).collect();
            format!("[{}]", items.join(", "))
        }
        Val::Str(s) => quote(s),
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_escapes_and_orders() {
        let mut o = Obj::default();
        o.set("b", 1.5);
        o.set("a", "x\"y".to_owned());
        o.set("l", vec![1.0, 2.0]);
        assert_eq!(o.to_json(), r#"{"b": 1.5, "a": "x\"y", "l": [1.0, 2.0]}"#);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(x != 1 && cpu_s() > c0);
    }

    #[test]
    fn rss_reads_this_process() {
        let r = rss();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(r.now > 0 && r.peak >= r.now);
        }
    }
}
