//! Measurement helpers: process CPU time and peak memory, the fastest-repeat
//! sampler, order statistics, a minimal JSON writer and the run environment.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// CPU time of the whole process (every thread, exited ones included) in
/// seconds, at nanosecond resolution (`CLOCK_PROCESS_CPUTIME_ID`), so it can
/// be read around single calls.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock id
    // is one Linux defines; the call writes nothing else.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A wall-clock and process-CPU reading taken around a call.
#[derive(Clone, Copy)]
pub struct Stamp {
    pub at: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            cpu: process_cpu_seconds(),
        }
    }

    /// `(wall, cpu)` seconds from `earlier` to this reading.
    pub fn since(&self, earlier: &Stamp) -> (f64, f64) {
        ((self.at - earlier.at).as_secs_f64(), self.cpu - earlier.cpu)
    }
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Linear-interpolation quantile (the `numpy` default) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Per-call samples of passes that repeat the same calls on the same state.
///
/// Other tenants of the machine only ever add time to a call, and on a
/// shared box they add a lot (identical passes were seen to differ by 2×).
/// So each call's cost is its fastest repeat: the minimum, per call
/// position, over the passes.  Throughput, CPU cost and latency percentiles
/// are computed from those best costs.
#[derive(Default)]
pub struct Repeats {
    ticks: Vec<usize>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    passes: usize,
    /// Total wall time of each pass, for the results file.
    pass_walls: Vec<f64>,
    current: f64,
}

impl Repeats {
    /// Records the call at `position` of the current pass.
    pub fn call(&mut self, position: usize, ticks: usize, (wall, cpu): (f64, f64)) {
        if position == self.wall.len() {
            self.ticks.push(ticks);
            self.wall.push(wall);
            self.cpu.push(cpu);
        } else {
            self.wall[position] = self.wall[position].min(wall);
            self.cpu[position] = self.cpu[position].min(cpu);
        }
        self.current += wall;
    }

    /// Runs `f` as the call at `position` of the current pass, timing it.
    pub fn time<T>(&mut self, position: usize, ticks: usize, f: impl FnOnce() -> T) -> T {
        let start = Stamp::now();
        let value = f();
        self.call(position, ticks, Stamp::now().since(&start));
        value
    }

    pub fn end_pass(&mut self) {
        self.passes += 1;
        self.pass_walls.push(std::mem::take(&mut self.current));
    }

    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Ticks per pass.
    pub fn ticks(&self) -> usize {
        self.ticks.iter().sum()
    }

    /// Seconds of a pass made of the best costs: each call position's
    /// fastest repeat, summed.
    pub fn best_seconds(&self) -> f64 {
        self.wall.iter().sum()
    }

    /// Ticks per second of the best costs.
    pub fn ticks_per_s(&self) -> f64 {
        ratio(self.ticks() as f64, self.best_seconds())
    }

    /// Microseconds of process CPU per tick of the best costs.
    pub fn cpu_us_per_tick(&self) -> f64 {
        ratio(self.cpu.iter().sum::<f64>() * 1e6, self.ticks() as f64)
    }

    /// The median best call latency, and the highest percentile that still
    /// has ten call positions beyond it (p99 from 1 000 positions on).
    pub fn latency_quantiles(&self) -> (f64, f64) {
        let tail = (1.0 - 10.0 / self.wall.len() as f64).clamp(0.5, 0.99);
        (quantile(&self.wall, 0.5), quantile(&self.wall, tail))
    }

    /// Total wall time of each whole pass, for the results file.
    pub fn pass_seconds(&self) -> &[f64] {
        &self.pass_walls
    }

    /// Ticks per second of each whole pass, for the results file.
    pub fn pass_rates(&self) -> Vec<f64> {
        let ticks = self.ticks() as f64;
        self.pass_walls.iter().map(|w| ratio(ticks, *w)).collect()
    }
}

/// The fastest of repeated samples.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Root-mean-square error of `(imputed, truth)` pairs.
pub fn rmse(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let sum: f64 = pairs.iter().map(|(a, b)| (a - b) * (a - b)).sum();
    (sum / pairs.len() as f64).sqrt()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A JSON value, just enough for results files.
pub enum Json {
    Null,
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            // `{}` prints the shortest representation that round-trips, so
            // every measured digit survives.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(".0");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Keeps `git` from looking for a repository above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let output = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (longest mount-point prefix wins).
fn filesystem_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".into())
}

/// What a results file records about where it was measured: WAL and
/// snapshot costs depend on the disk, fleet timings on the core count.
pub fn environment(durability_dir: &Path, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("durability_fs", Json::str(filesystem_type(durability_dir))),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("commit", Json::str(commit)),
        ("seed", Json::Int(seed as i64)),
    ])
}

/// A scratch directory for one run, removed again when dropped.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    pub fn create(root: &Path, name: &str) -> std::io::Result<RunDir> {
        let path = root.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copies the regular files of a flat directory (a checkpoint directory).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The WAL files of a checkpoint directory.
pub fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "wal"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}
