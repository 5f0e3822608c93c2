//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Recorder::call`], which times it and adds the time to the
//! pass's per-layer totals. With tracing on it also keeps a span (name,
//! start, end, parent) in memory; [`Recorder::spans_json`] writes the
//! spans out once the run ends. Each pass is one span tree: a root span
//! named after the workload with one child per layer call.

use std::collections::BTreeMap;
use std::time::Instant;

use isa_obs::Json;

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span (`None` for a pass root).
    parent: Option<usize>,
}

pub struct Recorder {
    traced: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    /// Seconds per layer call name since the last [`Recorder::take_totals`].
    totals: BTreeMap<&'static str, f64>,
    /// Every layer call in order since the last [`Recorder::take_calls`].
    calls: Vec<(&'static str, f64)>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            totals: BTreeMap::new(),
            calls: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a pass's root span (a no-op when tracing is off).
    pub fn begin_pass(&mut self, name: &'static str) {
        if self.traced {
            let t = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: t,
                end_ns: t,
                parent: None,
            });
            self.root = Some(self.spans.len() - 1);
        }
    }

    /// Close the open pass root.
    pub fn end_pass(&mut self) {
        if let Some(r) = self.root.take() {
            self.spans[r].end_ns = self.now_ns();
        }
    }

    /// Time one call into a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let start_ns = if self.traced { self.now_ns() } else { 0 };
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        *self.totals.entry(name).or_insert(0.0) += secs;
        self.calls.push((name, secs));
        if self.traced {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.root,
            });
        }
        out
    }

    /// Per-layer seconds accumulated since the last call, then reset.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.totals)
    }

    /// Layer calls (name, seconds) in order since the last call, then reset.
    pub fn take_calls(&mut self) -> Vec<(&'static str, f64)> {
        std::mem::take(&mut self.calls)
    }

    /// Self time per span name, summed over every span: a span's
    /// duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration of the root spans named `name`, in seconds.
    pub fn root_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn spans_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
            ])
        }))
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of integer samples.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An upper bound on guest MIPS this host could physically reach: the
/// fastest core's clock times a generous four host instructions
/// retired per cycle, at one host instruction per guest instruction.
pub fn mips_ceiling() -> f64 {
    let mhz = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .filter(|l| l.starts_with("cpu MHz"))
                .filter_map(|l| l.split(':').nth(1)?.trim().parse::<f64>().ok())
                .reduce(f64::max)
        })
        .unwrap_or(6000.0);
    mhz * 4.0
}
