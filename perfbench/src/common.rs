//! Shared pieces of every workload: the seeded generator, sample
//! statistics, the span recorder, and the result record `main`
//! prints.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a, the hash the repository itself pins outputs with.
pub fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Linear-interpolated quantile (the "type 7" definition numpy uses).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds this host takes for a fixed amount of hashing (median
/// of five): printed beside every run so a slow host shows as such
/// rather than as a slow program.
pub fn host_probe_ms() -> f64 {
    let data = vec![0x5au8; 1 << 20];
    let mut ms = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut h = FNV_OFFSET;
        for _ in 0..8 {
            h = fnv(h, std::hint::black_box(&data));
        }
        std::hint::black_box(h);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// Run `f` `times` times and return each wall time in seconds with the
/// last result.
pub fn time_reps<T>(times: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t = Instant::now();
        let v = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (secs, last.expect("at least one set-up"))
}

/// Run `f` `times` times and return the median wall time in seconds
/// with the last result: set-up is repeated so a single slow start
/// does not read as a regression.
pub fn timed_setup<T>(times: usize, f: impl FnMut() -> T) -> (f64, T) {
    let (secs, v) = time_reps(times, f);
    (median(&secs), v)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the number (1 for a single measurement).
    pub samples: usize,
    /// Measured by a traced side pass, not on the workload's own inputs.
    pub side: bool,
}

/// One correctness check and its outcome.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Metrics shown to the reader but not part of the JSON record.
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Run validity (open-loop generator kept up); invalid runs are
    /// reported, not timed.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            side: false,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            side: false,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Latency percentiles in the shape every workload reports.
pub fn latency_metrics(out: &mut Outcome, lat_ms: &[f64]) {
    out.metric("latency_ms_p50", quantile(lat_ms, 0.5), "ms", lat_ms.len());
    out.metric("latency_ms_p90", quantile(lat_ms, 0.9), "ms", lat_ms.len());
}

/// One recorded span: a call into a layer, timed from the benchmark's
/// own code.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: usize,
}

/// In-memory span recorder. When off, [`Tracer::span`] is a plain call,
/// so the traced and untraced runs execute the same code.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    thread: usize,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Deterministic counts recorded at the same boundaries.
    pub counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: usize) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Time `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
            thread: self.thread,
        });
        self.stack.push(idx);
        let v = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        v
    }

    pub fn count(&mut self, name: &str, by: f64) {
        if self.on {
            *self.counts.entry(name.to_string()).or_insert(0.0) += by;
        }
    }

    /// Take another thread's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
    }

    /// Per span name: (calls, total ns, self ns). Self time is the span's
    /// duration minus the part its direct children cover.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.calls += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"thread\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.thread
            )?;
        }
        w.flush()
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Cost of one span on this host: the estimate behind the reported
/// tracing overhead (spans × cost ÷ traced wall time).
pub fn span_cost_ns() -> f64 {
    let mut t = Tracer::new(true, Instant::now(), 0);
    let n = 20_000;
    let start = Instant::now();
    for i in 0..n {
        t.span("calibrate", i, |_| std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}
