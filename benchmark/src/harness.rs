//! The measuring instrument: host clock, calibration spin and the
//! benchmark's own span log (one [`Harness`]), the metric sheet of one
//! run, and the process's peak resident set.

use crate::json::Json;
use crate::stats::floor;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's thread CPU clock and /proc/self/status");

/// CPU time this thread has consumed, in nanoseconds. This is the
/// benchmark's host clock: every workload is single-threaded and never
/// sleeps, so on a quiet host it advances with the wall clock, and on a
/// shared one it leaves out the time the hypervisor gave to someone else
/// (a 7 ms spin read 7–670 ms on the wall clock of the container this was
/// written in, 6.7–22 ms on this clock).
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`;
    // `ts` is a live, exclusively borrowed value with that layout on
    // 64-bit Linux (two 64-bit fields), which the `compile_error!` above
    // restricts this crate to.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A bracketing spin slower than this multiple of the run's fastest spin
/// marks the samples beside it as disturbed.
const DISTURBED_SPIN_RATIO: f64 = 1.15;

/// The calibration spin's table size and its iterations; sized so one
/// spin is ≈ 10 ms.
const SPIN_KEYS: u64 = 20_000;
const SPIN_ITERS: u64 = 190_000;
/// What the spin takes on the nominal host. Every host time the
/// benchmark reports is the floor of its samples scaled by
/// `NOMINAL_SPIN_NS / floor of the spins around them`: what the work
/// would have cost had the host run the spin in exactly this time. That
/// makes each host time a same-run ratio of two floors over fixed work,
/// which a busy neighbour or a slower machine moves far less than it
/// moves raw nanoseconds.
const NOMINAL_SPIN_NS: f64 = 10e6;
/// Samples shorter than this share one pair of bracketing spins.
const BATCH_NS: f64 = 50e6;
/// The fewest spins a pass is scaled by. A spin that a neighbour
/// interrupts reads up to twice its floor, and the floor of two spins is
/// the slower of them: a 50 ms pass bracketed by just two spins had its
/// figure move by a factor of 1.9 from process to process.
const MIN_SPINS: usize = 5;

/// One closed span of the benchmark's own activity. `parent` indexes the
/// span log; all spans of one process share the workload as identifier.
/// Start and end are wall-clock (where the span sits on the timeline),
/// `cpu_ns` is what the span cost on the benchmark's host clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
}

/// Samples taken between calibration spins.
pub struct Calibrated {
    /// Raw host ns of each sample.
    pub raw: Vec<f64>,
    /// Raw host ns of every spin that ran.
    pub spins: Vec<f64>,
    /// Samples with a disturbed spin on either side.
    pub disturbed: usize,
}

impl Calibrated {
    /// What turns this pass's raw ns into calibrated ns.
    pub fn scale(&self) -> f64 {
        NOMINAL_SPIN_NS / floor(&self.spins)
    }

    /// The calibrated cost of one sample: the floor of the samples over
    /// the floor of the spins.
    pub fn floor_ns(&self) -> f64 {
        floor(&self.raw) * self.scale()
    }
}

/// The instrument every pass measures with: the in-memory span log
/// (written out once when the run ends) and the calibration spin.
pub struct Harness {
    epoch: Instant,
    log: Vec<Span>,
    open: Vec<usize>,
    /// The calibration spin's lookup table.
    spin_table: SpinTable,
}

/// Hashed with fixed keys, so that every process lays the table out alike.
type SpinTable = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Spreads the spin's key indices over the 64-bit key space.
fn spin_key(i: u64) -> u64 {
    (i % SPIN_KEYS).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Harness {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            log: Vec::new(),
            open: Vec::new(),
            spin_table: (0..SPIN_KEYS).map(|i| (spin_key(i), i)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the innermost
    /// open span) and returns `f`'s result with the CPU time it took.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce(&mut Harness) -> R) -> (R, u64) {
        let id = self.log.len();
        let start_ns = self.now_ns();
        self.log.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            cpu_ns: 0,
        });
        self.open.push(id);
        let cpu0 = cpu_ns();
        let r = f(self);
        let cpu = cpu_ns() - cpu0;
        self.open.pop();
        self.log[id].end_ns = self.now_ns();
        self.log[id].cpu_ns = cpu;
        (r, cpu)
    }

    /// [`Spans::timed`] for callers that do not need the duration.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Harness) -> R) -> R {
        self.timed(name, f).0
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, with
    /// the parent span and the workload in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let events = self.log.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("cpu_ns", Json::Num(s.cpu_ns as f64)),
                        ("workload", Json::Str(workload.into())),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("displayTimeUnit", Json::Str("ns".into())),
            ("traceEvents", Json::Arr(events.collect())),
        ])
        .to_line()
    }

    /// The fixed calibration spin: a piece of work written like the
    /// simulator is — hashed lookups in a 20 000-entry table, a formatted
    /// key allocated per iteration, bytes appended to a growing buffer
    /// and scanned. Its duration depends only on the host, so it prices
    /// the host's state around a sample. Returns its raw host ns.
    ///
    /// The issue's spin (integer mixing over a 1 MiB working set) did not
    /// do that job here: over 40 minutes that included two noisy spells,
    /// the raw floors of the seven workloads ranged over 43–102 % of
    /// their median while that spin's floor hardly moved, because
    /// whatever the neighbours do to this container slows branchy,
    /// allocating, call-heavy code and leaves a tight arithmetic loop
    /// alone. Scaled by that spin the workloads' floors still ranged over
    /// 29–87 %; scaled by this one, over 17–45 %, with inter-quartile
    /// spreads of 2–4 % (benchmark/README.md has the table).
    fn spin(&mut self) -> f64 {
        let (_, ns) = self.timed("calib", |h| {
            let mut staged: Vec<u8> = Vec::new();
            let mut acc = 0u64;
            for i in 0..SPIN_ITERS {
                if let Some(v) = h.spin_table.get(&spin_key(i)) {
                    acc = acc.wrapping_add(*v);
                }
                staged.extend_from_slice(format!("key:{:04}", i % 1024).as_bytes());
                if staged.len() > 4096 {
                    acc += staged.iter().filter(|&&b| b == b':').count() as u64;
                    staged.clear();
                }
            }
            black_box(acc);
        });
        ns as f64
    }

    /// Takes samples while `more(samples so far)` holds, with a spin
    /// before the first, after the last, and between any two that are
    /// [`BATCH_NS`] of sampling apart (and more after the last until
    /// [`MIN_SPINS`] have run). `sample` returns the raw host ns
    /// of one sample, or `None` for one that is to be skipped.
    pub fn bracket<E>(
        &mut self,
        mut more: impl FnMut(usize) -> bool,
        mut sample: impl FnMut(&mut Harness) -> Result<Option<f64>, E>,
    ) -> Result<Calibrated, E> {
        let mut spins = vec![self.spin()];
        // Each raw sample with the index of the spin before it.
        let mut raw: Vec<(f64, usize)> = Vec::new();
        let mut since_spin = 0.0;
        while more(raw.len()) {
            match sample(self)? {
                Some(ns) => {
                    raw.push((ns, spins.len() - 1));
                    since_spin += ns;
                }
                None => since_spin = BATCH_NS,
            }
            if since_spin >= BATCH_NS {
                spins.push(self.spin());
                since_spin = 0.0;
            }
        }
        while since_spin > 0.0 || spins.len() < MIN_SPINS {
            spins.push(self.spin());
            since_spin = 0.0;
        }
        let fastest = spins.iter().copied().fold(f64::INFINITY, f64::min);
        let slow = |s: f64| s > DISTURBED_SPIN_RATIO * fastest;
        Ok(Calibrated {
            raw: raw.iter().map(|&(ns, _)| ns).collect(),
            disturbed: raw
                .iter()
                .filter(|&&(_, b)| slow(spins[b]) || slow(spins[b + 1]))
                .count(),
            spins,
        })
    }
}

/// The metric sheet of one run: values with their units, plus the names
/// this workload has no instrument for (absent, never reported as zero in
/// the benchmark's own report).
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
    pub absent: BTreeSet<String>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn absent(&mut self, name: impl Into<String>) {
        self.absent.insert(name.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.values.iter().map(|(name, &(value, unit))| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        }))
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A deterministic byte stream for payloads (xorshift64*), so `--seed`
/// fixes every input byte the layer loops touch.
pub fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = mix_seed(seed);
    (0..len)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
        })
        .collect()
}

/// Spreads a small `--seed` over all 64 bits (SplitMix64 finaliser) and
/// forces it odd: `gen_arrivals` ORs its seed with 1, so seeds 2 and 3
/// would otherwise draw the same arrival schedule.
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut h = Harness::new();
        h.scope("outer", |h| {
            h.scope("inner", |_| {});
        });
        assert_eq!(h.log.len(), 2);
        assert_eq!(h.log[1].parent, Some(0));
        assert!(h.log[0].end_ns >= h.log[1].end_ns);
        let parsed = Json::parse(&h.to_chrome_json("w")).expect("valid JSON");
        assert_eq!(parsed.get("traceEvents").map(|e| e.as_arr().len()), Some(2));
    }

    #[test]
    fn short_samples_share_spins_and_long_ones_get_their_own() {
        let mut h = Harness::new();
        let short = h
            .bracket(|n| n < 10, |_| Ok::<_, ()>(Some(BATCH_NS / 4.0)))
            .expect("samples");
        // One before, one after every fourth, one after the last, one to
        // make up the minimum.
        assert_eq!((short.raw.len(), short.spins.len()), (10, MIN_SPINS));
        let mut turn = 0;
        let long = h
            .bracket(
                |n| n < 3,
                |_| {
                    turn += 1;
                    Ok::<_, ()>((turn != 2).then_some(2.0 * BATCH_NS))
                },
            )
            .expect("samples");
        // Four turns (one skipped), a spin after each, one before the first.
        assert_eq!((long.raw.len(), long.spins.len()), (3, 5));
        // The samples' floor is scaled by the nominal spin over the spins' floor.
        let expected = 2.0 * BATCH_NS * NOMINAL_SPIN_NS / floor(&long.spins);
        assert!((long.floor_ns() - expected).abs() < 1.0);
    }

    #[test]
    fn distinct_seeds_give_distinct_odd_streams() {
        let seeds: BTreeSet<u64> = (0..64).map(mix_seed).collect();
        assert_eq!(seeds.len(), 64);
        assert!(seeds.iter().all(|s| s & 1 == 1));
        assert_eq!(seeded_bytes(7, 32), seeded_bytes(7, 32));
        assert_ne!(seeded_bytes(7, 32), seeded_bytes(8, 32));
    }
}
