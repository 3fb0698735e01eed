//! The experiment drivers: one function per table/figure in the paper.
//!
//! Each returns structured results for the `reproduce` binary, which
//! prints them as paper-style tables. `quick` variants shrink transfer
//! sizes for CI.

use flexos::build::{BackendChoice, Hypervisor};
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_apps::redis::{run_redis, Mix, RedisParams, RedisResult};
use flexos_apps::{CompartmentModel, SchedKind};
use flexos_kernel::exec::{Executor, KernelHal, Step};
use flexos_kernel::sched::{CoopScheduler, RunQueue, ThreadId, VerifiedScheduler};
use flexos_machine::{cycles_to_nanos, Machine};

/// Bytes transferred per iperf point.
pub fn iperf_bytes(quick: bool) -> u64 {
    if quick {
        256 * 1024
    } else {
        2 * 1024 * 1024
    }
}

/// Requests per Redis point.
pub fn redis_ops(quick: bool) -> u64 {
    if quick {
        300
    } else {
        2_000
    }
}

// --- Figure 3 -----------------------------------------------------------------

/// One Figure 3 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig3Config {
    /// No isolation, KVM.
    KvmBaseline,
    /// Single compartment, SH on the network stack only, KVM.
    ShKvm,
    /// MPK shared-stack gate between {NW} and {rest}, KVM.
    MpkSharedKvm,
    /// MPK switched-stack gate, KVM.
    MpkSwitchedKvm,
    /// No isolation, Xen.
    XenBaseline,
    /// One VM per compartment (EPT RPC), Xen.
    VmRpcXen,
}

impl Fig3Config {
    /// All configurations, legend order.
    pub const ALL: [Fig3Config; 6] = [
        Fig3Config::KvmBaseline,
        Fig3Config::ShKvm,
        Fig3Config::MpkSharedKvm,
        Fig3Config::MpkSwitchedKvm,
        Fig3Config::XenBaseline,
        Fig3Config::VmRpcXen,
    ];

    /// The figure's legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig3Config::KvmBaseline => "KVM Baseline",
            Fig3Config::ShKvm => "SH (KVM)",
            Fig3Config::MpkSharedKvm => "MPK-Sha. (KVM)",
            Fig3Config::MpkSwitchedKvm => "MPK-Sw. (KVM)",
            Fig3Config::XenBaseline => "Xen Baseline",
            Fig3Config::VmRpcXen => "VM RPC (Xen)",
        }
    }

    /// Instantiates the iperf parameters for this configuration.
    pub fn params(self, recv_buf: u64, total_bytes: u64) -> IperfParams {
        let mut p = IperfParams {
            recv_buf,
            total_bytes,
            ..IperfParams::default()
        };
        match self {
            Fig3Config::KvmBaseline => {}
            Fig3Config::ShKvm => p.sh_on = vec!["lwip".into()],
            Fig3Config::MpkSharedKvm => {
                p.model = CompartmentModel::NwOnly;
                p.backend = BackendChoice::MpkShared;
            }
            Fig3Config::MpkSwitchedKvm => {
                p.model = CompartmentModel::NwOnly;
                p.backend = BackendChoice::MpkSwitched;
            }
            Fig3Config::XenBaseline => p.hypervisor = Hypervisor::Xen,
            Fig3Config::VmRpcXen => {
                p.model = CompartmentModel::NwOnly;
                p.backend = BackendChoice::VmRpc;
                p.hypervisor = Hypervisor::Xen;
            }
        }
        p
    }
}

/// The Figure 3 x-axis (bytes passed to `recv`, 2^6 … 2^16).
pub fn fig3_buffer_sizes(quick: bool) -> Vec<u64> {
    if quick {
        vec![64, 1024, 16 * 1024]
    } else {
        vec![64, 256, 1024, 4096, 16 * 1024, 64 * 1024]
    }
}

/// One Figure 3 data point.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Configuration.
    pub config: Fig3Config,
    /// recv buffer size.
    pub recv_buf: u64,
    /// Measured server-side throughput.
    pub mbps: f64,
}

/// Runs Figure 3: iperf throughput vs recv-buffer size for all six
/// configurations.
pub fn fig3(quick: bool) -> Vec<Fig3Point> {
    let mut out = Vec::new();
    for config in Fig3Config::ALL {
        for &recv_buf in &fig3_buffer_sizes(quick) {
            let r = run_iperf(&config.params(recv_buf, iperf_bytes(quick)));
            out.push(Fig3Point {
                config,
                recv_buf,
                mbps: r.mbps,
            });
        }
    }
    out
}

// --- Table 1 -------------------------------------------------------------------

/// The components Table 1 toggles SH on.
pub const TABLE1_COMPONENTS: [(&str, &[&str]); 4] = [
    ("Scheduler", &["uksched"]),
    ("Network stack", &["lwip"]),
    ("LibC", &["libc"]),
    ("Rest of the system", &["iperf", "ukalloc", "uknetdev"]),
];

/// Every library in the iperf image.
pub const ALL_LIBS: [&str; 6] = ["iperf", "libc", "ukalloc", "uknetdev", "lwip", "uksched"];

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Component name ("Scheduler", …, "Entire system").
    pub component: String,
    /// Throughput with SH on everything *but* this component.
    pub all_but_c_mbps: f64,
    /// Throughput with SH on this component *only*.
    pub c_only_mbps: f64,
}

/// Table 1 results plus the unhardened baseline.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The baseline (no SH anywhere).
    pub baseline_mbps: f64,
    /// Throughput with SH on the entire system.
    pub all_sh_mbps: f64,
    /// Per-component rows.
    pub rows: Vec<Table1Row>,
}

/// Runs Table 1: iperf with SH at micro-library granularity.
pub fn table1(quick: bool) -> Table1 {
    let recv_buf = 8 * 1024;
    let total = iperf_bytes(quick);
    let run = |sh_on: Vec<String>| {
        run_iperf(&IperfParams {
            recv_buf,
            total_bytes: total,
            sh_on,
            ..IperfParams::default()
        })
        .mbps
    };
    let baseline = run(Vec::new());
    let all = run(ALL_LIBS.iter().map(|s| s.to_string()).collect());
    let mut rows = Vec::new();
    for (component, libs) in TABLE1_COMPONENTS {
        let only: Vec<String> = libs.iter().map(|s| s.to_string()).collect();
        let all_but: Vec<String> = ALL_LIBS
            .iter()
            .filter(|l| !libs.contains(l))
            .map(|s| s.to_string())
            .collect();
        rows.push(Table1Row {
            component: component.into(),
            all_but_c_mbps: run(all_but),
            c_only_mbps: run(only),
        });
    }
    Table1 {
        baseline_mbps: baseline,
        all_sh_mbps: all,
        rows,
    }
}

// --- Figure 4 --------------------------------------------------------------------

/// One Figure 4 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Config {
    /// No hardening, plain scheduler.
    NoSh,
    /// SH on the network stack, single global allocator.
    ShGlobalAlloc,
    /// SH on the network stack, dedicated allocator for the stack.
    ShLocalAlloc,
    /// No hardening, verified scheduler.
    VerifiedSched,
}

impl Fig4Config {
    /// All configurations, legend order.
    pub const ALL: [Fig4Config; 4] = [
        Fig4Config::NoSh,
        Fig4Config::ShGlobalAlloc,
        Fig4Config::ShLocalAlloc,
        Fig4Config::VerifiedSched,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig4Config::NoSh => "No SH",
            Fig4Config::ShGlobalAlloc => "SH global alloc",
            Fig4Config::ShLocalAlloc => "SH local alloc",
            Fig4Config::VerifiedSched => "Verified Sched",
        }
    }

    /// Redis parameters for this configuration.
    pub fn params(self, mix: Mix, payload: usize, ops: u64) -> RedisParams {
        let mut p = RedisParams {
            mix,
            payload,
            ops,
            ..RedisParams::default()
        };
        match self {
            Fig4Config::NoSh => {}
            Fig4Config::ShGlobalAlloc => {
                p.model = CompartmentModel::NwOnly;
                p.backend = BackendChoice::None;
                p.sh_on = vec!["lwip".into()];
                p.dedicated_allocators = false;
            }
            Fig4Config::ShLocalAlloc => {
                p.model = CompartmentModel::NwOnly;
                p.backend = BackendChoice::None;
                p.sh_on = vec!["lwip".into()];
                p.dedicated_allocators = true;
            }
            Fig4Config::VerifiedSched => p.sched = SchedKind::Verified,
        }
        p
    }
}

/// One Figure 4 data point.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Configuration.
    pub config: Fig4Config,
    /// SET or GET.
    pub mix: Mix,
    /// Payload bytes.
    pub payload: usize,
    /// Mega-requests per second.
    pub mreq_per_s: f64,
}

/// The Figure 4/5 payload sizes.
pub const REDIS_PAYLOADS: [usize; 3] = [5, 50, 500];

/// Runs Redis, degrading a failed run to a zero-throughput point (with a
/// warning on stderr) instead of aborting the whole figure.
fn run_redis_or_zero(params: &RedisParams) -> RedisResult {
    run_redis(params).unwrap_or_else(|e| {
        eprintln!("warning: redis run failed ({e}); recording zero-throughput point");
        RedisResult {
            ops: 0,
            cycles: 0,
            mreq_per_s: 0.0,
            crossings: 0,
        }
    })
}

/// Runs Figure 4: Redis throughput under SH configurations and the
/// verified scheduler.
pub fn fig4(quick: bool) -> Vec<Fig4Point> {
    let payloads: &[usize] = if quick { &[50] } else { &REDIS_PAYLOADS };
    let mut out = Vec::new();
    for config in Fig4Config::ALL {
        for &payload in payloads {
            for mix in [Mix::Set, Mix::Get] {
                let r = run_redis_or_zero(&config.params(mix, payload, redis_ops(quick)));
                out.push(Fig4Point {
                    config,
                    mix,
                    payload,
                    mreq_per_s: r.mreq_per_s,
                });
            }
        }
    }
    out
}

// --- Figure 5 ----------------------------------------------------------------------

/// One Figure 5 data point.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Compartment model.
    pub model: CompartmentModel,
    /// Shared or switched stacks (`None` for the no-isolation bar).
    pub backend: BackendChoice,
    /// Payload bytes.
    pub payload: usize,
    /// Mega-requests per second (GET).
    pub mreq_per_s: f64,
}

/// Runs Figure 5: Redis with MPK isolation across compartment models.
pub fn fig5(quick: bool) -> Vec<Fig5Point> {
    let payloads: &[usize] = if quick { &[50] } else { &REDIS_PAYLOADS };
    let mut out = Vec::new();
    for &payload in payloads {
        // Baseline bar.
        let r = run_redis_or_zero(&RedisParams {
            payload,
            mix: Mix::Get,
            ops: redis_ops(quick),
            ..RedisParams::default()
        });
        out.push(Fig5Point {
            model: CompartmentModel::Baseline,
            backend: BackendChoice::None,
            payload,
            mreq_per_s: r.mreq_per_s,
        });
        for model in [
            CompartmentModel::NwOnly,
            CompartmentModel::NwSchedRest,
            CompartmentModel::NwAndSchedRest,
        ] {
            for backend in [BackendChoice::MpkShared, BackendChoice::MpkSwitched] {
                let r = run_redis_or_zero(&RedisParams {
                    model,
                    backend,
                    payload,
                    mix: Mix::Get,
                    ops: redis_ops(quick),
                    ..RedisParams::default()
                });
                out.push(Fig5Point {
                    model,
                    backend,
                    payload,
                    mreq_per_s: r.mreq_per_s,
                });
            }
        }
    }
    out
}

// --- Extension: CHERI backend (heterogeneous hardware, §1) ---------------------------

/// One CHERI-extension data point: iperf throughput for a backend at a
/// given recv-buffer size.
#[derive(Debug, Clone)]
pub struct CheriPoint {
    /// Backend label.
    pub label: &'static str,
    /// recv buffer size.
    pub recv_buf: u64,
    /// Measured server-side throughput.
    pub mbps: f64,
}

/// Runs the CHERI-extension experiment: the same two-compartment iperf
/// image retargeted across direct calls, CHERI capability gates, MPK
/// and VM RPC — the "switch primitives at deployment time" pitch with a
/// future-hardware backend included.
pub fn ext_cheri(quick: bool) -> Vec<CheriPoint> {
    let mut out = Vec::new();
    let backends: [(&'static str, CompartmentModel, BackendChoice); 4] = [
        (
            "No isolation",
            CompartmentModel::Baseline,
            BackendChoice::None,
        ),
        (
            "CHERI (sealed caps)",
            CompartmentModel::NwOnly,
            BackendChoice::Cheri,
        ),
        (
            "MPK (shared stack)",
            CompartmentModel::NwOnly,
            BackendChoice::MpkShared,
        ),
        (
            "VM RPC (EPT)",
            CompartmentModel::NwOnly,
            BackendChoice::VmRpc,
        ),
    ];
    for (label, model, backend) in backends {
        for &recv_buf in &fig3_buffer_sizes(quick) {
            let r = run_iperf(&IperfParams {
                model,
                backend,
                recv_buf,
                total_bytes: iperf_bytes(quick),
                ..IperfParams::default()
            });
            out.push(CheriPoint {
                label,
                recv_buf,
                mbps: r.mbps,
            });
        }
    }
    out
}

// --- Context-switch microbenchmark (§4 "Verified Scheduler") -------------------------

/// Context-switch latencies in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CtxSwitchResult {
    /// The plain C-style scheduler.
    pub coop_ns: f64,
    /// The verified scheduler.
    pub verified_ns: f64,
}

struct BenchCtx {
    machine: Machine,
}

impl KernelHal for BenchCtx {
    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
    fn resume_compartment(
        &mut self,
        _c: flexos::gate::CompartmentId,
    ) -> flexos_machine::Result<()> {
        Ok(())
    }
    fn drain_wakes(&mut self) -> Vec<ThreadId> {
        Vec::new()
    }
}

fn measure_switch(rq: Box<dyn RunQueue>, switches: u64) -> f64 {
    let mut ctx = BenchCtx {
        machine: Machine::with_defaults(),
    };
    let mut exec: Executor<BenchCtx> = Executor::new(rq);
    let mk = |quanta: u64| {
        let mut left = quanta;
        Box::new(move |_ctx: &mut BenchCtx, _tid| {
            left -= 1;
            Ok(if left == 0 { Step::Done } else { Step::Yield })
        })
    };
    // Two threads ping-pong: every quantum is a switch.
    exec.spawn(flexos::gate::CompartmentId(0), mk(switches / 2))
        .expect("spawn");
    exec.spawn(flexos::gate::CompartmentId(0), mk(switches / 2))
        .expect("spawn");
    let before = ctx.machine.clock().cycles();
    let summary = exec.run(&mut ctx, switches * 2).expect("run");
    let cycles = ctx.machine.clock().cycles() - before;
    cycles_to_nanos(cycles / summary.switches.max(1))
}

/// Measures the two schedulers' context-switch latency (the paper:
/// 76.6 ns for C, 218.6 ns for the verified scheduler — a 3x ratio).
pub fn ctx_switch(switches: u64) -> CtxSwitchResult {
    CtxSwitchResult {
        coop_ns: measure_switch(Box::new(CoopScheduler::new()), switches),
        verified_ns: measure_switch(Box::new(VerifiedScheduler::new()), switches),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_switch_reproduces_the_paper_numbers() {
        let r = ctx_switch(1000);
        assert!((r.coop_ns - 76.6).abs() < 2.0, "coop: {} ns", r.coop_ns);
        assert!(
            (r.verified_ns - 218.6).abs() < 3.0,
            "verified: {} ns",
            r.verified_ns
        );
        let ratio = r.verified_ns / r.coop_ns;
        assert!(ratio > 2.5 && ratio < 3.2, "ratio {ratio}");
    }

    #[test]
    fn fig3_quick_produces_all_series() {
        let points = fig3(true);
        assert_eq!(points.len(), 6 * 3);
        // Baseline beats VM RPC at the smallest buffer.
        let base = points
            .iter()
            .find(|p| p.config == Fig3Config::KvmBaseline && p.recv_buf == 64)
            .unwrap();
        let vm = points
            .iter()
            .find(|p| p.config == Fig3Config::VmRpcXen && p.recv_buf == 64)
            .unwrap();
        assert!(base.mbps > vm.mbps);
    }

    #[test]
    fn table1_quick_has_expected_shape() {
        let t = table1(true);
        assert_eq!(t.rows.len(), 4);
        // SH everywhere is the slowest configuration.
        assert!(t.all_sh_mbps < t.baseline_mbps);
        for row in &t.rows {
            assert!(row.c_only_mbps <= t.baseline_mbps * 1.02);
            assert!(row.all_but_c_mbps >= t.all_sh_mbps * 0.9);
        }
        // Scheduler-only SH is nearly free; LibC-only SH hurts most.
        let sched = t.rows.iter().find(|r| r.component == "Scheduler").unwrap();
        let libc = t.rows.iter().find(|r| r.component == "LibC").unwrap();
        assert!(sched.c_only_mbps > libc.c_only_mbps);
    }
}
