//! The iperf workload: a TCP throughput server on FlexOS (paper §4,
//! Figure 3 and Table 1).
//!
//! "we created an iperf server where an untrusted network stack is
//! isolated from the rest of the OS image … At the server side, we vary
//! the size of the buffer passed to recv." (§4)
//!
//! [`run_iperf`] builds the requested image (compartment model ×
//! backend × hypervisor × per-library SH × scheduler), boots it, drives
//! an external client at it, and reports server-side throughput derived
//! purely from the server machine's cycle clock.

use crate::client::{Rig, RunError, SERVER_IP};
use crate::os::{abort, Os};
use crate::profiles::{evaluation_image, harden, CompartmentModel, SchedKind};
use flexos::build::{plan, BackendChoice, Hypervisor};
use flexos_kernel::exec::Step;
use flexos_machine::throughput_mbps;
use flexos_net::nic::{Link, LinkChaos};
use flexos_net::stack::{NetError, SocketId};
use flexos_trace::Label;
use std::cell::Cell;
use std::rc::Rc;

/// The iperf control/data port.
pub const IPERF_PORT: u16 = 5201;

/// Parameters of one iperf run.
#[derive(Debug, Clone)]
pub struct IperfParams {
    /// Compartment model.
    pub model: CompartmentModel,
    /// Isolation backend (ignored for the baseline model).
    pub backend: BackendChoice,
    /// Scheduler implementation.
    pub sched: SchedKind,
    /// Hypervisor underneath.
    pub hypervisor: Hypervisor,
    /// Libraries to run with the GCC SH set.
    pub sh_on: Vec<String>,
    /// Force dedicated (per-compartment) allocators.
    pub dedicated_allocators: bool,
    /// Size of the buffer passed to `recv` (the Figure 3 x-axis).
    pub recv_buf: u64,
    /// Bytes to transfer before stopping.
    pub total_bytes: u64,
    /// Seeded link chaos (loss/corruption/duplication/reordering) to
    /// apply between client and server, with its PRNG seed.
    pub link_chaos: Option<(LinkChaos, u64)>,
}

impl Default for IperfParams {
    fn default() -> Self {
        Self {
            model: CompartmentModel::Baseline,
            backend: BackendChoice::None,
            sched: SchedKind::Coop,
            hypervisor: Hypervisor::Kvm,
            sh_on: Vec::new(),
            dedicated_allocators: false,
            recv_buf: 16 * 1024,
            total_bytes: 4 * 1024 * 1024,
            link_chaos: None,
        }
    }
}

/// The outcome of one iperf run.
#[derive(Debug, Clone, Copy)]
pub struct IperfResult {
    /// Bytes the server received.
    pub bytes: u64,
    /// Server cycles spent during the measured transfer.
    pub cycles: u64,
    /// Server-side throughput in Mb/s.
    pub mbps: f64,
    /// Gate crossings on the server.
    pub crossings: u64,
    /// Context switches on the server.
    pub switches: u64,
    /// Frames the link dropped (0 unless chaos or faults are on).
    pub frames_dropped: u64,
    /// Frames the link corrupted in flight.
    pub frames_corrupted: u64,
}

/// Builds the image config for `params`.
pub fn iperf_image(params: &IperfParams) -> flexos::build::ImageConfig {
    let mut cfg =
        evaluation_image("iperf", params.model, params.backend, params.sched).on(params.hypervisor);
    for name in &params.sh_on {
        cfg = harden(cfg, name);
    }
    cfg.dedicated_allocators |= params.dedicated_allocators;
    cfg
}

/// Runs iperf end to end and reports server-side throughput.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text if the run fails: the image does
/// not plan or boot, or the transfer makes no progress.
pub fn run_iperf(params: &IperfParams) -> IperfResult {
    boot(params)
        .and_then(|(mut rig, csid, received)| {
            transfer(&mut rig, csid, &received, params.total_bytes)
        })
        .unwrap_or_else(|e| panic!("iperf run failed: {e}"))
}

/// Boots the iperf image on a [`Rig`] (listener, receive buffer, server
/// task) and connects the client. Returns the rig, the client's socket
/// and the server task's count of received bytes.
fn boot(params: &IperfParams) -> Result<(Rig, SocketId, Rc<Cell<u64>>), RunError> {
    let image = plan(iperf_image(params)).map_err(RunError::server)?;
    let os = Os::boot(image, SERVER_IP, 1).map_err(RunError::server)?;
    let link = params
        .link_chaos
        .map_or_else(Link::new, |(c, seed)| Link::with_chaos(c, seed));
    let mut rig = Rig::new(os, link)?;
    let os = &mut rig.os;

    // Server application task: accept, then recv in a loop counting
    // bytes, blocking on the socket semaphore when the buffer runs dry.
    let received = Rc::new(Cell::new(0u64));
    let received_task = Rc::clone(&received);
    let listener = os
        .listen(IPERF_PORT)
        .map_err(|e| RunError::server(format!("listen failed: {e}")))?;
    let recv_buf_len = params.recv_buf;
    let app_buf = os
        .alloc_shared_buf(recv_buf_len.max(64))
        .map_err(RunError::server)?;
    let c_app = os.roles.app;
    let burst_backend = os.img.plan.config.backend.tag();
    let burst_vcpu = os.img.gates.ctx(c_app).vcpu.0 as u16;
    let mut sid: Option<SocketId> = None;
    let task = move |os: &mut Os, tid| {
        // Accept phase.
        if sid.is_none() {
            match os.accept(listener) {
                Ok(Some(s)) => sid = Some(s),
                Ok(None) => return Ok(Step::Yield),
                Err(e) => return Err(abort("iperf", format!("accept failed: {e}"))),
            }
        }
        let s = sid.expect("accepted");
        // Receive a bounded burst per quantum by submitting the whole
        // budget onto the app → libc gate ring and flushing once, then
        // yield. The `after` hook charges the per-recv application work
        // (iperf's accounting) between two receives, exactly where the
        // old sequential loop charged it; completions the flush posted
        // before an early stop stay delivered — the async payoff.
        let mut budget = 8usize;
        while budget > 0 {
            let app_tax = os.tax.app;
            let app_work = os.img.machine.costs().app_request;
            let counter = &received_task;
            let burst_t0 = os.img.machine.clock().cycles();
            let burst_before = counter.get();
            let done = os.recv_batch(s, app_buf, recv_buf_len, budget, |m, _rt, r| {
                Ok(match r {
                    Ok(n) if *n > 0 => {
                        counter.set(counter.get() + n);
                        m.charge(app_work + app_work * app_tax / 100);
                        Some(recv_buf_len)
                    }
                    _ => None,
                })
            })?;
            // One request span per receive burst that moved bytes: the
            // iperf "request" is a batched recv plus its app work.
            if counter.get() > burst_before {
                let t1 = os.img.machine.clock().cycles();
                let span = os.img.machine.span_trace_mut().begin_request(
                    Label::Iperf,
                    burst_backend,
                    burst_vcpu,
                    burst_t0,
                );
                os.img
                    .machine
                    .span_trace_mut()
                    .end_request(span, burst_vcpu, t1);
            }
            budget -= done.issued;
            match done.last {
                Some(Ok(0)) => return Ok(Step::Done), // EOF
                Some(Err(NetError::WouldBlock)) => match os.wait_readable(tid, s)? {
                    Some(ch) => return Ok(Step::Block(ch)),
                    None => continue, // data raced in; retry within budget
                },
                Some(Err(e)) => return Err(abort("iperf", format!("recv failed: {e}"))),
                _ => break, // budget exhausted on successful receives
            }
        }
        Ok(Step::Yield)
    };
    rig.exec
        .spawn(c_app, Box::new(task))
        .map_err(RunError::server)?;
    let csid = rig.connect(IPERF_PORT)?;
    Ok((rig, csid, received))
}

/// The measured transfer: the client keeps the pipe full until the
/// server has received `total` bytes.
fn transfer(
    rig: &mut Rig,
    csid: SocketId,
    received: &Cell<u64>,
    total: u64,
) -> Result<IperfResult, RunError> {
    let start_cycles = rig.os.img.machine.clock().cycles();
    let start_crossings = rig.os.img.gates.stats().crossings;
    let mut sent = 0u64;
    rig.drive("transfer", received.get(), total, |rig| {
        if sent < total {
            sent += rig.client.pump_zeroes(csid, 32 * 1024)?;
        }
        rig.round()?;
        Ok(received.get())
    })?;
    let os = &rig.os;
    let cycles = os.img.machine.clock().cycles() - start_cycles;
    let bytes = received.get();
    Ok(IperfResult {
        bytes,
        cycles,
        mbps: throughput_mbps(bytes, cycles),
        crossings: os.img.gates.stats().crossings - start_crossings,
        switches: rig.exec.summary().switches,
        frames_dropped: rig.link.dropped,
        frames_corrupted: rig.link.corrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(params: IperfParams) -> IperfResult {
        run_iperf(&IperfParams {
            total_bytes: 256 * 1024,
            ..params
        })
    }

    /// A link that loses every frame.
    fn dead_link() -> IperfParams {
        IperfParams {
            link_chaos: Some((
                LinkChaos {
                    loss_per_mille: 1000,
                    ..Default::default()
                },
                7,
            )),
            ..IperfParams::default()
        }
    }

    #[test]
    fn a_link_that_drops_every_frame_is_a_handshake_without_progress() {
        let Err(err) = boot(&dead_link()) else {
            panic!("connected over a dead link");
        };
        assert_eq!(
            err,
            RunError::NoProgress {
                phase: "handshake",
                done: 0,
                wanted: 1,
            }
        );
    }

    #[test]
    fn a_link_that_dies_after_the_handshake_is_a_stalled_transfer() {
        let params = IperfParams {
            total_bytes: 64 * 1024,
            ..IperfParams::default()
        };
        let (mut rig, csid, received) = boot(&params).expect("iperf boots and connects");
        let (dead, seed) = dead_link().link_chaos.expect("a dead link");
        rig.link.set_chaos(dead, seed);
        let err = transfer(&mut rig, csid, &received, params.total_bytes).unwrap_err();
        assert_eq!(
            err,
            RunError::NoProgress {
                phase: "transfer",
                done: 0,
                wanted: 64 * 1024,
            }
        );
    }

    #[test]
    #[should_panic(expected = "iperf run failed: no progress: handshake stuck at 0/1")]
    fn run_iperf_panics_with_the_run_errors_text() {
        run_iperf(&dead_link());
    }

    #[test]
    fn baseline_transfers_all_bytes() {
        let r = quick(IperfParams::default());
        assert!(r.bytes >= 256 * 1024);
        assert!(r.mbps > 0.0);
    }

    #[test]
    fn transfer_completes_under_injected_loss() {
        let clean = quick(IperfParams::default());
        let lossy = quick(IperfParams {
            link_chaos: Some((
                LinkChaos {
                    loss_per_mille: 100,
                    ..Default::default()
                },
                42,
            )),
            ..IperfParams::default()
        });
        // Every byte still arrives (TCP retransmits), goodput degrades.
        assert!(lossy.bytes >= 256 * 1024);
        assert!(lossy.frames_dropped > 0, "chaos never fired");
        assert!(
            lossy.mbps < clean.mbps,
            "loss should cost goodput ({:.0} vs {:.0} Mb/s)",
            lossy.mbps,
            clean.mbps
        );
    }

    #[test]
    fn mpk_isolation_is_slower_than_baseline_at_small_buffers() {
        let base = quick(IperfParams {
            recv_buf: 256,
            ..IperfParams::default()
        });
        let mpk = quick(IperfParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::MpkShared,
            recv_buf: 256,
            ..IperfParams::default()
        });
        assert!(
            mpk.mbps < base.mbps,
            "MPK ({:.0} Mb/s) should trail baseline ({:.0} Mb/s) at 256 B",
            mpk.mbps,
            base.mbps
        );
        assert!(mpk.crossings > base.crossings);
    }

    #[test]
    fn vm_rpc_is_slower_than_mpk() {
        let mpk = quick(IperfParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::MpkShared,
            recv_buf: 1024,
            ..IperfParams::default()
        });
        let vm = quick(IperfParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::VmRpc,
            recv_buf: 1024,
            ..IperfParams::default()
        });
        assert!(vm.mbps < mpk.mbps);
    }

    #[test]
    fn sh_on_everything_is_much_slower_than_sh_on_scheduler() {
        let sched_only = quick(IperfParams {
            sh_on: vec!["uksched".into()],
            ..IperfParams::default()
        });
        let all = quick(IperfParams {
            sh_on: vec![
                "iperf".into(),
                "libc".into(),
                "ukalloc".into(),
                "uknetdev".into(),
                "lwip".into(),
                "uksched".into(),
            ],
            ..IperfParams::default()
        });
        assert!(all.mbps < sched_only.mbps);
    }

    #[test]
    fn xen_baseline_trails_kvm_baseline() {
        let kvm = quick(IperfParams::default());
        let xen = quick(IperfParams {
            hypervisor: Hypervisor::Xen,
            ..IperfParams::default()
        });
        assert!(xen.mbps < kvm.mbps);
    }

    #[test]
    fn verified_scheduler_costs_little_for_iperf() {
        let coop = quick(IperfParams::default());
        let verified = quick(IperfParams {
            sched: SchedKind::Verified,
            ..IperfParams::default()
        });
        // Slower, but within a few percent (switch costs are a small
        // share of the packet-processing work).
        assert!(verified.mbps <= coop.mbps);
        assert!(verified.mbps > coop.mbps * 0.85);
    }
}
