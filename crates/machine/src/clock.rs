//! Cycle-accurate simulated clock and the calibrated cost table.
//!
//! All FlexOS-rs performance numbers are derived from a deterministic cycle
//! counter rather than wall-clock time: every modelled operation (memory
//! access, gate crossing, context switch, `wrpkru`, inter-VM notification,
//! hardening check, …) charges a cost from a [`CostTable`]. Throughput is
//! then `bits / (cycles / f)` with `f` the simulated core frequency.
//!
//! The default table is calibrated against the paper's testbed (Intel Xeon
//! Silver 4110 @ 2.1 GHz) and the published micro-costs: the C scheduler's
//! 76.6 ns context switch, the verified scheduler's 218.6 ns, `wrpkru`
//! latencies reported by ERIM/Hodor, and inter-VM notification costs in the
//! thousands of cycles. Benchmarks in `flexos-bench` sweep these constants
//! (ablation) to show the paper's conclusions are robust to calibration.

// Defined beside the telemetry that turns cycles into rates.
pub use flexos_trace::CPU_FREQ_HZ;

/// A monotonically increasing cycle counter.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    cycles: u64,
}

impl Clock {
    /// Creates a clock at cycle zero.
    pub fn new() -> Self {
        Self { cycles: 0 }
    }

    /// Advances the clock by `cycles`.
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_add(cycles);
    }

    /// Current cycle count.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn nanos(&self) -> f64 {
        cycles_to_nanos(self.cycles)
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CPU_FREQ_HZ as f64
    }
}

/// Converts a cycle count to nanoseconds at [`CPU_FREQ_HZ`].
#[inline]
pub fn cycles_to_nanos(cycles: u64) -> f64 {
    cycles as f64 * 1e9 / CPU_FREQ_HZ as f64
}

/// Converts nanoseconds to cycles at [`CPU_FREQ_HZ`] (rounded).
#[inline]
pub fn nanos_to_cycles(nanos: f64) -> u64 {
    (nanos * CPU_FREQ_HZ as f64 / 1e9).round() as u64
}

/// Computes throughput in megabits per second for `bytes` moved in `cycles`.
///
/// Returns 0.0 when no cycles have elapsed.
pub fn throughput_mbps(bytes: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    let seconds = cycles as f64 / CPU_FREQ_HZ as f64;
    (bytes as f64 * 8.0) / seconds / 1e6
}

/// Calibrated per-operation cycle costs for the simulated machine.
///
/// Every field is a plain `u64` so benchmark ablations can sweep them.
/// The `Default` impl is the calibration used to regenerate the paper's
/// tables and figures; the per-field docs state the calibration source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostTable {
    /// Cost of a plain (same-compartment) function call, incl. spill/reload.
    /// ~2–3 ns on modern x86.
    pub func_call: u64,
    /// Fixed cost of one modelled memory access (load or store header cost,
    /// amortized L1/L2 mix). Charged once per `read`/`write` call.
    pub mem_access: u64,
    /// Per-byte cost of bulk copies (memcpy-style streaming). 0.25 cy/B
    /// ≈ 8.4 GB/s single-threaded copy bandwidth at 2.1 GHz — matches a
    /// Xeon Silver class core touching both source and destination.
    /// Stored as *cycles per 4 bytes* to stay integral: 1 cy / 4 B.
    pub copy_per_4bytes: u64,
    /// Cost of the `wrpkru` instruction (ERIM measures 11–26 ns end-to-end
    /// for a domain switch of two `wrpkru`s; we charge 30 cy ≈ 14 ns each).
    pub wrpkru: u64,
    /// Extra cost of the runtime PKRU-write authorization check (Hodor-style
    /// runtime checking of `wrpkru` call sites).
    pub pkru_guard_check: u64,
    /// Register clearing + transfer bookkeeping in an MPK gate crossing
    /// (beyond the two `wrpkru`s).
    pub mpk_gate_overhead: u64,
    /// Stack-switch cost in the MPK switched-stack gate (Hodor-style):
    /// switching RSP, copying the spilled frame header.
    pub stack_switch: u64,
    /// One-way inter-VM notification (hypercall + event-channel + vmexit +
    /// schedule-in on the peer vCPU). Order of microseconds per round trip:
    /// 4 500 cy ≈ 2.1 µs one-way.
    pub vm_notify: u64,
    /// Fixed cost of marshalling one RPC argument frame into the shared
    /// heap (descriptor writes, fences).
    pub vm_rpc_marshal: u64,
    /// Baseline cooperative context switch (save/restore callee-saved regs,
    /// switch stacks): 76.6 ns ⇒ 161 cy (paper §4, C scheduler).
    pub ctx_switch: u64,
    /// Additional cost of the verified scheduler's contract checks per
    /// switch: 218.6 ns − 76.6 ns ⇒ 298 cy (paper §4).
    pub verified_contract_check: u64,
    /// Per-access ASAN shadow-memory check (load shadow byte, compare).
    pub asan_check: u64,
    /// Per-malloc/free ASAN bookkeeping (poison redzones, quarantine).
    pub asan_alloc: u64,
    /// Per-indirect-call CFI target validation.
    pub cfi_check: u64,
    /// Per-write DFI check (reaching-definition id compare).
    pub dfi_check: u64,
    /// Stack canary write+check per protected frame.
    pub canary: u64,
    /// Per-arithmetic-op UBSAN check (overflow/shift/bounds).
    pub ubsan_check: u64,
    /// SafeStack: extra unsafe-stack pointer maintenance per frame.
    pub safestack: u64,
    /// Per-packet processing in the NIC driver (descriptor, doorbell).
    pub nic_per_packet: u64,
    /// Per-packet protocol processing in the network stack (header parse,
    /// checksum over header, demux, queue).
    pub stack_per_packet: u64,
    /// Per-socket-call fixed cost in the socket layer (locking, bookkeeping).
    pub socket_call: u64,
    /// Per-request application-level parse cost (e.g. RESP command parse).
    pub app_request: u64,
    /// Hypervisor tax per packet on the slower hypervisor configuration
    /// (the paper's Xen numbers are lower than KVM because Unikraft was not
    /// optimized for Xen; modelled as extra per-packet cycles).
    pub xen_packet_tax: u64,
    /// Per-allocation cost of the baseline (uninstrumented) allocator.
    pub alloc_op: u64,
    /// libc's user-space copy cost, in cycles per 4 bytes: the
    /// `memcpy` newlib performs between socket buffers and application
    /// memory. Separate from `copy_per_4bytes` because Table 1's SH
    /// experiment taxes *libc's* copies specifically.
    pub libc_copy_per_4bytes: u64,
    /// Percent overhead the GCC hardening set adds to libc's copy/alloc
    /// work (ASAN's interceptors on memcpy/malloc-heavy code run 3-4x).
    /// Calibrated against Table 1's LibC row (2.35x whole-system
    /// slowdown with libc's share of the iperf data path).
    pub sh_asan_memcpy_pct: u64,
    /// Percent overhead the GCC hardening set adds to the network
    /// stack's *per-recv socket-layer* work (lock+pbuf-chain handling is
    /// allocation-heavy: KASAN ≈ 3.4x there). Drives Figure 3's SH curve
    /// at small buffers.
    pub sh_net_socket_pct: u64,
    /// Flat per-packet cycles KASAN adds to the stack's protocol
    /// processing (pbuf alloc instrumentation, header redzone checks).
    /// Small — lwIP never touches payload bytes — which is why Table 1's
    /// NW-stack row is only ~6%.
    pub sh_net_per_packet: u64,
    /// Per-access CHERI capability check (tag + bounds + perms — done by
    /// dedicated hardware in parallel with the access; nearly free).
    pub cap_check: u64,
    /// One-way CHERI domain transition (sealed-capability invoke): no
    /// PKRU serialization, no TLB work — cheaper than an MPK crossing
    /// (CompartOS/CheriOS report tens of cycles).
    pub cheri_gate: u64,
    /// Super-linear SH composition: each *additional* hardened component
    /// inflates every component's SH overhead by this percentage,
    /// modelling the shadow-memory/redzone cache-footprint pressure that
    /// makes the paper's whole-system SH (6x) far exceed the sum of its
    /// per-component overheads (~1%+6%+2.3x+18%).
    pub sh_synergy_pct: u64,
}

impl Default for CostTable {
    fn default() -> Self {
        Self {
            func_call: 5,
            mem_access: 4,
            copy_per_4bytes: 1,
            wrpkru: 30,
            pkru_guard_check: 15,
            mpk_gate_overhead: 90,
            stack_switch: 180,
            vm_notify: 3_500,
            vm_rpc_marshal: 120,
            ctx_switch: 161,
            verified_contract_check: 298,
            asan_check: 2,
            asan_alloc: 90,
            cfi_check: 4,
            dfi_check: 3,
            canary: 6,
            ubsan_check: 2,
            safestack: 8,
            nic_per_packet: 350,
            stack_per_packet: 600,
            socket_call: 250,
            app_request: 200,
            xen_packet_tax: 900,
            alloc_op: 60,
            libc_copy_per_4bytes: 4,
            sh_asan_memcpy_pct: 450,
            sh_net_socket_pct: 240,
            sh_net_per_packet: 80,
            cap_check: 1,
            cheri_gate: 60,
            sh_synergy_pct: 50,
        }
    }
}

impl CostTable {
    /// Cost in cycles of copying `bytes` bytes (bulk streaming copy).
    #[inline]
    pub fn copy_cost(&self, bytes: u64) -> u64 {
        // One `copy_per_4bytes` charge per started 4-byte word.
        bytes.div_ceil(4) * self.copy_per_4bytes
    }

    /// One-way cost of an MPK gate crossing with a shared stack
    /// (ERIM-style): one `wrpkru` plus call-site validation and register
    /// clearing. A round trip costs twice this (enter + exit).
    #[inline]
    pub fn mpk_shared_gate(&self) -> u64 {
        self.wrpkru + self.pkru_guard_check + self.mpk_gate_overhead
    }

    /// One-way cost of an MPK gate crossing with switched stacks
    /// (Hodor-style): shared-gate cost + stack switch + argument copy
    /// header. Argument bytes are charged separately via [`copy_cost`].
    ///
    /// [`copy_cost`]: CostTable::copy_cost
    #[inline]
    pub fn mpk_switched_gate(&self) -> u64 {
        self.mpk_shared_gate() + self.stack_switch
    }

    /// One-way cost of a VM RPC crossing: notification + marshalling.
    #[inline]
    pub fn vm_rpc_gate(&self) -> u64 {
        self.vm_notify + self.vm_rpc_marshal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_converts() {
        let mut c = Clock::new();
        assert_eq!(c.cycles(), 0);
        c.advance(2_100_000_000);
        assert_eq!(c.cycles(), CPU_FREQ_HZ);
        assert!((c.seconds() - 1.0).abs() < 1e-12);
        assert!((c.nanos() - 1e9).abs() < 1e-3);
    }

    #[test]
    fn clock_saturates_instead_of_overflowing() {
        let mut c = Clock::new();
        c.advance(u64::MAX);
        c.advance(10);
        assert_eq!(c.cycles(), u64::MAX);
    }

    #[test]
    fn nanos_cycles_round_trip() {
        let cy = nanos_to_cycles(76.6);
        assert_eq!(cy, 161); // The paper's C scheduler context switch.
        let cy = nanos_to_cycles(218.6);
        assert_eq!(cy, 459); // The verified scheduler.
        assert!((cycles_to_nanos(161) - 76.6).abs() < 0.3);
    }

    #[test]
    fn throughput_is_bits_over_time() {
        // 1 GiB in one simulated second.
        let mbps = throughput_mbps(1 << 30, CPU_FREQ_HZ);
        assert!((mbps - (1u64 << 30) as f64 * 8.0 / 1e6).abs() < 1e-6);
        assert_eq!(throughput_mbps(100, 0), 0.0);
    }

    #[test]
    fn default_costs_reproduce_paper_micro_numbers() {
        let t = CostTable::default();
        // Context switch: 161 cy = 76.6 ns; verified adds 298 cy => 218.6 ns.
        assert!((cycles_to_nanos(t.ctx_switch) - 76.6).abs() < 0.5);
        assert!((cycles_to_nanos(t.ctx_switch + t.verified_contract_check) - 218.6).abs() < 0.5);
        // Gate ordering: direct < MPK shared < MPK switched << VM RPC.
        assert!(t.func_call < t.mpk_shared_gate());
        assert!(t.mpk_shared_gate() < t.mpk_switched_gate());
        assert!(t.mpk_switched_gate() * 10 < t.vm_rpc_gate());
        // MPK round trip lands in the ERIM-reported range (11–260 ns).
        let rt_ns = cycles_to_nanos(2 * t.mpk_shared_gate());
        assert!(rt_ns > 11.0 && rt_ns < 260.0);
    }

    #[test]
    fn copy_cost_rounds_to_words() {
        let t = CostTable::default();
        assert_eq!(t.copy_cost(0), 0);
        assert_eq!(t.copy_cost(1), 1);
        assert_eq!(t.copy_cost(4), 1);
        assert_eq!(t.copy_cost(5), 2);
        assert_eq!(t.copy_cost(4096), 1024);
    }
}
