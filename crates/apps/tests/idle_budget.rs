//! The host-memory budget of an idle connection (DESIGN.md §6.15).
//!
//! Flight state is held only while there is work: a socket's FIFOs,
//! retransmit queue and reassembly map, its task's parser and reply
//! stream and the client's reply parser and arrival queue are records
//! lent while a burst is in flight and handed back when it is answered.
//! So what a settled tier holds follows the connections that are *open*,
//! never the ones that ever spoke — and an open connection is a slot in
//! a few tables. This binary counts live heap bytes with its own
//! `#[global_allocator]` (`counting/mod.rs`): the difference between a
//! tier of 2N and one of N connections, served the same bursts, cancels
//! everything that is per tier and leaves N idle connections.

use flexos_apps::serve::{serve_image, ServeParams, Tier};

mod counting;
use counting::{live_blocks_by_size, live_bytes, Blocks};

const OPS: u64 = 2_048;

/// Live heap bytes of a settled tier of `conns` connections after
/// `OPS` requests and after four times that, audited both times; and
/// its live blocks by size at the end.
fn settled(conns: usize) -> ([i64; 2], Blocks) {
    let params = |seed| ServeParams {
        conns,
        shards: 4,
        ops: OPS,
        seed,
        ..ServeParams::default()
    };
    // A thread builds its library specs on its first image and keeps
    // them (DESIGN.md §6.27): build them before the first reading, so
    // that both tiers start from the same thread.
    drop(serve_image(&params(1)));
    let (base, base_blocks) = (live_bytes(), live_blocks_by_size());
    let mut tier = Tier::boot(&params(1)).expect("tier boots");
    let mut held = [0; 2];
    for (slot, seeds) in [(0, 1..2), (1, 2..5)] {
        for seed in seeds {
            tier.measure(&params(seed)).expect("bursts are served");
        }
        tier.settle().expect("tier settles");
        tier.idle_storage_audit().expect("storage follows work");
        held[slot] = live_bytes() - base;
    }
    (held, live_blocks_by_size().minus(&base_blocks))
}

/// What an idle connection holds on the heap: [`SIMULATED_BYTES`] of
/// simulated physical memory and 136 B of host structures, none of them
/// a buffer or the container of one. Every per-connection table is one
/// row per socket, indexed by the socket's id or filed by its key:
///
/// | bytes | what |
/// |---:|---|
/// | 72 | the socket slot: a 48 B `TcpConn`, its ring's 16 B of pool offset and indices, the peer's IP |
/// | 24 | the client fleet's `SimConn` (its address is its index; a burst's clock and reply count are in the record it holds while the burst is in flight) |
/// | 16 | the executor's slot at the socket's id: the 16 B `ConnTask`, its liveness in the task's own niche |
/// | 16 | the demux: 8 B buckets of slot and hash, at a load just over 1/2 in both tiers (16 384 buckets for 8 193 streams, 8 192 for 4 097) |
/// | 8 | the readiness index entry |
/// | 0.25 | the active-set and queued-task bit vectors |
/// | 0.06 | a per-round list's high-water mark (1 800 B at 2N, 1 544 B at N) |
///
/// No socket holds a semaphore: the tier never blocks a thread on one
/// (310 B while every accepted socket got a 40 B `Semaphore` and a 16 B
/// map entry, and its task was a 24 B box; 198 B while the executor kept
/// a 32 B slot and an 8 B socket → task map entry, the demux 17 B
/// buckets, the socket's ring a base address and the client its burst's
/// clock; 139 B while a SYN-ACK sent past the RTO was stamped as sent at
/// cycle 0, so the larger tier's late waves queued their SYN-ACKs twice
/// and its NIC transmit queue peaked at 1 024 frame handles to the
/// smaller one's 512). A change to any of those structures moves this
/// number: say so where it changes (the `layout_budget_*` unit tests
/// beside the types name the struct that grew; `--nocapture` prints,
/// block size by block size, what the larger tier holds beyond the
/// smaller one).
const IDLE_CONNECTION_BYTES: i64 = 2_184;

/// The part of it that is simulated memory: `Tier::boot` sizes eight
/// regions from the connection count, 256 B of socket ring each.
const SIMULATED_BYTES: i64 = 2_048;

/// The bound on the host part (3 012 − 2 048 = 964 B while every
/// connection kept its containers, 310 B while each held a semaphore,
/// 198 B while its tables were not all keyed by its socket).
const HOST_BYTES_BUDGET: i64 = 160;

#[test]
fn an_idle_connection_costs_the_same_bytes_however_many_ever_spoke() {
    const N: i64 = 1 << 12;
    let ((small, small_blocks), (large, large_blocks)) =
        (settled(N as usize), settled(2 * N as usize));
    let extra = [large[0] - small[0], large[1] - small[1]];
    let grown = small[1] - small[0];
    println!(
        "idle connection: {:.2} B after {OPS} requests, {:.2} B after {} \
         (tier of {N}: {} B then {} B; of {}: {} B then {} B)",
        extra[0] as f64 / N as f64,
        extra[1] as f64 / N as f64,
        4 * OPS,
        small[0],
        small[1],
        2 * N,
        large[0],
        large[1],
    );
    // Where the N more connections' bytes are, block by block: a table
    // shows as its block at 2N and, negative, its block at N; an object
    // of its own as N blocks. The bytes column adds up to the pin.
    println!(
        "{:>10} {:>8} {:>10}  bytes/conn",
        "block size", "blocks", "per conn"
    );
    let blocks = large_blocks.minus(&small_blocks);
    for (size, blocks, bytes) in blocks.rows().into_iter().take(24) {
        let per_conn = |n: i64| n as f64 / N as f64;
        println!(
            "{size:>10} {blocks:>8} {:>10.3}  {:.1}",
            per_conn(blocks),
            per_conn(bytes)
        );
    }
    // Memory follows the connections that are open: N more of them cost
    // this much each once the bursts are answered (to the byte; what is
    // per tier — the high-water marks of its scratch and spare lists —
    // differs by a few hundred bytes between two tiers) ...
    assert_eq!(extra[0] / N, IDLE_CONNECTION_BYTES);
    let host = extra[0] / N - SIMULATED_BYTES;
    assert!(host <= HOST_BYTES_BUDGET, "{host} B of host structures");
    // ... and the same when four times as many of them have spoken.
    assert!((extra[1] - extra[0]).abs() < N, "{extra:?}");
    // What serving left behind is per burst (a latency sample, trace
    // records), never per connection touched: it was 634 B a burst while
    // every connection that ever spoke kept its five empty buffers.
    let bursts = 3 * OPS as i64 / 4;
    assert!(grown <= 64 * bursts, "{grown} B for {bursts} more bursts");
}
