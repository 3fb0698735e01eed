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

use flexos_apps::serve::{ServeParams, Tier};

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
/// simulated physical memory and 310 B of host structures, none of them
/// a buffer or the container of one — the 96 B socket slot (a 56 B
/// `TcpConn`, the indices of its ring, the peer's address), the 40 B
/// `SimConn`, the 24 B `Box<ConnTask>` and the executor's 24 B slot for
/// it, one entry each in the demux table (34 B at its load factor), the
/// readiness index (8 B), the socket → task map (8 B) and the active-set
/// bitmap (1 B), and about 75 B of the machine's own tables for the
/// simulated memory above (96 B while the page table held one entry per
/// page; it holds one per extent). A change to any of those structures moves
/// this number: say so where it changes (the `layout_budget_*` unit
/// tests beside the types name the struct that grew; `--nocapture`
/// prints the live blocks by size).
const IDLE_CONNECTION_BYTES: i64 = 2_358;

/// The part of it that is simulated memory: `Tier::boot` sizes eight
/// regions from the connection count, 256 B of socket ring each.
const SIMULATED_BYTES: i64 = 2_048;

/// The bound on the host part (3 012 − 2 048 = 964 B while every
/// connection kept its containers).
const HOST_BYTES_BUDGET: i64 = 640;

#[test]
fn an_idle_connection_costs_the_same_bytes_however_many_ever_spoke() {
    const N: i64 = 1 << 12;
    let ((small, _), (large, blocks)) = (settled(N as usize), settled(2 * N as usize));
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
    // Where the larger tier's bytes are: a table shows as one block that
    // scales with the tier, a per-connection object as a block a connection.
    println!(
        "{:>10} {:>8} {:>10}  bytes/conn",
        "block size", "blocks", "per conn"
    );
    for (size, blocks, bytes) in blocks.rows().into_iter().take(16) {
        let per_conn = |n: i64| n as f64 / (2 * N) as f64;
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
