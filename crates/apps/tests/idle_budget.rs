//! The host-memory budget of an idle connection (DESIGN.md §6.15).
//!
//! Storage is held only while there is work: a socket's FIFOs, its
//! task's parser and reply stream and the client's reply parser borrow
//! their buffers while a burst is in flight and hand them back when it
//! is answered. So what a settled tier holds follows the connections
//! that are *open*, never the ones that ever spoke. This binary counts
//! live heap bytes with its own `#[global_allocator]`
//! (`counting/mod.rs`): the difference between a tier of 2N and one of N
//! connections, served the same bursts, cancels everything that is per
//! tier and leaves N idle connections.

use flexos_apps::serve::{ServeParams, Tier};

mod counting;
use counting::live_bytes;

const OPS: u64 = 2_048;

/// Live heap bytes of a settled tier of `conns` connections after
/// `OPS` requests and after four times that, audited both times.
fn settled(conns: usize) -> [i64; 2] {
    let params = |seed| ServeParams {
        conns,
        shards: 4,
        ops: OPS,
        seed,
        ..ServeParams::default()
    };
    let base = live_bytes();
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
    held
}

/// What an idle connection holds on the heap. About 2 048 B of it is
/// simulated physical memory (`Tier::boot` sizes eight regions from the
/// connection count, 256 B of socket ring each) and the rest host
/// structures: the socket slot with its 192 B `TcpConn` (a 32 B
/// `TcpConfig` cloned into it), the 96 B `retx` deque the SYN-ACK left,
/// the 120 B `Box<ConnTask>`, and the demux, readiness, executor and
/// client-fleet entries. None of it is a buffer. A change to any of
/// those structures moves this number: say so where it changes.
const IDLE_CONNECTION_BYTES: i64 = 3_012;

#[test]
fn an_idle_connection_costs_the_same_bytes_however_many_ever_spoke() {
    const N: i64 = 1 << 12;
    let (small, large) = (settled(N as usize), settled(2 * N as usize));
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
    // Memory follows the connections that are open: N more of them cost
    // this much each once the bursts are answered (to the byte; what is
    // per tier — the high-water marks of its scratch and spare lists —
    // differs by a few hundred bytes between two tiers) ...
    assert_eq!(extra[0] / N, IDLE_CONNECTION_BYTES);
    // ... and the same when four times as many of them have spoken.
    assert!((extra[1] - extra[0]).abs() < N, "{extra:?}");
    // What serving left behind is per burst (a latency sample, trace
    // records), never per connection touched: it was 634 B a burst while
    // every connection that ever spoke kept its five empty buffers.
    let bursts = 3 * OPS as i64 / 4;
    assert!(grown <= 64 * bursts, "{grown} B for {bursts} more bursts");
}
