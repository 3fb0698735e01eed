//! # flexos-net — the network-stack substrate
//!
//! A from-scratch TCP/IP stack playing the role lwIP plays in the
//! FlexOS prototype's evaluation images:
//!
//! * [`wire`] — real Ethernet/IPv4/TCP header formats with Internet
//!   checksums;
//! * [`tcp`] — a full TCP endpoint state machine (handshake, reliable
//!   bidirectional transfer, out-of-order reassembly, retransmission,
//!   flow control, FIN/RST teardown);
//! * [`nic`] — simulated NICs and a point-to-point link with seeded
//!   fault injection (loss, corruption, duplication, reordering) via
//!   [`LinkChaos`]; each NIC owns the pool its frame buffers are
//!   recycled through;
//! * [`ring`] — socket receive rings living in *simulated* memory, so
//!   every payload byte is protection-checked and cycle-charged;
//! * [`demux`] — the stream demux: 8-byte buckets of socket slot and
//!   key hash, the key itself read from the socket on a full-hash match;
//! * [`stack`] — the socket API (`listen`/`accept`/`connect`/`send`/
//!   `recv`) and the poll loop, with per-packet cost
//!   accounting (including the Xen hypervisor tax used by Figure 3's
//!   Xen curves);
//! * [`hash`] — the workspace's one fixed, unkeyed hasher (it lives in
//!   `flexos-machine` so the kernel heap can share it; re-exported here
//!   for the demux's hash and the serving tier's stores).
//!
//! The iperf and Redis workloads of the paper's §4 run over this stack
//! in the `flexos-apps` crate, with the stack placed in its own
//! compartment by the FlexOS build system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demux;
pub mod event;
pub mod nic;
pub mod ring;
pub mod stack;
pub mod tcp;
pub mod wire;

pub use event::{EventQueue, Interest, ReadyEvent, Trigger};
pub use flexos_machine::hash::{self, FixedHasher, FixedMap};
pub use nic::{Link, LinkChaos, Nic, NicStats};
pub use ring::SimRing;
pub use stack::{NetError, NetResult, NetStack, SocketId};
pub use tcp::{TcpConfig, TcpConn, TcpState};
pub use wire::{Mac, WireError, MSS, MTU};
