//! The network-stack micro-library: sockets, demux, and the poll loop.
//!
//! [`NetStack`] is the lwIP-role component of the FlexOS images: it owns
//! the NIC, the TCP port table and every socket's receive ring (in
//! the stack compartment's simulated memory), and exposes the socket API
//! the paper's listing shows being gated (`rc = listen(sockfd, 5)` →
//! `uk_gate_r(rc, listen, sockfd, 5)`).
//!
//! Cost accounting: every received frame pays NIC + per-packet protocol
//! costs (plus the hypervisor tax on Xen); every emitted segment pays the
//! same on the way out; checksums pay a per-byte streaming cost; payload
//! movement in/out of socket rings runs through the simulated machine and
//! is charged (and protection-checked) there.

use crate::demux::Demux;
use crate::event::{EventQueue, Interest, ReadyEvent, Trigger};
use crate::nic::Nic;
use crate::ring::SimRing;
use crate::tcp::{Flight, Lend, SegDesc, Segment, SpareList, TcpConfig, TcpConn};
use crate::wire::{
    build_tcp_frame_into, parse_ipv4_frame, EthHeader, Ipv4Header, Mac, TcpFlags, TcpHeader,
    WireError, ETHERTYPE_IPV4, IPV4_LEN, PROTO_TCP, TCP_LEN,
};
use flexos_machine::{Addr, BitVec, Fault, Machine, VcpuId};
use flexos_trace::{Label, NetSnapshot, SpanKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Socket-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The operation would block; retry after progress.
    WouldBlock,
    /// The connection is closed (EOF or reset).
    Closed,
    /// The port is already bound.
    AddrInUse,
    /// Unknown or wrong-kind socket.
    InvalidSocket,
    /// The stack's buffer pool is exhausted.
    NoBuffers,
    /// A machine fault surfaced during the operation.
    Fault(Fault),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::WouldBlock => write!(f, "operation would block"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::AddrInUse => write!(f, "address in use"),
            NetError::InvalidSocket => write!(f, "invalid socket"),
            NetError::NoBuffers => write!(f, "no buffers"),
            NetError::Fault(fault) => write!(f, "fault: {fault}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<Fault> for NetError {
    fn from(f: Fault) -> Self {
        NetError::Fault(f)
    }
}

/// Socket-layer result.
pub type NetResult<T> = Result<T, NetError>;

/// A socket handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub usize);

/// Receive-ring capacity per TCP socket (default; tunable via
/// [`NetStack::set_sock_ring_bytes`] for high-connection-count serving).
pub const SOCK_RX_RING: u32 = 64 * 1024;

/// Default accept-backlog bound per listener (cf. `somaxconn`).
pub const DEFAULT_BACKLOG_CAP: usize = 1024;

/// First port of the ephemeral (dynamic) range, per IANA.
pub const EPHEMERAL_BASE: u16 = 49152;

#[derive(Debug)]
enum Sock {
    TcpListen {
        port: u16,
        backlog: VecDeque<SocketId>,
    },
    TcpStream {
        conn: TcpConn,
        rx: SimRing,
        /// The peer's IP (its port is `conn.remote_port`).
        remote_ip: u32,
    },
}

impl Sock {
    /// The demux key of a stream socket.
    fn stream_key(&self) -> Option<u64> {
        match self {
            Sock::TcpStream {
                conn, remote_ip, ..
            } => Some(conn_key(conn.local_port, *remote_ip, conn.remote_port)),
            _ => None,
        }
    }
}

/// A bump pool for socket receive rings, carved out of the stack
/// compartment's memory, with a size-bucketed free list so reaped
/// connections return their ring for reuse (connection churn does not
/// exhaust the pool). Rings are offsets from `base`, so the pool spans
/// at most 4 GiB.
#[derive(Debug, Clone)]
struct BufPool {
    base: Addr,
    len: u32,
    next: u32,
    free: BTreeMap<u32, Vec<u32>>,
}

impl BufPool {
    fn carve(&mut self, bytes: u32) -> Option<u32> {
        if let Some(list) = self.free.get_mut(&bytes) {
            if let Some(off) = list.pop() {
                return Some(off);
            }
        }
        if self.next.checked_add(bytes)? > self.len {
            return None;
        }
        let off = self.next;
        self.next += bytes;
        Some(off)
    }

    fn release(&mut self, off: u32, bytes: u32) {
        self.free.entry(bytes).or_default().push(off);
    }

    /// Bytes waiting on the free list.
    fn free_bytes(&self) -> usize {
        self.free.iter().map(|(&b, l)| b as usize * l.len()).sum()
    }
}

/// The network stack.
#[derive(Debug)]
pub struct NetStack {
    /// Our IPv4 address.
    pub ip: u32,
    mac: Mac,
    /// The owned NIC.
    pub nic: Nic,
    socks: Vec<Option<Sock>>,
    /// Freed socket slots, reused lowest-first (matching the old
    /// first-`None` scan) so slot assignment stays deterministic.
    free_slots: BTreeSet<usize>,
    /// Stream sockets that may produce output or deliverable bytes on
    /// the next pump, in no order (the pump sorts its snapshot, so it
    /// still visits them by ascending slot). Everything outside this set
    /// is guaranteed idle ([`TcpConn::needs_pump`] false, nothing staged
    /// for its ring), so the pump is O(active), never O(open).
    active: Vec<usize>,
    /// Membership of `active` (or of the snapshot being pumped), by slot.
    in_active: BitVec,
    /// Readiness index fed by O(1) hooks at state transitions.
    events: EventQueue,
    /// Accept-backlog bound; SYNs beyond it are shed.
    backlog_cap: usize,
    /// Receive-ring bytes carved per new TCP socket.
    sock_ring_bytes: u32,
    /// Retransmit count carried over from reaped connections, so
    /// [`NetStack::retransmits`] is stable across churn.
    closed_retransmits: u64,
    listeners: BTreeMap<u16, SocketId>,
    /// Stream demux: slots by the hash of their [`conn_key`]. Probed per
    /// segment, never iterated.
    conns: Demux,
    pool: BufPool,
    /// One copy, shared by every connection.
    tcp_cfg: Rc<TcpConfig>,
    next_ephemeral: u16,
    iss: u32,
    ip_ident: u16,
    /// Extra per-packet cycles (the Xen hypervisor tax; 0 on KVM).
    pub extra_per_packet: u64,
    /// Extra per-packet cycles charged when the stack compartment runs
    /// with software hardening (instrumented packet processing).
    pub sh_per_packet: u64,
    /// Extra cycles per 16 payload bytes under hardening (ASAN-style
    /// per-granule checks on the stack's buffer handling).
    pub sh_per_16_bytes: u64,
    /// The `--stats` net block, bumped in place (`retransmits` is
    /// filled in by [`NetStack::stats`]).
    stats: NetSnapshot,
    /// Reusable bounce buffer for send paths that must stage payload
    /// bytes from simulated memory before framing (no per-call alloc).
    tx_scratch: Vec<u8>,
    /// Reusable segment scratch for the pump and demux paths (the
    /// PR-4 zero-alloc doctrine applied to `TcpConn::poll_into`).
    seg_scratch: Vec<SegDesc>,
    /// Reusable active-set snapshot for the pump.
    active_scratch: Vec<usize>,
    /// Flight records of the streams outside the active set: a stream
    /// borrows one where something is about to be queued on it (every
    /// such place marks it active) and hands it back where the pump
    /// retires or reaps it, so a stream that is merely open holds none.
    spare: SpareList<Flight>,
}

/// The demux key of a stream: what remains of the 4-tuple once the local
/// address is fixed, packed into one word so a lookup hashes one `u64`.
#[inline]
pub fn conn_key(local_port: u16, remote_ip: u32, remote_port: u16) -> u64 {
    u64::from(local_port) << 48 | u64::from(remote_ip) << 16 | u64::from(remote_port)
}

/// A segment without payload.
fn bare(hdr: TcpHeader) -> SegDesc {
    SegDesc::cut(hdr, &[], 0, 0)
}

impl NetStack {
    /// Creates a stack owning `nic`, with `pool_base..pool_base+pool_len`
    /// of the stack compartment's memory available for socket rings (of
    /// which the first 4 GiB are used).
    pub fn new(ip: u32, nic: Nic, pool_base: Addr, pool_len: u64) -> Self {
        Self {
            ip,
            mac: nic.mac,
            nic,
            socks: Vec::new(),
            free_slots: BTreeSet::new(),
            active: Vec::new(),
            in_active: BitVec::default(),
            events: EventQueue::new(),
            backlog_cap: DEFAULT_BACKLOG_CAP,
            sock_ring_bytes: SOCK_RX_RING,
            closed_retransmits: 0,
            listeners: BTreeMap::new(),
            conns: Demux::default(),
            pool: BufPool {
                base: pool_base,
                len: u32::try_from(pool_len).unwrap_or(u32::MAX),
                next: 0,
                free: BTreeMap::new(),
            },
            tcp_cfg: Rc::default(),
            next_ephemeral: EPHEMERAL_BASE,
            iss: 0x1000,
            ip_ident: 1,
            extra_per_packet: 0,
            sh_per_packet: 0,
            sh_per_16_bytes: 0,
            stats: NetSnapshot::default(),
            tx_scratch: Vec::new(),
            seg_scratch: Vec::new(),
            active_scratch: Vec::new(),
            spare: SpareList::default(),
        }
    }

    /// Bounds the accept backlog of every listener; SYNs arriving while
    /// a backlog is full are shed (counted in
    /// [`NetSnapshot::backlog_overflows`]) and left to the client's RTO.
    pub fn set_backlog_cap(&mut self, cap: usize) {
        self.backlog_cap = cap.max(1);
    }

    /// Sets the receive-ring bytes carved per new TCP socket. Serving
    /// tiers holding 10⁵ sockets shrink this so the pool holds them all.
    /// Sub-MSS rings are fine: the advertised TCP window is derived from
    /// `TcpConfig::rcv_wnd` minus undrained app bytes, not from the ring
    /// — the ring only stages payload between `poll` and `recv`, so a
    /// small ring bounds per-poll staging, never the window.
    pub fn set_sock_ring_bytes(&mut self, bytes: u32) {
        self.sock_ring_bytes = bytes.max(64);
    }

    /// The readiness index (registrations, counters).
    pub fn events(&self) -> &EventQueue {
        &self.events
    }

    /// Mutable readiness index (interest changes, e.g. opting a stream
    /// into WRITE readiness).
    pub fn events_mut(&mut self) -> &mut EventQueue {
        &mut self.events
    }

    /// Drains ready sockets into `out` — O(ready), never O(open).
    pub fn poll_events(&mut self, out: &mut Vec<ReadyEvent>) {
        self.events.poll(out);
    }

    #[inline]
    fn packet_tax(&self, payload_len: u64) -> u64 {
        self.extra_per_packet + self.sh_per_packet + self.sh_per_16_bytes * payload_len.div_ceil(16)
    }

    /// Overrides the TCP configuration used for new connections.
    pub fn set_tcp_config(&mut self, cfg: TcpConfig) {
        self.tcp_cfg = Rc::new(cfg);
    }

    /// Sizes the socket, demux and readiness tables for `socks` sockets at
    /// once, where the number to come is known: a capacity hint only.
    pub fn reserve(&mut self, socks: usize) {
        self.socks.reserve(socks);
        self.in_active.reserve(socks);
        self.conns.reserve(socks);
        self.events.reserve(socks);
    }

    /// Packet counters, with [`NetStack::retransmits`].
    pub fn stats(&self) -> NetSnapshot {
        NetSnapshot {
            retransmits: self.retransmits(),
            ..self.stats
        }
    }

    /// Total TCP retransmissions across live and reaped connections.
    pub fn retransmits(&self) -> u64 {
        self.closed_retransmits
            + self
                .socks
                .iter()
                .filter_map(|s| match s {
                    Some(Sock::TcpStream { conn, .. }) => Some(u64::from(conn.retransmits)),
                    _ => None,
                })
                .sum::<u64>()
    }

    fn insert(&mut self, s: Sock) -> SocketId {
        // Lowest freed slot first (same assignment the old first-`None`
        // scan produced), but O(log n) instead of O(open).
        if let Some(i) = self.free_slots.pop_first() {
            self.socks[i] = Some(s);
            return SocketId(i);
        }
        self.socks.push(Some(s));
        SocketId(self.socks.len() - 1)
    }

    /// Marks a stream as needing pump attention on the next poll.
    #[inline]
    fn mark_active(&mut self, idx: usize) {
        if !self.in_active.replace(idx, true) {
            self.active.push(idx);
        }
    }

    /// Checks that storage follows work: no stream outside the active
    /// set holds a flight record with nothing queued in it, and the
    /// spare list is within its bounds. O(open) — for tests and debugging.
    pub fn idle_storage_audit(&self) -> Result<(), String> {
        if !self.spare.is_bounded() {
            return Err("the stack's spare list outgrew its bounds".into());
        }
        for (i, s) in self.socks.iter().enumerate() {
            if let Some(Sock::TcpStream { conn, .. }) = s {
                if !self.in_active.get(i) && conn.record().is_some_and(Lend::is_idle) {
                    return Err(format!("idle socket {i} holds an empty flight record"));
                }
            }
        }
        Ok(())
    }

    /// Checks every table against the socket slots: streams and demux
    /// buckets find each other by key and hash, listeners and ports
    /// likewise, a backlog holds live streams, the free list is the empty
    /// slots, and the carved ring bytes are the live rings plus the free
    /// list. O(open) — for tests and debugging.
    pub fn table_audit(&self) -> Result<(), String> {
        let (mut streams, mut listeners, mut empty, mut rings) = (0, 0, 0, 0);
        for (i, s) in self.socks.iter().enumerate() {
            let filed = match s {
                None => {
                    empty += 1;
                    self.free_slots.contains(&i)
                }
                Some(Sock::TcpListen { port, backlog }) => {
                    listeners += 1;
                    let live = backlog.iter().all(|&q| self.is_stream(q));
                    live && self.listeners.get(port) == Some(&SocketId(i))
                }
                Some(stream @ Sock::TcpStream { rx, .. }) => {
                    streams += 1;
                    rings += rx.region().1 as usize;
                    stream.stream_key().and_then(|k| self.find_stream(k)) == Some(i)
                }
            };
            if !filed {
                return Err(format!("slot {i} disagrees with its tables: {s:?}"));
            }
        }
        for (slot, hash) in self.conns.entries() {
            let sock = self.socks.get(slot as usize).and_then(Option::as_ref);
            if sock.and_then(Sock::stream_key).map(Demux::hash) != Some(hash) {
                return Err(format!("bucket of slot {slot} names no stream of its hash"));
            }
        }
        let pooled = rings + self.pool.free_bytes();
        for (got, want, what) in [
            (self.listeners.len(), listeners, "ports filed"),
            (self.free_slots.len(), empty, "free slots"),
            (self.conns.len(), streams, "demux buckets"),
            (self.pool.next as usize, pooled, "ring bytes carved"),
        ] {
            if got != want {
                return Err(format!("{got} {what}, not {want}"));
            }
        }
        Ok(())
    }

    /// Open stream connections (the demux table's size).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Whether `id` names a live stream socket.
    pub fn is_stream(&self, id: SocketId) -> bool {
        matches!(self.socks.get(id.0), Some(Some(Sock::TcpStream { .. })))
    }

    /// The slot of the stream socket filed under `key`: the socket's own
    /// 4-tuple is read only on a full-hash match.
    fn find_stream(&self, key: u64) -> Option<usize> {
        let socks = &self.socks;
        let is_key =
            |slot: u32| socks[slot as usize].as_ref().and_then(Sock::stream_key) == Some(key);
        self.conns
            .find(Demux::hash(key), is_key)
            .map(|slot| slot as usize)
    }

    /// Files the stream in slot `id` under `key`. Slots fit a `u32`: each
    /// stream holds a ring of at least 64 B from a pool of at most 4 GiB.
    fn file_stream(&mut self, key: u64, id: SocketId) {
        self.conns.insert(Demux::hash(key), id.0 as u32);
    }

    fn sock(&mut self, id: SocketId) -> NetResult<&mut Sock> {
        self.socks
            .get_mut(id.0)
            .and_then(Option::as_mut)
            .ok_or(NetError::InvalidSocket)
    }

    fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_add(0x3919);
        self.iss
    }

    /// Picks a free ephemeral port for a connection to `dst_ip:dst_port`.
    ///
    /// Linear probe from the rotor: a port is busy only if its full
    /// `(local, remote-ip, remote-port)` 4-tuple is still bound to a live
    /// connection (like a real stack, the same local port may serve two
    /// different destinations). Once every port in the dynamic range has
    /// been probed the allocation fails with `AddrInUse` — the simulated
    /// `EADDRNOTAVAIL` — instead of silently reusing a live 4-tuple, which
    /// the old `wrapping_add(1).max(49152)` rotor did after a wrap.
    fn alloc_ephemeral(&mut self, dst_ip: u32, dst_port: u16) -> NetResult<u16> {
        const RANGE: u32 = u16::MAX as u32 - EPHEMERAL_BASE as u32 + 1; // 16384 ports
        for _ in 0..RANGE {
            let port = self.next_ephemeral;
            self.next_ephemeral = if port == u16::MAX {
                EPHEMERAL_BASE
            } else {
                port + 1
            };
            if self.find_stream(conn_key(port, dst_ip, dst_port)).is_none() {
                return Ok(port);
            }
        }
        Err(NetError::AddrInUse)
    }

    // --- socket API ------------------------------------------------------------

    /// Opens a TCP listener on `port`.
    pub fn tcp_listen(&mut self, port: u16) -> NetResult<SocketId> {
        if self.listeners.contains_key(&port) {
            return Err(NetError::AddrInUse);
        }
        let id = self.insert(Sock::TcpListen {
            port,
            backlog: VecDeque::new(),
        });
        self.listeners.insert(port, id);
        self.events.register(id, Interest::ACCEPT, Trigger::Level);
        Ok(id)
    }

    /// Accepts a pending connection, if any.
    pub fn tcp_accept(&mut self, listener: SocketId) -> NetResult<Option<SocketId>> {
        let got = match self.sock(listener)? {
            Sock::TcpListen { backlog, .. } => {
                let got = backlog.pop_front();
                let empty = backlog.is_empty();
                (got, empty)
            }
            _ => return Err(NetError::InvalidSocket),
        };
        if got.1 {
            self.events.clear(listener, Interest::ACCEPT);
        }
        Ok(got.0)
    }

    /// Initiates an active connection to `dst_ip:dst_port` at cycle `now`;
    /// the SYN goes out on the next flush. Completion is reported by
    /// [`NetStack::tcp_is_established`].
    pub fn tcp_connect(&mut self, dst_ip: u32, dst_port: u16, now: u64) -> NetResult<SocketId> {
        let local_port = self.alloc_ephemeral(dst_ip, dst_port)?;
        let iss = self.next_iss();
        let ring = self.sock_ring_bytes;
        let rx_off = self.pool.carve(ring).ok_or(NetError::NoBuffers)?;
        let (cfg, spare) = (self.tcp_cfg.clone(), &mut self.spare);
        let (conn, syn) = TcpConn::open(local_port, dst_port, iss, None, cfg, spare, now);
        let id = self.insert(Sock::TcpStream {
            conn,
            rx: SimRing::new(rx_off, ring),
            remote_ip: dst_ip,
        });
        self.file_stream(conn_key(local_port, dst_ip, dst_port), id);
        self.events.register(id, Interest::READ, Trigger::Level);
        self.mark_active(id.0);
        self.emit_tcp(dst_ip, &bare(syn.hdr), None);
        Ok(id)
    }

    /// Whether a stream socket has completed the handshake.
    pub fn tcp_is_established(&mut self, id: SocketId) -> NetResult<bool> {
        match self.sock(id)? {
            Sock::TcpStream { conn, .. } => Ok(conn.is_established()),
            _ => Err(NetError::InvalidSocket),
        }
    }

    /// Whether a stream socket has bytes ready (or an EOF to report) —
    /// the readability condition wait queues block on.
    pub fn tcp_readable(&mut self, id: SocketId) -> NetResult<bool> {
        match self.sock(id)? {
            Sock::TcpStream { conn, rx, .. } => {
                Ok(!rx.is_empty() || conn.at_eof() || conn.is_closed())
            }
            Sock::TcpListen { backlog, .. } => Ok(!backlog.is_empty()),
        }
    }

    /// Sends `len` bytes from simulated memory at `src`. Returns bytes
    /// accepted; `WouldBlock` if the transmit buffer is full.
    pub fn tcp_send(
        &mut self,
        m: &mut Machine,
        vcpu: VcpuId,
        id: SocketId,
        src: Addr,
        len: u64,
    ) -> NetResult<u64> {
        m.charge(m.costs().socket_call);
        // Stage through the reusable scratch buffer (taken out of `self`
        // so the socket table can be borrowed mutably below).
        let mut buf = std::mem::take(&mut self.tx_scratch);
        // Grow-only: the read overwrites every staged byte, so none is
        // zeroed again on the way.
        let len = len as usize;
        buf.resize(buf.len().max(len), 0);
        let out = match m.read(vcpu, src, &mut buf[..len]) {
            Err(f) => Err(f.into()),
            // (Not `self.sock`: the spare list is borrowed beside it.)
            Ok(()) => match self.socks.get_mut(id.0).and_then(Option::as_mut) {
                Some(Sock::TcpStream { conn, .. }) => {
                    if conn.is_closed() {
                        Err(NetError::Closed)
                    } else {
                        let n = conn.send_lent(&buf[..len], &mut self.spare) as u64;
                        if n == 0 && len > 0 {
                            Err(NetError::WouldBlock)
                        } else {
                            Ok(n)
                        }
                    }
                }
                Some(_) | None => Err(NetError::InvalidSocket),
            },
        };
        self.tx_scratch = buf;
        if out.is_ok() {
            // Queued bytes need segmentation on the next pump.
            self.mark_active(id.0);
        }
        out
    }

    /// Receives up to `len` bytes into simulated memory at `dst`.
    /// `Ok(0)` means EOF; `WouldBlock` means no data yet.
    pub fn tcp_recv(
        &mut self,
        m: &mut Machine,
        vcpu: VcpuId,
        id: SocketId,
        dst: Addr,
        len: u64,
    ) -> NetResult<u64> {
        m.charge(m.costs().socket_call);
        let pool = self.pool.base;
        let (n, still_readable) = match self.sock(id)? {
            Sock::TcpStream { conn, rx, .. } => {
                if rx.is_empty() {
                    if conn.at_eof() || conn.is_closed() {
                        return Ok(0);
                    }
                    return Err(NetError::WouldBlock);
                }
                let n = rx.pop_to(m, vcpu, pool, dst, len)?;
                (n, !rx.is_empty() || conn.at_eof() || conn.is_closed())
            }
            _ => return Err(NetError::InvalidSocket),
        };
        if !still_readable {
            // Level-triggered disarm: the ring drained with no EOF
            // pending, so the socket stops reporting READ until the
            // pump refills it.
            self.events.clear(id, Interest::READ);
        }
        // Freed ring room may admit bytes parked in the TCP machine
        // (and the window update that re-opens the peer).
        self.mark_active(id.0);
        Ok(n)
    }

    /// Closes the sending direction of a stream (FIN) or tears down a
    /// listener.
    pub fn close(&mut self, id: SocketId) -> NetResult<()> {
        match self.sock(id)? {
            Sock::TcpStream { conn, .. } => {
                conn.close();
                // The FIN (and eventual reap) happens on the pump.
                self.mark_active(id.0);
                Ok(())
            }
            Sock::TcpListen { port, .. } => {
                let port = *port;
                self.listeners.remove(&port);
                self.socks[id.0] = None;
                self.free_slots.insert(id.0);
                self.events.deregister(id);
                Ok(())
            }
        }
    }

    // --- frame emission ----------------------------------------------------------

    fn eth_header(&self) -> EthHeader {
        EthHeader {
            dst: Mac::BROADCAST,
            src: self.mac,
            ethertype: ETHERTYPE_IPV4,
        }
    }

    fn ip_header(&mut self, dst: u32, proto: u8, l4_len: usize) -> Result<Ipv4Header, WireError> {
        // An IPv4 total length must fit in 16 bits; reject (rather than
        // truncate via `as u16`) anything larger, and only consume an
        // ident once the header is actually emittable.
        let total_len =
            u16::try_from(IPV4_LEN + l4_len).map_err(|_| WireError::PayloadTooLarge {
                len: l4_len,
                max: u16::MAX as usize - IPV4_LEN,
            })?;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        Ok(Ipv4Header {
            src: self.ip,
            dst,
            proto,
            total_len,
            ttl: 64,
            ident: self.ip_ident,
        })
    }

    /// Emits one segment in a pooled NIC buffer, its payload (if any) cut
    /// straight from the send FIFO of the stream in slot `from`: each
    /// byte is copied once.
    fn emit_tcp(&mut self, dst_ip: u32, seg: &SegDesc, from: Option<usize>) {
        // TCP payloads are MSS-bounded by the state machine, so neither
        // the header construction nor the builder can fail here; if they
        // ever did, dropping the segment (and letting the RTO resend it)
        // beats emitting a lying header.
        let Ok(ip) = self.ip_header(dst_ip, PROTO_TCP, TCP_LEN + seg.len as usize) else {
            debug_assert!(false, "TCP segment exceeded wire limits");
            return;
        };
        let eth = self.eth_header();
        let payload = match from.and_then(|i| self.socks[i].as_ref()) {
            Some(Sock::TcpStream { conn, .. }) => conn.payload(seg),
            _ => &[],
        };
        let mut frame = self.nic.frame_buf();
        match build_tcp_frame_into(&eth, &ip, &seg.hdr, payload, &mut frame) {
            Ok(()) => {
                self.nic.push_tx(frame);
                self.stats.tx_segments += 1;
            }
            Err(_) => {
                self.nic.recycle(frame);
                debug_assert!(false, "TCP segment exceeded wire limits");
            }
        }
    }

    // --- the poll loop --------------------------------------------------------------

    /// One stack iteration: drain the NIC rx queue through demux and the
    /// TCP machines, pump every connection for output, and move ready
    /// bytes into socket receive rings. Costs are charged per packet and
    /// per byte on `m`'s clock.
    pub fn poll(&mut self, m: &mut Machine, vcpu: VcpuId) -> NetResult<()> {
        // Receive path. The span probe brackets the whole drain: one
        // `net-rx` interval per poll that actually processed frames,
        // sharded by the stack's plan-determined vCPU.
        let rx_t0 = m.clock().cycles();
        let mut rx_frames = false;
        while let Some(frame) = self.nic.pop_rx() {
            rx_frames = true;
            m.charge(
                m.costs().nic_per_packet
                    + m.costs().stack_per_packet
                    + self.packet_tax(frame.len() as u64),
            );
            self.handle_frame(m, &frame);
            self.nic.recycle(frame);
        }
        if rx_frames {
            let t1 = m.clock().cycles();
            m.span_trace_mut().record(
                vcpu.0 as u16,
                SpanKind::Net,
                Label::NetRx,
                vcpu.0 as u16,
                vcpu.0 as u16,
                rx_t0,
                t1,
            );
        }
        // Transmit + delivery path: pump only the active set, in
        // ascending slot order (the order the old full scan visited
        // sockets). A socket outside the set is guaranteed idle —
        // `TcpConn::needs_pump` false and nothing staged for its ring —
        // so the old scan would have charged nothing for it, and
        // skipping it keeps the cycle stream byte-identical while the
        // pump drops from O(open) to O(active).
        let now = m.clock().cycles();
        // The snapshot to pump; sockets that stay active (and any marked
        // meanwhile) collect in the emptied `self.active`.
        let mut act = std::mem::replace(&mut self.active, std::mem::take(&mut self.active_scratch));
        act.sort_unstable();
        for k in 0..act.len() {
            let i = act[k];
            let mut segs = std::mem::take(&mut self.seg_scratch);
            let dst_ip = {
                let Some(Sock::TcpStream {
                    conn,
                    rx,
                    remote_ip,
                }) = self.socks[i].as_mut()
                else {
                    self.in_active.clear(i);
                    self.seg_scratch = segs;
                    continue;
                };
                // Pump protocol output (headers and send-FIFO ranges, no
                // payload bytes) into the reusable scratch.
                conn.poll_lent(now, &mut segs, &mut self.spare);
                // Move in-order payload into the socket's receive ring,
                // straight out of the connection's FIFO.
                let room = rx.free();
                if room > 0 && conn.ready_len() > 0 {
                    match rx.push(m, vcpu, self.pool.base, conn.ready_slice(room as usize)) {
                        Ok(n) => conn.consume_ready(n as usize),
                        Err(f) => {
                            // Descriptors must not outlive this pump:
                            // the RTO resends what they named.
                            segs.clear();
                            self.seg_scratch = segs;
                            self.active.extend_from_slice(&act[k..]);
                            self.active_scratch = act;
                            return Err(f.into());
                        }
                    }
                }
                *remote_ip
            };
            for seg in &segs {
                let t0 = m.clock().cycles();
                m.charge(
                    m.costs().stack_per_packet
                        + m.costs().nic_per_packet
                        + self.packet_tax(u64::from(seg.len))
                        + m.costs().copy_cost(u64::from(seg.len)),
                );
                self.emit_tcp(dst_ip, seg, Some(i));
                let t1 = m.clock().cycles();
                m.span_trace_mut().record(
                    vcpu.0 as u16,
                    SpanKind::Net,
                    Label::NetTx,
                    vcpu.0 as u16,
                    vcpu.0 as u16,
                    t0,
                    t1,
                );
            }
            segs.clear();
            self.seg_scratch = segs;
            // Readiness sync at the exact transition, then retain or
            // retire the socket from the active set.
            let mut reap = false;
            if let Some(Sock::TcpStream { conn, rx, .. }) = self.socks[i].as_mut() {
                let readable = !rx.is_empty() || conn.at_eof() || conn.is_closed();
                let writable = conn.is_established() && !conn.app_closed() && conn.tx_room() > 0;
                if readable {
                    self.events.post(SocketId(i), Interest::READ);
                } else {
                    self.events.clear(SocketId(i), Interest::READ);
                }
                if writable {
                    self.events.post(SocketId(i), Interest::WRITE);
                } else {
                    self.events.clear(SocketId(i), Interest::WRITE);
                }
                if conn.app_closed() && conn.is_closed() && rx.is_empty() && conn.ready_len() == 0 {
                    // App closed, handshake torn down, ring drained:
                    // nothing can ever touch this socket again.
                    reap = true;
                } else if !conn.needs_pump() && conn.ready_len() == 0 {
                    self.in_active.clear(i);
                    conn.retire_storage(&mut self.spare);
                } else {
                    self.active.push(i);
                }
            }
            if reap {
                self.reap_stream(i);
            }
        }
        act.clear();
        self.active_scratch = act;
        Ok(())
    }

    /// Tears down the fully-quiesced stream the pump is looking at (so it
    /// is in the pump's snapshot, not in `active`): table entries out,
    /// ring back to the pool, slot onto the free list, readiness
    /// registration dropped (queued stale events die by generation),
    /// retransmit count folded into the stable total.
    fn reap_stream(&mut self, i: usize) {
        let Some(Sock::TcpStream {
            mut conn,
            rx,
            remote_ip,
        }) = self.socks[i].take()
        else {
            return;
        };
        conn.retire_storage(&mut self.spare);
        let key = conn_key(conn.local_port, remote_ip, conn.remote_port);
        self.conns.remove(Demux::hash(key), i as u32);
        let (off, cap) = rx.region();
        self.pool.release(off, cap);
        self.closed_retransmits += u64::from(conn.retransmits);
        self.events.deregister(SocketId(i));
        self.in_active.clear(i);
        self.free_slots.insert(i);
    }

    /// Counts one frame or segment dropped at demux at `now`.
    fn demux_drop(&mut self, m: &mut Machine, now: u64) {
        self.stats.on_drop(m.span_trace_mut(), now);
    }

    fn handle_frame(&mut self, m: &mut Machine, frame: &[u8]) {
        let now = m.clock().cycles();
        // One drop for a frame that does not parse or is not ours.
        let ours = parse_ipv4_frame(frame).filter(|(eth, ip, _)| {
            (eth.dst == self.mac || eth.dst == Mac::BROADCAST) && ip.dst == self.ip
        });
        let Some((_, ip, l4)) = ours else {
            self.demux_drop(m, now);
            return;
        };
        // Checksum verification touches every byte.
        m.charge(m.costs().copy_cost(l4.len() as u64));
        match ip.proto {
            PROTO_TCP => self.handle_tcp(m, &ip, l4),
            _ => {
                self.demux_drop(m, now);
            }
        }
    }

    fn handle_tcp(&mut self, m: &mut Machine, ip: &Ipv4Header, l4: &[u8]) {
        let now = m.clock().cycles();
        let Some((hdr, off)) = TcpHeader::parse(ip, l4) else {
            self.demux_drop(m, now);
            return;
        };
        let payload = &l4[off..];
        let key = conn_key(hdr.dst_port, ip.src, hdr.src_port);
        if let Some(sid) = self.find_stream(key) {
            let mut segs = std::mem::take(&mut self.seg_scratch);
            segs.clear();
            {
                let Some(Sock::TcpStream { conn, .. }) = self.socks[sid].as_mut() else {
                    self.seg_scratch = segs;
                    return;
                };
                self.stats.rx_segments += 1;
                conn.on_segment_lent(&hdr, payload, now, &mut segs, &mut self.spare);
            }
            let dst_ip = ip.src;
            for seg in &segs {
                m.charge(
                    m.costs().stack_per_packet + m.costs().nic_per_packet + self.packet_tax(0),
                );
                self.emit_tcp(dst_ip, seg, None);
            }
            segs.clear();
            self.seg_scratch = segs;
            // Whatever the segment did (ack, data, FIN), the pump must
            // look at this socket once before it can go idle again.
            self.mark_active(sid);
            return;
        }
        if hdr.flags.syn && !hdr.flags.ack {
            if let Some(&lid) = self.listeners.get(&hdr.dst_port) {
                // Bounded accept backlog: shed the SYN before carving a
                // ring — no RST, the client's RTO retries, matching the
                // SYN-drop a real stack does under somaxconn pressure.
                let full = matches!(
                    self.socks[lid.0].as_ref(),
                    Some(Sock::TcpListen { backlog, .. }) if backlog.len() >= self.backlog_cap
                );
                if full {
                    self.stats.on_backlog_overflow(m.span_trace_mut(), now);
                    return;
                }
                // Passive open.
                let iss = self.next_iss();
                let cfg = self.tcp_cfg.clone();
                let ring = self.sock_ring_bytes;
                let Some(rx_off) = self.pool.carve(ring) else {
                    self.demux_drop(m, now);
                    return;
                };
                let (lport, rport, spare) = (hdr.dst_port, hdr.src_port, &mut self.spare);
                let (conn, syn_ack) = TcpConn::open(lport, rport, iss, Some(&hdr), cfg, spare, now);
                let sid = self.insert(Sock::TcpStream {
                    conn,
                    rx: SimRing::new(rx_off, ring),
                    remote_ip: ip.src,
                });
                self.file_stream(key, sid);
                if let Some(Sock::TcpListen { backlog, .. }) = self.socks[lid.0].as_mut() {
                    backlog.push_back(sid);
                }
                self.events.register(sid, Interest::READ, Trigger::Level);
                self.events.post(lid, Interest::ACCEPT);
                self.mark_active(sid.0);
                self.stats.rx_segments += 1;
                m.charge(
                    m.costs().stack_per_packet + m.costs().nic_per_packet + self.packet_tax(0),
                );
                let dst_ip = ip.src;
                self.emit_tcp(dst_ip, &bare(syn_ack.hdr), None);
                return;
            }
        }
        // No socket: answer anything but RST with RST.
        if !hdr.flags.rst {
            let rst = bare(TcpHeader {
                src_port: hdr.dst_port,
                dst_port: hdr.src_port,
                seq: hdr.ack,
                ack: 0,
                flags: TcpFlags::RST,
                window: 0,
            });
            self.emit_tcp(ip.src, &rst, None);
        }
        self.demux_drop(m, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::Link;
    use crate::tcp::SegmentOut;
    use crate::wire::{build_tcp_frame, ETH_LEN};
    use flexos_machine::{PageFlags, ProtKey, VmId};
    use proptest::{prop_assert, prop_assert_eq};

    impl BufPool {
        /// Bytes carved and not on the free list: the live rings'.
        fn outstanding(&self) -> usize {
            self.next as usize - self.free_bytes()
        }
    }

    const SERVER_IP: u32 = 0x0a00_0001;
    const CLIENT_IP: u32 = 0x0a00_0002;

    struct World {
        m: Machine,
        server: NetStack,
        client: NetStack,
        link: Link,
        app_buf: Addr,
    }

    fn world() -> World {
        world_on(Machine::with_defaults())
    }

    fn world_on(mut m: Machine) -> World {
        let pool_s = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        let pool_c = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        let app_buf = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        let server = NetStack::new(SERVER_IP, Nic::new(Mac::of_nic(1)), pool_s, 1 << 20);
        let client = NetStack::new(CLIENT_IP, Nic::new(Mac::of_nic(2)), pool_c, 1 << 20);
        World {
            m,
            server,
            client,
            link: Link::new(),
            app_buf,
        }
    }

    impl World {
        /// One full exchange round: both stacks poll, frames cross the
        /// link both ways.
        fn step(&mut self) {
            self.client.poll(&mut self.m, VcpuId(0)).unwrap();
            self.server.poll(&mut self.m, VcpuId(0)).unwrap();
            self.link
                .transfer(&mut self.client.nic, &mut self.server.nic);
            self.link
                .transfer(&mut self.server.nic, &mut self.client.nic);
            self.client.poll(&mut self.m, VcpuId(0)).unwrap();
            self.server.poll(&mut self.m, VcpuId(0)).unwrap();
            // Storage follows work, whatever the test is about.
            self.client.idle_storage_audit().unwrap();
            self.server.idle_storage_audit().unwrap();
        }

        /// The client's active open to `port`, sent at the current cycle.
        fn connect(&mut self, port: u16) -> NetResult<SocketId> {
            self.client
                .tcp_connect(SERVER_IP, port, self.m.clock().cycles())
        }

        fn establish(&mut self, port: u16) -> (SocketId, SocketId) {
            let l = self.server.tcp_listen(port).unwrap();
            let cs = self.connect(port).unwrap();
            for _ in 0..4 {
                self.step();
            }
            let ss = self
                .server
                .tcp_accept(l)
                .unwrap()
                .expect("connection accepted");
            assert!(self.client.tcp_is_established(cs).unwrap());
            (cs, ss)
        }
    }

    #[test]
    fn layout_budget_of_a_socket_slot() {
        // 10⁵ of these are the serving tier's socket table.
        let slot = std::mem::size_of::<Option<Sock>>();
        assert!(slot <= 72, "Option<Sock> grew to {slot} B (budget 72)");
    }

    #[test]
    fn tcp_connect_accept_end_to_end() {
        let mut w = world();
        let _ = w.establish(5201);
    }

    #[test]
    fn tcp_data_transfer_through_simulated_memory() {
        let mut w = world();
        let (cs, ss) = w.establish(5201);
        // Client writes a message from simulated memory.
        let msg = b"iperf payload: flexible isolation";
        w.m.write(VcpuId(0), w.app_buf, msg).unwrap();
        let sent = w
            .client
            .tcp_send(&mut w.m, VcpuId(0), cs, w.app_buf, msg.len() as u64)
            .unwrap();
        assert_eq!(sent, msg.len() as u64);
        for _ in 0..4 {
            w.step();
        }
        // Server receives into a different simulated buffer.
        let dst = Addr(w.app_buf.0 + 4096);
        let n = w
            .server
            .tcp_recv(&mut w.m, VcpuId(0), ss, dst, 1024)
            .unwrap();
        assert_eq!(n, msg.len() as u64);
        let mut got = vec![0u8; msg.len()];
        w.m.read(VcpuId(0), dst, &mut got).unwrap();
        assert_eq!(&got, msg);
    }

    #[test]
    fn recv_before_data_would_block_and_after_fin_reports_eof() {
        let mut w = world();
        let (cs, ss) = w.establish(5201);
        let dst = Addr(w.app_buf.0 + 4096);
        assert_eq!(
            w.server
                .tcp_recv(&mut w.m, VcpuId(0), ss, dst, 64)
                .unwrap_err(),
            NetError::WouldBlock
        );
        w.client.close(cs).unwrap();
        for _ in 0..4 {
            w.step();
        }
        assert_eq!(
            w.server.tcp_recv(&mut w.m, VcpuId(0), ss, dst, 64).unwrap(),
            0
        );
    }

    #[test]
    fn bulk_transfer_survives_packet_loss() {
        let mut w = world();
        let (cs, ss) = w.establish(5201);
        // One frame in 13 lost, from the first data segment on.
        let loss = crate::nic::LinkChaos {
            loss_per_mille: 77,
            ..Default::default()
        };
        w.link.set_chaos(loss, 13);
        let total: usize = 200 * 1024;
        let chunk = vec![0xabu8; 8192];
        w.m.write(VcpuId(0), w.app_buf, &chunk).unwrap();
        let dst = Addr(w.app_buf.0 + 16384);
        let mut sent = 0usize;
        let mut received = 0usize;
        for _round in 0..6000 {
            if sent < total {
                match w
                    .client
                    .tcp_send(&mut w.m, VcpuId(0), cs, w.app_buf, chunk.len() as u64)
                {
                    Ok(n) => sent += n as usize,
                    Err(NetError::WouldBlock) => {}
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            w.step();
            match w.server.tcp_recv(&mut w.m, VcpuId(0), ss, dst, 16384) {
                Ok(n) => received += n as usize,
                Err(NetError::WouldBlock) => {
                    // Let retransmission timers fire.
                    w.m.charge(TcpConfig::default().rto_cycles / 4);
                }
                Err(e) => panic!("recv failed: {e}"),
            }
            if received >= total {
                break;
            }
        }
        assert!(received >= total, "only {received}/{total} bytes made it");
        assert!(w.client.retransmits() > 0, "no segment was resent");
        assert_eq!(w.client.stats().retransmits, w.client.retransmits());
    }

    #[test]
    fn chaos_loss_degrades_but_never_corrupts_the_stream() {
        // 10% seeded probabilistic loss: the transfer completes via the
        // RTO path and the receiver sees exactly the sender's bytes.
        let mut w = world();
        w.link.set_chaos(
            crate::nic::LinkChaos {
                loss_per_mille: 100,
                ..Default::default()
            },
            42,
        );
        let (cs, ss) = w.establish(5201);
        let total: usize = 64 * 1024;
        let pattern = |off: usize| -> u8 { (off % 251) as u8 };
        let dst = Addr(w.app_buf.0 + 16384);
        let mut sent = 0usize;
        let mut received = 0usize;
        for _round in 0..20_000 {
            if sent < total {
                let n = (total - sent).min(4096);
                let chunk: Vec<u8> = (0..n).map(|i| pattern(sent + i)).collect();
                w.m.write(VcpuId(0), w.app_buf, &chunk).unwrap();
                match w
                    .client
                    .tcp_send(&mut w.m, VcpuId(0), cs, w.app_buf, n as u64)
                {
                    Ok(n) => sent += n as usize,
                    Err(NetError::WouldBlock) => {}
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            w.step();
            match w.server.tcp_recv(&mut w.m, VcpuId(0), ss, dst, 16384) {
                Ok(n) => {
                    let mut got = vec![0u8; n as usize];
                    w.m.read(VcpuId(0), dst, &mut got).unwrap();
                    for (i, b) in got.iter().enumerate() {
                        assert_eq!(*b, pattern(received + i), "byte {} corrupted", received + i);
                    }
                    received += n as usize;
                }
                Err(NetError::WouldBlock) => {
                    w.m.charge(TcpConfig::default().rto_cycles / 4);
                }
                Err(e) => panic!("recv failed: {e}"),
            }
            if received >= total {
                break;
            }
        }
        assert_eq!(received, total, "only {received}/{total} bytes made it");
        assert!(w.link.dropped > 0, "chaos never fired");
    }

    #[test]
    fn demux_rejects_foreign_and_corrupt_frames() {
        let mut w = world();
        // Frame for another IP.
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(9),
            ethertype: ETHERTYPE_IPV4,
        };
        let mut ip = Ipv4Header {
            src: CLIENT_IP,
            dst: 0x0909_0909,
            proto: PROTO_TCP,
            total_len: (IPV4_LEN + crate::wire::TCP_LEN) as u16,
            ttl: 64,
            ident: 1,
        };
        let tcp = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
        };
        w.server
            .nic
            .push_rx(build_tcp_frame(&eth, &ip, &tcp, &[]).unwrap());
        // Corrupt frame.
        ip.dst = SERVER_IP;
        let mut frame = build_tcp_frame(&eth, &ip, &tcp, &[]).unwrap();
        frame[ETH_LEN + 10] ^= 0xff; // break the IP checksum
        w.server.nic.push_rx(frame);
        w.server.poll(&mut w.m, VcpuId(0)).unwrap();
        assert_eq!(w.server.stats().drops, 2);
    }

    #[test]
    fn unknown_ip_protocol_is_one_drop_in_stats_and_trace() {
        let mut w = world();
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(9),
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = Ipv4Header {
            src: CLIENT_IP,
            dst: SERVER_IP,
            proto: 1, // ICMP: not TCP
            total_len: (IPV4_LEN + 8) as u16,
            ttl: 64,
            ident: 1,
        };
        let mut frame = vec![0u8; ETH_LEN + IPV4_LEN + 8];
        eth.write(&mut frame[..ETH_LEN]);
        ip.write(&mut frame[ETH_LEN..ETH_LEN + IPV4_LEN]);
        w.server.nic.push_rx(frame);
        w.server.poll(&mut w.m, VcpuId(0)).unwrap();
        assert_eq!(w.server.stats().drops, 1);
        if cfg!(not(feature = "trace-off")) {
            let mut reg = flexos_trace::TraceRegistry::new();
            reg.add_net(w.server.stats());
            reg.add_spans(w.m.span_trace());
            let snap = reg.finish();
            let tail: Vec<_> = snap
                .events
                .iter()
                .map(|e| (e.seq, e.compartment, e.kind, e.detail))
                .collect();
            assert_eq!(tail, vec![(0, 0, "packet-drop", 0)]);
        }
    }

    /// A TCP-length frame to the server whose IPv4 header (checksum valid)
    /// claims `total_len`.
    fn frame_claiming(total_len: u16) -> Vec<u8> {
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(9),
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = Ipv4Header {
            src: CLIENT_IP,
            dst: SERVER_IP,
            proto: PROTO_TCP,
            total_len,
            ttl: 64,
            ident: 1,
        };
        let mut frame = vec![0u8; ETH_LEN + IPV4_LEN + TCP_LEN];
        eth.write(&mut frame[..ETH_LEN]);
        ip.write(&mut frame[ETH_LEN..ETH_LEN + IPV4_LEN]);
        assert!(Ipv4Header::parse(&frame[ETH_LEN..]).is_some());
        frame
    }

    #[test]
    fn total_len_past_the_frame_is_one_drop_not_a_panic() {
        let mut w = world();
        for claimed in [(IPV4_LEN + TCP_LEN + 1) as u16, 1500, u16::MAX] {
            w.server.nic.push_rx(frame_claiming(claimed));
        }
        w.server.poll(&mut w.m, VcpuId(0)).unwrap();
        assert_eq!(w.server.stats().drops, 3);
        assert!(!w.server.nic.has_tx(), "a lying frame was answered");
    }

    #[test]
    fn total_len_short_of_the_ip_header_is_one_drop_not_a_panic() {
        let mut w = world();
        for claimed in [0, 1, (IPV4_LEN - 1) as u16] {
            w.server.nic.push_rx(frame_claiming(claimed));
        }
        w.server.poll(&mut w.m, VcpuId(0)).unwrap();
        assert_eq!(w.server.stats().drops, 3);
        assert!(!w.server.nic.has_tx(), "a lying frame was answered");
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut w = world();
        let cs = w.connect(81).unwrap(); // nobody listens
        for _ in 0..4 {
            w.step();
        }
        assert!(conn_of(&w.client, cs).is_closed());
    }

    #[test]
    fn an_open_past_the_rto_is_sent_once() {
        // Both opening segments are stamped with the cycle they leave at:
        // one counted as sent at cycle 0 was resent by the next pump once
        // the clock had passed the RTO.
        let mut w = world();
        w.m.charge(TcpConfig::default().rto_cycles + 1);
        let _ = w.establish(5201);
        assert_eq!(w.client.retransmits(), 0, "the SYN went twice");
        assert_eq!(w.server.retransmits(), 0, "the SYN-ACK went twice");
    }

    #[test]
    fn duplicate_bind_is_rejected() {
        let mut w = world();
        w.server.tcp_listen(80).unwrap();
        assert_eq!(w.server.tcp_listen(80).unwrap_err(), NetError::AddrInUse);
    }

    #[test]
    fn ip_header_rejects_oversize_instead_of_truncating() {
        let mut w = world();
        // 65515 bytes of L4 is the largest that fits (20-byte IP header).
        let ip = w
            .server
            .ip_header(CLIENT_IP, PROTO_TCP, u16::MAX as usize - IPV4_LEN)
            .unwrap();
        assert_eq!(ip.total_len, u16::MAX);
        let err = w
            .server
            .ip_header(CLIENT_IP, PROTO_TCP, u16::MAX as usize - IPV4_LEN + 1)
            .unwrap_err();
        assert!(matches!(err, WireError::PayloadTooLarge { .. }));
    }

    /// The local port of stream `sid`.
    fn local_port(stack: &NetStack, sid: SocketId) -> u16 {
        match &stack.socks[sid.0] {
            Some(Sock::TcpStream { conn, .. }) => conn.local_port,
            _ => panic!("{sid:?} is no stream"),
        }
    }

    #[test]
    fn ephemeral_ports_never_collide_across_16k_connects() {
        let mut w = world();
        // 16 384 rings of 64 B fill the client's 1 MiB pool exactly.
        w.client.set_sock_ring_bytes(64);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..16384u32 {
            // Each connect pins its 4-tuple as live.
            let sid = w.connect(80).unwrap();
            let p = local_port(&w.client, sid);
            assert!(p >= EPHEMERAL_BASE);
            assert!(seen.insert(p), "port {p} reused at connect {i}");
            while w.client.nic.pop_tx().is_some() {}
        }
        assert_eq!(w.client.table_audit(), Ok(()));
        // Every port in the dynamic range is now live: the next connect
        // to the same destination fails cleanly instead of reusing one.
        assert_eq!(
            w.client.alloc_ephemeral(SERVER_IP, 80).unwrap_err(),
            NetError::AddrInUse
        );
        // The 4-tuple, not the port, is the scarce resource: a different
        // destination still gets a port.
        assert!(w.client.alloc_ephemeral(SERVER_IP, 81).is_ok());
    }

    #[test]
    fn tcp_connect_skips_live_ports_after_wrap() {
        let mut w = world();
        // The first port of the range is bound to a live connection.
        let first = w.connect(80).unwrap();
        assert_eq!(local_port(&w.client, first), EPHEMERAL_BASE);
        w.client.next_ephemeral = u16::MAX;
        let a = w.connect(80).unwrap();
        assert_eq!(local_port(&w.client, a), u16::MAX);
        // The wrapped rotor lands on that port; the allocator must skip it.
        let b = w.connect(80).unwrap();
        assert_eq!(local_port(&w.client, b), EPHEMERAL_BASE + 1);
        assert_eq!(w.client.table_audit(), Ok(()));
    }

    #[test]
    fn idle_established_connections_charge_nothing_per_poll() {
        // The O(ready) contract: once a connection quiesces it leaves
        // the active set, and a poll with no frames and no active
        // sockets advances the clock by exactly zero cycles — service
        // cost tracks *active* connections, never *open* ones.
        let mut w = world();
        let _ = w.establish(5201);
        for _ in 0..4 {
            w.step();
        }
        let before = w.m.clock().cycles();
        for _ in 0..100 {
            w.server.poll(&mut w.m, VcpuId(0)).unwrap();
        }
        assert_eq!(w.m.clock().cycles(), before, "idle connections were pumped");
        assert!(w.server.active.is_empty());
    }

    #[test]
    fn fifo_storage_is_lent_while_active_and_handed_back_when_idle() {
        let mut w = world();
        let (cs, ss) = w.establish(5201);
        let data: Vec<u8> = (0..3000).map(pattern).collect();
        w.m.write(VcpuId(0), w.app_buf, &data).unwrap();
        for round in 0..3 {
            assert!(conn_of(&w.client, cs).record().is_none());
            assert!(conn_of(&w.server, ss).record().is_none());
            w.client
                .tcp_send(&mut w.m, VcpuId(0), cs, w.app_buf, 3000)
                .unwrap();
            // Bytes are queued: the socket is active and holds a record.
            assert!(w.client.in_active.get(cs.0) && conn_of(&w.client, cs).record().is_some());
            for _ in 0..4 {
                w.step();
            }
            let n = w
                .server
                .tcp_recv(&mut w.m, VcpuId(0), ss, w.app_buf, 4096)
                .unwrap();
            assert_eq!(n, 3000);
            w.step();
            assert!(w.client.active.is_empty() && w.server.active.is_empty());
            // Each side's record waits on its list — the one the
            // handshake used — and the same one goes out and comes back.
            assert_eq!(w.client.spare.held(), 1, "round {round}");
            assert_eq!(w.server.spare.held(), 1, "round {round}");
        }
    }

    #[test]
    fn a_stream_reaped_with_storage_in_hand_returns_it() {
        // The server answers a half-closed client and closes: the ACK that
        // covers its data and FIN closes the connection in the same pump
        // that empties the send FIFO, so the reap is the only hand-back.
        let mut w = world();
        let (cs, ss) = w.establish(5201);
        w.client.close(cs).unwrap();
        for _ in 0..3 {
            w.step();
        }
        assert_eq!(w.server.spare.held(), 1, "the handshake's record");
        w.server
            .tcp_send(&mut w.m, VcpuId(0), ss, w.app_buf, 1000)
            .unwrap();
        w.server.close(ss).unwrap();
        for _ in 0..4 {
            w.step();
        }
        assert_eq!(w.server.conn_count(), 0, "the stream was reaped");
        assert_eq!(w.server.spare.held(), 1, "with its record");
    }

    #[test]
    fn readiness_events_fire_on_data_and_clear_on_drain() {
        let mut w = world();
        let (cs, ss) = w.establish(5201);
        let mut ev = Vec::new();
        w.server.poll_events(&mut ev);
        assert!(ev.is_empty(), "no data yet, but events: {ev:?}");
        w.m.write(VcpuId(0), w.app_buf, b"ping").unwrap();
        w.client
            .tcp_send(&mut w.m, VcpuId(0), cs, w.app_buf, 4)
            .unwrap();
        for _ in 0..2 {
            w.step();
        }
        w.server.poll_events(&mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].sid, ss);
        assert!(ev[0].ready.contains(Interest::READ));
        // Level-triggered: still reported until drained.
        w.server.poll_events(&mut ev);
        assert_eq!(ev.len(), 1);
        let dst = Addr(w.app_buf.0 + 4096);
        w.server.tcp_recv(&mut w.m, VcpuId(0), ss, dst, 64).unwrap();
        w.server.poll_events(&mut ev);
        assert!(ev.is_empty(), "drained socket still reported: {ev:?}");
    }

    #[test]
    fn full_backlog_sheds_syns_with_a_counter() {
        let mut w = world();
        w.server.set_backlog_cap(2);
        let l = w.server.tcp_listen(80).unwrap();
        for _ in 0..4 {
            w.connect(80).unwrap();
        }
        w.step();
        assert_eq!(w.server.stats().backlog_overflows, 2);
        // Exactly the capped number of connections got through.
        assert!(w.server.tcp_accept(l).unwrap().is_some());
        assert!(w.server.tcp_accept(l).unwrap().is_some());
        assert!(w.server.tcp_accept(l).unwrap().is_none());
    }

    #[test]
    fn connection_churn_leaks_nothing() {
        // Open and close 10⁴ connections: every table, the readiness
        // index, the buffer pool, and the ephemeral-port allocator must
        // come back to their initial sizes (guards the port-allocator
        // fix and the readiness index against stale-entry leaks).
        let mut w = world();
        let l = w.server.tcp_listen(5201).unwrap();
        let pool_before = w.server.pool.outstanding();
        for round in 0..10_000u32 {
            let cs = w.connect(5201).unwrap();
            for _ in 0..4 {
                w.step();
            }
            let ss = w
                .server
                .tcp_accept(l)
                .unwrap()
                .unwrap_or_else(|| panic!("round {round}: not accepted"));
            w.client.close(cs).unwrap();
            w.server.close(ss).unwrap();
            let mut spins = 0;
            while w.client.conn_count() + w.server.conn_count() > 0 {
                w.step();
                spins += 1;
                assert!(spins < 64, "round {round}: teardown never quiesced");
            }
        }
        assert_eq!(w.client.conn_count(), 0);
        assert_eq!(w.server.conn_count(), 0);
        assert!(w.client.active.is_empty());
        assert!(w.server.active.is_empty());
        assert_eq!(w.client.pool.outstanding(), 0);
        assert_eq!(w.server.pool.outstanding(), pool_before);
        // Churn left no readiness behind: one drain and the queue is
        // empty (stale entries were compacted, not accumulated).
        assert!(w.server.events.ready_count() < 8);
        let mut ev = Vec::new();
        w.server.poll_events(&mut ev);
        assert!(ev.is_empty(), "stale readiness after churn: {ev:?}");
        assert_eq!(w.server.events.ready_count(), 0);
        // Every stream slot was returned: only the listener survives.
        let live = |s: &NetStack| s.socks.iter().filter(|s| s.is_some()).count();
        assert_eq!(live(&w.client), 0);
        assert_eq!(live(&w.server), 1);
        // The port allocator still has its full range: nothing pinned.
        assert!(w.client.alloc_ephemeral(SERVER_IP, 5201).is_ok());
    }

    /// A world whose machine charges nothing for what the stack does, so
    /// the clock reads the same before, during and after a poll: a test
    /// knows the `now` a pump ran at.
    fn still_world() -> World {
        let costs = flexos_machine::CostTable {
            mem_access: 0,
            copy_per_4bytes: 0,
            nic_per_packet: 0,
            stack_per_packet: 0,
            socket_call: 0,
            ..Default::default()
        };
        world_on(Machine::new(flexos_machine::MachineConfig {
            costs,
            ..Default::default()
        }))
    }

    fn conn_of(stack: &NetStack, id: SocketId) -> &TcpConn {
        match stack.socks[id.0].as_ref() {
            Some(Sock::TcpStream { conn, .. }) => conn,
            other => panic!("{id:?} is not a stream: {other:?}"),
        }
    }

    /// Byte `off` of the stream the equivalence test sends.
    fn pattern(off: usize) -> u8 {
        (off * 7 + (off >> 8)) as u8
    }

    /// One client poll, checked: the frames the stack cuts from
    /// descriptors must be, byte for byte, what the owning path
    /// (`SegmentOut` + `build_tcp_frame`) yields on a clone of the
    /// connection fed the same segments at the same time — and both
    /// connections must end in the same state. Returns the frames.
    fn checked_client_poll(w: &mut World, cs: SocketId, inbox: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut model = conn_of(&w.client, cs).clone();
        let now = w.m.clock().cycles();
        let mut segs: Vec<SegmentOut> = Vec::new();
        for frame in &inbox {
            let ip = Ipv4Header::parse(&frame[ETH_LEN..]).expect("server frame");
            let l4 = &frame[ETH_LEN + IPV4_LEN..];
            let (hdr, off) = TcpHeader::parse(&ip, l4).expect("server segment");
            model.on_segment_into(&hdr, &l4[off..], now, &mut segs);
        }
        model.poll_into(now, &mut segs);
        let eth = w.client.eth_header();
        let mut ident = w.client.ip_ident;
        let expected: Vec<Vec<u8>> = segs
            .iter()
            .map(|seg| {
                ident = ident.wrapping_add(1);
                let ip = Ipv4Header {
                    src: CLIENT_IP,
                    dst: SERVER_IP,
                    proto: PROTO_TCP,
                    total_len: (IPV4_LEN + TCP_LEN + seg.payload.len()) as u16,
                    ttl: 64,
                    ident,
                };
                build_tcp_frame(&eth, &ip, &seg.hdr, &seg.payload).unwrap()
            })
            .collect();

        for frame in inbox {
            w.client.nic.push_rx(frame);
        }
        w.client.poll(&mut w.m, VcpuId(0)).unwrap();
        assert_eq!(w.m.clock().cycles(), now, "the still world moved");
        let got: Vec<Vec<u8>> = std::iter::from_fn(|| w.client.nic.pop_tx()).collect();
        assert_eq!(got.len(), expected.len(), "frames emitted");
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert!(g == e, "frame {i} diverged from the owning path");
        }
        // The stack may have taken the record back; the model kept its own.
        let mut conn = conn_of(&w.client, cs).clone();
        conn.retire_storage(&mut SpareList::default());
        model.retire_storage(&mut SpareList::default());
        assert_eq!(
            format!("{conn:?}"),
            format!("{model:?}"),
            "connection state diverged"
        );
        got
    }

    /// A batch after loss: a `draw` under 96 loses every eighth frame,
    /// starting with frame `draw % 8`.
    fn survivors(frames: Vec<Vec<u8>>, draw: u8) -> impl Iterator<Item = Vec<u8>> {
        frames
            .into_iter()
            .enumerate()
            .filter(move |(i, _)| draw >= 96 || i % 8 != usize::from(draw % 8))
            .map(|(_, f)| f)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random schedules of send / receive (a 4 KiB peer window, so
        /// the sender keeps running into its edge) / loss both ways / RTO
        /// jumps. Retransmissions are cut from the FIFO head while new
        /// data is cut from behind the in-flight bytes: a range bug would
        /// show as a byte difference here.
        #[test]
        fn descriptor_path_equals_owning_path(
            rounds in proptest::prelude::prop::collection::vec(
                (0usize..20_000, 0u64..6_000, proptest::any::<u8>(), proptest::any::<u8>(), 0u8..4),
                20..60,
            )
        ) {
            let mut w = still_world();
            w.server.set_tcp_config(TcpConfig { rcv_wnd: 4096, ..TcpConfig::default() });
            w.server.set_sock_ring_bytes(2048);
            w.client.set_tcp_config(TcpConfig { max_tx_buf: 32 * 1024, ..TcpConfig::default() });
            let (cs, ss) = w.establish(5201);
            let recv_dst = Addr(w.app_buf.0 + (1 << 19));
            let (mut sent, mut received, mut retransmits) = (0usize, 0usize, 0u64);
            let mut inbox: Vec<Vec<u8>> = Vec::new();
            let mut blackout_due = false;
            let close_at = rounds.len() * 3 / 4;
            for (round, (send, recv, drop_out, drop_back, jump)) in rounds.into_iter().enumerate() {
                blackout_due |= round == close_at / 2;
                if round == close_at {
                    w.client.close(cs).unwrap();
                } else if round < close_at && send > 0 {
                    let chunk: Vec<u8> = (sent..sent + send).map(pattern).collect();
                    w.m.write(VcpuId(0), w.app_buf, &chunk).unwrap();
                    match w.client.tcp_send(&mut w.m, VcpuId(0), cs, w.app_buf, send as u64) {
                        Ok(n) => sent += n as usize,
                        Err(NetError::WouldBlock) => {}
                        Err(e) => panic!("send failed: {e}"),
                    }
                }
                let out = checked_client_poll(&mut w, cs, std::mem::take(&mut inbox));
                // Once per schedule a batch carrying data is lost whole and
                // the RTO passes: at least one retransmission.
                let data = |f: &Vec<u8>| f.len() > ETH_LEN + IPV4_LEN + TCP_LEN;
                let blackout = blackout_due && out.iter().any(data);
                blackout_due &= !blackout;
                for frame in survivors(out, drop_out).filter(|_| !blackout) {
                    w.server.nic.push_rx(frame);
                }
                w.server.poll(&mut w.m, VcpuId(0)).unwrap();
                if recv > 0 {
                    if let Ok(n) = w.server.tcp_recv(&mut w.m, VcpuId(0), ss, recv_dst, recv) {
                        let mut got = vec![0u8; n as usize];
                        w.m.read(VcpuId(0), recv_dst, &mut got).unwrap();
                        for (i, b) in got.iter().enumerate() {
                            prop_assert_eq!(*b, pattern(received + i), "byte {} corrupted", received + i);
                        }
                        received += n as usize;
                    }
                    // The drained ring reopens the window: let the server say so.
                    w.server.poll(&mut w.m, VcpuId(0)).unwrap();
                }
                let back: Vec<Vec<u8>> = std::iter::from_fn(|| w.server.nic.pop_tx()).collect();
                inbox.extend(survivors(back, drop_back));
                if jump == 0 || blackout {
                    w.m.charge(TcpConfig::default().rto_cycles + 1);
                } else {
                    w.m.charge(1000);
                }
                retransmits = w.client.retransmits();
                prop_assert_eq!(w.client.idle_storage_audit(), Ok(()));
                prop_assert_eq!(w.server.idle_storage_audit(), Ok(()));
            }
            prop_assert!(received <= sent);
            prop_assert!(sent > 0 && (retransmits > 0 || blackout_due), "nothing exercised: {sent} B");
        }
    }

    #[test]
    fn descriptors_of_a_faulted_pump_are_dropped_not_replayed() {
        // Two streams on the server; the pump of the second faults (a
        // spurious protection-key violation on its ring write) after its
        // data segments were polled. Those descriptors name ranges of
        // *its* send FIFO: replayed on the next pump, which starts with
        // the first stream, they would be cut from the wrong FIFO.
        let mut w = world();
        let (ca, sa) = w.establish(5201);
        let cb = w.connect(5201).unwrap();
        for _ in 0..4 {
            w.step();
        }
        let l = *w.server.listeners.get(&5201).unwrap();
        let sb = w.server.tcp_accept(l).unwrap().expect("second stream");
        assert!(sa < sb);
        let data: Vec<u8> = (0..3000).map(pattern).collect();
        w.m.write(VcpuId(0), w.app_buf, &data).unwrap();
        // Stream b: 3000 bytes queued to send, and bytes arriving for its ring.
        w.server
            .tcp_send(&mut w.m, VcpuId(0), sb, w.app_buf, 3000)
            .unwrap();
        w.client
            .tcp_send(&mut w.m, VcpuId(0), cb, w.app_buf, 100)
            .unwrap();
        w.client.poll(&mut w.m, VcpuId(0)).unwrap();
        w.link.transfer(&mut w.client.nic, &mut w.server.nic);
        w.m.set_chaos(flexos_machine::ChaosPlan::new(
            flexos_machine::ChaosConfig {
                seed: 1,
                spurious_pkey: flexos_machine::Schedule::EveryNth(1),
                ..Default::default()
            },
        ));
        assert!(matches!(
            w.server.poll(&mut w.m, VcpuId(0)),
            Err(NetError::Fault(_))
        ));
        w.m.clear_chaos();
        // Stream a now has 10 bytes to send and is pumped first.
        w.server
            .tcp_send(&mut w.m, VcpuId(0), sa, w.app_buf, 10)
            .unwrap();
        w.server.poll(&mut w.m, VcpuId(0)).unwrap();
        // The RTO resends what the dropped descriptors named.
        w.m.charge(TcpConfig::default().rto_cycles + 1);
        let dst = Addr(w.app_buf.0 + (1 << 19));
        let mut got = Vec::new();
        for _ in 0..16 {
            w.step();
            if let Ok(n) = w.client.tcp_recv(&mut w.m, VcpuId(0), cb, dst, 4096) {
                let at = got.len();
                got.resize(at + n as usize, 0);
                w.m.read(VcpuId(0), dst, &mut got[at..]).unwrap();
            }
        }
        assert_eq!(got, data, "stream b lost or corrupted bytes");
        let n = w
            .client
            .tcp_recv(&mut w.m, VcpuId(0), ca, dst, 4096)
            .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn packet_processing_charges_cycles() {
        let mut w = world();
        let before = w.m.clock().cycles();
        let _ = w.establish(5201);
        assert!(w.m.clock().cycles() > before);
    }

    #[test]
    fn xen_tax_increases_per_packet_cost() {
        let mut base = world();
        let _ = base.establish(5201);
        let kvm_cycles = base.m.clock().cycles();

        let mut xen = world();
        xen.server.extra_per_packet = 900;
        xen.client.extra_per_packet = 900;
        let _ = xen.establish(5201);
        assert!(xen.m.clock().cycles() > kvm_cycles);
    }
}
