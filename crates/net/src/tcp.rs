//! The TCP state machine: handshake, reliable bidirectional transfer,
//! out-of-order reassembly, retransmission, flow control, teardown.
//!
//! One [`TcpConn`] is one connection endpoint. The stack feeds it
//! received segments ([`TcpConn::on_segment_into`]) and pumps it for
//! output ([`TcpConn::poll_into`]); the socket layer moves application
//! bytes in and out ([`TcpConn::send`], [`TcpConn::ready_slice`] +
//! [`TcpConn::consume_ready`]). Time is the machine's cycle clock, so
//! retransmission behaviour is deterministic.
//!
//! Payload bytes are not copied between queues: sent-but-unacknowledged
//! bytes stay at the head of the send FIFO (the `snd_una..snd_nxt`
//! window) until the ACK that covers them, retransmission entries and
//! outgoing segments ([`SegDesc`]) name ranges of it, and received bytes
//! are lent to the socket layer out of the receive FIFO. The FIFOs'
//! storage is itself on loan: each borrows a buffer from its stack's
//! [`SpareList`] where bytes are about to enter it, and the stack hands
//! the buffers back when the connection goes idle, so an idle connection
//! holds none (DESIGN.md §6.15).
//!
//! Deliberate simplifications (documented in DESIGN.md): no congestion
//! control, no SACK, no delayed ACKs, fixed RTO — none of which the
//! FlexOS evaluation exercises; flow control, loss recovery and ordering
//! are implemented in full.

use crate::wire::{TcpFlags, TcpHeader, MSS};
use std::collections::{BTreeMap, VecDeque};

/// A byte FIFO over a flat `Vec`: bulk `extend_from_slice` on push,
/// borrow-then-consume on pop, amortized compaction of the dead prefix.
/// Replaces `VecDeque<u8>` on the per-segment hot path, where the deque's
/// per-element iteration was the simulator's top host-time cost.
#[derive(Debug, Clone, Default)]
struct ByteFifo {
    buf: Vec<u8>,
    head: usize,
}

impl ByteFifo {
    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn extend(&mut self, data: &[u8]) {
        if self.head > 0 && self.head * 2 >= self.buf.len() {
            // Dead prefix dominates: slide the live bytes down (memmove)
            // so the buffer cannot grow without bound.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The queued bytes, oldest first.
    fn peek(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Drops the first `n` queued bytes (clamped).
    fn consume(&mut self, n: usize) {
        self.head += n.min(self.len());
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
    }

    /// Hands the storage back once nothing is queued in it.
    fn retire(&mut self, spare: &mut SpareList<Vec<u8>>) {
        if self.is_empty() {
            spare.retire(&mut self.buf);
        }
    }
}

/// Most buffers a [`SpareList`] keeps: past it a retired buffer is freed.
/// A list needs no more than the most owners that work at once — 14
/// FIFOs on the steepest rung of `serve_c100k`'s rate ladder, two on
/// every other workload. When 50 000 bursts are offered in one instant
/// (the saturated run) it fills and the other 99 540 buffers are freed:
/// memory follows the work in hand, not its high-water mark.
pub const SPARE_MAX_COUNT: usize = 64;

/// Largest buffer a [`SpareList`] keeps: a retired buffer that outgrew it
/// is freed, so one large request does not pin its high-water mark on a
/// connection (or on the list) for life. Twice the 64 KiB receive window:
/// a FIFO the window bounds, grown by doubling, never exceeds it (iperf's
/// reaches 46 720 B, serve's 284 B), so the bulk path always gets its own
/// buffer back; a parser that took a 1 MiB `SET` does not.
pub const SPARE_MAX_BYTES: usize = 128 * 1024;

/// Storage a [`SpareList`] can lend: emptied without freeing, and sized.
pub trait Lend: Default {
    /// Drops the contents, keeps the allocation.
    fn clear(&mut self);
    /// Bytes of heap behind it.
    fn capacity_bytes(&self) -> usize;
}

impl<T> Lend for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn capacity_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> Lend for VecDeque<T> {
    fn clear(&mut self) {
        VecDeque::clear(self);
    }
    fn capacity_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// Storage is held only while there is work: a LIFO of cleared buffers
/// that owners [`adopt`](SpareList::adopt) from when work arrives and
/// [`retire`](SpareList::retire) to when it is done, so an idle owner
/// holds no heap and a busy one allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct SpareList<B> {
    free: Vec<B>,
}

impl<B: Lend> SpareList<B> {
    /// Buffers waiting on the list.
    pub fn held(&self) -> usize {
        self.free.len()
    }

    /// Whether the list is within both of its bounds (for audits).
    pub fn is_bounded(&self) -> bool {
        let small = |b: &B| b.capacity_bytes() <= SPARE_MAX_BYTES;
        self.free.len() <= SPARE_MAX_COUNT && self.free.iter().all(small)
    }

    /// Gives `slot` a spare buffer if it has no storage of its own.
    pub fn adopt(&mut self, slot: &mut B) {
        if slot.capacity_bytes() == 0 {
            if let Some(b) = self.free.pop() {
                *slot = b;
            }
        }
    }

    /// Takes `slot`'s storage, leaving it with none. The buffer comes back
    /// cleared — the next owner can read no byte of this one's — and is
    /// kept only within [`SPARE_MAX_COUNT`] and [`SPARE_MAX_BYTES`].
    pub fn retire(&mut self, slot: &mut B) {
        let bytes = slot.capacity_bytes();
        if bytes == 0 {
            return;
        }
        let mut b = std::mem::take(slot);
        b.clear();
        if bytes <= SPARE_MAX_BYTES && self.free.len() < SPARE_MAX_COUNT {
            self.free.push(b);
        }
    }
}

/// `a < b` in sequence space.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Connection states (RFC 793 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open got SYN, sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data flows.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; awaiting peer FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Both FINs crossed; awaiting ACK of ours.
    Closing,
    /// Done (2MSL wait collapsed — simulation has no stray duplicates
    /// after close).
    TimeWait,
    /// Fully closed / reset.
    Closed,
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size.
    pub mss: usize,
    /// Receive-buffer capacity we advertise from.
    pub rcv_wnd: u32,
    /// Retransmission timeout in machine cycles (fixed RTO).
    pub rto_cycles: u64,
    /// Upper bound on unsent application bytes buffered.
    pub max_tx_buf: usize,
    /// Retries before the connection is declared dead.
    pub max_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            mss: MSS,
            rcv_wnd: 65535,
            // 10 ms at 2.1 GHz — generous against the simulated RTT.
            rto_cycles: 21_000_000,
            max_tx_buf: 256 * 1024,
            max_retries: 8,
        }
    }
}

/// The form an outgoing segment takes (the stack adds IP/Ethernet): the
/// pump is one routine, generic over it.
pub trait Segment {
    /// The segment with header `hdr` carrying `fifo[at..at + len]`, where
    /// `fifo` is the connection's send FIFO.
    fn cut(hdr: TcpHeader, fifo: &[u8], at: u32, len: u32) -> Self;
    /// Its header.
    fn hdr(&self) -> &TcpHeader;
}

/// An outgoing segment that owns a copy of its payload: the form tests
/// and tools take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentOut {
    /// TCP header.
    pub hdr: TcpHeader,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Segment for SegmentOut {
    fn cut(hdr: TcpHeader, fifo: &[u8], at: u32, len: u32) -> Self {
        let payload = fifo[at as usize..][..len as usize].to_vec();
        Self { hdr, payload }
    }
    fn hdr(&self) -> &TcpHeader {
        &self.hdr
    }
}

/// An outgoing segment as a descriptor, the form the stack takes: the
/// header, and where the payload lies in the connection's send FIFO
/// ([`TcpConn::payload`]). It holds until the connection next processes
/// a segment, whose ACK may trim the FIFO head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegDesc {
    /// TCP header.
    pub hdr: TcpHeader,
    pub(crate) at: u32,
    pub(crate) len: u32,
}

impl Segment for SegDesc {
    fn cut(hdr: TcpHeader, _fifo: &[u8], at: u32, len: u32) -> Self {
        Self { hdr, at, len }
    }
    fn hdr(&self) -> &TcpHeader {
        &self.hdr
    }
}

/// One unacknowledged segment. Entries tile `snd_una..snd_nxt` in order,
/// so the front entry's `len` data bytes are the head of the send FIFO.
#[derive(Debug, Clone)]
struct RetxSeg {
    seq: u32,
    /// Data bytes (0 for a SYN, SYN-ACK or bare FIN).
    len: u32,
    fin: bool,
    sent_at: u64,
    retries: u32,
}

impl RetxSeg {
    fn seq_len(&self) -> u32 {
        self.len + u32::from(self.fin)
    }
}

/// One TCP connection endpoint.
#[derive(Debug, Clone)]
pub struct TcpConn {
    /// Current state.
    pub state: TcpState,
    /// Our port.
    pub local_port: u16,
    /// Peer port.
    pub remote_port: u16,
    cfg: TcpConfig,

    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    snd_wnd: u32,

    /// Unacknowledged then unsent application bytes: the first
    /// `in_flight` are out (one `retx` entry per segment), the rest
    /// await segmentation.
    tx: ByteFifo,
    in_flight: u32,
    retx: VecDeque<RetxSeg>,
    rx_ready: ByteFifo,
    ooo: BTreeMap<u32, Vec<u8>>,

    need_ack: bool,
    app_closed: bool,
    fin_queued: bool,
    /// Window last advertised to the peer (for window-update ACKs).
    last_adv_wnd: u16,
    /// Statistics: segments retransmitted.
    pub retransmits: u64,
}

impl TcpConn {
    fn new(state: TcpState, local_port: u16, remote_port: u16, iss: u32, cfg: TcpConfig) -> Self {
        let cfg_rcv_wnd_u16 = cfg.rcv_wnd.min(65535) as u16;
        Self {
            state,
            local_port,
            remote_port,
            cfg,
            snd_una: iss,
            snd_nxt: iss,
            rcv_nxt: 0,
            snd_wnd: 0,
            tx: ByteFifo::default(),
            in_flight: 0,
            retx: VecDeque::new(),
            rx_ready: ByteFifo::default(),
            ooo: BTreeMap::new(),
            need_ack: false,
            app_closed: false,
            fin_queued: false,
            last_adv_wnd: cfg_rcv_wnd_u16,
            retransmits: 0,
        }
    }

    /// Queued bytes not yet segmented.
    fn unsent(&self) -> usize {
        self.tx.len() - self.in_flight as usize
    }

    fn window(&self) -> u16 {
        let used = self.rx_ready.len() as u32;
        self.cfg.rcv_wnd.saturating_sub(used).min(65535) as u16
    }

    fn hdr(&self, flags: TcpFlags, seq: u32) -> TcpHeader {
        TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: if flags.ack { self.rcv_nxt } else { 0 },
            flags,
            window: self.window(),
        }
    }

    /// The payload bytes `seg` names.
    pub fn payload(&self, seg: &SegDesc) -> &[u8] {
        &self.tx.peek()[seg.at as usize..][..seg.len as usize]
    }

    /// One outgoing segment carrying `len` send-FIFO bytes from `at`.
    fn seg<S: Segment>(&self, flags: TcpFlags, seq: u32, at: u32, len: u32) -> S {
        S::cut(self.hdr(flags, seq), self.tx.peek(), at, len)
    }

    /// Active open: returns the endpoint and its SYN.
    pub fn connect(
        local_port: u16,
        remote_port: u16,
        iss: u32,
        cfg: TcpConfig,
    ) -> (Self, SegmentOut) {
        let mut c = Self::new(TcpState::SynSent, local_port, remote_port, iss, cfg);
        let syn = SegmentOut {
            hdr: c.hdr(TcpFlags::SYN, iss),
            payload: Vec::new(),
        };
        c.snd_nxt = iss.wrapping_add(1);
        // Track the SYN for retransmission (zero data, consumes 1 seq).
        c.retx.push_back(RetxSeg {
            seq: iss,
            len: 0,
            fin: false,
            sent_at: 0,
            retries: 0,
        });
        (c, syn)
    }

    /// Passive open from a received SYN: returns the endpoint and its
    /// SYN-ACK.
    pub fn accept(
        local_port: u16,
        remote_port: u16,
        iss: u32,
        peer_syn: &TcpHeader,
        cfg: TcpConfig,
    ) -> (Self, SegmentOut) {
        let mut c = Self::new(TcpState::SynRcvd, local_port, remote_port, iss, cfg);
        c.rcv_nxt = peer_syn.seq.wrapping_add(1);
        c.snd_wnd = u32::from(peer_syn.window);
        let syn_ack = SegmentOut {
            hdr: c.hdr(TcpFlags::SYN_ACK, iss),
            payload: Vec::new(),
        };
        c.snd_nxt = iss.wrapping_add(1);
        c.retx.push_back(RetxSeg {
            seq: iss,
            len: 0,
            fin: false,
            sent_at: 0,
            retries: 0,
        });
        (c, syn_ack)
    }

    /// Whether the connection is in a state where data flows.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::FinWait2
        )
    }

    /// Whether the connection is finished.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, TcpState::Closed | TcpState::TimeWait)
    }

    /// Whether the peer has closed its direction and everything the peer
    /// sent has been consumed (EOF condition for `recv`).
    pub fn at_eof(&self) -> bool {
        self.rx_ready.is_empty()
            && matches!(
                self.state,
                TcpState::CloseWait
                    | TcpState::LastAck
                    | TcpState::Closing
                    | TcpState::TimeWait
                    | TcpState::Closed
            )
    }

    /// Queues application data; returns bytes accepted (bounded by the
    /// transmit buffer).
    pub fn send(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.send_room());
        self.tx.extend(&data[..n]);
        n
    }

    /// Bytes [`TcpConn::send`] would accept right now.
    fn send_room(&self) -> usize {
        let open = !self.app_closed
            && matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
            );
        if open {
            self.tx_room()
        } else {
            0
        }
    }

    /// [`TcpConn::send`] for a connection whose FIFOs hold storage only
    /// while it has work: the send FIFO borrows from `spare` first if it
    /// is about to take bytes and has none.
    pub(crate) fn send_lent(&mut self, data: &[u8], spare: &mut SpareList<Vec<u8>>) -> usize {
        if !data.is_empty() && self.send_room() > 0 {
            spare.adopt(&mut self.tx.buf);
        }
        self.send(data)
    }

    /// [`TcpConn::on_segment_into`] likewise: the receive FIFO borrows
    /// from `spare` before a payload lands in it.
    pub(crate) fn on_segment_lent<S: Segment>(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        now: u64,
        out: &mut Vec<S>,
        spare: &mut SpareList<Vec<u8>>,
    ) {
        if !payload.is_empty() {
            spare.adopt(&mut self.rx_ready.buf);
        }
        self.on_segment_into(hdr, payload, now, out);
    }

    /// Hands the storage of each empty FIFO back: the stack calls this
    /// where the socket leaves its active set or is torn down.
    pub(crate) fn retire_storage(&mut self, spare: &mut SpareList<Vec<u8>>) {
        self.tx.retire(spare);
        self.rx_ready.retire(spare);
    }

    /// Heap bytes behind the two FIFOs (what an idle connection must not
    /// hold; see `NetStack::idle_storage_audit`).
    pub(crate) fn fifo_capacity(&self) -> usize {
        self.tx.buf.capacity() + self.rx_ready.buf.capacity()
    }

    /// Bytes queued but not yet acknowledged.
    pub fn tx_pending(&self) -> usize {
        self.tx.len()
    }

    /// Up to `max` in-order received bytes, lent in place; follow with
    /// [`TcpConn::consume_ready`] for as many as were used.
    pub fn ready_slice(&self, max: usize) -> &[u8] {
        let ready = self.rx_ready.peek();
        &ready[..ready.len().min(max)]
    }

    /// Drops the first `n` in-order received bytes (clamped).
    pub fn consume_ready(&mut self, n: usize) {
        self.rx_ready.consume(n);
    }

    /// Takes up to `max` in-order received bytes. The owning form of
    /// [`TcpConn::ready_slice`] + [`TcpConn::consume_ready`], for tests
    /// and tools.
    pub fn take_ready(&mut self, max: usize) -> Vec<u8> {
        let out = self.ready_slice(max).to_vec();
        self.consume_ready(out.len());
        out
    }

    /// Bytes ready for the application.
    pub fn ready_len(&self) -> usize {
        self.rx_ready.len()
    }

    /// Application close: a FIN is emitted once the transmit queue
    /// drains.
    pub fn close(&mut self) {
        self.app_closed = true;
    }

    /// Whether the application has closed its sending direction.
    pub fn app_closed(&self) -> bool {
        self.app_closed
    }

    /// Transmit-buffer room available to `send` (the write-readiness
    /// condition the event queue reports).
    pub fn tx_room(&self) -> usize {
        self.cfg.max_tx_buf - self.unsent().min(self.cfg.max_tx_buf)
    }

    /// Processes a received segment; returns any immediate responses
    /// (further output comes from [`TcpConn::poll`]). Allocating
    /// convenience wrapper around [`TcpConn::on_segment_into`].
    pub fn on_segment(&mut self, hdr: &TcpHeader, payload: &[u8], now: u64) -> Vec<SegmentOut> {
        let mut out = Vec::new();
        self.on_segment_into(hdr, payload, now, &mut out);
        out
    }

    /// [`TcpConn::on_segment`] with a caller-owned output vector:
    /// responses (none carries payload) are appended to `out` (existing
    /// entries untouched), so the per-segment hot path reuses one
    /// scratch allocation.
    pub fn on_segment_into<S: Segment>(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        now: u64,
        out: &mut Vec<S>,
    ) {
        let start = out.len();
        if hdr.flags.rst {
            self.state = TcpState::Closed;
            return;
        }
        self.snd_wnd = u32::from(hdr.window);

        // --- handshake ---------------------------------------------------
        match self.state {
            TcpState::SynSent => {
                if hdr.flags.syn && hdr.flags.ack && hdr.ack == self.snd_nxt {
                    self.rcv_nxt = hdr.seq.wrapping_add(1);
                    self.snd_una = hdr.ack;
                    self.retx.clear(); // the SYN is acked
                    self.state = TcpState::Established;
                    self.need_ack = true;
                }
                self.flush_ack_into(out, start);
                return;
            }
            TcpState::SynRcvd => {
                if hdr.flags.ack && hdr.ack == self.snd_nxt {
                    self.snd_una = hdr.ack;
                    self.retx.clear();
                    self.state = TcpState::Established;
                    // fall through: the ACK may carry data.
                } else if hdr.flags.syn {
                    // Duplicate SYN: re-answer with SYN-ACK.
                    out.push(self.seg(TcpFlags::SYN_ACK, self.snd_una, 0, 0));
                    return;
                }
            }
            TcpState::Closed | TcpState::TimeWait => {
                return;
            }
            _ => {}
        }

        // --- ACK processing -----------------------------------------------
        if hdr.flags.ack && seq_lt(self.snd_una, hdr.ack) && seq_le(hdr.ack, self.snd_nxt) {
            self.snd_una = hdr.ack;
            // Drop fully-acked retransmission entries; trim a partial
            // one. Their data leaves the head of the send FIFO.
            let mut acked = 0u32;
            while let Some(front) = self.retx.front_mut() {
                let end = front.seq.wrapping_add(front.seq_len());
                if seq_le(end, self.snd_una) {
                    acked += front.len;
                    self.retx.pop_front();
                } else if seq_lt(front.seq, self.snd_una) {
                    let cut = self.snd_una.wrapping_sub(front.seq).min(front.len);
                    acked += cut;
                    front.len -= cut;
                    front.seq = self.snd_una;
                    break;
                } else {
                    break;
                }
            }
            self.tx.consume(acked as usize);
            self.in_flight -= acked;
            // Our FIN acked?
            if self.fin_queued && self.snd_una == self.snd_nxt {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => self.state = TcpState::TimeWait,
                    TcpState::LastAck => self.state = TcpState::Closed,
                    _ => {}
                }
            }
        }

        // --- payload ---------------------------------------------------------
        if !payload.is_empty() {
            let seg_seq = hdr.seq;
            if seg_seq == self.rcv_nxt {
                self.rx_ready.extend(payload);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
                // Drain contiguous out-of-order segments.
                while let Some(data) = self.ooo.remove(&self.rcv_nxt) {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
                    self.rx_ready.extend(&data);
                }
                self.need_ack = true;
            } else if seq_lt(self.rcv_nxt, seg_seq) {
                // Future data: stash (bounded by the advertised window).
                let limit = self.rcv_nxt.wrapping_add(self.cfg.rcv_wnd);
                if seq_lt(seg_seq, limit) {
                    self.ooo.entry(seg_seq).or_insert_with(|| payload.to_vec());
                }
                self.need_ack = true; // duplicate ACK hints at the gap
            } else {
                // Old duplicate: re-ACK.
                self.need_ack = true;
            }
        }

        // --- FIN ----------------------------------------------------------------
        let fin_seq = hdr.seq.wrapping_add(payload.len() as u32);
        if hdr.flags.fin && fin_seq == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            self.need_ack = true;
            self.state = match self.state {
                TcpState::Established | TcpState::SynRcvd => TcpState::CloseWait,
                TcpState::FinWait1 => {
                    if self.fin_queued && self.snd_una == self.snd_nxt {
                        TcpState::TimeWait
                    } else {
                        TcpState::Closing
                    }
                }
                TcpState::FinWait2 => TcpState::TimeWait,
                s => s,
            };
        }

        let _ = now;
        self.flush_ack_into(out, start);
    }

    /// Appends a pending pure ACK and records the window advertised by
    /// the last segment this call appended (entries before `start`
    /// belong to earlier calls sharing the scratch vector).
    fn flush_ack_into<S: Segment>(&mut self, out: &mut Vec<S>, start: usize) {
        if self.need_ack {
            self.need_ack = false;
            out.push(self.seg(TcpFlags::ACK, self.snd_nxt, 0, 0));
        }
        if out.len() > start {
            self.last_adv_wnd = out[out.len() - 1].hdr().window;
        }
    }

    /// Whether [`TcpConn::poll`] could emit output or change state right
    /// now: a pending ACK, unacked segments (RTO may fire), queued data
    /// or a deferred FIN in a sending state, or a receive window that
    /// reopened by at least one MSS. When this is `false`, `poll` is a
    /// guaranteed no-op — the readiness pump uses that to skip idle
    /// connections without perturbing the simulated cycle stream.
    pub fn needs_pump(&self) -> bool {
        if self.need_ack || !self.retx.is_empty() {
            return true;
        }
        let sending = matches!(self.state, TcpState::Established | TcpState::CloseWait);
        if sending && (self.unsent() > 0 || (self.app_closed && !self.fin_queued)) {
            return true;
        }
        self.is_established()
            && u32::from(self.window()) >= u32::from(self.last_adv_wnd) + self.cfg.mss as u32
    }

    /// Pumps output: new segments within the peer's window, the FIN once
    /// the queue drains, retransmissions past the RTO, and any pending
    /// pure ACK. Allocating convenience wrapper around
    /// [`TcpConn::poll_into`].
    pub fn poll(&mut self, now: u64) -> Vec<SegmentOut> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`TcpConn::poll`] with a caller-owned output vector: segments are
    /// appended to `out` (existing entries untouched) in order — new
    /// data, the FIN, the head retransmission, a pending pure ACK — so
    /// the per-tick hot path reuses one scratch allocation. As
    /// [`SegDesc`]s nothing is copied: payloads stay in the send FIFO.
    pub fn poll_into<S: Segment>(&mut self, now: u64, out: &mut Vec<S>) {
        let start = out.len();

        // Window update: if the application drained the receive buffer
        // enough to reopen a closed-down window by at least one MSS,
        // tell the peer so it resumes sending.
        if self.is_established()
            && u32::from(self.window()) >= u32::from(self.last_adv_wnd) + self.cfg.mss as u32
        {
            self.need_ack = true;
        }

        // New data, window permitting.
        if matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            loop {
                let in_flight = self.snd_nxt.wrapping_sub(self.snd_una);
                let wnd_room = self.snd_wnd.saturating_sub(in_flight) as usize;
                if self.unsent() == 0 || wnd_room == 0 {
                    break;
                }
                let n = self.unsent().min(self.cfg.mss).min(wnd_room);
                out.push(self.seg(TcpFlags::ACK, self.snd_nxt, self.in_flight, n as u32));
                self.retx.push_back(RetxSeg {
                    seq: self.snd_nxt,
                    len: n as u32,
                    fin: false,
                    sent_at: now,
                    retries: 0,
                });
                self.in_flight += n as u32;
                self.snd_nxt = self.snd_nxt.wrapping_add(n as u32);
                self.need_ack = false; // data segments carry the ACK
            }
        }

        // FIN when the application closed and everything is out.
        if self.app_closed
            && !self.fin_queued
            && self.unsent() == 0
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
        {
            out.push(self.seg(TcpFlags::FIN_ACK, self.snd_nxt, 0, 0));
            self.retx.push_back(RetxSeg {
                seq: self.snd_nxt,
                len: 0,
                fin: true,
                sent_at: now,
                retries: 0,
            });
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_queued = true;
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
            self.need_ack = false;
        }

        // Retransmissions.
        if let Some(front) = self.retx.front_mut() {
            if now.saturating_sub(front.sent_at) >= self.cfg.rto_cycles {
                front.sent_at = now;
                front.retries += 1;
                self.retransmits += 1;
                if front.retries > self.cfg.max_retries {
                    self.state = TcpState::Closed;
                    return;
                }
                let flags = if front.fin {
                    TcpFlags::FIN_ACK
                } else if front.len == 0 {
                    // An unacked zero-length entry is a SYN (or SYN-ACK).
                    if self.state == TcpState::SynSent {
                        TcpFlags::SYN
                    } else {
                        TcpFlags::SYN_ACK
                    }
                } else {
                    TcpFlags::ACK
                };
                let (seq, len) = (front.seq, front.len);
                out.push(self.seg(flags, seq, 0, len));
            }
        }

        self.flush_ack_into(out, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives two endpoints to completion, delivering every produced
    /// segment (optionally through a fault filter). Returns total
    /// delivered segments.
    fn pump(
        a: &mut TcpConn,
        b: &mut TcpConn,
        now: &mut u64,
        mut filter: impl FnMut(u64, &SegmentOut) -> bool,
    ) -> u64 {
        let mut delivered = 0u64;
        let mut n = 0u64;
        for _ in 0..400 {
            let mut quiet = true;
            let from_a = a.poll(*now);
            for s in from_a {
                n += 1;
                if filter(n, &s) {
                    delivered += 1;
                    quiet = false;
                    for r in b.on_segment(&s.hdr, &s.payload, *now) {
                        n += 1;
                        if filter(n, &r) {
                            delivered += 1;
                            a.on_segment(&r.hdr, &r.payload, *now)
                                .into_iter()
                                .for_each(|rr| {
                                    b.on_segment(&rr.hdr, &rr.payload, *now);
                                });
                        }
                    }
                }
            }
            let from_b = b.poll(*now);
            for s in from_b {
                n += 1;
                if filter(n, &s) {
                    delivered += 1;
                    quiet = false;
                    for r in a.on_segment(&s.hdr, &s.payload, *now) {
                        n += 1;
                        if filter(n, &r) {
                            b.on_segment(&r.hdr, &r.payload, *now);
                        }
                    }
                }
            }
            if quiet {
                *now += TcpConfig::default().rto_cycles + 1; // let RTOs fire
            } else {
                *now += 1000;
            }
        }
        delivered
    }

    fn handshake() -> (TcpConn, TcpConn, u64) {
        let (mut client, syn) = TcpConn::connect(40000, 5201, 1000, TcpConfig::default());
        let (mut server, syn_ack) =
            TcpConn::accept(5201, 40000, 9000, &syn.hdr, TcpConfig::default());
        let acks = client.on_segment(&syn_ack.hdr, &[], 0);
        assert_eq!(client.state, TcpState::Established);
        for a in acks {
            server.on_segment(&a.hdr, &[], 0);
        }
        assert_eq!(server.state, TcpState::Established);
        (client, server, 0)
    }

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let _ = handshake();
    }

    #[test]
    fn data_flows_and_is_acked() {
        let (mut c, mut s, mut now) = handshake();
        let msg = b"hello from the client".to_vec();
        assert_eq!(c.send(&msg), msg.len());
        pump(&mut c, &mut s, &mut now, |_, _| true);
        assert_eq!(s.take_ready(1024), msg);
        // Everything acked: nothing left in flight.
        assert_eq!(c.tx_pending(), 0);
    }

    #[test]
    fn large_transfer_is_segmented_at_mss() {
        let (mut c, mut s, _) = handshake();
        let data = vec![7u8; 5000];
        c.send(&data);
        let segs = c.poll(0);
        let data_segs: Vec<_> = segs.iter().filter(|s| !s.payload.is_empty()).collect();
        assert_eq!(data_segs.len(), 4); // 1460*3 + 620
        assert!(data_segs.iter().all(|s| s.payload.len() <= MSS));
        let total: usize = data_segs.iter().map(|s| s.payload.len()).sum();
        assert_eq!(total, 5000);
        // Deliver them and verify reassembly.
        for seg in segs {
            s.on_segment(&seg.hdr, &seg.payload, 0);
        }
        assert_eq!(s.take_ready(8192), data);
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (mut c, mut s, _) = handshake();
        c.send(&(0..200u8).cycle().take(4000).collect::<Vec<_>>());
        let segs: Vec<_> = c
            .poll(0)
            .into_iter()
            .filter(|s| !s.payload.is_empty())
            .collect();
        assert!(segs.len() >= 3);
        // Deliver in reverse order.
        for seg in segs.iter().rev() {
            s.on_segment(&seg.hdr, &seg.payload, 0);
        }
        let got = s.take_ready(8192);
        assert_eq!(got, (0..200u8).cycle().take(4000).collect::<Vec<_>>());
    }

    #[test]
    fn lost_segment_is_retransmitted() {
        let (mut c, mut s, mut now) = handshake();
        let data = vec![3u8; 4000];
        c.send(&data);
        // Drop the 2nd *data* segment, once.
        let mut data_segs = 0u32;
        let mut dropped = false;
        pump(&mut c, &mut s, &mut now, |_, seg| {
            if !seg.payload.is_empty() {
                data_segs += 1;
                if data_segs == 2 && !dropped {
                    dropped = true;
                    return false;
                }
            }
            true
        });
        assert!(dropped);
        assert_eq!(s.take_ready(8192), data);
        assert!(c.retransmits >= 1);
    }

    #[test]
    fn receiver_window_throttles_the_sender() {
        let cfg_small = TcpConfig {
            rcv_wnd: 2000,
            ..TcpConfig::default()
        };
        let (mut c, syn) = TcpConn::connect(1, 2, 100, TcpConfig::default());
        let (mut s, syn_ack) = TcpConn::accept(2, 1, 200, &syn.hdr, cfg_small);
        for a in c.on_segment(&syn_ack.hdr, &[], 0) {
            s.on_segment(&a.hdr, &[], 0);
        }
        c.send(&vec![1u8; 10_000]);
        let segs = c.poll(0);
        let sent: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert!(
            sent <= 2000,
            "sender respected the 2000-byte window (sent {sent})"
        );
        // Deliver the first burst, then: receiver consumes, the window
        // reopens via its ACKs, and the transfer completes.
        for seg in segs {
            for r in s.on_segment(&seg.hdr, &seg.payload, 0) {
                c.on_segment(&r.hdr, &r.payload, 0);
            }
        }
        let mut now = 0;
        let mut received = Vec::new();
        for _ in 0..400 {
            for seg in c.poll(now) {
                for r in s.on_segment(&seg.hdr, &seg.payload, now) {
                    c.on_segment(&r.hdr, &r.payload, now);
                }
            }
            received.extend(s.take_ready(512)); // slow consumer
                                                // The receiver's poll emits window-update ACKs.
            for seg in s.poll(now) {
                for r in c.on_segment(&seg.hdr, &seg.payload, now) {
                    s.on_segment(&r.hdr, &r.payload, now);
                }
            }
            now += 1000;
            if received.len() == 10_000 {
                break;
            }
        }
        assert_eq!(received.len(), 10_000);
    }

    #[test]
    fn clean_shutdown_runs_the_fin_state_machine() {
        let (mut c, mut s, mut now) = handshake();
        c.send(b"bye");
        c.close();
        pump(&mut c, &mut s, &mut now, |_, _| true);
        assert_eq!(s.take_ready(16), b"bye");
        assert!(s.at_eof());
        // Server closes its side too.
        s.close();
        pump(&mut c, &mut s, &mut now, |_, _| true);
        assert!(c.is_closed(), "client state: {:?}", c.state);
        assert!(s.is_closed(), "server state: {:?}", s.state);
    }

    #[test]
    fn simultaneous_close_reaches_closing_states() {
        let (mut c, mut s, _) = handshake();
        c.close();
        s.close();
        let c_fin = c.poll(0);
        let s_fin = s.poll(0);
        assert_eq!(c.state, TcpState::FinWait1);
        assert_eq!(s.state, TcpState::FinWait1);
        // Cross-deliver the FINs and the resulting ACKs.
        for seg in c_fin {
            for r in s.on_segment(&seg.hdr, &seg.payload, 0) {
                c.on_segment(&r.hdr, &r.payload, 0);
            }
        }
        for seg in s_fin {
            for r in c.on_segment(&seg.hdr, &seg.payload, 0) {
                s.on_segment(&r.hdr, &r.payload, 0);
            }
        }
        assert!(c.is_closed(), "client: {:?}", c.state);
        assert!(s.is_closed(), "server: {:?}", s.state);
    }

    #[test]
    fn rst_kills_the_connection() {
        let (mut c, _s, _) = handshake();
        let rst = TcpHeader {
            src_port: 5201,
            dst_port: 40000,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
        };
        c.on_segment(&rst, &[], 0);
        assert_eq!(c.state, TcpState::Closed);
    }

    #[test]
    fn connection_gives_up_after_max_retries() {
        let (mut c, _syn) = TcpConn::connect(1, 2, 50, TcpConfig::default());
        let mut now = 0u64;
        // Nobody answers the SYN.
        for _ in 0..20 {
            now += TcpConfig::default().rto_cycles + 1;
            c.poll(now);
        }
        assert_eq!(c.state, TcpState::Closed);
    }

    #[test]
    fn duplicate_data_is_ignored_but_reacked() {
        let (mut c, mut s, _) = handshake();
        c.send(b"abc");
        let segs: Vec<_> = c.poll(0);
        let data_seg = segs.iter().find(|s| !s.payload.is_empty()).unwrap().clone();
        let acks1 = s.on_segment(&data_seg.hdr, &data_seg.payload, 0);
        assert!(!acks1.is_empty());
        // Replay the same segment: no duplicate data, but an ACK comes back.
        let acks2 = s.on_segment(&data_seg.hdr, &data_seg.payload, 0);
        assert!(!acks2.is_empty());
        assert_eq!(s.take_ready(16), b"abc");
    }

    #[test]
    fn seq_arithmetic_wraps_correctly() {
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 5, 5));
        assert!(!seq_lt(5, u32::MAX - 5));
        assert!(seq_le(7, 7));
    }

    #[test]
    fn quiesced_connection_reports_no_pump_and_poll_appends_nothing() {
        let (mut c, mut s, mut now) = handshake();
        c.send(b"ping");
        pump(&mut c, &mut s, &mut now, |_, _| true);
        assert_eq!(s.take_ready(16), b"ping");
        // Fully acked and drained: poll must be a guaranteed no-op, and
        // a reused scratch vector's existing entries must survive.
        assert!(!c.needs_pump());
        let mut scratch = vec![SegmentOut {
            hdr: TcpHeader {
                src_port: 0,
                dst_port: 0,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 0,
            },
            payload: Vec::new(),
        }];
        c.poll_into(now, &mut scratch);
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn pending_work_flags_needs_pump() {
        let (mut c, _s, _) = handshake();
        assert!(!c.needs_pump());
        c.send(b"queued");
        assert!(c.needs_pump(), "queued tx data requires a pump");
        c.poll(0);
        assert!(c.needs_pump(), "unacked segment keeps the RTO armed");
    }

    #[test]
    fn spare_list_frees_what_is_over_either_bound() {
        let mut spare = SpareList::default();
        for _ in 0..SPARE_MAX_COUNT + 8 {
            spare.retire(&mut Vec::<u8>::with_capacity(64));
        }
        assert_eq!(spare.free.len(), SPARE_MAX_COUNT);
        let mut slot = Vec::<u8>::with_capacity(SPARE_MAX_BYTES + 1);
        spare.free.clear();
        spare.retire(&mut slot);
        assert_eq!(slot.capacity(), 0, "retiring leaves the owner nothing");
        assert!(spare.free.is_empty(), "an outgrown buffer is freed");
        assert!(spare.is_bounded());
        // An owner that still has storage keeps it: nothing is swapped in.
        spare.retire(&mut Vec::<u8>::with_capacity(64));
        let mut own = Vec::<u8>::with_capacity(8);
        spare.adopt(&mut own);
        assert_eq!((own.capacity(), spare.free.len()), (8, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Four FIFOs share one spare list with an owner that, like a
        /// parser, retires its buffer with bytes still in it. Each FIFO
        /// must read as a private `VecDeque` does: order kept, and no
        /// byte of another owner ever visible — storage moves between
        /// them, contents never do.
        #[test]
        fn fifos_sharing_a_spare_list_read_as_private_deques(
            ops in proptest::prelude::prop::collection::vec((0usize..4, 0u8..6, 0usize..3000), 50..300)
        ) {
            let mut spare = SpareList::default();
            let mut fifos: [ByteFifo; 4] = Default::default();
            let mut models: [VecDeque<u8>; 4] = Default::default();
            let mut dirty = Vec::new();
            for (who, op, n) in ops {
                let (f, model) = (&mut fifos[who], &mut models[who]);
                match op {
                    0 | 1 => {
                        // Bytes tagged with their owner in the top bits.
                        let data: Vec<u8> = (0..n).map(|i| (who as u8) << 6 | (i % 61) as u8).collect();
                        f.extend(&data);
                        model.extend(&data);
                    }
                    2 => {
                        f.consume(n);
                        model.drain(..n.min(model.len()));
                    }
                    3 => {
                        f.retire(&mut spare);
                        // An empty FIFO gives its storage up; any other
                        // keeps its bytes (checked below).
                        proptest::prop_assert!(!model.is_empty() || f.buf.capacity() == 0);
                    }
                    4 => spare.adopt(&mut f.buf),
                    _ => {
                        spare.adopt(&mut dirty);
                        dirty.resize(n, 0xff);
                        spare.retire(&mut dirty);
                    }
                }
                proptest::prop_assert_eq!(f.len(), model.len());
                proptest::prop_assert!(f.peek().iter().eq(model.iter()), "fifo {} diverged from its model", who);
            }
            proptest::prop_assert!(spare.is_bounded());
        }
    }

    #[test]
    fn send_respects_tx_buffer_bound() {
        let cfg = TcpConfig {
            max_tx_buf: 100,
            ..Default::default()
        };
        let (mut c, syn) = TcpConn::connect(1, 2, 0, cfg);
        let (_s, syn_ack) = TcpConn::accept(2, 1, 0, &syn.hdr, TcpConfig::default());
        c.on_segment(&syn_ack.hdr, &[], 0);
        assert_eq!(c.send(&[0u8; 500]), 100);
        assert_eq!(c.send(&[0u8; 500]), 0);
    }
}
