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
//! are lent to the socket layer out of the receive FIFO.
//!
//! A connection is split into what it *is* — state, ports, sequence
//! numbers, flags — and what it *holds while bytes are in flight*: both
//! FIFOs, the retransmission queue and the reassembly map, one [`Flight`]
//! record. The record is on loan from its stack's [`SpareList`] from the
//! moment something enters it until the stack finds it empty again, so a
//! connection that is merely open is a few words (DESIGN.md §6.15).
//!
//! Deliberate simplifications (documented in DESIGN.md): no congestion
//! control, no SACK, no delayed ACKs, fixed RTO — none of which the
//! FlexOS evaluation exercises; flow control, loss recovery and ordering
//! are implemented in full.

use crate::wire::{TcpFlags, TcpHeader, MSS};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

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
    const EMPTY: Self = Self {
        buf: Vec::new(),
        head: 0,
    };

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

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
}

/// Most records a [`SpareList`] keeps: past it a retired record is freed.
/// A list needs no more than the most owners that work at once — 14
/// streams on the steepest rung of `serve_c100k`'s rate ladder, two on
/// every other workload. When 50 000 bursts are offered in one instant
/// (the saturated run) it fills and the other records are freed: memory
/// follows the work in hand, not its high-water mark.
pub const SPARE_MAX_COUNT: usize = 64;

/// Largest record a [`SpareList`] keeps, by the heap behind it: a retired
/// record that outgrew it is freed, so one large request does not pin its
/// high-water mark on a connection (or on the list) for life. Twice the
/// 64 KiB receive window: a FIFO the window bounds, grown by doubling,
/// never exceeds it (iperf's reaches 46 720 B, serve's 284 B), so the
/// bulk path always gets its own record back; a parser that took a 1 MiB
/// `SET` does not.
pub const SPARE_MAX_BYTES: usize = 128 * 1024;

/// What an owner holds only while it has work, and a [`SpareList`] lends.
pub trait Lend: Default {
    /// Whether nothing is queued in it: only then may it change hands.
    fn is_idle(&self) -> bool;
    /// Drops the contents, keeps the allocations.
    fn clear(&mut self);
    /// Bytes of heap behind it.
    fn capacity_bytes(&self) -> usize;
}

/// Flight state is held only while there is work: a LIFO of cleared
/// records that an owner's slot is filled from where work arrives
/// ([`lend`](SpareList::lend)) and emptied into when the work is done
/// ([`retire`](SpareList::retire)), so an idle owner is its slot — one
/// pointer — and a busy one allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct SpareList<R> {
    free: Vec<Box<R>>,
}

impl<R: Lend> SpareList<R> {
    /// Records waiting on the list.
    pub fn held(&self) -> usize {
        self.free.len()
    }

    /// Whether the list is within both of its bounds (for audits).
    pub fn is_bounded(&self) -> bool {
        let mut kept = self.free.iter();
        self.free.len() <= SPARE_MAX_COUNT && kept.all(|r| r.capacity_bytes() <= SPARE_MAX_BYTES)
    }

    /// The record in `slot`, which is given one first if it has none: the
    /// one retired last, or a new one when the list is empty.
    pub fn lend<'a>(&mut self, slot: &'a mut Option<Box<R>>) -> &'a mut R {
        slot.get_or_insert_with(|| self.free.pop().unwrap_or_default())
    }

    /// Takes the record out of `slot` unless something is still queued in
    /// it. The record is cleared — the next owner can read nothing of this
    /// one's — and kept only within [`SPARE_MAX_COUNT`] and
    /// [`SPARE_MAX_BYTES`].
    pub fn retire(&mut self, slot: &mut Option<Box<R>>) {
        let Some(mut r) = slot.take_if(|r| r.is_idle()) else {
            return;
        };
        if r.capacity_bytes() <= SPARE_MAX_BYTES && self.free.len() < SPARE_MAX_COUNT {
            r.clear();
            self.free.push(r);
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

/// What a connection holds only while bytes are in flight (DESIGN.md
/// §6.15): lent by a [`SpareList`] where the first of them arrives, taken
/// back once every field is empty again.
#[derive(Debug, Clone, Default)]
pub(crate) struct Flight {
    /// Unacknowledged then unsent application bytes: the first
    /// `in_flight` are out (one `retx` entry per segment), the rest
    /// await segmentation.
    tx: ByteFifo,
    in_flight: u32,
    retx: VecDeque<RetxSeg>,
    rx_ready: ByteFifo,
    ooo: BTreeMap<u32, Vec<u8>>,
}

/// What a connection without a record reads.
static NO_FLIGHT: Flight = Flight {
    tx: ByteFifo::EMPTY,
    in_flight: 0,
    retx: VecDeque::new(),
    rx_ready: ByteFifo::EMPTY,
    ooo: BTreeMap::new(),
};

impl Lend for Flight {
    fn is_idle(&self) -> bool {
        self.tx.is_empty()
            && self.retx.is_empty()
            && self.rx_ready.is_empty()
            && self.ooo.is_empty()
    }

    fn clear(&mut self) {
        self.tx.clear();
        self.in_flight = 0;
        self.retx.clear();
        self.rx_ready.clear();
        self.ooo.clear();
    }

    fn capacity_bytes(&self) -> usize {
        self.tx.buf.capacity()
            + self.rx_ready.buf.capacity()
            + self.retx.capacity() * std::mem::size_of::<RetxSeg>()
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
    /// Shared by every connection of a stack.
    cfg: Rc<TcpConfig>,

    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    snd_wnd: u32,

    need_ack: bool,
    app_closed: bool,
    fin_queued: bool,
    /// Window last advertised to the peer (for window-update ACKs).
    last_adv_wnd: u16,
    /// Statistics: segments retransmitted (saturating; the stack keeps
    /// the `u64` total).
    pub retransmits: u32,

    /// `None` while nothing is queued either way.
    flight: Option<Box<Flight>>,
}

impl TcpConn {
    fn flight(&self) -> &Flight {
        self.flight.as_deref().unwrap_or(&NO_FLIGHT)
    }

    /// Queued bytes not yet segmented.
    fn unsent(&self) -> usize {
        let f = self.flight();
        f.tx.len() - f.in_flight as usize
    }

    fn window(&self) -> u16 {
        let used = self.flight().rx_ready.len() as u32;
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
        &self.flight().tx.peek()[seg.at as usize..][..seg.len as usize]
    }

    /// One outgoing segment carrying `len` send-FIFO bytes from `at`.
    fn seg<S: Segment>(&self, flags: TcpFlags, seq: u32, at: u32, len: u32) -> S {
        S::cut(self.hdr(flags, seq), self.flight().tx.peek(), at, len)
    }

    /// Active open: returns the endpoint and its SYN.
    pub fn connect(
        local_port: u16,
        remote_port: u16,
        iss: u32,
        cfg: TcpConfig,
    ) -> (Self, SegmentOut) {
        let own = &mut SpareList::default();
        Self::open(local_port, remote_port, iss, None, Rc::new(cfg), own, 0)
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
        let own = &mut SpareList::default();
        Self::open(
            local_port,
            remote_port,
            iss,
            Some(peer_syn),
            Rc::new(cfg),
            own,
            0,
        )
    }

    /// [`TcpConn::accept`] in answer to `peer_syn`, [`TcpConn::connect`]
    /// without one, for a connection of a stack. As with every `*_lent`
    /// method, the record a connection needs comes from `spare`; the plain
    /// forms pass an empty list, so a connection on its own allocates one.
    /// The opening segment's retransmission timer starts at `now`.
    pub(crate) fn open(
        local_port: u16,
        remote_port: u16,
        iss: u32,
        peer_syn: Option<&TcpHeader>,
        cfg: Rc<TcpConfig>,
        spare: &mut SpareList<Flight>,
        now: u64,
    ) -> (Self, SegmentOut) {
        let (state, flags) = match peer_syn {
            None => (TcpState::SynSent, TcpFlags::SYN),
            Some(_) => (TcpState::SynRcvd, TcpFlags::SYN_ACK),
        };
        let mut c = Self {
            state,
            local_port,
            remote_port,
            snd_una: iss,
            snd_nxt: iss.wrapping_add(1),
            rcv_nxt: peer_syn.map_or(0, |syn| syn.seq.wrapping_add(1)),
            snd_wnd: peer_syn.map_or(0, |syn| u32::from(syn.window)),
            need_ack: false,
            app_closed: false,
            fin_queued: false,
            last_adv_wnd: cfg.rcv_wnd.min(65535) as u16,
            retransmits: 0,
            flight: None,
            cfg,
        };
        let opening = SegmentOut {
            hdr: c.hdr(flags, iss),
            payload: Vec::new(),
        };
        // Tracked for retransmission: zero data, consumes one sequence
        // number.
        spare.lend(&mut c.flight).retx.push_back(RetxSeg {
            seq: iss,
            len: 0,
            fin: false,
            sent_at: now,
            retries: 0,
        });
        (c, opening)
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
        self.flight().rx_ready.is_empty()
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
        self.send_lent(data, &mut SpareList::default())
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

    /// [`TcpConn::send`], the record lent from `spare` if bytes are about
    /// to be queued and the connection has none.
    pub(crate) fn send_lent(&mut self, data: &[u8], spare: &mut SpareList<Flight>) -> usize {
        let n = data.len().min(self.send_room());
        if n > 0 {
            spare.lend(&mut self.flight).tx.extend(&data[..n]);
        }
        n
    }

    /// Hands the record back if nothing is queued in it: the stack calls
    /// this where the socket leaves its active set or is torn down.
    pub(crate) fn retire_storage(&mut self, spare: &mut SpareList<Flight>) {
        spare.retire(&mut self.flight);
    }

    /// The record the connection holds, if any (one outside the active
    /// set must hold none that is idle; see
    /// `NetStack::idle_storage_audit`).
    pub(crate) fn record(&self) -> Option<&Flight> {
        self.flight.as_deref()
    }

    /// Up to `max` in-order received bytes, lent in place; follow with
    /// [`TcpConn::consume_ready`] for as many as were used.
    pub fn ready_slice(&self, max: usize) -> &[u8] {
        let ready = self.flight().rx_ready.peek();
        &ready[..ready.len().min(max)]
    }

    /// Drops the first `n` in-order received bytes (clamped).
    pub fn consume_ready(&mut self, n: usize) {
        if let Some(f) = &mut self.flight {
            f.rx_ready.consume(n);
        }
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
        self.flight().rx_ready.len()
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
        self.on_segment_lent(hdr, payload, now, out, &mut SpareList::default());
    }

    /// [`TcpConn::on_segment_into`], the record lent from `spare` if the
    /// payload is about to be queued and the connection has none.
    pub(crate) fn on_segment_lent<S: Segment>(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        now: u64,
        out: &mut Vec<S>,
        spare: &mut SpareList<Flight>,
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
                    if let Some(f) = &mut self.flight {
                        f.retx.clear(); // the SYN is acked
                    }
                    self.state = TcpState::Established;
                    self.need_ack = true;
                }
                self.flush_ack_into(out, start);
                return;
            }
            TcpState::SynRcvd => {
                if hdr.flags.ack && hdr.ack == self.snd_nxt {
                    self.snd_una = hdr.ack;
                    if let Some(f) = &mut self.flight {
                        f.retx.clear();
                    }
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
            if let Some(f) = &mut self.flight {
                let mut acked = 0u32;
                while let Some(front) = f.retx.front_mut() {
                    let end = front.seq.wrapping_add(front.seq_len());
                    if seq_le(end, self.snd_una) {
                        acked += front.len;
                        f.retx.pop_front();
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
                f.tx.consume(acked as usize);
                f.in_flight -= acked;
            }
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
                let f = spare.lend(&mut self.flight);
                f.rx_ready.extend(payload);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
                // Drain contiguous out-of-order segments.
                while let Some(data) = f.ooo.remove(&self.rcv_nxt) {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
                    f.rx_ready.extend(&data);
                }
                self.need_ack = true;
            } else if seq_lt(self.rcv_nxt, seg_seq) {
                // Future data: stash (bounded by the advertised window).
                let limit = self.rcv_nxt.wrapping_add(self.cfg.rcv_wnd);
                if seq_lt(seg_seq, limit) {
                    let f = spare.lend(&mut self.flight);
                    f.ooo.entry(seg_seq).or_insert_with(|| payload.to_vec());
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
        if self.need_ack || !self.flight().retx.is_empty() {
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
        self.poll_lent(now, out, &mut SpareList::default());
    }

    /// [`TcpConn::poll_into`], the record lent from `spare` if a FIN is
    /// about to be tracked and the connection has none.
    pub(crate) fn poll_lent<S: Segment>(
        &mut self,
        now: u64,
        out: &mut Vec<S>,
        spare: &mut SpareList<Flight>,
    ) {
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
                let at = self.flight().in_flight;
                out.push(self.seg(TcpFlags::ACK, self.snd_nxt, at, n as u32));
                // Unsent bytes are queued, so the record is there.
                let f = spare.lend(&mut self.flight);
                f.retx.push_back(RetxSeg {
                    seq: self.snd_nxt,
                    len: n as u32,
                    fin: false,
                    sent_at: now,
                    retries: 0,
                });
                f.in_flight += n as u32;
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
            spare.lend(&mut self.flight).retx.push_back(RetxSeg {
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
        if let Some(front) = self.flight.as_mut().and_then(|f| f.retx.front_mut()) {
            if now.saturating_sub(front.sent_at) >= self.cfg.rto_cycles {
                front.sent_at = now;
                front.retries += 1;
                self.retransmits = self.retransmits.saturating_add(1);
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
        assert_eq!(c.flight().tx.len(), 0);
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
    fn a_retransmit_count_saturates_at_its_width() {
        let (mut c, mut s, mut now) = handshake();
        c.retransmits = u32::MAX;
        c.send(&[3u8; 4000]);
        let mut dropped = false;
        pump(&mut c, &mut s, &mut now, |_, seg| {
            let drop = !seg.payload.is_empty() && !dropped;
            dropped |= drop;
            !drop
        });
        assert!(dropped);
        assert_eq!(s.take_ready(8192), vec![3u8; 4000]);
        assert_eq!(c.retransmits, u32::MAX, "the count wrapped");
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
    fn layout_budget_of_a_connection_that_is_merely_open() {
        // What every open connection costs (DESIGN.md §6.15): identity
        // only, the rest behind one pointer.
        let conn = std::mem::size_of::<TcpConn>();
        assert!(conn <= 48, "TcpConn grew to {conn} B (budget 48)");
    }

    /// An idle record with `bytes` of heap behind it.
    fn record(bytes: usize) -> Option<Box<Flight>> {
        let mut f = Box::<Flight>::default();
        f.tx.buf.reserve_exact(bytes);
        Some(f)
    }

    #[test]
    fn spare_list_frees_what_is_over_either_bound() {
        let mut spare = SpareList::default();
        for _ in 0..SPARE_MAX_COUNT + 8 {
            spare.retire(&mut record(64));
        }
        assert_eq!(spare.free.len(), SPARE_MAX_COUNT);
        let mut slot = record(SPARE_MAX_BYTES + 1);
        spare.free.clear();
        spare.retire(&mut slot);
        assert!(slot.is_none(), "retiring leaves the owner nothing");
        assert!(spare.free.is_empty(), "an outgrown record is freed");
        assert!(spare.is_bounded());
        // An owner that still has a record keeps it: nothing is swapped in.
        spare.retire(&mut record(64));
        let mut own = record(8);
        spare.lend(&mut own);
        assert_eq!((own.unwrap().tx.buf.capacity(), spare.free.len()), (8, 1));
    }

    #[test]
    fn a_record_changes_hands_only_empty_and_comes_back_cleared() {
        /// Idle whatever it holds, as a parser with consumed bytes is.
        #[derive(Default)]
        struct Scrap(Vec<u8>);
        impl Lend for Scrap {
            fn is_idle(&self) -> bool {
                true
            }
            fn clear(&mut self) {
                self.0.clear();
            }
            fn capacity_bytes(&self) -> usize {
                self.0.capacity()
            }
        }
        let (mut spare, mut slot) = (SpareList::<Scrap>::default(), None);
        spare
            .lend(&mut slot)
            .0
            .extend_from_slice(b"the last owner's");
        spare.retire(&mut slot);
        assert!(slot.is_none() && spare.held() == 1);
        let next = spare.lend(&mut slot);
        assert!(next.0.is_empty() && next.0.capacity() >= 16);

        // Each field of a flight record keeps it where it is.
        let fin = |seq| RetxSeg {
            seq,
            len: 0,
            fin: true,
            sent_at: 0,
            retries: 0,
        };
        let fill: [&dyn Fn(&mut Flight); 4] = [
            &|f| f.tx.extend(b"t"),
            &|f| f.retx.push_back(fin(7)),
            &|f| f.rx_ready.extend(b"r"),
            &|f| drop(f.ooo.insert(9, vec![0])),
        ];
        for fill in fill {
            let (mut spare, mut slot) = (SpareList::<Flight>::default(), None);
            fill(spare.lend(&mut slot));
            spare.retire(&mut slot);
            assert!(slot.is_some() && spare.held() == 0);
        }
    }

    /// One endpoint twice: `lent` borrows its record from the list the
    /// test shares out, `own` allocates its own, and every call goes to
    /// both.
    struct Twin {
        lent: TcpConn,
        own: TcpConn,
    }

    impl Twin {
        /// Whether the two are in the same state, a record with nothing
        /// in it counting as none.
        fn agree(&self) -> bool {
            let (a, b) = (&self.lent, &self.own);
            let (fa, fb) = (a.flight(), b.flight());
            (a.state, a.snd_una, a.snd_nxt, a.rcv_nxt, a.snd_wnd)
                == (b.state, b.snd_una, b.snd_nxt, b.rcv_nxt, b.snd_wnd)
                && (a.need_ack, a.app_closed, a.fin_queued, a.last_adv_wnd)
                    == (b.need_ack, b.app_closed, b.fin_queued, b.last_adv_wnd)
                && a.retransmits == b.retransmits
                && (fa.tx.peek(), fa.in_flight, fa.rx_ready.peek())
                    == (fb.tx.peek(), fb.in_flight, fb.rx_ready.peek())
                && format!("{:?}{:?}", fa.retx, fa.ooo) == format!("{:?}{:?}", fb.retx, fb.ooo)
        }

        fn send(&mut self, data: &[u8], spare: &mut SpareList<Flight>) -> usize {
            let n = self.lent.send_lent(data, spare);
            assert_eq!(self.own.send(data), n);
            n
        }

        fn poll(&mut self, now: u64, spare: &mut SpareList<Flight>) -> Vec<SegmentOut> {
            let mut out = Vec::new();
            self.lent.poll_lent(now, &mut out, spare);
            assert_eq!(self.own.poll(now), out, "segments pumped");
            out
        }

        fn on_segment(
            &mut self,
            seg: &SegmentOut,
            now: u64,
            spare: &mut SpareList<Flight>,
        ) -> Vec<SegmentOut> {
            let mut out = Vec::new();
            self.lent
                .on_segment_lent(&seg.hdr, &seg.payload, now, &mut out, spare);
            assert_eq!(self.own.on_segment(&seg.hdr, &seg.payload, now), out);
            out
        }
    }

    /// Two twinned endpoints, what is on the wire towards each, and what
    /// each is still owed by the other's application.
    struct Pair {
        ends: [Twin; 2],
        wire: [Vec<SegmentOut>; 2],
        owed: [VecDeque<u8>; 2],
    }

    impl Pair {
        fn open(k: u16, spare: &mut SpareList<Flight>) -> Self {
            let cfg = Rc::new(TcpConfig::default());
            let (lent, syn) = TcpConn::open(40_000 + k, 5201, 1000, None, cfg.clone(), spare, 0);
            let (own, syn2) = TcpConn::connect(40_000 + k, 5201, 1000, TcpConfig::default());
            assert_eq!(syn, syn2);
            let client = Twin { lent, own };
            let (lent, syn_ack) =
                TcpConn::open(5201, 40_000 + k, 9000, Some(&syn.hdr), cfg, spare, 0);
            let (own, syn_ack2) =
                TcpConn::accept(5201, 40_000 + k, 9000, &syn.hdr, TcpConfig::default());
            assert_eq!(syn_ack, syn_ack2);
            let mut pair = Self {
                ends: [client, Twin { lent, own }],
                wire: [vec![syn_ack], Vec::new()],
                owed: Default::default(),
            };
            pair.deliver(0, 0, spare, |segs| segs);
            pair.deliver(1, 0, spare, |segs| segs);
            assert!(pair.ends.iter().all(|t| t.lent.is_established()));
            pair
        }

        /// Hands end `to` what is on the wire towards it, as `order`
        /// leaves it; the answers go on the wire back.
        fn deliver(
            &mut self,
            to: usize,
            now: u64,
            spare: &mut SpareList<Flight>,
            order: impl FnOnce(Vec<SegmentOut>) -> Vec<SegmentOut>,
        ) {
            for seg in order(std::mem::take(&mut self.wire[to])) {
                let back = self.ends[to].on_segment(&seg, now, spare);
                self.wire[1 - to].extend(back);
            }
        }

        /// Pumps end `end`; what it emits goes on the wire to the other.
        fn pump(&mut self, end: usize, now: u64, spare: &mut SpareList<Flight>) {
            let out = self.ends[end].poll(now, spare);
            self.wire[1 - end].extend(out);
        }

        /// The application of end `end` reads up to `max` bytes: what the
        /// other end sent, in order.
        fn read(&mut self, end: usize, max: usize) -> Result<(), String> {
            let got = self.ends[end].lent.take_ready(max);
            proptest::prop_assert_eq!(&self.ends[end].own.take_ready(max), &got);
            let model: Vec<u8> = self.owed[end].drain(..got.len()).collect();
            proptest::prop_assert!(got == model, "end {} read another's bytes", end);
            Ok(())
        }
    }

    /// Nothing of an owner is left in a record on the list.
    fn pristine(f: &Flight) -> bool {
        let fifo = |q: &ByteFifo| q.buf.is_empty() && q.head == 0;
        fifo(&f.tx)
            && fifo(&f.rx_ready)
            && f.in_flight == 0
            && f.retx.is_empty()
            && f.ooo.is_empty()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Three connections — six endpoints — share one spare list, which
        /// takes each endpoint's record back whenever it will go. Each
        /// endpoint must behave as a twin that owns its record and is
        /// never asked for it: same segments out, same retransmissions,
        /// same state; and the application must read each direction as a
        /// private `VecDeque` of what the other end sent — order kept, no
        /// byte of another owner ever visible. Records move between the
        /// connections, contents never do.
        #[test]
        fn fifos_sharing_a_spare_list_read_as_private_deques(
            ops in proptest::prelude::prop::collection::vec((0usize..3, 0u8..10, 0usize..3000), 50..300)
        ) {
            let mut spare = SpareList::default();
            let mut pairs: Vec<Pair> = (0..3).map(|k| Pair::open(k, &mut spare)).collect();
            let (mut now, mut lent) = (0u64, 0usize);
            for (who, op, n) in ops {
                now += 1000;
                let (p, end) = (&mut pairs[who], n % 2);
                match op {
                    0 => {
                        // Bytes tagged with their owner in the top bits.
                        let tag = (who as u8) << 6 | (end as u8) << 5;
                        let data: Vec<u8> = (0..n).map(|i| tag | (i % 31) as u8).collect();
                        let took = p.ends[end].send(&data, &mut spare);
                        p.owed[1 - end].extend(&data[..took]);
                    }
                    1 | 2 => p.pump(end, now, &mut spare),
                    3 => p.deliver(end, now, &mut spare, |segs| segs),
                    // Out of order, and every segment twice.
                    4 => p.deliver(end, now, &mut spare, |mut segs| {
                        segs.reverse();
                        segs
                    }),
                    5 => p.deliver(end, now, &mut spare, |segs| {
                        segs.iter().flat_map(|s| [s.clone(), s.clone()]).collect()
                    }),
                    // Lost, and the RTO passes.
                    6 => {
                        p.wire[end].clear();
                        now += TcpConfig::default().rto_cycles + 1;
                    }
                    7 => p.read(end, n)?,
                    // A burst answered: everything is delivered, acknowledged
                    // and read (what was lost, after its RTO), so both
                    // records can go to other connections.
                    8 => {
                        for _ in 0..64 {
                            for end in 0..2 {
                                p.pump(end, now, &mut spare);
                                p.deliver(1 - end, now, &mut spare, |segs| segs);
                                p.read(end, usize::MAX)?;
                            }
                            now += TcpConfig::default().rto_cycles + 1;
                        }
                    }
                    // One draw in thirty: the end closes, its FIN follows its data.
                    _ if n < 100 => {
                        p.ends[end].lent.close();
                        p.ends[end].own.close();
                    }
                    _ => {}
                }
                // The stack asks where a stream leaves its active set;
                // here every record is asked for after every call.
                for t in pairs.iter_mut().flat_map(|p| &mut p.ends) {
                    lent += usize::from(t.lent.flight.is_some());
                    t.lent.retire_storage(&mut spare);
                    proptest::prop_assert!(!t.lent.record().is_some_and(Lend::is_idle));
                    proptest::prop_assert!(t.agree(), "a lent endpoint diverged from its twin");
                }
                proptest::prop_assert!(spare.free.iter().all(|f| pristine(f)));
            }
            proptest::prop_assert!(spare.is_bounded() && lent > 0);
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
