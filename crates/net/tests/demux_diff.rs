//! Differential test of the stream demux and the slot tables around it.
//!
//! The stack resolves a segment with one probe of a hash table keyed by
//! the packed 4-tuple, hands out socket slots lowest-first and pumps its
//! active sockets in ascending slot order. The oracle here is the
//! obvious ordered-map model — `BTreeMap<(ip, port), Peer>` for the
//! demux, a `BTreeSet` of free slots — kept in this file, never in the
//! stack: frame-level clients drive random sequences of SYN / data /
//! FIN / app-close / reconnect-with-the-same-4-tuple / listener
//! close-and-reopen, and after every step the stack must agree with the
//! model on which socket each segment reached, which slot each new
//! socket took, the order sockets were pumped in and how many
//! connections are open, and the stack's own table audit must pass (every
//! stream found by its key at its slot, no bucket left by a reaped one).
//! Two more tests force the hash table's worst cases: tuples chosen to
//! share a bucket, and two tuples whose keys hash alike in all 32 bits.

use flexos_machine::{Addr, Machine, PageFlags, ProtKey, VcpuId, VmId};
use flexos_net::demux::Demux;
use flexos_net::nic::Nic;
use flexos_net::stack::{conn_key, NetStack, SocketId};
use flexos_net::wire::{
    build_tcp_frame, EthHeader, Ipv4Header, Mac, TcpFlags, TcpHeader, ETHERTYPE_IPV4, ETH_LEN,
    IPV4_LEN, PROTO_TCP, TCP_LEN,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const SERVER_IP: u32 = 0x0a00_0001;
const PORT: u16 = 7379;
const V: VcpuId = VcpuId(0);
const RING: u32 = 1024;

/// One frame-level client endpoint and what the model knows of the
/// server socket it talks to.
#[derive(Debug)]
struct Peer {
    /// The socket the model says this tuple's segments reach.
    sid: SocketId,
    /// Stable identity of the tuple (seeds the payload pattern).
    tag: usize,
    snd_nxt: u32,
    rcv_nxt: u32,
    /// Client bytes sent / server bytes the application has read.
    sent: u64,
    read: u64,
    client_fin: bool,
    app_closed: bool,
}

/// Byte `off` of the stream tuple `tag` sends: differs between tuples,
/// so bytes read from the wrong socket cannot pass for the right ones.
fn pattern(tag: usize, off: u64) -> u8 {
    (tag as u64 * 131 + off * 7 + (off >> 8)) as u8
}

struct Rig {
    m: Machine,
    server: NetStack,
    app_buf: Addr,
    listener: Option<SocketId>,
    /// The demux oracle.
    live: BTreeMap<(u32, u16), Peer>,
    /// The slot oracle: freed slots, and the first never-used one.
    free: BTreeSet<usize>,
    next_slot: usize,
    /// How often each tuple has connected (varies the ISS).
    incarnation: BTreeMap<(u32, u16), u32>,
    ident: u16,
    rsts: u64,
}

impl Rig {
    fn new() -> Self {
        let mut m = Machine::with_defaults();
        let pool = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        let app_buf = m
            .alloc_region(VmId(0), 1 << 16, ProtKey(0), PageFlags::RW)
            .unwrap();
        let mut server = NetStack::new(SERVER_IP, Nic::new(Mac::of_nic(1)), pool, 1 << 20);
        server.set_sock_ring_bytes(RING);
        let mut rig = Self {
            m,
            server,
            app_buf,
            listener: None,
            live: BTreeMap::new(),
            free: BTreeSet::new(),
            next_slot: 0,
            incarnation: BTreeMap::new(),
            ident: 0,
            rsts: 0,
        };
        rig.open_listener();
        rig
    }

    /// The model's slot allocator: lowest freed slot, else a new one.
    fn alloc_slot(&mut self) -> usize {
        self.free.pop_first().unwrap_or_else(|| {
            self.next_slot += 1;
            self.next_slot - 1
        })
    }

    fn open_listener(&mut self) {
        let want = self.alloc_slot();
        let got = self.server.tcp_listen(PORT).unwrap();
        assert_eq!(got.0, want, "listener slot is not the lowest free one");
        self.listener = Some(got);
    }

    fn toggle_listener(&mut self) {
        match self.listener.take() {
            Some(l) => {
                self.server.close(l).unwrap();
                self.free.insert(l.0);
            }
            None => self.open_listener(),
        }
    }

    fn send_frame(&mut self, who: (u32, u16), flags: TcpFlags, seq: u32, ack: u32, data: &[u8]) {
        self.ident = self.ident.wrapping_add(1);
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(9),
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = Ipv4Header {
            src: who.0,
            dst: SERVER_IP,
            proto: PROTO_TCP,
            total_len: (IPV4_LEN + TCP_LEN + data.len()) as u16,
            ttl: 64,
            ident: self.ident,
        };
        let tcp = TcpHeader {
            src_port: who.1,
            dst_port: PORT,
            seq,
            ack,
            flags,
            window: 65_535,
        };
        let frame = build_tcp_frame(&eth, &ip, &tcp, data).unwrap();
        self.server.nic.push_rx(frame);
    }

    /// The client side of one server frame. Returns the tuple it was for.
    fn on_server_frame(&mut self, frame: &[u8]) -> (u32, u16) {
        let ip = Ipv4Header::parse(&frame[ETH_LEN..]).expect("server frame: bad IP header");
        let l4 = &frame[ETH_LEN + IPV4_LEN..ETH_LEN + ip.total_len as usize];
        let (hdr, off) = TcpHeader::parse(&ip, l4).expect("server frame: bad TCP checksum");
        let who = (ip.dst, hdr.dst_port);
        if hdr.flags.rst {
            self.rsts += 1;
            return who;
        }
        let Some(p) = self.live.get_mut(&who) else {
            panic!("server frame for {who:?}, which the model does not know");
        };
        let len = (l4.len() - off) as u32;
        let mut ack = false;
        if hdr.flags.syn {
            p.rcv_nxt = hdr.seq.wrapping_add(1);
            ack = true;
        } else if hdr.seq == p.rcv_nxt {
            p.rcv_nxt = p.rcv_nxt.wrapping_add(len + u32::from(hdr.flags.fin));
            ack = len > 0 || hdr.flags.fin;
        }
        if ack {
            let (seq, rcv) = (p.snd_nxt, p.rcv_nxt);
            self.send_frame(who, TcpFlags::ACK, seq, rcv, &[]);
        }
        who
    }

    /// Polls until the wire falls silent, answering every server frame.
    fn settle(&mut self) {
        for _ in 0..32 {
            self.server.poll(&mut self.m, V).unwrap();
            let mut quiet = true;
            while let Some(f) = self.server.nic.pop_tx() {
                quiet = false;
                self.on_server_frame(&f);
                self.server.nic.recycle(f);
            }
            if quiet && !self.server.nic.has_rx() {
                return;
            }
        }
        panic!("the wire never fell silent");
    }

    /// A connection both sides have closed is reaped by the pump: its
    /// table entry goes, its slot returns to the free list.
    fn reap_closed(&mut self) {
        let done: Vec<(u32, u16)> = self
            .live
            .iter()
            .filter(|(_, p)| p.client_fin && p.app_closed)
            .map(|(&who, _)| who)
            .collect();
        for who in done {
            let p = self.live.remove(&who).unwrap();
            self.free.insert(p.sid.0);
        }
    }

    fn check(&self) {
        assert_eq!(
            self.server.conn_count(),
            self.live.len(),
            "open connections disagree with the model"
        );
        assert_eq!(self.server.table_audit(), Ok(()));
    }

    fn syn(&mut self, who: (u32, u16), tag: usize) {
        if self.live.contains_key(&who) {
            return;
        }
        let inc = self.incarnation.entry(who).or_insert(0);
        *inc += 1;
        let iss = (tag as u32)
            .wrapping_mul(0x1_0001)
            .wrapping_add(inc.wrapping_mul(0x0100_0000));
        if self.listener.is_none() {
            // Nobody listens: the SYN is answered with a RST, no socket.
            let before = self.rsts;
            self.send_frame(who, TcpFlags::SYN, iss, 0, &[]);
            self.settle();
            assert_eq!(self.rsts, before + 1, "SYN to a closed port got no RST");
            return;
        }
        let slot = self.alloc_slot();
        self.live.insert(
            who,
            Peer {
                sid: SocketId(slot),
                tag,
                snd_nxt: iss.wrapping_add(1),
                rcv_nxt: 0,
                sent: 0,
                read: 0,
                client_fin: false,
                app_closed: false,
            },
        );
        self.send_frame(who, TcpFlags::SYN, iss, 0, &[]);
        self.settle();
        let got = self
            .server
            .tcp_accept(self.listener.unwrap())
            .unwrap()
            .expect("handshake completed");
        assert_eq!(got.0, slot, "socket slot is not the lowest free one");
        assert!(self.server.tcp_is_established(got).unwrap());
    }

    /// Client data: must surface, byte for byte, on the socket the model
    /// maps this tuple to.
    fn data(&mut self, who: (u32, u16), n: usize) {
        let p = self.live.get_mut(&who).unwrap();
        if p.client_fin {
            return;
        }
        let bytes: Vec<u8> = (0..n as u64).map(|i| pattern(p.tag, p.sent + i)).collect();
        let (seq, rcv) = (p.snd_nxt, p.rcv_nxt);
        p.snd_nxt = p.snd_nxt.wrapping_add(n as u32);
        p.sent += n as u64;
        self.send_frame(who, TcpFlags::ACK, seq, rcv, &bytes);
        self.settle();
        let p = self.live.get_mut(&who).unwrap();
        let dst = Addr(self.app_buf.0 + 8192);
        let got = self
            .server
            .tcp_recv(&mut self.m, V, p.sid, dst, RING.into())
            .unwrap();
        assert_eq!(got, n as u64, "segment did not reach socket {:?}", p.sid);
        let mut buf = vec![0u8; n];
        self.m.read(V, dst, &mut buf).unwrap();
        for (i, b) in buf.iter().enumerate() {
            assert_eq!(*b, pattern(p.tag, p.read + i as u64), "foreign bytes");
        }
        p.read += n as u64;
    }

    fn fin(&mut self, who: (u32, u16)) {
        let p = self.live.get_mut(&who).unwrap();
        if p.client_fin {
            return;
        }
        p.client_fin = true;
        let (seq, rcv, sid, app_closed) = (p.snd_nxt, p.rcv_nxt, p.sid, p.app_closed);
        p.snd_nxt = p.snd_nxt.wrapping_add(1);
        self.send_frame(who, TcpFlags::FIN_ACK, seq, rcv, &[]);
        self.settle();
        if !app_closed {
            let dst = Addr(self.app_buf.0 + 8192);
            assert_eq!(self.server.tcp_recv(&mut self.m, V, sid, dst, 64), Ok(0));
        }
        self.reap_closed();
    }

    fn app_close(&mut self, who: (u32, u16)) {
        let p = self.live.get_mut(&who).unwrap();
        if p.app_closed {
            return;
        }
        p.app_closed = true;
        self.server.close(p.sid).unwrap();
        self.settle();
        self.reap_closed();
    }

    /// The application writes on several sockets in scrambled order; one
    /// pump must emit their segments by ascending slot.
    fn burst(&mut self, seed: u64) {
        let mut senders: Vec<((u32, u16), SocketId)> = self
            .live
            .iter()
            .filter(|(_, p)| !p.app_closed)
            .map(|(&who, p)| (who, p.sid))
            .collect();
        if senders.is_empty() {
            return;
        }
        // Scramble, then keep a handful.
        let mut s = seed | 1;
        for i in (1..senders.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            senders.swap(i, (s % (i as u64 + 1)) as usize);
        }
        senders.truncate(8);
        self.m.write(V, self.app_buf, &[0x5a; 32]).unwrap();
        for &(_, sid) in &senders {
            let sent = self.server.tcp_send(&mut self.m, V, sid, self.app_buf, 32);
            assert_eq!(sent, Ok(32));
        }
        self.server.poll(&mut self.m, V).unwrap();
        let mut pumped = Vec::new();
        while let Some(f) = self.server.nic.pop_tx() {
            let who = self.on_server_frame(&f);
            pumped.push(self.live[&who].sid);
            self.server.nic.recycle(f);
        }
        let mut want: Vec<SocketId> = senders.iter().map(|&(_, sid)| sid).collect();
        want.sort();
        assert_eq!(pumped, want, "pump did not visit sockets by ascending slot");
        self.settle();
    }

    /// Closes whatever is open; every table must come back empty.
    fn teardown(&mut self) {
        let open: Vec<(u32, u16)> = self.live.keys().copied().collect();
        for who in open {
            self.fin(who);
            if self.live.contains_key(&who) {
                self.app_close(who);
            }
        }
        assert!(self.live.is_empty());
        assert_eq!(self.server.conn_count(), 0, "churn leaked demux entries");
        assert_eq!(self.server.table_audit(), Ok(()));
    }
}

/// The tuple pool: a few hundred `(ip, port)` pairs over three client IPs.
const TUPLES: usize = 300;

fn tuple(k: usize) -> (u32, u16) {
    (0x0a00_0100 + (k / 100) as u32, 2000 + (k % 100) as u16)
}

#[derive(Debug, Clone)]
enum Op {
    /// Connect tuple `k` (again, once its last connection was reaped).
    Syn(usize),
    /// The rest pick among the live connections.
    Data(usize, usize),
    Fin(usize),
    AppClose(usize),
    Burst(u64),
    ToggleListener,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..TUPLES).prop_map(Op::Syn),
        6 => (any::<usize>(), 1usize..300).prop_map(|(sel, n)| Op::Data(sel, n)),
        3 => any::<usize>().prop_map(Op::Fin),
        3 => any::<usize>().prop_map(Op::AppClose),
        2 => any::<u64>().prop_map(Op::Burst),
        1 => Just(Op::ToggleListener),
    ]
}

fn run(ops: Vec<Op>) {
    let mut rig = Rig::new();
    for op in ops {
        let pick = |rig: &Rig, sel: usize| {
            let n = rig.live.len();
            (n > 0).then(|| *rig.live.keys().nth(sel % n).unwrap())
        };
        match op {
            Op::Syn(k) => rig.syn(tuple(k), k),
            Op::Data(sel, n) => {
                if let Some(who) = pick(&rig, sel) {
                    rig.data(who, n);
                }
            }
            Op::Fin(sel) => {
                if let Some(who) = pick(&rig, sel) {
                    rig.fin(who);
                }
            }
            Op::AppClose(sel) => {
                if let Some(who) = pick(&rig, sel) {
                    rig.app_close(who);
                }
            }
            Op::Burst(seed) => rig.burst(seed),
            Op::ToggleListener => rig.toggle_listener(),
        }
        rig.check();
    }
    rig.teardown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random connection churn: the stack and the ordered-map model agree
    /// after every step, and nothing is left behind.
    #[test]
    fn demux_slots_and_pump_order_match_the_ordered_model(
        ops in prop::collection::vec(op(), 1..250),
    ) {
        run(ops);
    }
}

#[test]
fn tuples_that_collide_in_the_hash_table_still_resolve() {
    // Tuples whose keys agree in the 10 low hash bits (the bucket, for
    // any table this test can grow): every probe for one of them walks
    // over the others.
    let hash = |who: (u32, u16)| Demux::hash(conn_key(PORT, who.0, who.1));
    let fingerprint = |h: u32| h & 0x3ff;
    let want = fingerprint(hash((0x0a00_0200, 1)));
    let colliding: Vec<(u32, u16)> = (0x0a00_0200u32..0x0a00_0300)
        .flat_map(|ip| (1..=u16::MAX).map(move |port| (ip, port)))
        .filter(|&who| fingerprint(hash(who)) == want)
        .take(24)
        .collect();
    assert_eq!(colliding.len(), 24, "not enough colliding tuples found");

    let mut rig = Rig::new();
    // Background population, so the table has grown past its first sizes.
    for k in 0..200 {
        rig.syn(tuple(k), k);
    }
    for (i, &who) in colliding.iter().enumerate() {
        rig.syn(who, 1000 + i);
    }
    rig.check();
    for &who in colliding.iter().rev() {
        rig.data(who, 64);
    }
    // Reap every other one (shifting the shared probe chain back over
    // each hole); the survivors must still be found.
    for &who in colliding.iter().step_by(2) {
        rig.fin(who);
        rig.app_close(who);
    }
    rig.check();
    for &who in colliding.iter().skip(1).step_by(2) {
        rig.data(who, 100);
    }
    // The same 4-tuples again: new sockets, lowest free slots first.
    for (i, &who) in colliding.iter().enumerate().step_by(2) {
        rig.syn(who, 1000 + i);
    }
    for &who in &colliding {
        rig.data(who, 32);
    }
    rig.burst(7);
    rig.check();
    rig.teardown();
    // A frame for a tuple that collides but was never opened is not
    // mistaken for one that was.
    let stranger = (0x0a00_0300u32..0x0a00_0400)
        .flat_map(|ip| (1..=u16::MAX).map(move |port| (ip, port)))
        .find(|&who| fingerprint(hash(who)) == want)
        .expect("one more colliding tuple");
    let before = rig.server.stats().drops;
    rig.send_frame(stranger, TcpFlags::ACK, 1, 1, b"x");
    rig.settle();
    assert_eq!(rig.server.stats().drops, before + 1);
    assert_eq!(rig.server.conn_count(), 0);
}

#[test]
fn tuples_whose_keys_hash_alike_in_all_32_bits_reach_their_own_sockets() {
    // Found by search: two keys one full-width hash files alike, so only
    // the 4-tuple each socket holds tells their buckets apart.
    let (a, b) = ((0x0a00_0400, 53_688), (0x0a00_0401, 64_875));
    let hash = |who: (u32, u16)| Demux::hash(conn_key(PORT, who.0, who.1));
    assert_eq!(hash(a), hash(b), "the twins no longer collide");
    let mut rig = Rig::new();
    for k in 0..20 {
        rig.syn(tuple(k), k);
    }
    rig.syn(a, 500);
    // A segment for b while only a is open reaches no socket.
    let before = rig.server.stats().drops;
    rig.send_frame(b, TcpFlags::ACK, 1, 1, b"x");
    rig.settle();
    assert_eq!(
        rig.server.stats().drops,
        before + 1,
        "b's segment reached a"
    );
    rig.syn(b, 501);
    rig.check();
    for _ in 0..3 {
        rig.data(b, 40);
        rig.data(a, 24);
    }
    // With the first one reaped, the second is still found.
    rig.fin(a);
    rig.app_close(a);
    rig.check();
    rig.data(b, 16);
    rig.teardown();
}
