//! Property tests for the network stack: TCP delivers exactly the sent
//! byte stream under arbitrary chunking, packet loss and reordering; and
//! no frame off the wire, however malformed, unwinds the stack or goes
//! uncounted.

use flexos_machine::{Addr, Machine, PageFlags, ProtKey, VcpuId, VmId};
use flexos_net::nic::{Link, LinkChaos, Nic};
use flexos_net::stack::{NetError, NetStack, SocketId, EPHEMERAL_BASE};
use flexos_net::tcp::TcpConfig;
use flexos_net::wire::{
    build_tcp_frame, checksum, EthHeader, Ipv4Header, Mac, TcpFlags, TcpHeader, ETHERTYPE_IPV4,
    ETH_LEN, IPV4_LEN, PROTO_TCP, TCP_LEN,
};
use proptest::prelude::*;

const SERVER_IP: u32 = 0x0a00_0001;
const CLIENT_IP: u32 = 0x0a00_0002;

struct World {
    m: Machine,
    server: NetStack,
    client: NetStack,
    link: Link,
    buf: Addr,
}

fn world(link: Link) -> World {
    let mut m = Machine::with_defaults();
    let pool_s = m
        .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
        .unwrap();
    let pool_c = m
        .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
        .unwrap();
    let buf = m
        .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
        .unwrap();
    World {
        m,
        server: NetStack::new(SERVER_IP, Nic::new(Mac::of_nic(1)), pool_s, 1 << 20),
        client: NetStack::new(CLIENT_IP, Nic::new(Mac::of_nic(2)), pool_c, 1 << 20),
        link,
        buf,
    }
}

impl World {
    fn step(&mut self) {
        self.client.poll(&mut self.m, VcpuId(0)).unwrap();
        self.server.poll(&mut self.m, VcpuId(0)).unwrap();
        self.link
            .transfer(&mut self.client.nic, &mut self.server.nic);
        self.link
            .transfer(&mut self.server.nic, &mut self.client.nic);
        self.client.poll(&mut self.m, VcpuId(0)).unwrap();
        self.server.poll(&mut self.m, VcpuId(0)).unwrap();
    }

    /// A listener on `port` and the client's stream to it, connected:
    /// `(client stream, server stream)`.
    fn establish(&mut self, port: u16) -> (SocketId, SocketId) {
        let l = self.server.tcp_listen(port).unwrap();
        let now = self.m.clock().cycles();
        let cs = self.client.tcp_connect(SERVER_IP, port, now).unwrap();
        // A lossy link may cost the handshake a retransmission or two.
        let mut ss = None;
        for _ in 0..200 {
            self.step();
            if ss.is_none() {
                ss = self.server.tcp_accept(l).unwrap();
            }
            if ss.is_some() && self.client.tcp_is_established(cs).unwrap() {
                break;
            }
            self.m.charge(TcpConfig::default().rto_cycles / 2 + 1);
        }
        (cs, ss.expect("accepted"))
    }
}

/// Sends `payload` from client to server in `chunks`, through `link`,
/// and asserts the server receives exactly `payload`.
fn transfer_faithful(payload: Vec<u8>, chunk_sizes: Vec<usize>, link: Link) {
    let mut w = world(link);
    let (cs, ss) = w.establish(7);

    let dst = Addr(w.buf.0 + (1 << 19));
    let mut received: Vec<u8> = Vec::new();
    let mut sent = 0usize;
    let mut chunk_iter = chunk_sizes.iter().cycle();
    let mut idle = 0u32;
    while received.len() < payload.len() {
        if sent < payload.len() {
            let n = (*chunk_iter.next().unwrap()).clamp(1, payload.len() - sent);
            w.m.write(VcpuId(0), w.buf, &payload[sent..sent + n])
                .unwrap();
            match w.client.tcp_send(&mut w.m, VcpuId(0), cs, w.buf, n as u64) {
                Ok(k) => sent += k as usize,
                Err(NetError::WouldBlock) => {}
                Err(e) => panic!("send: {e}"),
            }
        }
        w.step();
        match w.server.tcp_recv(&mut w.m, VcpuId(0), ss, dst, 32 * 1024) {
            Ok(n) => {
                let mut got = vec![0u8; n as usize];
                w.m.read(VcpuId(0), dst, &mut got).unwrap();
                received.extend(got);
                idle = 0;
            }
            Err(NetError::WouldBlock) => {
                idle += 1;
                // Advance time so retransmission timers fire.
                w.m.charge(TcpConfig::default().rto_cycles / 2 + 1);
                assert!(
                    idle < 2_000,
                    "transfer stalled at {}/{}",
                    received.len(),
                    payload.len()
                );
            }
            Err(e) => panic!("recv: {e}"),
        }
    }
    assert_eq!(received, payload, "byte stream corrupted");
}

/// Ethernet, IPv4 and TCP headers: the bits a flip may land on.
const HEADERS: usize = ETH_LEN + IPV4_LEN + TCP_LEN;

/// What a well-formed segment suffers on its way to the stack. The
/// checksums are recomputed after it as each kind says, so the frame
/// gets as far as the damaged field lets it.
#[derive(Debug, Clone)]
enum Damage {
    /// One header bit flipped; the IP checksum refreshed, and the TCP
    /// one too if `tcp_sum`.
    Flip { bit: usize, tcp_sum: bool },
    /// The IP header claims this `total_len`.
    TotalLen(u16),
    /// The TCP header claims this many 32-bit words of header.
    DataOff(u8),
}

/// A frame off the wire.
#[derive(Debug, Clone)]
enum Wire {
    /// Anything at all.
    Bytes(Vec<u8>),
    /// A segment to the listener's port, from the established stream's
    /// peer (`to_stream`) or from a port no stream is open to, damaged.
    Segment {
        to_stream: bool,
        /// FIN, SYN, RST and ACK, from the low bit up.
        flags: u8,
        seq: u32,
        payload: Vec<u8>,
        damage: Damage,
    },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0..HEADERS * 8, any::<bool>()).prop_map(|(bit, tcp_sum)| Damage::Flip { bit, tcp_sum }),
        prop_oneof![0u16..IPV4_LEN as u16, 0u16..160, any::<u16>()].prop_map(Damage::TotalLen),
        (0u8..16).prop_map(Damage::DataOff),
    ]
}

fn wire() -> impl Strategy<Value = Wire> {
    let segment = (
        any::<bool>(),
        0u8..16,
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..64),
        damage(),
    );
    prop_oneof![
        1 => prop::collection::vec(any::<u8>(), 0..=1600).prop_map(Wire::Bytes),
        3 => segment.prop_map(|(to_stream, flags, seq, payload, damage)| Wire::Segment {
            to_stream,
            flags,
            seq,
            payload,
            damage,
        }),
    ]
}

/// Stores the IPv4 header checksum of `frame` anew.
fn refresh_ip_sum(frame: &mut [u8]) {
    let ip = &mut frame[ETH_LEN..ETH_LEN + IPV4_LEN];
    ip[10..12].fill(0);
    let sum = checksum(ip, 0);
    ip[10..12].copy_from_slice(&sum.to_be_bytes());
}

/// Stores the TCP checksum of `frame` anew, over the bytes its IP header
/// claims, where the frame holds a TCP header's worth of them.
fn refresh_tcp_sum(frame: &mut [u8]) {
    let total = u16::from_be_bytes([frame[ETH_LEN + 2], frame[ETH_LEN + 3]]);
    let l4 = ETH_LEN + IPV4_LEN..ETH_LEN + usize::from(total);
    if l4.len() < TCP_LEN || l4.end > frame.len() {
        return;
    }
    frame[l4.start + 16..l4.start + 18].fill(0);
    // The pseudo-header: both addresses, the protocol, the L4 length.
    let mut summed = frame[ETH_LEN + 12..ETH_LEN + IPV4_LEN].to_vec();
    summed.extend_from_slice(&[0, PROTO_TCP]);
    summed.extend_from_slice(&(l4.len() as u16).to_be_bytes());
    summed.extend_from_slice(&frame[l4.clone()]);
    let sum = checksum(&summed, 0);
    frame[l4.start + 16..l4.start + 18].copy_from_slice(&sum.to_be_bytes());
}

impl Wire {
    /// The frame's bytes, for a server listening on `port`.
    fn frame(&self, port: u16) -> Vec<u8> {
        let (to_stream, flags, seq, payload, damage) = match self {
            Wire::Bytes(bytes) => return bytes.clone(),
            Wire::Segment {
                to_stream,
                flags,
                seq,
                payload,
                damage,
            } => (*to_stream, *flags, *seq, payload, damage),
        };
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(2),
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = Ipv4Header {
            src: CLIENT_IP,
            dst: SERVER_IP,
            proto: PROTO_TCP,
            total_len: (IPV4_LEN + TCP_LEN + payload.len()) as u16,
            ttl: 64,
            ident: 1,
        };
        let tcp = TcpHeader {
            src_port: if to_stream { EPHEMERAL_BASE } else { 1024 },
            dst_port: port,
            seq,
            ack: 0,
            flags: TcpFlags {
                fin: flags & 1 != 0,
                syn: flags & 2 != 0,
                rst: flags & 4 != 0,
                ack: flags & 8 != 0,
            },
            window: 4096,
        };
        let mut frame = build_tcp_frame(&eth, &ip, &tcp, payload).unwrap();
        match *damage {
            Damage::Flip { bit, tcp_sum } => {
                frame[bit / 8] ^= 1 << (bit % 8);
                refresh_ip_sum(&mut frame);
                if tcp_sum {
                    refresh_tcp_sum(&mut frame);
                }
            }
            Damage::TotalLen(len) => {
                frame[ETH_LEN + 2..ETH_LEN + 4].copy_from_slice(&len.to_be_bytes());
                refresh_ip_sum(&mut frame);
                refresh_tcp_sum(&mut frame);
            }
            Damage::DataOff(words) => {
                frame[ETH_LEN + IPV4_LEN + 12] = words << 4;
                refresh_tcp_sum(&mut frame);
            }
        }
        frame
    }
}

/// Frames the stack has accounted for: demuxed to a socket, shed by a
/// full backlog, or dropped.
fn accounted(stack: &NetStack) -> u64 {
    let s = stack.stats();
    s.rx_segments + s.backlog_overflows + s.drops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever arrives, the stack neither unwinds nor loses count of a
    /// frame, and its tables stay consistent: random bytes, and segments
    /// to a listener with an established stream that carry a flipped
    /// header bit, a `total_len` short of the IP header or past the
    /// frame, or a `data_off` short of the TCP header or past the
    /// segment.
    #[test]
    fn wire_frames_never_panic_and_each_is_counted(
        frames in prop::collection::vec(wire(), 1..32),
    ) {
        let mut w = world(Link::new());
        w.establish(7);
        for (i, wire) in frames.iter().enumerate() {
            let before = accounted(&w.server);
            w.server.nic.push_rx(wire.frame(7));
            w.server.poll(&mut w.m, VcpuId(0)).unwrap();
            prop_assert_eq!(accounted(&w.server), before + 1, "frame {} ({:?})", i, wire);
            prop_assert_eq!(w.server.table_audit(), Ok(()));
            while w.server.nic.pop_tx().is_some() {}
        }
    }

    /// Arbitrary payloads and chunkings arrive intact on a clean link.
    #[test]
    fn tcp_stream_is_faithful_clean(
        payload in prop::collection::vec(any::<u8>(), 1..20_000),
        chunks in prop::collection::vec(1usize..5000, 1..8),
    ) {
        transfer_faithful(payload, chunks, Link::new());
    }

    /// Arbitrary payloads survive seeded loss and reordering.
    #[test]
    fn tcp_stream_is_faithful_under_faults(
        payload in prop::collection::vec(any::<u8>(), 1..12_000),
        chunks in prop::collection::vec(1usize..4000, 1..8),
        loss_per_mille in 25u16..200,
        reorder_per_mille in prop::option::of(50u16..333),
        seed in any::<u64>(),
    ) {
        let chaos = LinkChaos {
            loss_per_mille,
            reorder_per_mille: reorder_per_mille.unwrap_or(0),
            ..LinkChaos::default()
        };
        transfer_faithful(payload, chunks, Link::with_chaos(chaos, seed));
    }

    /// Sequence-space comparisons are a strict total preorder around any
    /// pivot (antisymmetry within a window).
    #[test]
    fn seq_space_sanity(a in any::<u32>(), d in 1u32..i32::MAX as u32) {
        use flexos_net::tcp::{seq_le, seq_lt};
        let b = a.wrapping_add(d);
        prop_assert!(seq_lt(a, b));
        prop_assert!(!seq_lt(b, a));
        prop_assert!(seq_le(a, a));
    }
}
