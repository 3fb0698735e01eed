//! Differential test of the checksum kernel.
//!
//! `wire::checksum` sums native-endian 64-bit words in four accumulators
//! and swaps the folded sum once at the end. The oracle here is RFC 1071
//! as written — 16-bit big-endian words, one accumulator, end-around
//! carry — kept in this file, never in the crate: the two must agree on
//! arbitrary bytes at every length up to a full IPv4 datagram, every
//! alignment of the slice's start, and every `initial`. On top of that,
//! what the checksum is for: a built header or frame sums to zero, and no
//! single flipped bit of a TCP segment gets past `TcpHeader::parse`. The
//! IPv4 and TCP headers' checksums are computed from their fields, not
//! their bytes, so both are held to the reference over arbitrary fields.

use flexos_net::wire::{
    build_tcp_frame, checksum, EthHeader, Ipv4Header, Mac, TcpFlags, TcpHeader, ETHERTYPE_IPV4,
    ETH_LEN, IPV4_LEN, PROTO_TCP, TCP_LEN,
};
use proptest::prelude::*;

/// RFC 1071, literally.
fn reference(data: &[u8], initial: u32) -> u16 {
    let mut sum = u64::from(initial);
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = words.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Every start offset 0..8 of `buf` (so the kernel's 8-byte loads meet
/// every alignment), at the full remaining length and one byte short of
/// it (so both parities of length are met at every offset).
fn agree_at_every_alignment(buf: &[u8], initial: u32) -> Result<(), TestCaseError> {
    for off in 0..8.min(buf.len() + 1) {
        for cut in 0..2.min(buf.len() - off + 1) {
            let data = &buf[off..buf.len() - cut];
            for init in [initial, 0, u32::MAX] {
                prop_assert_eq!(
                    checksum(data, init),
                    reference(data, init),
                    "offset {}, length {}, initial {:#x}",
                    off,
                    data.len(),
                    init
                );
            }
        }
    }
    Ok(())
}

fn tcp_frame(payload: &[u8], seq: u32, src: u32, dst: u32) -> (Ipv4Header, Vec<u8>) {
    let eth = EthHeader {
        dst: Mac::of_nic(1),
        src: Mac::of_nic(2),
        ethertype: ETHERTYPE_IPV4,
    };
    let ip = Ipv4Header {
        src,
        dst,
        proto: PROTO_TCP,
        total_len: (IPV4_LEN + TCP_LEN + payload.len()) as u16,
        ttl: 64,
        ident: seq as u16,
    };
    let tcp = TcpHeader {
        src_port: (seq >> 16) as u16,
        dst_port: 5201,
        seq,
        ack: !seq,
        flags: TcpFlags::ACK,
        window: seq as u16,
    };
    let frame = build_tcp_frame(&eth, &ip, &tcp, payload).unwrap();
    (ip, frame)
}

/// The pseudo-header sum, from the reference's side of the fence.
fn pseudo_initial(ip: &Ipv4Header, l4_len: usize) -> u32 {
    let mut pseudo = Vec::new();
    pseudo.extend_from_slice(&ip.src.to_be_bytes());
    pseudo.extend_from_slice(&ip.dst.to_be_bytes());
    pseudo.extend_from_slice(&[0, ip.proto]);
    pseudo.extend_from_slice(&(l4_len as u16).to_be_bytes());
    u32::from(!reference(&pseudo, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_equals_rfc1071_on_short_slices(
        buf in prop::collection::vec(any::<u8>(), 0..200),
        initial in any::<u32>(),
    ) {
        agree_at_every_alignment(&buf, initial)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_equals_rfc1071_up_to_a_full_datagram(
        buf in prop::collection::vec(any::<u8>(), 0..=65_535 + 7),
        initial in any::<u32>(),
    ) {
        agree_at_every_alignment(&buf, initial)?;
        // The largest slice the wire can carry, exactly.
        let full = &buf[..buf.len().min(65_535)];
        prop_assert_eq!(checksum(full, initial), reference(full, initial));
    }

    #[test]
    fn built_headers_and_frames_sum_to_zero(
        payload in prop::collection::vec(any::<u8>(), 0..=1460),
        seq in any::<u32>(),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let (ip, frame) = tcp_frame(&payload, seq, src, dst);
        let ip_hdr = &frame[ETH_LEN..ETH_LEN + IPV4_LEN];
        prop_assert_eq!(checksum(ip_hdr, 0), 0);
        prop_assert_eq!(reference(ip_hdr, 0), 0);
        let l4 = &frame[ETH_LEN + IPV4_LEN..];
        let pseudo = pseudo_initial(&ip, l4.len());
        prop_assert_eq!(checksum(l4, pseudo), 0);
        prop_assert_eq!(reference(l4, pseudo), 0);
        prop_assert!(Ipv4Header::parse(&frame[ETH_LEN..]) == Some(ip));
        prop_assert!(TcpHeader::parse(&ip, l4).is_some());
    }

    #[test]
    fn ipv4_write_sums_its_fields_as_the_reference_sums_its_bytes(
        src in any::<u32>(),
        dst in any::<u32>(),
        proto in any::<u8>(),
        total_len in any::<u16>(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
    ) {
        // `Ipv4Header::write` computes the checksum from the fields; the
        // reference computes it from the bytes with the field zeroed.
        let h = Ipv4Header { src, dst, proto, total_len, ttl, ident };
        let mut out = [0xa5u8; IPV4_LEN];
        h.write(&mut out);
        let mut zeroed = out;
        zeroed[10..12].copy_from_slice(&[0, 0]);
        prop_assert_eq!(u16::from_be_bytes([out[10], out[11]]), reference(&zeroed, 0));
        prop_assert_eq!(checksum(&out, 0), 0);
        prop_assert_eq!(reference(&out, 0), 0);
        prop_assert!(Ipv4Header::parse(&out) == Some(h));
    }

    #[test]
    fn tcp_write_sums_its_fields_as_the_reference_sums_its_bytes(
        payload in prop::collection::vec(any::<u8>(), 0..=64),
        src in any::<u32>(),
        dst in any::<u32>(),
        ports in any::<u32>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        flag_bits in 0u8..16,
    ) {
        // Same for `TcpHeader::write`: header and pseudo-header are summed
        // from the fields, the reference sums the bytes on the wire.
        let l4_len = TCP_LEN + payload.len();
        let ip = Ipv4Header {
            src,
            dst,
            proto: PROTO_TCP,
            total_len: (IPV4_LEN + l4_len) as u16,
            ttl: 64,
            ident: 0,
        };
        let flags = TcpFlags {
            fin: flag_bits & 1 != 0,
            syn: flag_bits & 2 != 0,
            rst: flag_bits & 4 != 0,
            ack: flag_bits & 8 != 0,
        };
        let h = TcpHeader {
            src_port: (ports >> 16) as u16,
            dst_port: ports as u16,
            seq,
            ack,
            flags,
            window,
        };
        let mut l4 = vec![0xa5u8; TCP_LEN];
        h.write(&ip, &payload, &mut l4).unwrap();
        l4.extend_from_slice(&payload);
        prop_assert_eq!(reference(&l4, pseudo_initial(&ip, l4_len)), 0);
        prop_assert!(TcpHeader::parse(&ip, &l4) == Some((h, TCP_LEN)));
    }

    #[test]
    fn every_single_bit_flip_of_a_segment_is_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..=300),
        seq in any::<u32>(),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let (ip, frame) = tcp_frame(&payload, seq, src, dst);
        let mut l4 = frame[ETH_LEN + IPV4_LEN..].to_vec();
        for bit in 0..l4.len() * 8 {
            l4[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(TcpHeader::parse(&ip, &l4).is_none(), "flipped bit {} went unnoticed", bit);
            l4[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert!(TcpHeader::parse(&ip, &l4).is_some());
    }
}

#[test]
fn all_ones_at_every_length_and_alignment() {
    // 0xffff words are the one's-complement negative zero: the sum
    // carries at every step, and must still come out as the reference's.
    let ff = vec![0xffu8; 65_535 + 8];
    let lens = (0..=70).chain([1459, 1460, 1461, 65_534, 65_535]);
    for len in lens {
        for off in 0..8 {
            let data = &ff[off..off + len];
            for initial in [0, 1, 0xffff, 0x1_0000, 0xffff_0000, u32::MAX] {
                assert_eq!(
                    checksum(data, initial),
                    reference(data, initial),
                    "offset {off}, length {len}, initial {initial:#x}"
                );
            }
        }
    }
}

#[test]
fn one_mss_segment_survives_every_bit_flip_check() {
    // The bulk path's own size: 1460 payload bytes, all 11 840 flips.
    let payload: Vec<u8> = (0..1460u32).map(|i| (i * 31 + (i >> 3)) as u8).collect();
    let (ip, frame) = tcp_frame(&payload, 0x0102_0304, 0x0a00_0002, 0x0a00_0001);
    let mut l4 = frame[ETH_LEN + IPV4_LEN..].to_vec();
    for bit in 0..l4.len() * 8 {
        l4[bit / 8] ^= 1 << (bit % 8);
        assert!(
            TcpHeader::parse(&ip, &l4).is_none(),
            "flipped bit {bit} went unnoticed"
        );
        l4[bit / 8] ^= 1 << (bit % 8);
    }
}
