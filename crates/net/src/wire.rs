//! Wire formats: Ethernet, IPv4 and TCP headers and checksums.
//!
//! Real header layouts (RFC 791/793), parsed from and serialized to
//! byte frames, with the standard Internet checksum. The stack is small
//! (no IP options, no TCP options beyond what the fixed MSS implies) but
//! honest: corrupted headers and checksums are rejected, and every field
//! round-trips bit-exactly.

/// Ethernet MTU used by the simulated NICs.
pub const MTU: usize = 1500;

/// Ethernet header length.
pub const ETH_LEN: usize = 14;
/// IPv4 header length (no options).
pub const IPV4_LEN: usize = 20;
/// TCP header length (no options).
pub const TCP_LEN: usize = 20;

/// TCP maximum segment size implied by the MTU.
pub const MSS: usize = MTU - IPV4_LEN - TCP_LEN; // 1460

/// Largest TCP payload whose IPv4 total length still fits in 16 bits.
pub const TCP_MAX_PAYLOAD: usize = u16::MAX as usize - IPV4_LEN - TCP_LEN; // 65495

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// IP protocol number of TCP.
pub const PROTO_TCP: u8 = 6;

/// Error raised when a frame cannot be serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload is too large for a 16-bit length field: casting would
    /// silently truncate and emit a frame with a lying header.
    PayloadTooLarge {
        /// The offending payload length.
        len: usize,
        /// The largest payload this frame type can carry.
        max: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds wire maximum {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The broadcast address.
    pub const BROADCAST: Mac = Mac([0xff; 6]);

    /// A deterministic locally-administered MAC for simulated NIC `n`.
    pub fn of_nic(n: u8) -> Mac {
        Mac([0x02, 0x00, 0x00, 0xf1, 0xe0, n])
    }
}

/// Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// EtherType.
    pub ethertype: u16,
}

impl EthHeader {
    /// Serializes into the first [`ETH_LEN`] bytes of `out`.
    pub fn write(&self, out: &mut [u8]) {
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
    }

    /// Parses from a frame; `None` if too short.
    pub fn parse(b: &[u8]) -> Option<EthHeader> {
        if b.len() < ETH_LEN {
            return None;
        }
        Some(EthHeader {
            dst: Mac(b[0..6].try_into().expect("6 bytes")),
            src: Mac(b[6..12].try_into().expect("6 bytes")),
            ethertype: u16::from_be_bytes([b[12], b[13]]),
        })
    }
}

/// The Internet checksum (RFC 1071) over `data`, with an initial sum for
/// pseudo-header folding. The workspace's one checksum routine: headers,
/// pseudo-headers and payloads on both the build and verify sides.
pub fn checksum(data: &[u8], initial: u32) -> u16 {
    // The one's-complement sum is byte-order independent (RFC 1071
    // §2(B)), so sum native-endian words and swap the folded 16 bits
    // once at the end: 64-bit loads split into their 32-bit halves (a
    // u64 accumulator cannot overflow below 16 GiB of input), four
    // independent accumulators so the adds pipeline and vectorize.
    let mut acc = [0u64; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (a, w) in acc.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_ne_bytes(w.try_into().expect("8 bytes"));
            *a += (w & 0xffff_ffff) + (w >> 32);
        }
    }
    let mut sum: u64 = acc.iter().sum();
    let mut pairs = blocks.remainder().chunks_exact(2);
    for p in &mut pairs {
        sum += u64::from(u16::from_ne_bytes([p[0], p[1]]));
    }
    if let [last] = pairs.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    let swapped = u16::from_be_bytes(fold(sum).to_ne_bytes());
    !fold(u64::from(swapped) + u64::from(initial))
}

/// Folds a one's-complement sum to 16 bits, end-around carries included.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Payload protocol ([`PROTO_TCP`]; anything else is dropped).
    pub proto: u8,
    /// Total length (header + payload).
    pub total_len: u16,
    /// Time to live.
    pub ttl: u8,
    /// Identification (used by tests to tag packets).
    pub ident: u16,
}

impl Ipv4Header {
    /// Serializes (with checksum) into the first [`IPV4_LEN`] bytes.
    pub fn write(&self, out: &mut [u8]) {
        // The checksum comes from the fields, not from the bytes just
        // stored: reading single-byte stores back as 16-bit words stalls
        // on store forwarding. Ten big-endian words, the checksum's own
        // as zero (a 32-bit field goes in whole: `fold`'s end-around carry
        // adds its halves); `checksum` stays the verify side and the oracle.
        let sum = 0x4500
            + u64::from(self.total_len)
            + u64::from(self.ident)
            + 0x4000
            + ((u64::from(self.ttl) << 8) | u64::from(self.proto))
            + u64::from(self.src)
            + u64::from(self.dst);
        let csum = !fold(sum);
        out[0] = 0x45; // version 4, IHL 5
        out[1] = 0; // DSCP/ECN
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.ident.to_be_bytes());
        out[6..8].copy_from_slice(&[0x40, 0]); // DF, no fragment offset
        out[8] = self.ttl;
        out[9] = self.proto;
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        out[12..16].copy_from_slice(&self.src.to_be_bytes());
        out[16..20].copy_from_slice(&self.dst.to_be_bytes());
        debug_assert_eq!(checksum(&out[..IPV4_LEN], 0), 0);
    }

    /// Parses and verifies the checksum; `None` on malformed input.
    pub fn parse(b: &[u8]) -> Option<Ipv4Header> {
        if b.len() < IPV4_LEN || b[0] != 0x45 {
            return None;
        }
        if checksum(&b[..IPV4_LEN], 0) != 0 {
            return None;
        }
        Some(Ipv4Header {
            total_len: u16::from_be_bytes([b[2], b[3]]),
            ident: u16::from_be_bytes([b[4], b[5]]),
            ttl: b[8],
            proto: b[9],
            src: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            dst: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
        })
    }

    /// The folded sum of the pseudo-header, an `initial` for [`checksum`].
    fn pseudo_sum(&self, l4_len: u16) -> u32 {
        let sum =
            u64::from(self.src) + u64::from(self.dst) + u64::from(self.proto) + u64::from(l4_len);
        u32::from(fold(sum))
    }
}

/// TCP flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN: sender is done.
    pub fin: bool,
    /// SYN: synchronize sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// ACK: the ack field is valid.
    pub ack: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        rst: false,
        ack: false,
    };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        fin: false,
        rst: false,
        syn: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        syn: false,
        rst: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        rst: true,
        fin: false,
        syn: false,
        ack: false,
    };

    fn to_byte(self) -> u8 {
        u8::from(self.fin)
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.ack) << 4)
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 1 != 0,
            syn: b & 2 != 0,
            rst: b & 4 != 0,
            ack: b & 16 != 0,
        }
    }
}

/// TCP header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Serializes (with checksum over the pseudo-header and `payload`)
    /// into the first [`TCP_LEN`] bytes of `out`. Rejects payloads whose
    /// layer-4 length would not fit the 16-bit pseudo-header field —
    /// the cast used to truncate silently for payloads ≥ 64 KiB.
    pub fn write(&self, ip: &Ipv4Header, payload: &[u8], out: &mut [u8]) -> Result<(), WireError> {
        if payload.len() > TCP_MAX_PAYLOAD {
            return Err(WireError::PayloadTooLarge {
                len: payload.len(),
                max: TCP_MAX_PAYLOAD,
            });
        }
        let l4_len = (TCP_LEN + payload.len()) as u16;
        // Data offset: 5 words.
        let off_flags = (5 << 12) | u16::from(self.flags.to_byte());
        // As in `Ipv4Header::write`, the header's sum comes from the
        // fields (checksum and urgent pointer are zero), over the
        // pseudo-header's; the payload is summed over both: the header
        // is an even number of bytes, so the payload's 16-bit words keep
        // their alignment.
        let head = u64::from(ip.pseudo_sum(l4_len))
            + u64::from(self.src_port)
            + u64::from(self.dst_port)
            + u64::from(self.seq)
            + u64::from(self.ack)
            + u64::from(off_flags)
            + u64::from(self.window);
        let csum = checksum(payload, u32::from(fold(head)));
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12..14].copy_from_slice(&off_flags.to_be_bytes());
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..18].copy_from_slice(&csum.to_be_bytes());
        out[18..20].copy_from_slice(&[0, 0]); // urgent pointer
        debug_assert_eq!(
            checksum(
                payload,
                u32::from(!checksum(&out[..TCP_LEN], ip.pseudo_sum(l4_len)))
            ),
            0
        );
        Ok(())
    }

    /// Parses and verifies the checksum against `ip` and `payload`.
    pub fn parse(ip: &Ipv4Header, b: &[u8]) -> Option<(TcpHeader, usize)> {
        if b.len() < TCP_LEN {
            return None;
        }
        let data_off = (b[12] >> 4) as usize * 4;
        if data_off < TCP_LEN || b.len() < data_off {
            return None;
        }
        let l4_len = b.len() as u16;
        let sum = ip.pseudo_sum(l4_len);
        if checksum(b, sum) != 0 {
            return None;
        }
        Some((
            TcpHeader {
                src_port: u16::from_be_bytes([b[0], b[1]]),
                dst_port: u16::from_be_bytes([b[2], b[3]]),
                seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
                ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
                flags: TcpFlags::from_byte(b[13]),
                window: u16::from_be_bytes([b[14], b[15]]),
            },
            data_off,
        ))
    }
}

/// Splits an IPv4-over-Ethernet frame into its two headers and the L4
/// bytes its IP header's `total_len` covers (trailing link padding
/// excluded). `None` for a frame that is not IPv4 or does not parse — a
/// checksum-valid IP header whose `total_len` runs past the frame or
/// falls short of the header itself included. Which addresses and
/// protocols are wanted is the caller's filter.
pub fn parse_ipv4_frame(frame: &[u8]) -> Option<(EthHeader, Ipv4Header, &[u8])> {
    let eth = EthHeader::parse(frame).filter(|eth| eth.ethertype == ETHERTYPE_IPV4)?;
    let ip = Ipv4Header::parse(frame.get(ETH_LEN..)?)?;
    let l4 = frame.get(ETH_LEN + IPV4_LEN..ETH_LEN + ip.total_len as usize)?;
    Some((eth, ip, l4))
}

/// Builds a full Ethernet+IPv4+TCP frame in a fresh vector. The owning
/// form of [`build_tcp_frame_into`], for tests and tools.
pub fn build_tcp_frame(
    eth: &EthHeader,
    ip: &Ipv4Header,
    tcp: &TcpHeader,
    payload: &[u8],
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    build_tcp_frame_into(eth, ip, tcp, payload, &mut out)?;
    Ok(out)
}

/// Builds a full Ethernet+IPv4+TCP frame into `out` (whatever it held is
/// replaced; its capacity is what a frame pool recycles). The payload is
/// copied once. Fails rather than emitting a frame whose headers
/// misdescribe an oversized payload.
pub fn build_tcp_frame_into(
    eth: &EthHeader,
    ip: &Ipv4Header,
    tcp: &TcpHeader,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    const HEADERS: usize = ETH_LEN + IPV4_LEN + TCP_LEN;
    out.clear();
    out.reserve(HEADERS + payload.len());
    out.resize(HEADERS, 0);
    eth.write(&mut out[..ETH_LEN]);
    ip.write(&mut out[ETH_LEN..ETH_LEN + IPV4_LEN]);
    tcp.write(ip, payload, &mut out[ETH_LEN + IPV4_LEN..])?;
    out.extend_from_slice(payload);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip_hdr(payload: usize, proto: u8) -> Ipv4Header {
        Ipv4Header {
            src: 0x0a000001,
            dst: 0x0a000002,
            proto,
            total_len: (IPV4_LEN + payload) as u16,
            ttl: 64,
            ident: 7,
        }
    }

    #[test]
    fn eth_round_trip() {
        let h = EthHeader {
            dst: Mac::of_nic(2),
            src: Mac::of_nic(1),
            ethertype: ETHERTYPE_IPV4,
        };
        let mut buf = [0u8; ETH_LEN];
        h.write(&mut buf);
        assert_eq!(EthHeader::parse(&buf).unwrap(), h);
        assert!(EthHeader::parse(&buf[..10]).is_none());
    }

    #[test]
    fn ipv4_round_trip_and_checksum() {
        let h = ip_hdr(100, PROTO_TCP);
        let mut buf = [0u8; IPV4_LEN];
        h.write(&mut buf);
        assert_eq!(Ipv4Header::parse(&buf).unwrap(), h);
        // Corrupt a byte: checksum rejects.
        buf[15] ^= 1;
        assert!(Ipv4Header::parse(&buf).is_none());
    }

    #[test]
    fn tcp_round_trip_and_checksum_covers_payload() {
        let payload = b"FlexOS makes OS isolation flexible";
        let ip = ip_hdr(TCP_LEN + payload.len(), PROTO_TCP);
        let tcp = TcpHeader {
            src_port: 5201,
            dst_port: 40000,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags::ACK,
            window: 65535,
        };
        let mut seg = vec![0u8; TCP_LEN + payload.len()];
        tcp.write(&ip, payload, &mut seg[..TCP_LEN]).unwrap();
        seg[TCP_LEN..].copy_from_slice(payload);
        let (parsed, off) = TcpHeader::parse(&ip, &seg).unwrap();
        assert_eq!(parsed, tcp);
        assert_eq!(off, TCP_LEN);
        // Flip a payload bit: the TCP checksum rejects the segment.
        seg[TCP_LEN + 3] ^= 0x80;
        assert!(TcpHeader::parse(&ip, &seg).is_none());
    }

    #[test]
    fn tcp_flags_round_trip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::ACK,
            TcpFlags::SYN_ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::RST,
        ] {
            assert_eq!(TcpFlags::from_byte(flags.to_byte()), flags);
        }
    }

    #[test]
    fn full_tcp_frame_parses_end_to_end() {
        let payload = vec![0x42u8; 333];
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(0),
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = ip_hdr(TCP_LEN + payload.len(), PROTO_TCP);
        let tcp = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 9,
            ack: 10,
            flags: TcpFlags::ACK,
            window: 1024,
        };
        let frame = build_tcp_frame(&eth, &ip, &tcp, &payload).unwrap();
        assert_eq!(frame.len(), ETH_LEN + IPV4_LEN + TCP_LEN + 333);
        let eth2 = EthHeader::parse(&frame).unwrap();
        assert_eq!(eth2, eth);
        let ip2 = Ipv4Header::parse(&frame[ETH_LEN..]).unwrap();
        assert_eq!(ip2, ip);
        let (tcp2, off) = TcpHeader::parse(&ip2, &frame[ETH_LEN + IPV4_LEN..]).unwrap();
        assert_eq!(tcp2, tcp);
        assert_eq!(&frame[ETH_LEN + IPV4_LEN + off..], &payload[..]);
    }

    /// `parse_ipv4_frame` hands out exactly the bytes `total_len` covers:
    /// link padding stays out, and a header claiming less than itself or
    /// more than the frame holds is no frame.
    #[test]
    fn an_ipv4_frame_splits_at_its_total_len() {
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(0),
            ethertype: ETHERTYPE_IPV4,
        };
        let frame_of = |total_len: u16| {
            let mut frame = vec![0x42u8; 60];
            eth.write(&mut frame);
            let ip = Ipv4Header {
                total_len,
                ..ip_hdr(0, PROTO_TCP)
            };
            ip.write(&mut frame[ETH_LEN..]);
            frame
        };
        let padded = frame_of((IPV4_LEN + 6) as u16);
        let (eth2, ip, l4) = parse_ipv4_frame(&padded).unwrap();
        assert_eq!((eth2, ip.total_len, l4), (eth, 26, &[0x42u8; 6][..]));
        for total_len in [0, (IPV4_LEN - 1) as u16, 47] {
            assert_eq!(parse_ipv4_frame(&frame_of(total_len)), None, "{total_len}");
        }
        let mut arp = padded;
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        assert_eq!(parse_ipv4_frame(&arp), None);
    }

    #[test]
    fn oversized_payloads_are_rejected_not_truncated() {
        // 64 KiB payload: `(TCP_LEN + len) as u16` used to wrap to 19 and
        // emit a frame whose pseudo-header length lied about the payload.
        let payload = vec![0u8; 65536];
        let eth = EthHeader {
            dst: Mac::of_nic(1),
            src: Mac::of_nic(0),
            ethertype: ETHERTYPE_IPV4,
        };
        let ip = ip_hdr(100, PROTO_TCP);
        let tcp = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 1024,
        };
        let mut seg = [0u8; TCP_LEN];
        assert_eq!(
            tcp.write(&ip, &payload, &mut seg),
            Err(WireError::PayloadTooLarge {
                len: 65536,
                max: TCP_MAX_PAYLOAD
            })
        );
        assert!(build_tcp_frame(&eth, &ip, &tcp, &payload).is_err());
        // The boundary itself is accepted.
        let ok = vec![0u8; TCP_MAX_PAYLOAD];
        assert!(tcp.write(&ip, &ok, &mut seg).is_ok());
    }

    #[test]
    fn checksum_of_rfc1071_example() {
        // RFC 1071 example bytes.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = checksum(&data, 0);
        assert_eq!(sum, !0xddf2u16);
    }

    #[test]
    fn mss_fits_the_mtu() {
        assert_eq!(MSS, 1460);
        let l3_plus_l4 = IPV4_LEN + TCP_LEN + MSS;
        assert!(l3_plus_l4 <= MTU, "{l3_plus_l4} > {MTU}");
    }
}
