//! Property tests for the RESP codec: whatever bytes arrive in whatever
//! pieces, the parser neither panics nor over-consumes; encoding and
//! parsing are inverse; and the allocation-free request path (borrowed
//! commands, skipped replies) sees exactly what the owning API sees.

use flexos_apps::resp::{
    encode, encode_command, Malformed, RespError, RespParser, RespValue, MAX_ARRAY_LEN,
    MAX_BULK_LEN, MAX_DEPTH, MAX_LINE_LEN,
};
use proptest::prelude::*;

/// Bytes a parser state machine cares about, so that random input gets
/// past the first token often enough to matter.
const RESP_ALPHABET: &[u8] = b"+-:$*0123456789\r\n\r\nab";

fn resp_ish_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        1 => any::<u8>(),
        6 => (0..RESP_ALPHABET.len()).prop_map(|i| RESP_ALPHABET[i]),
    ];
    prop::collection::vec(byte, 0..120)
}

fn bulk_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 0..40),
        1 => Just(b"a\r\nb\r\n".to_vec()),
        1 => Just(b"\r\n$3\r\n".to_vec()),
    ]
}

fn scalar() -> BoxedStrategy<RespValue> {
    prop_oneof![
        ".{0,12}".prop_map(RespValue::Simple),
        ".{0,12}".prop_map(RespValue::Error),
        any::<i64>().prop_map(RespValue::Integer),
        (0u8..7).prop_map(|n| RespValue::Integer(i64::from(n) - 3)),
        prop::option::of(bulk_payload()).prop_map(RespValue::Bulk),
    ]
    .boxed()
}

/// Values nested up to `depth` arrays deep, empty arrays included.
fn value(depth: u32) -> BoxedStrategy<RespValue> {
    if depth == 0 {
        return scalar();
    }
    prop_oneof![
        2 => scalar(),
        1 => prop::collection::vec(value(depth - 1), 0..4).prop_map(RespValue::Array),
    ]
    .boxed()
}

fn command() -> impl Strategy<Value = RespValue> {
    prop::collection::vec(bulk_payload(), 1..4).prop_map(|args| {
        RespValue::Array(args.into_iter().map(|a| RespValue::Bulk(Some(a))).collect())
    })
}

/// What a client may put on the wire: mostly commands, sometimes any
/// other well-formed value.
fn stream() -> impl Strategy<Value = Vec<RespValue>> {
    prop::collection::vec(prop_oneof![3 => command(), 1 => value(2)], 0..8)
}

/// Cuts `wire` into consecutive pieces whose sizes cycle through `sizes`.
fn chunks<'a>(wire: &'a [u8], sizes: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let mut rest = wire;
    let mut sizes = sizes.iter().cycle();
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let n = (*sizes.next().expect("sizes is not empty")).min(rest.len());
        let (head, tail) = rest.split_at(n);
        rest = tail;
        Some(head)
    })
}

fn chunk_sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..24, 1..6)
}

/// The argument list the owning API derives from a value.
fn args_of(v: &RespValue) -> Vec<Vec<u8>> {
    let RespValue::Array(items) = v else {
        return Vec::new();
    };
    let args: Option<Vec<Vec<u8>>> = items
        .iter()
        .map(|item| match item {
            RespValue::Bulk(Some(b)) => Some(b.clone()),
            _ => None,
        })
        .collect();
    args.unwrap_or_default()
}

/// The text `skip_reply` surfaces for a value.
fn error_of(v: &RespValue) -> Option<Vec<u8>> {
    match v {
        RespValue::Error(e) => Some(e.clone().into_bytes()),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (a) Arbitrary bytes in arbitrary pieces: no entry point panics, and
    /// none consumes bytes it was not fed.
    #[test]
    fn arbitrary_bytes_never_panic_or_overconsume(
        wire in resp_ish_bytes(),
        sizes in chunk_sizes(),
        entry in 0usize..5,
    ) {
        let mut p = RespParser::new();
        let mut spans = Vec::new();
        let mut fed = 0usize;
        let mut consumed = 0usize;
        for piece in chunks(&wire, &sizes) {
            p.feed(piece);
            fed += piece.len();
            loop {
                let progressed = match entry {
                    0 => p.next_command(&mut spans).is_ok(),
                    1 => p.skip_reply().is_ok(),
                    2 => p.next_value().is_ok(),
                    3 => p.parse_command().is_some(),
                    _ => p.parse_value().is_some(),
                };
                prop_assert!(p.pending() <= fed);
                let now = fed - p.pending();
                prop_assert!(now >= consumed, "consumed count went backwards");
                prop_assert_eq!(progressed, now > consumed, "progress without bytes or bytes without progress");
                consumed = now;
                if !progressed {
                    break;
                }
            }
        }
    }

    /// (b) `parse ∘ encode = id`, whole and in pieces.
    #[test]
    fn parse_inverts_encode(v in value(3), sizes in chunk_sizes()) {
        let wire = encode(&v);
        let mut p = RespParser::new();
        p.feed(&wire);
        prop_assert_eq!(p.next_value(), Ok(v.clone()));
        prop_assert_eq!(p.pending(), 0);

        let mut p = RespParser::new();
        let mut parsed = None;
        for piece in chunks(&wire, &sizes) {
            prop_assert_eq!(parsed, None, "parsed before the last piece");
            p.feed(piece);
            parsed = p.parse_value();
        }
        prop_assert_eq!(parsed, Some(v));
        prop_assert_eq!(p.pending(), 0);
    }

    /// (c) Streaming ≡ owning. The same pieces go to four parsers; after
    /// every piece each is drained through its own entry point. Borrowed
    /// commands, skipped replies and the `Option` wrappers must agree
    /// with the typed owning parse on every value, on the bytes consumed
    /// so far, and — when `corrupt` breaks the stream — on where and why
    /// it stops being RESP.
    #[test]
    fn streaming_path_agrees_with_the_owning_path(
        values in stream(),
        sizes in chunk_sizes(),
        corrupt in prop::option::of((any::<usize>(), any::<u8>())),
    ) {
        let mut wire: Vec<u8> = values.iter().flat_map(encode).collect();
        if let (Some((at, byte)), false) = (corrupt, wire.is_empty()) {
            let at = at % wire.len();
            wire[at] = byte;
        }
        let mut owning = RespParser::new();
        let mut borrowed = RespParser::new();
        let mut skipping = RespParser::new();
        let mut wrapped = RespParser::new();
        let mut spans = Vec::new();
        for piece in chunks(&wire, &sizes) {
            for p in [&mut owning, &mut borrowed, &mut skipping, &mut wrapped] {
                p.feed(piece);
            }
            loop {
                let reference = owning.next_value();
                let command = borrowed
                    .next_command(&mut spans)
                    .map(|cmd| cmd.args().map(<[u8]>::to_vec).collect::<Vec<_>>());
                let skipped = skipping.skip_reply().map(|e| e.map(<[u8]>::to_vec));
                prop_assert_eq!(&command, &reference.as_ref().map(args_of).map_err(|e| *e));
                prop_assert_eq!(&skipped, &reference.as_ref().map(error_of).map_err(|e| *e));
                prop_assert_eq!(wrapped.parse_command(), command.ok());
                prop_assert_eq!(borrowed.pending(), owning.pending());
                prop_assert_eq!(skipping.pending(), owning.pending());
                prop_assert_eq!(wrapped.pending(), owning.pending());
                if reference.is_err() {
                    break;
                }
            }
        }
        if corrupt.is_none() {
            prop_assert_eq!(owning.pending(), 0);
        }
    }
}

fn assert_every_entry_point_stops_with(p: &mut RespParser, e: RespError) {
    assert_eq!(p.next_value().err(), Some(e));
    assert_eq!(p.skip_reply().err(), Some(e));
    assert_eq!(p.next_command(&mut Vec::new()).err(), Some(e));
}

/// A count no buffer can back must be refused, not preallocated: on the
/// parent tree this input panicked both servers with "capacity overflow".
#[test]
fn absurd_array_count_is_malformed_not_a_capacity_overflow() {
    for wire in [
        &b"*9223372036854775807\r\n"[..],
        b"*1048577\r\n",
        b"$9223372036854775807\r\n",
        b"$536870913\r\n",
    ] {
        let mut p = RespParser::new();
        p.feed(wire);
        assert_eq!(p.parse_command(), None);
        assert_eq!(p.parse_value(), None);
        let too_long = RespError::Malformed {
            at: 0,
            kind: Malformed::TooLong,
        };
        assert_every_entry_point_stops_with(&mut p, too_long);
        assert_eq!(p.pending(), wire.len(), "a refused value is not consumed");
    }
    // The caps themselves are accepted (and wait for their payload).
    for wire in [
        format!("*{MAX_ARRAY_LEN}\r\n"),
        format!("${MAX_BULK_LEN}\r\n"),
    ] {
        let mut p = RespParser::new();
        p.feed(wire.as_bytes());
        assert_eq!(p.next_value(), Err(RespError::Incomplete));
    }
}

/// Input that can never become a value is told apart from input that has
/// not all arrived: on the parent tree each of these read as "need more
/// bytes" forever, wedging the connection behind it.
#[test]
fn malformed_input_is_not_incomplete() {
    let cases: [(&[u8], usize, Malformed); 8] = [
        (b"hello\r\n*1\r\n$4\r\nPING\r\n", 0, Malformed::Tag(b'h')),
        (b"\r\n", 0, Malformed::Tag(b'\r')),
        (b"$abc\r\n", 0, Malformed::Number),
        (b"*\r\n", 0, Malformed::Number),
        (b"$\xff\r\n", 0, Malformed::Number),
        (b"+\xff\r\n", 0, Malformed::Utf8),
        (b"$3\r\nabcXY", 0, Malformed::Trailer),
        (b"*2\r\n$1\r\na\r\n?", 11, Malformed::Tag(b'?')),
    ];
    for (wire, at, kind) in cases {
        let mut p = RespParser::new();
        // A well-formed command first: offsets count from the first
        // unconsumed byte, and what precedes the damage is still served.
        p.feed(&encode_command(&[b"PING"]));
        p.feed(wire);
        assert_eq!(p.parse_command(), Some(vec![b"PING".to_vec()]));
        assert_every_entry_point_stops_with(&mut p, RespError::Malformed { at, kind });
        // The owning wrappers keep answering `None`, and consume nothing.
        assert_eq!(p.parse_command(), None);
        assert_eq!(p.parse_value(), None);
        assert_eq!(p.pending(), wire.len());
    }
}

#[test]
fn unbounded_lines_and_nesting_are_refused() {
    let mut p = RespParser::new();
    p.feed(b"+");
    p.feed(&vec![b'a'; MAX_LINE_LEN - 1]);
    assert_eq!(p.next_value(), Err(RespError::Incomplete));
    p.feed(b"a");
    assert_eq!(
        p.next_value(),
        Err(RespError::Malformed {
            at: 0,
            kind: Malformed::TooLong
        })
    );

    let nest = |depth: usize| {
        let mut p = RespParser::new();
        p.feed(&b"*1\r\n".repeat(depth));
        p.feed(b":1\r\n");
        p
    };
    let mut deepest = nest(MAX_DEPTH);
    let v = deepest.next_value().expect("nesting at the cap parses");
    assert_eq!(encode(&v).len(), 4 * MAX_DEPTH + 4);
    assert_eq!(
        nest(MAX_DEPTH + 1).skip_reply(),
        Err(RespError::Malformed {
            at: 4 * MAX_DEPTH,
            kind: Malformed::TooDeep
        })
    );
}
