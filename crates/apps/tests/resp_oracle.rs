//! Differential oracle for the RESP tokenizer. The model is the
//! three-pass tokenizer and walker the codec had before its one-pass
//! rewrite (find the CRLF, validate the line with `str::from_utf8`, parse
//! it with `str::parse::<i64>`), copied verbatim below its marker line.
//! The same bytes, in the same pieces, go to the model and to
//! `RespParser`; every entry point must return the same value or the
//! same `RespError` and leave the same number of bytes pending.

use flexos_apps::resp::{
    Malformed, RespError, RespParser, RespValue, MAX_ARRAY_LEN, MAX_BULK_LEN, MAX_DEPTH,
    MAX_LINE_LEN,
};
use proptest::prelude::*;
use std::ops::Range;

// --- the model: the three-pass tokenizer and walker, verbatim ----------------

/// One RESP token: a whole scalar, or the header of an array. Text and
/// payload are ranges into the tokenized buffer.
enum Token {
    Simple(Range<usize>),
    Error(Range<usize>),
    Integer(i64),
    Bulk(Option<Range<usize>>),
    Array(usize),
}

/// Index of the first `\r` at or after `from` that a `\n` follows.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    loop {
        let cr = at + buf.get(at..)?.iter().position(|&b| b == b'\r')?;
        match buf.get(cr + 1) {
            Some(b'\n') => return Some(cr),
            Some(_) => at = cr + 1,
            None => return None,
        }
    }
}

/// Reads the token at `from`; returns it with the offset just past it
/// (for an array: past its header line). The one place input is
/// validated — every parser entry point below is built on it.
fn token(buf: &[u8], from: usize) -> Result<(Token, usize), RespError> {
    let malformed = |kind| Err(RespError::Malformed { at: from, kind });
    let Some(&tag) = buf.get(from) else {
        return Err(RespError::Incomplete);
    };
    if !matches!(tag, b'+' | b'-' | b':' | b'$' | b'*') {
        return malformed(Malformed::Tag(tag));
    }
    let cr = match find_crlf(buf, from + 1) {
        Some(cr) if cr - from <= MAX_LINE_LEN => cr,
        None if buf.len() - from <= MAX_LINE_LEN => return Err(RespError::Incomplete),
        _ => return malformed(Malformed::TooLong),
    };
    let (line, after) = (from + 1..cr, cr + 2);
    let Ok(text) = std::str::from_utf8(&buf[line.clone()]) else {
        return malformed(match tag {
            b'+' | b'-' => Malformed::Utf8,
            _ => Malformed::Number,
        });
    };
    match tag {
        b'+' => return Ok((Token::Simple(line), after)),
        b'-' => return Ok((Token::Error(line), after)),
        _ => {}
    }
    let Ok(n) = text.parse::<i64>() else {
        return malformed(Malformed::Number);
    };
    let token = match (tag, usize::try_from(n)) {
        (b':', _) => Token::Integer(n),
        // Negative lengths are the nil bulk and the nil array (which the
        // owning API has always read as the empty array).
        (b'$', Err(_)) => Token::Bulk(None),
        (b'*', Err(_)) => Token::Array(0),
        (b'$', Ok(len)) if len <= MAX_BULK_LEN => {
            let end = after + len;
            return match buf.get(end..end + 2) {
                None => Err(RespError::Incomplete),
                Some(b"\r\n") => Ok((Token::Bulk(Some(after..end)), end + 2)),
                Some(_) => malformed(Malformed::Trailer),
            };
        }
        (b'*', Ok(len)) if len <= MAX_ARRAY_LEN => Token::Array(len),
        _ => return malformed(Malformed::TooLong),
    };
    Ok((token, after))
}

/// Walks the whole value at the start of `buf` — iteratively, so hostile
/// nesting cannot exhaust the stack — calling `visit(depth, &token)` for
/// each token, and returns the value's length.
fn walk(buf: &[u8], mut visit: impl FnMut(usize, &Token)) -> Result<usize, RespError> {
    // Elements still owed to each open array.
    let mut open = [0usize; MAX_DEPTH];
    let mut depth = 0;
    let mut cur = 0;
    loop {
        let (tok, after) = token(buf, cur)?;
        visit(depth, &tok);
        match tok {
            Token::Array(n) if n > 0 => {
                if depth == MAX_DEPTH {
                    return Err(RespError::Malformed {
                        at: cur,
                        kind: Malformed::TooDeep,
                    });
                }
                open[depth] = n;
                depth += 1;
            }
            // A value ended: close every array it completes.
            _ => loop {
                if depth == 0 {
                    return Ok(after);
                }
                open[depth - 1] -= 1;
                if open[depth - 1] > 0 {
                    break;
                }
                depth -= 1;
            },
        }
        cur = after;
    }
}

/// Walks the value at the start of `buf` as a client command — a
/// top-level array whose every element is a non-nil bulk — handing each
/// such element to `arg`; returns the value's length and whether it was
/// a command.
fn walk_command(
    buf: &[u8],
    mut arg: impl FnMut(&Range<usize>),
) -> Result<(usize, bool), RespError> {
    let mut is_command = true;
    let len = walk(buf, |depth, tok| match (depth, tok) {
        (0, Token::Array(_)) => {}
        (1, Token::Bulk(Some(r))) => arg(r),
        _ => is_command = false,
    })?;
    Ok((len, is_command))
}

/// Builds the owning tree of a value [`walk`] has accepted (so arity is
/// backed by bytes in the buffer and nesting is bounded).
fn build(buf: &[u8], from: usize) -> Result<(RespValue, usize), RespError> {
    let text = |r: Range<usize>| String::from_utf8_lossy(&buf[r]).into_owned();
    let (tok, mut cur) = token(buf, from)?;
    let value = match tok {
        Token::Simple(r) => RespValue::Simple(text(r)),
        Token::Error(r) => RespValue::Error(text(r)),
        Token::Integer(n) => RespValue::Integer(n),
        Token::Bulk(r) => RespValue::Bulk(r.map(|r| buf[r].to_vec())),
        Token::Array(n) => {
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let (item, next) = build(buf, cur)?;
                items.push(item);
                cur = next;
            }
            RespValue::Array(items)
        }
    };
    Ok((value, cur))
}

// --- the model's entry points ---------------------------------------------------

/// `RespParser`'s entry points over the model. It never reclaims its
/// consumed prefix: offsets are taken from the first unconsumed byte, so
/// reclaiming moves nothing a caller sees.
#[derive(Default)]
struct Model {
    buf: Vec<u8>,
    pos: usize,
}

impl Model {
    fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn next_command(&mut self) -> Result<Vec<Vec<u8>>, RespError> {
        let unconsumed = &self.buf[self.pos..];
        let mut args = Vec::new();
        let (len, is_command) = walk_command(unconsumed, |arg| {
            args.push(unconsumed[arg.clone()].to_vec())
        })?;
        if !is_command {
            args.clear();
        }
        self.pos += len;
        Ok(args)
    }

    fn skip_reply(&mut self) -> Result<Option<Vec<u8>>, RespError> {
        let unconsumed = &self.buf[self.pos..];
        let mut error = None;
        let len = walk(unconsumed, |depth, tok| {
            if let (0, Token::Error(r)) = (depth, tok) {
                error = Some(r.clone());
            }
        })?;
        self.pos += len;
        Ok(error.map(|r| unconsumed[r].to_vec()))
    }

    fn next_value(&mut self) -> Result<RespValue, RespError> {
        let unconsumed = &self.buf[self.pos..];
        walk(unconsumed, |_, _| {})?;
        let (value, len) = build(unconsumed, 0)?;
        self.pos += len;
        Ok(value)
    }
}

/// Entry point `entry` (0 `next_value`, 1 `next_command`, 2
/// `skip_reply`) on both parsers: the answers agree, and so does what is
/// left pending. Returns whether a value was consumed.
fn agree(p: &mut RespParser, m: &mut Model, entry: usize) -> bool {
    let consumed = match entry {
        0 => {
            let got = p.next_value();
            assert_eq!(got, m.next_value());
            got.is_ok()
        }
        1 => {
            let got = p
                .next_command(&mut Vec::new())
                .map(|cmd| cmd.args().map(<[u8]>::to_vec).collect::<Vec<_>>());
            assert_eq!(got, m.next_command());
            got.is_ok()
        }
        _ => {
            let got = p.skip_reply().map(|e| e.map(<[u8]>::to_vec));
            assert_eq!(got, m.skip_reply());
            got.is_ok()
        }
    };
    assert_eq!(p.pending(), m.pending());
    consumed
}

/// Feeds `pieces` to a fresh parser and a fresh model, draining both
/// through the entry points `entries` cycles through after every piece.
fn run(pieces: &[&[u8]], entries: &[usize]) {
    let (mut p, mut m) = (RespParser::new(), Model::default());
    let mut entries = entries.iter().cycle();
    for piece in pieces {
        p.feed(piece);
        m.feed(piece);
        while agree(
            &mut p,
            &mut m,
            *entries.next().expect("entries is not empty"),
        ) {}
    }
}

/// `wire` whole and byte by byte, through every entry point.
fn check(wire: &[u8]) {
    let bytes: Vec<&[u8]> = wire.chunks(1).collect();
    for entry in 0..3 {
        run(&[wire], &[entry]);
        run(&bytes, &[entry]);
    }
}

// --- named edges ------------------------------------------------------------------

/// What `wire` reads as through `next_value`, with what is left pending.
fn value_of(wire: &[u8]) -> (Result<RespValue, RespError>, usize) {
    let mut p = RespParser::new();
    p.feed(wire);
    (p.next_value(), p.pending())
}

fn malformed(kind: Malformed) -> Result<RespValue, RespError> {
    Err(RespError::Malformed { at: 0, kind })
}

#[test]
fn signs_read_as_str_parse_reads_them() {
    for (wire, want) in [
        (&b":+5\r\n"[..], Ok(RespValue::Integer(5))),
        (b":-5\r\n", Ok(RespValue::Integer(-5))),
        (b":-\r\n", malformed(Malformed::Number)),
        (b":+\r\n", malformed(Malformed::Number)),
        (b":\r\n", malformed(Malformed::Number)),
        (b":-0\r\n", Ok(RespValue::Integer(0))),
        (b":+-1\r\n", malformed(Malformed::Number)),
        (b":--1\r\n", malformed(Malformed::Number)),
        (b":1-\r\n", malformed(Malformed::Number)),
        (b"$-\r\n", malformed(Malformed::Number)),
        (b"*-\r\n", malformed(Malformed::Number)),
        (b"$-0\r\n\r\n", Ok(RespValue::Bulk(Some(Vec::new())))),
        (b"*-0\r\n", Ok(RespValue::Array(Vec::new()))),
        (b"$+1\r\nx\r\n", Ok(RespValue::Bulk(Some(b"x".to_vec())))),
        (b"$-7\r\n", Ok(RespValue::Bulk(None))),
        // A lone `-` is an error reply with empty text, not a number.
        (b"-\r\n", Ok(RespValue::Error(String::new()))),
    ] {
        assert_eq!(value_of(wire).0, want, "{}", String::from_utf8_lossy(wire));
        check(wire);
    }
}

#[test]
fn leading_zeros_are_digits() {
    for (wire, want) in [
        (&b":007\r\n"[..], RespValue::Integer(7)),
        (b":-0007\r\n", RespValue::Integer(-7)),
        (b":00000000000000000000000000009\r\n", RespValue::Integer(9)),
        (b"$03\r\nabc\r\n", RespValue::Bulk(Some(b"abc".to_vec()))),
        (
            b"*001\r\n:0\r\n",
            RespValue::Array(vec![RespValue::Integer(0)]),
        ),
    ] {
        assert_eq!(value_of(wire).0, Ok(want));
        check(wire);
    }
}

#[test]
fn the_ends_of_i64_parse_and_one_past_them_is_not_a_number() {
    let line = |n: &str| format!(":{n}\r\n").into_bytes();
    for (n, want) in [
        (i64::MAX.to_string(), Ok(RespValue::Integer(i64::MAX))),
        (i64::MIN.to_string(), Ok(RespValue::Integer(i64::MIN))),
        ("9223372036854775808".into(), malformed(Malformed::Number)),
        ("-9223372036854775809".into(), malformed(Malformed::Number)),
        ("99999999999999999999".into(), malformed(Malformed::Number)),
        ("18446744073709551616".into(), malformed(Malformed::Number)),
    ] {
        assert_eq!(value_of(&line(&n)).0, want, "{n}");
        check(&line(&n));
    }
    // Past the end of `usize` a length or count is malformed, not nil.
    check(b"$9223372036854775808\r\n");
    check(b"*-9223372036854775809\r\n");
}

#[test]
fn a_lone_cr_inside_a_number_line_is_not_its_end() {
    for wire in [
        &b":1\r2\r\n"[..],
        b":\r1\r\n",
        b":1\r\r\n",
        b"$1\r1\r\nx\r\n",
        b"*\r\r\n",
        b":12\r",
        b":12\n\r\n",
    ] {
        check(wire);
    }
    assert_eq!(value_of(b":1\r2\r\n").0, malformed(Malformed::Number));
    assert_eq!(value_of(b":12\r"), (Err(RespError::Incomplete), 4));
}

#[test]
fn a_non_digit_before_the_crlf_is_not_a_number() {
    for wire in [
        &b":12a\r\n"[..],
        b":1 \r\n",
        b": 1\r\n",
        b"$3x\r\nabc\r\n",
        b"*2.\r\n",
    ] {
        assert_eq!(value_of(wire).0, malformed(Malformed::Number));
        check(wire);
    }
    // Until the CRLF arrives, a bad line is only incomplete.
    assert_eq!(value_of(b":12a").0, Err(RespError::Incomplete));
    check(b":12a");
    // Nested, the offset is the bad line's.
    let mut p = RespParser::new();
    p.feed(b"*2\r\n:1\r\n:x\r\n");
    assert_eq!(
        p.next_value(),
        Err(RespError::Malformed {
            at: 8,
            kind: Malformed::Number
        })
    );
    check(b"*2\r\n:1\r\n:x\r\n");
}

#[test]
fn a_line_of_exactly_max_line_len_fits_and_one_more_byte_does_not() {
    // The tag and the line's text together are MAX_LINE_LEN bytes.
    let text = |tag: u8, fill: u8, len: usize| {
        let mut line = vec![tag];
        line.resize(len, fill);
        line
    };
    for (tag, fill) in [(b':', b'0'), (b'+', b'a'), (b'-', 0xC3), (b'$', b'x')] {
        let fits = [text(tag, fill, MAX_LINE_LEN), b"\r\n".to_vec()].concat();
        let over = [text(tag, fill, MAX_LINE_LEN + 1), b"\r\n".to_vec()].concat();
        for wire in [&fits, &over] {
            // Whole, and cut after the tag, before the CRLF and inside it
            // (byte by byte would rescan the line once a byte).
            for entry in 0..3 {
                run(&[wire], &[entry]);
                for cut in [1, wire.len() - 2, wire.len() - 1] {
                    run(&[&wire[..cut], &wire[cut..]], &[entry]);
                }
            }
        }
        let (fits, over) = (value_of(&fits).0, value_of(&over).0);
        assert_ne!(fits, malformed(Malformed::TooLong));
        assert_eq!(over, malformed(Malformed::TooLong));
    }
    assert_eq!(
        value_of(&text(b':', b'0', MAX_LINE_LEN + 1)).0,
        malformed(Malformed::TooLong)
    );
    assert_eq!(
        value_of(&text(b':', b'0', MAX_LINE_LEN)).0,
        Err(RespError::Incomplete)
    );
}

#[test]
fn a_simple_string_with_a_high_byte_is_read_as_utf8() {
    for (wire, want) in [
        (
            &b"+caf\xC3\xA9\r\n"[..],
            Ok(RespValue::Simple("café".into())),
        ),
        (b"-\xE2\x82\xAC\r\n", Ok(RespValue::Error("€".into()))),
        (b"+caf\xC3\r\n", malformed(Malformed::Utf8)),
        (b"-\xA9\r\n", malformed(Malformed::Utf8)),
        (b"+\xFF\r\n", malformed(Malformed::Utf8)),
        (b":\xC3\xA9\r\n", malformed(Malformed::Number)),
        (b"$\xC3\r\n", malformed(Malformed::Number)),
    ] {
        assert_eq!(value_of(wire).0, want, "{}", String::from_utf8_lossy(wire));
        check(wire);
    }
    // A UTF-8 sequence cut by the read is still only incomplete.
    check(b"+caf\xC3");
}

// --- the property -----------------------------------------------------------------

/// Pieces of number-dense input: digits, signs, tags, line ends, one
/// high byte (a lone UTF-8 lead byte), one valid two-byte sequence and
/// the digit strings at the ends of `i64`.
const PIECES: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"3",
    b"5",
    b"7",
    b"9",
    b"+",
    b"-",
    b":",
    b"$",
    b"*",
    b"\r",
    b"\n",
    b"\r\n",
    b"\r\n",
    b"\xC3",
    b"\xC3\xA9",
    b"922337203685477580",
    b"9223372036854775807",
    b"00",
];

fn number_dense_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0..PIECES.len(), 0..80).prop_map(|picks| {
        picks
            .into_iter()
            .flat_map(|i| PIECES[i].iter().copied())
            .collect()
    })
}

/// Cuts `wire` into consecutive pieces whose sizes cycle through `sizes`.
fn chunks<'a>(wire: &'a [u8], sizes: &[usize]) -> Vec<&'a [u8]> {
    let mut rest = wire;
    let mut pieces = Vec::new();
    for &n in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(n.min(rest.len()));
        pieces.push(head);
        rest = tail;
    }
    pieces
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random number-dense bytes, in random pieces, drained after every
    /// piece through a random rotation of entry points: the one-pass
    /// tokenizer answers every call as the three-pass model does.
    #[test]
    fn the_one_pass_tokenizer_answers_as_the_three_pass_model(
        wire in number_dense_bytes(),
        sizes in prop::collection::vec(1usize..16, 1..5),
        entries in prop::collection::vec(0usize..3, 1..4),
    ) {
        run(&chunks(&wire, &sizes), &entries);
    }

    /// The same, on streams that are mostly well-formed: a valid prefix
    /// of headers and values, then the random tail.
    #[test]
    fn the_model_agrees_after_a_valid_prefix(
        count in 0usize..5,
        n in any::<i64>(),
        tail in number_dense_bytes(),
        sizes in prop::collection::vec(1usize..16, 1..5),
        entries in prop::collection::vec(0usize..3, 1..4),
    ) {
        let mut wire = format!("*{count}\r\n").into_bytes();
        for i in 0..count {
            wire.extend_from_slice(match i % 3 {
                0 => format!(":{n}\r\n"),
                1 => format!("${}\r\n{}\r\n", n.to_string().len(), n),
                _ => format!("+{n}\r\n"),
            }.as_bytes());
        }
        wire.extend_from_slice(&tail);
        run(&chunks(&wire, &sizes), &entries);
    }
}
