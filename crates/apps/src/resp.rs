//! The RESP protocol (REdis Serialization Protocol), v2.
//!
//! Implements the subset Redis clients use for the paper's workloads:
//! command arrays of bulk strings in, simple strings / errors / integers
//! / bulk strings out — with an incremental parser that tolerates
//! partial input (TCP delivers byte streams, not messages).
//!
//! There is one codec. The request path of the servers and load
//! generators uses it without allocating: replies and commands are
//! appended to a caller's buffer ([`put_bulk`], [`put_command`], …),
//! commands are read as a borrowed [`Command`] view into the parser's
//! buffer ([`RespParser::next_command`]) and replies are skipped in
//! place ([`RespParser::skip_reply`]). The owning API ([`RespValue`],
//! [`encode`], [`encode_command`], [`RespParser::parse_value`],
//! [`RespParser::parse_command`]) is a thin layer over the same
//! tokenizer, kept for tests and tools.

use flexos_net::tcp::Lend;
use std::fmt;
use std::ops::Range;

/// Largest bulk string accepted (Redis' `proto-max-bulk-len`).
pub const MAX_BULK_LEN: usize = 512 * 1024 * 1024;

/// Largest array arity accepted (Redis caps a multibulk at 1 Mi items).
pub const MAX_ARRAY_LEN: usize = 1024 * 1024;

/// Longest header or simple-string line accepted (Redis' inline limit).
pub const MAX_LINE_LEN: usize = 64 * 1024;

/// Deepest array nesting accepted.
pub const MAX_DEPTH: usize = 32;

/// `+OK\r\n`
pub const OK: &[u8] = b"+OK\r\n";

/// `+PONG\r\n`
pub const PONG: &[u8] = b"+PONG\r\n";

/// The nil bulk string, `$-1\r\n`.
pub const NIL: &[u8] = b"$-1\r\n";

/// What both servers answer before closing a connection whose input is
/// not RESP.
pub const PROTOCOL_ERROR: &[u8] = b"-ERR protocol error\r\n";

/// A RESP reply value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespValue {
    /// `+OK\r\n`
    Simple(String),
    /// `-ERR ...\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n`, or `$-1\r\n` for nil.
    Bulk(Option<Vec<u8>>),
    /// `*N\r\n...`
    Array(Vec<RespValue>),
}

impl fmt::Display for RespValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RespValue::Simple(s) => write!(f, "+{s}"),
            RespValue::Error(e) => write!(f, "-{e}"),
            RespValue::Integer(i) => write!(f, ":{i}"),
            RespValue::Bulk(Some(b)) => write!(f, "${}", String::from_utf8_lossy(b)),
            RespValue::Bulk(None) => write!(f, "$nil"),
            RespValue::Array(items) => write!(f, "*[{}]", items.len()),
        }
    }
}

// --- encoding --------------------------------------------------------------------

/// Longest header line: a tag, `-`, the 19 digits of `i64::MIN` and
/// `\r\n` (23 bytes), rounded up.
const MAX_HEADER_LEN: usize = 24;

/// Appends `tag`, the decimal digits of `n` and `\r\n`. Every header the
/// request path writes is a count or a length below 1 000, appended as
/// one fixed-size store; anything else is formatted on the stack.
fn put_header(out: &mut Vec<u8>, tag: u8, n: i64) {
    let digit = |k: i64| b'0' + (k % 10) as u8;
    match n {
        0..=9 => out.extend_from_slice(&[tag, digit(n), b'\r', b'\n']),
        10..=99 => out.extend_from_slice(&[tag, digit(n / 10), digit(n), b'\r', b'\n']),
        100..=999 => {
            out.extend_from_slice(&[tag, digit(n / 100), digit(n / 10), digit(n), b'\r', b'\n'])
        }
        _ => put_header_wide(out, tag, n),
    }
}

/// [`put_header`] for any `n`. Out of line: the request path never
/// takes it, and its variable-length copy is a libc call.
#[inline(never)]
fn put_header_wide(out: &mut Vec<u8>, tag: u8, n: i64) {
    let mut line = [0u8; MAX_HEADER_LEN];
    let mut at = line.len() - 2;
    line[at..].copy_from_slice(b"\r\n");
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        line[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        line[at] = b'-';
    }
    at -= 1;
    line[at] = tag;
    out.extend_from_slice(&line[at..]);
}

/// Appends the integer reply `:n\r\n`.
pub fn put_integer(out: &mut Vec<u8>, n: i64) {
    put_header(out, b':', n);
}

/// Appends the bulk string `$len\r\nbytes\r\n`.
pub fn put_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    // One growth step at most, for header, payload and trailer together.
    out.reserve(MAX_HEADER_LEN + bytes.len() + 2);
    append_bulk(out, bytes);
}

/// [`put_bulk`] into room the caller has reserved.
fn append_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    put_header(out, b'$', bytes.len() as i64);
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Appends the error reply `-ERR <msg>\r\n`, formatting `msg` straight
/// into `out`.
pub fn put_error(out: &mut Vec<u8>, msg: fmt::Arguments<'_>) {
    use std::io::Write;
    out.extend_from_slice(b"-ERR ");
    // Writing to a `Vec` cannot fail.
    let _ = out.write_fmt(msg);
    out.extend_from_slice(b"\r\n");
}

/// Appends a client command (array of bulk strings).
pub fn put_command(out: &mut Vec<u8>, args: &[&[u8]]) {
    // One growth step at most, for the whole command.
    let bulks: usize = args.iter().map(|a| MAX_HEADER_LEN + a.len() + 2).sum();
    out.reserve(MAX_HEADER_LEN + bulks);
    put_header(out, b'*', args.len() as i64);
    for arg in args {
        append_bulk(out, arg);
    }
}

/// Appends the wire form of `v`.
pub fn encode_into(v: &RespValue, out: &mut Vec<u8>) {
    match v {
        RespValue::Simple(s) => {
            out.push(b'+');
            out.extend_from_slice(s.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        RespValue::Error(e) => {
            out.push(b'-');
            out.extend_from_slice(e.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        RespValue::Integer(i) => put_integer(out, *i),
        RespValue::Bulk(Some(b)) => put_bulk(out, b),
        RespValue::Bulk(None) => out.extend_from_slice(NIL),
        RespValue::Array(items) => {
            put_header(out, b'*', items.len() as i64);
            for item in items {
                encode_into(item, out);
            }
        }
    }
}

/// Encodes a reply value to wire bytes.
pub fn encode(v: &RespValue) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(v, &mut out);
    out
}

/// Encodes a client command (array of bulk strings).
pub fn encode_command(args: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    put_command(&mut out, args);
    out
}

// --- decoding --------------------------------------------------------------------

/// Why input is not RESP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// A value starts with a byte that is none of `+ - : $ *`.
    Tag(u8),
    /// A length, count or integer line is not a decimal `i64`.
    Number,
    /// A simple string or error line is not UTF-8.
    Utf8,
    /// A bulk longer than [`MAX_BULK_LEN`], an array longer than
    /// [`MAX_ARRAY_LEN`] or a line longer than [`MAX_LINE_LEN`].
    TooLong,
    /// Arrays nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A bulk string's payload is not followed by `\r\n`.
    Trailer,
}

/// Why the parser did not produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespError {
    /// The buffered bytes are a proper prefix of a value: feed more.
    Incomplete,
    /// The buffered bytes can never become a value. Nothing is consumed;
    /// the connection is beyond resynchronisation.
    Malformed {
        /// Offset of the offending token from the first unconsumed byte.
        at: usize,
        /// What is wrong with it.
        kind: Malformed,
    },
}

impl fmt::Display for RespError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RespError::Incomplete => write!(f, "incomplete RESP value"),
            RespError::Malformed { at, kind } => {
                write!(f, "malformed RESP at byte {at}: {kind:?}")
            }
        }
    }
}

impl std::error::Error for RespError {}

/// One RESP token: a whole scalar, or the header of an array. Text and
/// payload are ranges into the tokenized buffer.
enum Token {
    Simple(Range<usize>),
    Error(Range<usize>),
    Integer(i64),
    Bulk(Option<Range<usize>>),
    Array(usize),
}

/// Reads a `+` or `-` line in the one pass that looks for its end:
/// returns the offset of its first `\r\n`, and whether a byte ≥ 0x80
/// came before it (only then can the line fail UTF-8). `None` if `line`
/// holds no `\r\n`.
fn text_line(line: &[u8]) -> Option<(usize, bool)> {
    let mut high = 0;
    let mut at = 0;
    loop {
        let b = *line.get(at)?;
        if b == b'\r' && line.get(at + 1) == Some(&b'\n') {
            return Some((at, high >= 0x80));
        }
        high |= b;
        at += 1;
    }
}

/// Reads a `:`, `$` or `*` line in the one pass that looks for its end:
/// returns the offset of its first `\r\n`, and the line's value if it
/// is a decimal `i64` as `str::parse` reads one (an optional sign, then
/// at least one digit, in range). `None` if `line` holds no `\r\n`.
fn number_line(line: &[u8]) -> Option<(usize, Option<i64>)> {
    let neg = line.first() == Some(&b'-');
    let digits_from = usize::from(neg || line.first() == Some(&b'+'));
    let mut n = 0i64;
    let mut valid = true;
    let mut at = digits_from;
    loop {
        match *line.get(at)? {
            b @ b'0'..=b'9' => {
                let d = i64::from(b - b'0');
                // Negative numbers accumulate downwards, so that
                // `i64::MIN` is in range.
                let next = n.checked_mul(10).and_then(|n| {
                    if neg {
                        n.checked_sub(d)
                    } else {
                        n.checked_add(d)
                    }
                });
                match next {
                    Some(next) => n = next,
                    None => valid = false,
                }
            }
            b'\r' if line.get(at + 1) == Some(&b'\n') => {
                return Some((at, (valid && at > digits_from).then_some(n)));
            }
            _ => valid = false,
        }
        at += 1;
    }
}

/// Reads the token at `from`; returns it with the offset just past it
/// (for an array: past its header line). The one place input is
/// validated — every parser entry point below is built on it. Each
/// header byte is visited once: the scan that finds the line's end also
/// reads its number or notes a non-ASCII byte.
///
/// Errors, first match wins: no byte at `from` is `Incomplete`; a byte
/// that is no tag is `Tag`; a line with no `\r\n` within
/// [`MAX_LINE_LEN`] of `from` is `Incomplete` while the buffer is no
/// longer than that, else `TooLong`; then `Utf8` or `Number` for the
/// line's text; then the length checks and a bulk's payload.
fn token(buf: &[u8], from: usize) -> Result<(Token, usize), RespError> {
    let malformed = |kind| Err(RespError::Malformed { at: from, kind });
    let Some(&tag) = buf.get(from) else {
        return Err(RespError::Incomplete);
    };
    // A line that fits ends in a `\r` at most MAX_LINE_LEN past `from`:
    // no scan needs to look further.
    let window = &buf[from + 1..buf.len().min(from + MAX_LINE_LEN + 2)];
    let unended = || {
        if buf.len() - from <= MAX_LINE_LEN {
            Err(RespError::Incomplete)
        } else {
            malformed(Malformed::TooLong)
        }
    };
    let (n, after) = match tag {
        b'+' | b'-' => {
            let Some((len, high)) = text_line(window) else {
                return unended();
            };
            let line = from + 1..from + 1 + len;
            if high && std::str::from_utf8(&buf[line.clone()]).is_err() {
                return malformed(Malformed::Utf8);
            }
            let after = line.end + 2;
            let token = if tag == b'+' {
                Token::Simple(line)
            } else {
                Token::Error(line)
            };
            return Ok((token, after));
        }
        b':' | b'$' | b'*' => match number_line(window) {
            None => return unended(),
            Some((_, None)) => return malformed(Malformed::Number),
            Some((len, Some(n))) => (n, from + 1 + len + 2),
        },
        _ => return malformed(Malformed::Tag(tag)),
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

/// A client command borrowed from the buffer it was parsed out of: the
/// arguments of an array of bulk strings. Anything else a client may
/// send as one well-formed value (a scalar, an array holding a non-bulk
/// or nil element) reads as the empty command.
#[derive(Debug, Clone, Copy)]
pub struct Command<'a> {
    buf: &'a [u8],
    args: &'a [Range<usize>],
}

impl<'a> Command<'a> {
    /// A command whose `args` are ranges into `buf`.
    pub fn new(buf: &'a [u8], args: &'a [Range<usize>]) -> Self {
        Self { buf, args }
    }

    /// Number of arguments, the verb included.
    pub fn len(&self) -> usize {
        self.args.len()
    }

    /// Whether this is the empty command.
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }

    /// Argument `i` (0 is the verb).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn arg(&self, i: usize) -> &'a [u8] {
        &self.buf[self.args[i].clone()]
    }

    /// The arguments in order.
    pub fn args(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.args.iter().map(|r| &self.buf[r.clone()])
    }

    /// The verb upper-cased into `scratch` — or the empty slice when
    /// there is no verb or it is longer than any command the servers
    /// know, so that it matches none.
    pub fn verb<'s>(&self, scratch: &'s mut [u8; 8]) -> &'s [u8] {
        match self.args.first().map(|r| &self.buf[r.clone()]) {
            Some(verb) if verb.len() <= scratch.len() => {
                let upper = &mut scratch[..verb.len()];
                upper.copy_from_slice(verb);
                upper.make_ascii_uppercase();
                upper
            }
            _ => &[],
        }
    }

    /// The verb as the servers name it in `unknown command` errors.
    pub fn verb_lossy(&self) -> String {
        let verb = self.args.first().map_or(&[][..], |r| &self.buf[r.clone()]);
        String::from_utf8_lossy(&verb.to_ascii_uppercase()).into_owned()
    }
}

/// An incremental RESP parser over a growing byte buffer.
#[derive(Debug, Default)]
pub struct RespParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
}

/// A parser is part of the record its connection holds while a burst is
/// in flight (DESIGN.md §6.15): it changes hands unless part of a value
/// is waiting in it.
impl Lend for RespParser {
    fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    fn capacity_bytes(&self) -> usize {
        self.buf.capacity()
    }
}

impl RespParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes. Consumed bytes are reclaimed here,
    /// and only when that is free (nothing pending) or pays for itself
    /// (the dead prefix is the larger part), so a pipeline of n values
    /// costs O(n) moves, not O(n²).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > self.buf.len() / 2 {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes one client command, its arguments borrowed from the
    /// parser's buffer through `spans` (caller-owned scratch, so that a
    /// parser per connection stays two words).
    ///
    /// # Errors
    ///
    /// [`RespError::Incomplete`] until a whole value is buffered,
    /// [`RespError::Malformed`] when one never will be.
    pub fn next_command<'a>(
        &'a mut self,
        spans: &'a mut Vec<Range<usize>>,
    ) -> Result<Command<'a>, RespError> {
        spans.clear();
        let unconsumed = &self.buf[self.pos..];
        let (len, is_command) = walk_command(unconsumed, |arg| spans.push(arg.clone()))?;
        if !is_command {
            spans.clear();
        }
        self.pos += len;
        Ok(Command::new(unconsumed, spans))
    }

    /// Consumes one reply without materialising it; returns the text of
    /// a top-level `-ERR ...` reply, `None` for any other reply.
    ///
    /// # Errors
    ///
    /// As [`RespParser::next_command`].
    pub fn skip_reply(&mut self) -> Result<Option<&[u8]>, RespError> {
        let unconsumed = &self.buf[self.pos..];
        let mut error = None;
        let len = walk(unconsumed, |depth, tok| {
            if let (0, Token::Error(r)) = (depth, tok) {
                error = Some(r.clone());
            }
        })?;
        self.pos += len;
        Ok(error.map(|r| &unconsumed[r]))
    }

    /// Consumes one value into an owning tree.
    ///
    /// # Errors
    ///
    /// As [`RespParser::next_command`].
    pub fn next_value(&mut self) -> Result<RespValue, RespError> {
        let unconsumed = &self.buf[self.pos..];
        walk(unconsumed, |_, _| {})?;
        let (value, len) = build(unconsumed, 0)?;
        self.pos += len;
        Ok(value)
    }

    /// Parses one complete value, if buffered (`None` also for input
    /// that is not RESP; [`RespParser::next_value`] tells the two apart).
    pub fn parse_value(&mut self) -> Option<RespValue> {
        self.next_value().ok()
    }

    /// Parses one complete client *command* (array of bulk strings) into
    /// its argument list; the empty list for any other value.
    pub fn parse_command(&mut self) -> Option<Vec<Vec<u8>>> {
        let unconsumed = &self.buf[self.pos..];
        let mut args = Vec::new();
        let (len, is_command) = walk_command(unconsumed, |arg| {
            args.push(unconsumed[arg.clone()].to_vec())
        })
        .ok()?;
        if !is_command {
            args.clear();
        }
        self.pos += len;
        Some(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for v in [
            RespValue::Simple("OK".into()),
            RespValue::Error("ERR no such key".into()),
            RespValue::Integer(-42),
            RespValue::Integer(i64::MIN),
            RespValue::Bulk(Some(b"hello\r\nworld".to_vec())),
            RespValue::Bulk(None),
            RespValue::Array(vec![
                RespValue::Bulk(Some(b"GET".to_vec())),
                RespValue::Bulk(Some(b"key".to_vec())),
            ]),
        ] {
            let mut p = RespParser::new();
            p.feed(&encode(&v));
            assert_eq!(p.parse_value().unwrap(), v);
            assert_eq!(p.pending(), 0);
        }
    }

    #[test]
    fn headers_are_the_decimal_text_of_their_number() {
        let powers: Vec<i64> = (0..=18)
            .map(|e| 10i64.pow(e))
            .flat_map(|p| [p - 1, p, p + 1, -p - 1, -p, 1 - p])
            .collect();
        let ends = [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];
        let mut out = Vec::new();
        for n in (-1_000..=100_000).chain(powers.iter().copied()).chain(ends) {
            out.clear();
            put_integer(&mut out, n);
            assert_eq!(out, format!(":{n}\r\n").as_bytes());
        }
        let payload = vec![b'x'; 1_000_001];
        let lens = powers.iter().filter_map(|&n| usize::try_from(n).ok());
        for len in (0..=2_000).chain(lens.filter(|&n| n < payload.len())) {
            out.clear();
            put_bulk(&mut out, &payload[..len]);
            let header = format!("${len}\r\n");
            let (head, rest) = out.split_at(header.len());
            assert_eq!(head, header.as_bytes());
            assert_eq!(rest.len(), len + 2);
            assert!(rest.ends_with(b"\r\n"));
        }
    }

    #[test]
    fn command_encoding_matches_redis_wire_format() {
        let cmd = encode_command(&[b"SET", b"k", b"v1"]);
        assert_eq!(cmd, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nv1\r\n");
    }

    #[test]
    fn partial_input_returns_none_until_complete() {
        let full = encode_command(&[b"SET", b"key", b"value"]);
        let mut p = RespParser::new();
        for (i, chunk) in full.chunks(3).enumerate() {
            p.feed(chunk);
            let done = (i + 1) * 3 >= full.len();
            if !done {
                assert!(p.parse_command().is_none(), "parsed too early at chunk {i}");
            }
        }
        let args = p.parse_command().unwrap();
        assert_eq!(
            args,
            vec![b"SET".to_vec(), b"key".to_vec(), b"value".to_vec()]
        );
    }

    #[test]
    fn pipelined_commands_parse_in_sequence() {
        let mut p = RespParser::new();
        p.feed(&encode_command(&[b"PING"]));
        p.feed(&encode_command(&[b"GET", b"k"]));
        assert_eq!(p.parse_command().unwrap(), vec![b"PING".to_vec()]);
        assert_eq!(
            p.parse_command().unwrap(),
            vec![b"GET".to_vec(), b"k".to_vec()]
        );
        assert!(p.parse_command().is_none());
    }

    #[test]
    fn binary_safe_values_survive() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let cmd = encode_command(&[b"SET", b"bin", &payload]);
        let mut p = RespParser::new();
        p.feed(&cmd);
        let args = p.parse_command().unwrap();
        assert_eq!(args[2], payload);
    }

    #[test]
    fn nil_bulk_parses() {
        let mut p = RespParser::new();
        p.feed(b"$-1\r\n");
        assert_eq!(p.parse_value().unwrap(), RespValue::Bulk(None));
    }

    #[test]
    fn borrowed_command_reads_out_of_the_parser_buffer() {
        let mut p = RespParser::new();
        let mut spans = Vec::new();
        p.feed(b"*2\r\n$3\r\nget\r\n$3\r\nkey\r\n+OK\r\n*2\r\n$1\r\nx\r\n:1\r\n");
        let cmd = p.next_command(&mut spans).unwrap();
        assert_eq!(cmd.len(), 2);
        assert_eq!(cmd.verb(&mut [0; 8]), b"GET");
        assert_eq!(cmd.arg(1), b"key");
        // A scalar, then an array with a non-bulk element: both are
        // consumed whole and read as the empty command.
        assert!(p.next_command(&mut spans).unwrap().is_empty());
        assert!(p.next_command(&mut spans).unwrap().is_empty());
        assert_eq!(p.pending(), 0);
        assert_eq!(
            p.next_command(&mut spans).err(),
            Some(RespError::Incomplete)
        );
    }

    #[test]
    fn skip_reply_surfaces_only_top_level_errors() {
        let mut p = RespParser::new();
        p.feed(b"$3\r\nabc\r\n*2\r\n-ERR inner\r\n:7\r\n-ERR outer\r\n$-1\r\n");
        assert_eq!(p.skip_reply(), Ok(None));
        assert_eq!(p.skip_reply(), Ok(None));
        assert_eq!(p.skip_reply(), Ok(Some(&b"ERR outer"[..])));
        assert_eq!(p.skip_reply(), Ok(None));
        assert_eq!(p.skip_reply(), Err(RespError::Incomplete));
    }

    #[test]
    fn consumed_prefix_is_reclaimed_on_feed() {
        let get = encode_command(&[b"GET", b"key:0001"]);
        let half = get.len() / 2;
        let rotated = [&get[half..], &get[..half]].concat();
        let mut p = RespParser::new();
        let mut spans = Vec::new();
        // Half a command is always pending at feed time, so the buffer is
        // never empty there: only the shift can bound it.
        p.feed(&get[..half]);
        for _ in 0..1000 {
            p.feed(&rotated);
            assert_eq!(p.next_command(&mut spans).unwrap().len(), 2);
            assert_eq!(p.pending(), half);
            assert!(
                p.buf.len() <= 2 * get.len(),
                "buffer grew to {}",
                p.buf.len()
            );
        }
    }
}
