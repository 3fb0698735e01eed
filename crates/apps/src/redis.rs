//! The Redis-style workload (paper §4, Figures 4 and 5).
//!
//! A RESP key-value server running as a FlexOS application: values live
//! in the application compartment's simulated heap (so `SET`/`GET` hit
//! the — possibly instrumented — allocator, which is the whole point of
//! Figure 4's global-vs-local allocator comparison), requests arrive
//! pipelined over TCP from an external client, and every socket
//! operation crosses the image's gates.

use crate::client::{Rig, RunError, SERVER_IP};
use crate::os::{abort, Os};
use crate::profiles::{backend_tag, evaluation_image, harden, CompartmentModel, SchedKind};
use crate::resp::{
    self, put_bulk, put_command, put_error, put_integer, Command, RespError, RespParser,
};
use flexos::build::{plan, BackendChoice, Hypervisor};
use flexos::gate::CompartmentId;
use flexos_kernel::exec::Step;
use flexos_kernel::sched::ThreadId;
use flexos_machine::{Addr, ChaosConfig, ChaosPlan};
use flexos_net::nic::Link;
use flexos_net::stack::{NetError, SocketId};
use flexos_net::tcp::Lend;
use flexos_net::FixedMap;
use flexos_trace::{SpanId, StatsSnapshot};
use std::collections::VecDeque;
use std::ops::Range;

/// The Redis port.
pub const REDIS_PORT: u16 = 6379;

/// Request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Only `SET key value`.
    Set,
    /// Only `GET key` (keys preloaded).
    Get,
}

impl Mix {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Mix::Set => "SET",
            Mix::Get => "GET",
        }
    }
}

/// Parameters of one Redis run.
#[derive(Debug, Clone)]
pub struct RedisParams {
    /// Compartment model.
    pub model: CompartmentModel,
    /// Isolation backend.
    pub backend: BackendChoice,
    /// Scheduler implementation.
    pub sched: SchedKind,
    /// Hypervisor.
    pub hypervisor: Hypervisor,
    /// Libraries hardened with the GCC SH set.
    pub sh_on: Vec<String>,
    /// Per-compartment allocators (Figure 4's "local allocator").
    pub dedicated_allocators: bool,
    /// Value payload size in bytes (5 / 50 / 500 in the paper).
    pub payload: usize,
    /// Request mix.
    pub mix: Mix,
    /// Requests to complete during measurement.
    pub ops: u64,
    /// Pipeline depth.
    pub pipeline: usize,
    /// A seeded fault schedule installed on the *server* machine after
    /// boot (doorbell loss, injected OOM, ...). Chaos sweeps use this
    /// to measure how the run degrades; failures come back as
    /// [`RunError`], never as panics.
    pub machine_chaos: Option<ChaosConfig>,
    /// Live-migrate every gate pair to the given backend once the
    /// measured phase has completed this many requests. The swap runs
    /// the full quiescence protocol between scheduler steps, so it is
    /// deterministic.
    pub migrate_to: Option<(u64, BackendChoice)>,
}

impl Default for RedisParams {
    fn default() -> Self {
        Self {
            model: CompartmentModel::Baseline,
            backend: BackendChoice::None,
            sched: SchedKind::Coop,
            hypervisor: Hypervisor::Kvm,
            sh_on: Vec::new(),
            dedicated_allocators: false,
            payload: 50,
            mix: Mix::Get,
            ops: 2_000,
            pipeline: 16,
            machine_chaos: None,
            migrate_to: None,
        }
    }
}

/// The outcome of one Redis run.
#[derive(Debug, Clone, Copy)]
pub struct RedisResult {
    /// Requests completed (measured phase).
    pub ops: u64,
    /// Server cycles spent.
    pub cycles: u64,
    /// Throughput in mega-requests per second (the paper's MTps axis).
    pub mreq_per_s: f64,
    /// Gate crossings on the server during measurement.
    pub crossings: u64,
}

/// What [`ReplyStream::flush`] left behind.
pub(crate) enum Flushed {
    /// Everything staged went out.
    Clean,
    /// The transmit buffer filled; retry on WRITE readiness.
    Parked,
    /// The peer is gone.
    Closed,
    /// The stack refused the send.
    Failed(NetError),
}

/// The reply side of one served connection: bytes staged for the socket
/// and the request spans waiting for their last byte to leave.
///
/// Replies are staged only while the stream is drained — both servers
/// flush before they execute — so `out` empties between bursts and the
/// sent prefix is an offset, never a memmove.
#[derive(Default)]
pub(crate) struct ReplyStream {
    out: Vec<u8>,
    /// Sent prefix of `out`.
    head: usize,
    /// Open request spans, each paired with the cumulative staged-output
    /// offset at which its reply will have fully left the server.
    pending_spans: VecDeque<(SpanId, u64)>,
    /// Reply bytes ever handed to completed sends.
    sent_total: u64,
}

/// A stream is part of the record its connection holds while a burst is
/// in flight (DESIGN.md §6.15): it changes hands once everything staged
/// has left, so where one stream per connection exists only those with
/// replies in flight hold any storage.
impl Lend for ReplyStream {
    fn is_idle(&self) -> bool {
        self.is_drained() && self.pending_spans.is_empty()
    }

    fn clear(&mut self) {
        self.out.clear();
        self.head = 0;
        self.pending_spans.clear();
        self.sent_total = 0;
    }

    fn capacity_bytes(&self) -> usize {
        self.out.capacity() + self.pending_spans.capacity() * std::mem::size_of::<(SpanId, u64)>()
    }
}

impl ReplyStream {
    /// Whether every staged byte has been sent.
    pub(crate) fn is_drained(&self) -> bool {
        self.head == self.out.len()
    }

    /// Where to encode the next reply; seal it with
    /// [`ReplyStream::end_reply`].
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    /// Marks everything staged so far as the reply to request `span`.
    pub(crate) fn end_reply(&mut self, span: SpanId) {
        let staged_total = self.sent_total + (self.out.len() - self.head) as u64;
        self.pending_spans.push_back((span, staged_total));
    }

    /// Sends the backlog through `tx_buf`, issuing it as one batched
    /// gate crossing per round: the `after` hook accounts what each send
    /// moved and stages the next chunk, exactly as a sequential send
    /// loop does between two crossings. `sqe_spans` is scratch.
    pub(crate) fn flush(
        &mut self,
        os: &mut Os,
        sid: SocketId,
        tx_buf: Addr,
        io_buf_len: u64,
        app_vcpu: u16,
        sqe_spans: &mut Vec<SpanId>,
    ) -> flexos_machine::Result<Flushed> {
        while !self.is_drained() {
            let unsent = &self.out[self.head..];
            let n = (unsent.len() as u64).min(io_buf_len);
            os.img.write(tx_buf, &unsent[..n as usize])?;
            let max = (unsent.len() as u64).div_ceil(io_buf_len).max(1) as usize;
            // Tag ring descriptor `i` with the span of the i-th pending
            // request: the reply bytes a send ships belong to the oldest
            // requests still awaiting their last byte, so the causal
            // trace links each SQE to the command it answers.
            sqe_spans.clear();
            sqe_spans.extend(self.pending_spans.iter().take(max).map(|&(span, _)| span));
            let Self {
                out,
                head,
                pending_spans,
                sent_total,
            } = self;
            let done = os.send_batch_spanned(sid, tx_buf, n, max, sqe_spans, |m, rt, r| {
                let Ok(sent) = r else { return Ok(None) };
                *head += *sent as usize;
                // A request span ends when the last byte of its reply
                // has left the server — end every span whose staged
                // offset the cumulative sent count just covered.
                *sent_total += sent;
                // The clock cannot advance inside this hook (no work is
                // charged), so every span completing here ends at the
                // same instant — read it once.
                let now = m.clock().cycles();
                while pending_spans
                    .front()
                    .is_some_and(|&(_, end)| end <= *sent_total)
                {
                    let (span, _) = pending_spans.pop_front().expect("front checked");
                    m.span_trace_mut().end_request(span, app_vcpu, now);
                }
                let unsent = &out[*head..];
                if unsent.is_empty() {
                    return Ok(None);
                }
                let next = (unsent.len() as u64).min(io_buf_len);
                m.write(rt.current_ctx().vcpu, tx_buf, &unsent[..next as usize])?;
                Ok(Some(next))
            })?;
            if self.is_drained() {
                self.out.clear();
                self.head = 0;
            }
            match done.last {
                Some(Err(NetError::WouldBlock)) => return Ok(Flushed::Parked),
                Some(Err(NetError::Closed)) => return Ok(Flushed::Closed),
                Some(Err(e)) => return Ok(Flushed::Failed(e)),
                _ => {}
            }
        }
        Ok(Flushed::Clean)
    }
}

/// The key-value store: values live in the application compartment's
/// simulated heap.
struct Db {
    store: FixedMap<Vec<u8>, (Addr, u64)>,
    c_app: CompartmentId,
    /// Host staging for the value a GET reads back (reused).
    value_buf: Vec<u8>,
}

impl Db {
    /// Executes `cmd`, appending its reply to `out`.
    fn execute(&mut self, os: &mut Os, cmd: &Command<'_>, out: &mut Vec<u8>) {
        // Per-request application work (command dispatch, hashing).
        let work = os.img.machine.costs().app_request;
        os.app_compute(work);
        match (cmd.verb(&mut [0; 8]), cmd.len()) {
            (b"PING", 1) => out.extend_from_slice(resp::PONG),
            (b"SET", 3) => {
                let (key, value) = (cmd.arg(1), cmd.arg(2));
                match os.malloc_in(self.c_app, value.len().max(1) as u64) {
                    Ok(addr) => {
                        if let Err(f) = os.img.write(addr, value) {
                            // The block never reached the store.
                            let _ = os.free_in(self.c_app, addr);
                            return put_error(out, format_args!("fault: {f}"));
                        }
                        let entry = (addr, value.len() as u64);
                        let old = match self.store.get_mut(key) {
                            Some(slot) => Some(std::mem::replace(slot, entry)),
                            None => self.store.insert(key.to_vec(), entry),
                        };
                        if let Some((old, _)) = old {
                            let _ = os.free_in(self.c_app, old);
                        }
                        out.extend_from_slice(resp::OK);
                    }
                    Err(f) => put_error(out, format_args!("oom: {f}")),
                }
            }
            (b"GET", 2) => match self.store.get(cmd.arg(1)).copied() {
                Some((addr, len)) => {
                    // Redis builds the reply in a freshly allocated
                    // object (sds string) — so GETs hit the allocator
                    // too, instrumented or not.
                    let reply = match os.malloc_in(self.c_app, len.max(1)) {
                        Ok(r) => r,
                        Err(f) => return put_error(out, format_args!("oom: {f}")),
                    };
                    self.value_buf.resize(len as usize, 0);
                    let read = os
                        .img
                        .read(addr, &mut self.value_buf)
                        .and_then(|()| os.img.copy(reply, addr, len));
                    let _ = os.free_in(self.c_app, reply);
                    if let Err(f) = read {
                        return put_error(out, format_args!("fault: {f}"));
                    }
                    put_bulk(out, &self.value_buf);
                }
                None => out.extend_from_slice(resp::NIL),
            },
            (b"DEL", 2) => match self.store.remove(cmd.arg(1)) {
                Some((addr, _)) => {
                    let _ = os.free_in(self.c_app, addr);
                    put_integer(out, 1);
                }
                None => put_integer(out, 0),
            },
            (b"EXISTS", 2) => put_integer(out, i64::from(self.store.contains_key(cmd.arg(1)))),
            _ => put_error(out, format_args!("unknown command '{}'", cmd.verb_lossy())),
        }
    }
}

/// The in-image Redis server state.
struct RedisServer {
    db: Db,
    parser: RespParser,
    replies: ReplyStream,
    /// The client sent something that is not RESP: the error reply is
    /// staged, the connection closes once it has left.
    closing: bool,
    rx_buf: Addr,
    tx_buf: Addr,
    io_buf_len: u64,
    /// Backend tag for the request-latency key (`"mpk-shared"`, …).
    backend: &'static str,
    /// Plan-determined vCPU of the app compartment — the span shard key
    /// (fixed at build time, hoisted out of the per-command hot path).
    app_vcpu: u16,
    /// Scratch reused across quanta: received bytes on their way to the
    /// parser, the argument spans of the command being executed, the
    /// span tags of a send batch.
    rx_host: Vec<u8>,
    cmd_spans: Vec<Range<usize>>,
    sqe_spans: Vec<SpanId>,
}

impl RedisServer {
    /// One service quantum on socket `sid`: flush replies, drain input,
    /// execute.
    fn service(
        &mut self,
        os: &mut Os,
        tid: ThreadId,
        sid: SocketId,
    ) -> flexos_machine::Result<Step> {
        match self.replies.flush(
            os,
            sid,
            self.tx_buf,
            self.io_buf_len,
            self.app_vcpu,
            &mut self.sqe_spans,
        )? {
            Flushed::Clean => {}
            Flushed::Parked => return Ok(Step::Yield),
            Flushed::Closed => return Ok(Step::Done),
            Flushed::Failed(e) => return Err(abort("redis", format!("send failed: {e}"))),
        }
        if self.closing {
            let _ = os.sock_close(sid);
            return Ok(Step::Done);
        }
        // Pull in new request bytes.
        match os.recv(sid, self.rx_buf, self.io_buf_len) {
            Ok(0) => return Ok(Step::Done),
            Ok(n) => {
                self.rx_host.resize(n as usize, 0);
                os.img.read(self.rx_buf, &mut self.rx_host)?;
                self.parser.feed(&self.rx_host);
            }
            Err(NetError::WouldBlock) => {
                if self.parser.pending() == 0 {
                    return match os.wait_readable(tid, sid)? {
                        Some(ch) => Ok(Step::Block(ch)),
                        None => Ok(Step::Yield),
                    };
                }
            }
            Err(e) => return Err(abort("redis", format!("recv failed: {e}"))),
        }
        // Execute everything parseable. Each command opens a request
        // span (ended later, when its reply's last byte is sent).
        while !self.closing {
            let cmd = match self.parser.next_command(&mut self.cmd_spans) {
                Ok(cmd) => Some(cmd),
                Err(RespError::Incomplete) => break,
                Err(RespError::Malformed { .. }) => None,
            };
            let t0 = os.img.machine.clock().cycles();
            let span = os.img.machine.span_trace_mut().begin_request(
                "redis",
                self.backend,
                self.app_vcpu,
                t0,
            );
            match cmd {
                Some(cmd) if !cmd.is_empty() => self.db.execute(os, &cmd, self.replies.buf()),
                _ => self.replies.buf().extend_from_slice(resp::PROTOCOL_ERROR),
            }
            self.closing = cmd.is_none();
            self.replies.end_reply(span);
        }
        Ok(Step::Yield)
    }
}

/// Builds the image config for `params`.
pub fn redis_image(params: &RedisParams) -> flexos::build::ImageConfig {
    let mut cfg =
        evaluation_image("redis", params.model, params.backend, params.sched).on(params.hypervisor);
    for name in &params.sh_on {
        cfg = harden(cfg, name);
    }
    cfg.dedicated_allocators |= params.dedicated_allocators;
    cfg
}

/// The external Redis load generator (pipelined).
struct LoadGen {
    replies: RespParser,
    completed: u64,
    inflight: u64,
    payload: Vec<u8>,
    keys: Vec<Vec<u8>>,
    next: usize,
    mix: Mix,
    pipeline: usize,
}

impl LoadGen {
    fn new(payload: usize, mix: Mix, pipeline: usize) -> Self {
        Self {
            replies: RespParser::new(),
            completed: 0,
            inflight: 0,
            payload: vec![b'v'; payload.max(1)],
            keys: (0..16)
                .map(|i| format!("key:{i:04}").into_bytes())
                .collect(),
            next: 0,
            mix,
            pipeline,
        }
    }

    /// Fills `out` with the commands that top the pipeline up.
    fn batch(&mut self, out: &mut Vec<u8>) {
        out.clear();
        while self.inflight < self.pipeline as u64 {
            let key = &self.keys[self.next % self.keys.len()];
            self.next += 1;
            match self.mix {
                Mix::Set => put_command(out, &[b"SET", key, &self.payload]),
                Mix::Get => put_command(out, &[b"GET", key]),
            }
            self.inflight += 1;
        }
    }

    fn consume(&mut self, bytes: &[u8]) -> Result<(), RunError> {
        self.replies.feed(bytes);
        loop {
            match self.replies.skip_reply() {
                Ok(None) => {
                    self.completed += 1;
                    self.inflight = self.inflight.saturating_sub(1);
                }
                Ok(Some(e)) => {
                    return Err(RunError::Reply(String::from_utf8_lossy(e).into_owned()))
                }
                Err(RespError::Incomplete) => return Ok(()),
                Err(e) => return Err(RunError::server(e)),
            }
        }
    }
}

/// Runs the Redis workload and reports server-side request throughput.
///
/// # Errors
///
/// Returns [`RunError`] when the server answers a request with a
/// RESP error (e.g. a faulting compartment) or the run stops making
/// progress, so callers can degrade a benchmark run instead of aborting.
pub fn run_redis(params: &RedisParams) -> Result<RedisResult, RunError> {
    run_redis_with_stats(params).map(|(r, _)| r)
}

/// [`run_redis`] plus the full telemetry snapshot of the server image
/// (gate crossings, scheduler, allocators, faults, net) for the
/// `reproduce --stats` report.
pub fn run_redis_with_stats(
    params: &RedisParams,
) -> Result<(RedisResult, StatsSnapshot), RunError> {
    run_redis_inner(params, false).map(|(r, s, _)| (r, s))
}

/// [`run_redis_with_stats`] plus the Chrome trace-event JSON of the
/// run's span stream, for `reproduce --trace-out`. The trace string is
/// byte-identical run to run.
pub fn run_redis_traced(
    params: &RedisParams,
) -> Result<(RedisResult, StatsSnapshot, String), RunError> {
    run_redis_inner(params, true).map(|(r, s, t)| (r, s, t.expect("trace requested")))
}

/// The Redis image booted on a [`Rig`], its task spawned and the client
/// connected.
struct Session {
    rig: Rig,
    csid: SocketId,
    /// Wire scratch reused across rounds: the outgoing batch, the
    /// incoming replies.
    tx: Vec<u8>,
    rx: Vec<u8>,
}

impl Session {
    fn boot(params: &RedisParams) -> Result<Self, RunError> {
        let image = plan(redis_image(params)).map_err(RunError::server)?;
        let mut os = Os::boot(image, SERVER_IP, 1).map_err(RunError::server)?;
        if let Some(chaos) = params.machine_chaos {
            os.img.machine.set_chaos(ChaosPlan::new(chaos));
        }
        let mut rig = Rig::new(os, Link::new())?;
        let os = &mut rig.os;

        let io_buf_len = 16 * 1024u64;
        let rx_buf = os.alloc_shared_buf(io_buf_len).map_err(RunError::server)?;
        let tx_buf = os.alloc_shared_buf(io_buf_len).map_err(RunError::server)?;
        let c_app = os.roles.app;
        let listener = os
            .listen(REDIS_PORT)
            .map_err(|e| RunError::server(format!("listen failed: {e}")))?;

        let mut server = RedisServer {
            db: Db {
                store: FixedMap::default(),
                c_app,
                value_buf: Vec::new(),
            },
            parser: RespParser::new(),
            replies: ReplyStream::default(),
            closing: false,
            rx_buf,
            tx_buf,
            io_buf_len,
            backend: backend_tag(params.model, params.backend),
            app_vcpu: os.img.gates.ctx(c_app).vcpu.0 as u16,
            rx_host: Vec::new(),
            cmd_spans: Vec::new(),
            sqe_spans: Vec::new(),
        };
        let mut sid: Option<SocketId> = None;
        let task = move |os: &mut Os, tid| {
            if sid.is_none() {
                match os.accept(listener) {
                    Ok(Some(s)) => sid = Some(s),
                    Ok(None) => return Ok(Step::Yield),
                    Err(e) => return Err(abort("redis", format!("accept failed: {e}"))),
                }
            }
            server.service(os, tid, sid.expect("accepted"))
        };
        rig.exec
            .spawn(c_app, Box::new(task))
            .map_err(RunError::server)?;
        let csid = rig.connect(REDIS_PORT)?;
        Ok(Self {
            rig,
            csid,
            tx: Vec::new(),
            rx: Vec::new(),
        })
    }

    /// Runs `load` until it has completed `target` requests.
    fn drive(&mut self, load: &mut LoadGen, target: u64) -> Result<(), RunError> {
        let Self { rig, csid, tx, rx } = self;
        rig.drive("requests", load.completed, target, |rig| {
            load.batch(tx);
            round_trip(rig, *csid, tx, rx)?;
            load.consume(rx)?;
            Ok(load.completed)
        })
    }
}

/// One round trip: sends `tx` (if any), lets both sides run, and leaves
/// whatever the server answered in `rx`.
fn round_trip(rig: &mut Rig, csid: SocketId, tx: &[u8], rx: &mut Vec<u8>) -> Result<(), RunError> {
    if !tx.is_empty() {
        rig.client.send_bytes(csid, tx)?;
    }
    rig.round()?;
    rig.client.poll()?;
    rig.client.recv_bytes(csid, 64 * 1024, rx)?;
    Ok(())
}

#[allow(clippy::type_complexity)]
fn run_redis_inner(
    params: &RedisParams,
    want_trace: bool,
) -> Result<(RedisResult, StatsSnapshot, Option<String>), RunError> {
    let mut session = Session::boot(params)?;
    let mut load = LoadGen::new(params.payload, params.mix, params.pipeline);

    // Preload phase (GET mixes need populated keys); not measured.
    if params.mix == Mix::Get {
        let mut preload = LoadGen::new(params.payload, Mix::Set, 16);
        session.drive(&mut preload, 16)?;
    }

    // Measured phase. A live migration, if requested, splits it in
    // two: drive to the trigger point, run the quiescence protocol and
    // swap every pair, then finish on the new backend.
    let start_cycles = session.rig.os.img.machine.clock().cycles();
    let start_crossings = session.rig.os.img.gates.stats().crossings;
    if let Some((after, to)) = params.migrate_to {
        session.drive(&mut load, after.min(params.ops))?;
        let img = &mut session.rig.os.img;
        let (_, deferred) =
            flexos_backends::migrate_all(img, to, flexos::gate::MigrationReason::Manual)
                .map_err(RunError::server)?;
        if deferred > 0 {
            img.gates
                .poll_migrations(&mut img.machine)
                .map_err(RunError::server)?;
        }
    }
    session.drive(&mut load, params.ops)?;
    let Rig { os, exec, .. } = &session.rig;
    let cycles = os.img.machine.clock().cycles() - start_cycles;
    let ops = load.completed;
    let result = RedisResult {
        ops,
        cycles,
        mreq_per_s: ops as f64 / (cycles as f64 / flexos_machine::CPU_FREQ_HZ as f64) / 1e6,
        crossings: os.img.gates.stats().crossings - start_crossings,
    };
    let trace = want_trace.then(|| os.trace_json());
    Ok((result, os.stats_snapshot(Some(exec)), trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::Schedule;
    use flexos_net::tcp::SpareList;

    /// The booted `redis_get_mpk` image (NW/Sched/Rest over MPK with
    /// shared stacks, as the benchmark boots it) holds one extent per
    /// region in every VM, so its page tables cost what its regions do,
    /// not what its pages do. A region here is what the table can tell
    /// apart: a maximal span of virtually adjacent pages of one key and
    /// flags (regions allocated back to back under one key form one).
    #[test]
    fn the_booted_mpk_image_maps_one_extent_per_region() {
        let session = Session::boot(&RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        })
        .expect("image boots");
        let m = &session.rig.os.img.machine;
        let shape: Vec<(usize, usize, usize)> = (0..m.vm_count())
            .map(|vm| {
                let pt = m.page_table(flexos_machine::VmId(vm as u8));
                let mut prev = None;
                let regions = pt
                    .iter()
                    .filter(|&(vpn, e)| {
                        let starts = !prev.is_some_and(|(p, k): (u64, _)| {
                            p + 1 == vpn.0 && k == (e.key, e.flags)
                        });
                        prev = Some((vpn.0, (e.key, e.flags)));
                        starts
                    })
                    .count();
                (regions, pt.extents(), pt.len())
            })
            .collect();
        println!("(regions, extents, pages) per VM: {shape:?}");
        assert_eq!(shape, [(4, 4, 1792)]);
    }

    fn quick(params: RedisParams) -> RedisResult {
        run_redis(&RedisParams { ops: 300, ..params }).expect("redis run succeeds")
    }

    #[test]
    fn a_reply_stream_keeps_its_storage_while_replies_are_unsent() {
        let (mut spare, mut slot) = (SpareList::<ReplyStream>::default(), None);
        let replies = spare.lend(&mut slot);
        replies.buf().extend_from_slice(resp::OK);
        replies.end_reply(SpanId(7));
        // A parked flush: the step ends with the reply still staged.
        spare.retire(&mut slot);
        assert_eq!(spare.held(), 0);
        let replies = slot.as_mut().expect("kept");
        assert_eq!(replies.buf().as_slice(), resp::OK);
        assert_eq!(replies.pending_spans.front(), Some(&(SpanId(7), 5)));
        // Unsent bytes keep it, and so does a span that is still open.
        let span = replies.pending_spans.pop_front().expect("checked");
        spare.retire(&mut slot);
        let replies = slot.as_mut().expect("kept: not drained");
        replies.pending_spans.push_back(span);
        replies.head = resp::OK.len();
        spare.retire(&mut slot);
        // Once it has left, it goes back, and nothing of it shows.
        slot.as_mut()
            .expect("kept: a span is open")
            .pending_spans
            .clear();
        spare.retire(&mut slot);
        assert!(slot.is_none() && spare.held() == 1);
        let next = spare.lend(&mut slot);
        assert!(next.is_drained() && next.buf().is_empty() && next.buf().capacity() > 0);
    }

    /// The chaos-sweep contract: with *every* doorbell dropped, the VM
    /// RPC gates exhaust their retry budget and the run comes back as a
    /// typed error (a degraded data point), never a panic.
    #[test]
    fn total_doorbell_loss_degrades_to_an_error_not_a_panic() {
        let err = run_redis(&RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::VmRpc,
            ops: 50,
            machine_chaos: Some(ChaosConfig {
                seed: 5,
                notify_drop: Schedule::EveryNth(1),
                ..Default::default()
            }),
            ..RedisParams::default()
        })
        .unwrap_err();
        assert!(
            matches!(err, RunError::Server(_)),
            "expected a server-side gate failure, got: {err}"
        );
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    /// A link that stops carrying frames after the handshake: the run
    /// comes back as a typed error naming how far it got.
    #[test]
    fn a_link_that_never_answers_is_no_progress_not_a_panic() {
        let mut session = Session::boot(&RedisParams::default()).expect("session boots");
        session.rig.link.faults.drop_every = Some(1);
        let mut load = LoadGen::new(50, Mix::Set, 4);
        let err = session.drive(&mut load, 8).unwrap_err();
        assert_eq!(
            err,
            RunError::NoProgress {
                phase: "requests",
                done: 0,
                wanted: 8,
            }
        );
        assert_eq!(err.to_string(), "no progress: requests stuck at 0/8");
    }

    /// Sends `wire` as it is and collects what the server answers;
    /// also reports whether the server then closed the connection.
    fn raw_exchange(wire: &[u8]) -> (Vec<u8>, bool) {
        let Session {
            mut rig,
            csid,
            mut rx,
            ..
        } = Session::boot(&RedisParams::default()).expect("session boots");
        let mut answer = Vec::new();
        let mut tx = wire;
        for _ in 0..8 {
            round_trip(&mut rig, csid, tx, &mut rx).expect("server survives");
            tx = &[];
            answer.extend_from_slice(&rx);
        }
        let c = &mut rig.client;
        let eof = c.net.tcp_recv(&mut c.m, c.vcpu, csid, c.buf, 16);
        (answer, eof == Ok(0))
    }

    #[test]
    fn input_that_is_not_resp_is_answered_and_the_connection_closed() {
        let closed = (resp::PROTOCOL_ERROR.to_vec(), true);
        // Used to read as "incomplete" forever: the buffer grew without
        // bound and the run died in "redis made no progress".
        assert_eq!(raw_exchange(b"hello\r\n*1\r\n$4\r\nPING\r\n"), closed);
        // Used to panic the server with "capacity overflow".
        assert_eq!(raw_exchange(b"*9223372036854775807\r\n"), closed);
        // What precedes the damage is still served.
        let (answer, eof) = raw_exchange(b"*1\r\n$4\r\nping\r\n$3\r\nabcXY");
        assert_eq!(answer, b"+PONG\r\n-ERR protocol error\r\n");
        assert!(eof);
        // A well-formed value that is no command keeps the connection.
        let (answer, eof) = raw_exchange(b"+OK\r\n*1\r\n$4\r\nPING\r\n");
        assert_eq!(answer, b"-ERR protocol error\r\n+PONG\r\n");
        assert!(!eof);
    }

    #[test]
    fn set_whose_store_faults_gives_its_block_back() {
        let mut session = Session::boot(&RedisParams::default()).expect("session boots");
        let os = &mut session.rig.os;
        let c_app = os.roles.app;
        let mut db = Db {
            store: FixedMap::default(),
            c_app,
            value_buf: Vec::new(),
        };
        let set = |db: &mut Db, os: &mut Os, value: &[u8]| {
            let wire = [b"SETk", value].concat();
            let mut out = Vec::new();
            db.execute(
                os,
                &Command::new(&wire, &[0..3, 3..4, 4..wire.len()]),
                &mut out,
            );
            out
        };
        let live = |os: &Os| os.img.heaps.allocator_for(c_app).stats().live_bytes;

        assert_eq!(set(&mut db, os, b"first"), resp::OK);
        let before = live(os);
        os.img.machine.set_chaos(ChaosPlan::new(ChaosConfig {
            spurious_pkey: Schedule::EveryNth(1),
            ..ChaosConfig::with_seed(1)
        }));
        let reply = set(&mut db, os, b"a longer second value");
        assert!(
            reply.starts_with(b"-ERR fault:"),
            "{:?}",
            String::from_utf8_lossy(&reply)
        );
        assert_eq!(live(os), before, "the faulted SET leaked its block");
        os.img.machine.clear_chaos();
        // The key still holds what the last successful SET stored.
        assert_eq!(db.store.get(&b"k"[..]).map(|&(_, len)| len), Some(5));
        assert_eq!(set(&mut db, os, b"third"), resp::OK);
        assert_eq!(live(os), before);
    }

    #[test]
    fn get_and_set_complete_against_the_server() {
        for mix in [Mix::Set, Mix::Get] {
            let r = quick(RedisParams {
                mix,
                ..RedisParams::default()
            });
            assert!(r.ops >= 300);
            assert!(r.mreq_per_s > 0.0);
        }
    }

    #[test]
    fn isolation_reduces_redis_throughput() {
        let base = quick(RedisParams::default());
        let nw = quick(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        assert!(nw.mreq_per_s < base.mreq_per_s);
        assert!(nw.crossings > base.crossings);
    }

    #[test]
    fn switched_stacks_cost_more_than_shared() {
        let shared = quick(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        let switched = quick(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkSwitched,
            ..RedisParams::default()
        });
        assert!(switched.mreq_per_s < shared.mreq_per_s);
    }

    #[test]
    fn merging_nw_and_sched_does_not_recover_throughput() {
        // The paper's Figure 5 finding: semaphores live in LibC, so
        // putting the stack and scheduler together does not help.
        let separate = quick(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        let merged = quick(RedisParams {
            model: CompartmentModel::NwAndSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        // Merged is not meaningfully faster (within 10%).
        assert!(merged.mreq_per_s < separate.mreq_per_s * 1.10);
    }

    #[test]
    fn local_allocator_beats_global_under_sh() {
        // Figure 4's configuration: SH on the network stack, no hardware
        // isolation; the NW-only model provides the allocator domain.
        let global = quick(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::None,
            sh_on: vec!["lwip".into()],
            dedicated_allocators: false,
            mix: Mix::Set,
            ..RedisParams::default()
        });
        let local = quick(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::None,
            sh_on: vec!["lwip".into()],
            dedicated_allocators: true,
            mix: Mix::Set,
            ..RedisParams::default()
        });
        assert!(
            local.mreq_per_s > global.mreq_per_s,
            "local {:.3} vs global {:.3} MTps",
            local.mreq_per_s,
            global.mreq_per_s
        );
    }

    #[test]
    fn verified_scheduler_overhead_is_small_for_redis() {
        let coop = quick(RedisParams::default());
        let verified = quick(RedisParams {
            sched: SchedKind::Verified,
            ..RedisParams::default()
        });
        assert!(verified.mreq_per_s <= coop.mreq_per_s);
        assert!(verified.mreq_per_s > coop.mreq_per_s * 0.9);
    }
}
