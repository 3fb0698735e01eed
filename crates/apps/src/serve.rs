//! The million-connection serving tier: a sharded Redis cluster behind
//! an async proxy, driven by an open-loop Poisson load generator.
//!
//! This is the capstone of the O(ready) serving contract:
//!
//! * The **proxy** is a FlexOS application compartment that accepts up
//!   to 10⁵ TCP connections, parses pipelined RESP off each one, hashes
//!   every key to one of N **shard compartments** (extra `lib_app`
//!   micro-libraries placed in their own protection domains), fans the
//!   commands out over the PR-8 async gate rings, reassembles the
//!   replies *in request order* and streams them back. Each hop carries
//!   the request's span id, so `--trace-out` shows proxy → shard →
//!   proxy flows per request.
//! * Per-connection work is a [`CoTask`] on a [`CoExecutor`]: readiness
//!   events from the net stack's `EventQueue` wake exactly the tasks
//!   whose sockets changed state, and a scheduling round steps exactly
//!   the woken tasks. Nothing ever scans the open-connection set, so
//!   the per-request cost at 10⁵ mostly-idle connections stays within
//!   a few percent of the 10⁴ figure (`sim_cycles_per_op` of
//!   `serve_c10k` and `serve_c100k`, `benchmark/run.sh`).
//! * The **load generator** is open-loop: burst arrivals are paced by a
//!   seeded Poisson process over *simulated* cycles (fixed-point
//!   exponential sampling — no libm, no wall clock), and a burst whose
//!   connection is still busy queues rather than back-pressuring the
//!   arrival process. Reported latency therefore includes client-side
//!   queueing, the honest open-loop number.
//!
//! Clients are frame-level simulations (`SimClients`), not full
//! `NetStack` instances: 10⁵ stacks would dominate host memory, and the
//! protocol side the server exercises — SYN/ACK handshake, in-order
//! data, cumulative ACKs, window respect — needs only a few machine
//! words per connection. Beyond the 64 Ki source-port limit, client `i`
//! claims IP `CLIENT_IP_BASE + i / PORTS_PER_IP`.
//!
//! Everything is deterministic: one simulated machine, a canonical FIFO
//! executor, seeded arrivals. A serve run's figures are byte-identical
//! run to run (the `artefacts` CI job compares two runs of the JSON).

use crate::client::{RunError, MAX_IDLE_ROUNDS, SERVER_IP};
use crate::os::Os;
use crate::profiles::{evaluation_image, lib_app, CompartmentModel, SchedKind};
use crate::redis::{Flushed, Mix, ReplyStream};
use crate::resp::{
    self, put_bulk, put_command, put_error, put_integer, Command, RespError, RespParser,
};
use flexos::build::{plan, BackendChoice, ImageConfig};
use flexos::gate::{CompartmentId, Sqe};
use flexos_backends::{BootImage, BootOptions};
use flexos_kernel::{CoExecutor, CoPoll, CoTask, CoTaskId};
use flexos_machine::{Addr, Machine, PAGE_SIZE};
use flexos_net::nic::Nic;
use flexos_net::stack::{NetError, SocketId};
use flexos_net::tcp::{Lend, SpareList};
use flexos_net::wire::{
    build_tcp_frame_into, parse_ipv4_frame, EthHeader, Ipv4Header, Mac, TcpFlags, TcpHeader,
    ETHERTYPE_IPV4, IPV4_LEN, MSS, PROTO_TCP, TCP_LEN,
};
use flexos_net::{FixedMap, Interest};
use flexos_trace::{percentile, Label, SpanId, SpanKind, StatsSnapshot};
use std::collections::VecDeque;
use std::ops::Range;

/// The proxy's listening port.
pub const SERVE_PORT: u16 = 7379;

/// First client IP (10.0.1.0); client `i` uses `BASE + i / PORTS_PER_IP`.
const CLIENT_IP_BASE: u32 = 0x0a00_0100;

/// Source ports per client IP (stays far under the u16 limit).
const PORTS_PER_IP: usize = 4096;

/// First client source port.
const CLIENT_PORT_BASE: u16 = 1024;

/// Receive-ring bytes per serve connection. Tiny on purpose: the
/// advertised window is `rcv_wnd`-based (see
/// `NetStack::set_sock_ring_bytes`), so the ring only needs to stage one
/// request burst, and 10⁵ rings must fit the stack's buffer pool.
const CONN_RING_BYTES: u32 = 256;

/// Distinct keys the load generator touches.
const KEYSPACE: usize = 1024;

/// Maximum shard compartments (bounded by the MPK key budget). Shard
/// `k` is the micro-library named, and its hops labelled,
/// `Label::SHARDS[k]`.
pub const MAX_SHARDS: usize = Label::SHARDS.len();

/// Connections established per handshake wave (stays under the
/// default accept-backlog cap so no SYN is shed during setup).
const ESTABLISH_WAVE: usize = 512;

/// Parameters of one serving-tier run.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Compartment model for the proxy-side image.
    pub model: CompartmentModel,
    /// Isolation backend.
    pub backend: BackendChoice,
    /// Scheduler implementation.
    pub sched: SchedKind,
    /// Shard compartments (1..=[`MAX_SHARDS`]).
    pub shards: usize,
    /// Concurrent client connections.
    pub conns: usize,
    /// Requests to complete during measurement.
    pub ops: u64,
    /// Value payload bytes.
    pub payload: usize,
    /// Commands per burst (RESP pipeline depth).
    pub pipeline: usize,
    /// Request mix.
    pub mix: Mix,
    /// Mean inter-arrival gap between bursts, in simulated cycles.
    pub arrival_gap_cycles: u64,
    /// Seed for the Poisson arrival process.
    pub seed: u64,
    /// Mid-serve live migration: after this many completed bursts,
    /// swap every compartment pair's gate backend to the target
    /// (`None` = never migrate). The swap uses the quiescence
    /// protocol, so in-flight crossings finish on the old gate and
    /// the pair drains before the new mechanism takes over.
    pub migrate_to: Option<(u64, BackendChoice)>,
}

impl Default for ServeParams {
    fn default() -> Self {
        Self {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            sched: SchedKind::Coop,
            shards: 4,
            conns: 1_000,
            ops: 2_000,
            payload: 64,
            pipeline: 4,
            mix: Mix::Get,
            arrival_gap_cycles: 50_000,
            seed: 42,
            migrate_to: None,
        }
    }
}

/// The outcome of one serving-tier run.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Concurrent connections held open.
    pub conns: usize,
    /// Requests completed (measured phase).
    pub ops: u64,
    /// Server cycles spent (measured phase).
    pub cycles: u64,
    /// Cycles per completed request. Below saturation this is the
    /// offered load (arrival gap ÷ pipeline), not the server's cost.
    pub cycles_per_op: u64,
    /// Throughput in mega-requests per second.
    pub mreq_per_s: f64,
    /// Gate crossings during measurement.
    pub crossings: u64,
    /// Burst latency percentiles in cycles (arrival → last reply byte
    /// consumed; includes open-loop client-side queueing).
    pub p50_cycles: u64,
    /// 99th percentile burst latency in cycles.
    pub p99_cycles: u64,
    /// 99.9th percentile burst latency in cycles.
    pub p999_cycles: u64,
    /// Commands executed per shard compartment.
    pub shard_ops: Vec<u64>,
    /// SYNs shed by the bounded accept backlog.
    pub backlog_overflows: u64,
}

/// FNV-1a over a key — the proxy's shard hash.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Key `k` of the load generator's keyspace, `key:0000` … `key:1023`.
fn key_name(k: usize) -> [u8; 8] {
    debug_assert!(k < KEYSPACE);
    let mut key = *b"key:0000";
    let mut rest = k;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// Builds the image config: the evaluation image for the proxy, plus
/// one `shardK` application micro-library per shard. Under the
/// multi-compartment models each shard gets its own protection domain
/// (compartments after the model's own); the baseline co-locates them.
pub fn serve_image(params: &ServeParams) -> ImageConfig {
    let mut cfg = evaluation_image("proxy", params.model, params.backend, params.sched);
    let base = match params.model {
        CompartmentModel::Baseline => 0,
        CompartmentModel::NwOnly => 2,
        CompartmentModel::NwSchedRest => 3,
        CompartmentModel::NwAndSchedRest => 2,
    };
    let shards = &Label::SHARDS[..params.shards.min(MAX_SHARDS)];
    for (k, name) in shards.iter().map(|l| l.as_str()).enumerate() {
        let c = if params.model == CompartmentModel::Baseline {
            0
        } else {
            base + k
        };
        cfg = cfg.with_library(lib_app(name).in_compartment(c));
    }
    cfg
}

// --- the proxy world -------------------------------------------------------------

/// One routed command awaiting its shard's reply.
struct ShardOp {
    span: SpanId,
    shard: usize,
    /// Its arguments, as a range of `ServeWorld::arg_spans`.
    args: Range<usize>,
    /// Its reply, as a range of `ServeWorld::reply_bytes` (empty until
    /// the shard has answered).
    reply: Range<usize>,
}

/// The context every [`ConnTask`] steps with: the OS image plus the
/// shard stores and the scratch the fan-out path reuses — one set for
/// the world, not one per connection.
struct ServeWorld {
    os: Os,
    /// Per-shard key-value stores (host-side; the simulated cost of an
    /// access is charged inside the shard's compartment).
    shards: Vec<FixedMap<Vec<u8>, Vec<u8>>>,
    /// Commands executed per shard.
    shard_ops: Vec<u64>,
    shard_comps: Vec<CompartmentId>,
    shard_vcpus: Vec<u16>,
    rx_buf: Addr,
    tx_buf: Addr,
    io_buf_len: u64,
    backend: &'static str,
    app_vcpu: u16,
    /// Fan-out scratch: the ops of the burst being served, and the
    /// arenas their arguments and replies live in while it is.
    ops_scratch: Vec<ShardOp>,
    arg_bytes: Vec<u8>,
    arg_spans: Vec<Range<usize>>,
    reply_bytes: Vec<u8>,
    /// Parse scratch: argument spans of the command being routed.
    cmd_spans: Vec<Range<usize>>,
    /// Flush scratch: span tags of a send batch.
    sqe_spans: Vec<SpanId>,
    /// Host copy scratch for recv.
    host_buf: Vec<u8>,
    /// Fatal task errors (drained by the driver after each round).
    errors: Vec<String>,
    /// Records of the tasks that are not stepping: a task borrows one for
    /// the length of a step and keeps it only while it holds a partial
    /// command or unsent replies.
    spare: SpareList<Burst>,
    /// Tasks parked with a record in hand.
    bursts_kept: usize,
}

/// Executes one command inside shard compartment code, appending its
/// reply to `out`: the simulated cost (dispatch + value copy) is charged
/// on `m` while the host-side store does the bookkeeping. Returns
/// whether the reply is anything but an error.
fn exec_shard_cmd(
    m: &mut Machine,
    store: &mut FixedMap<Vec<u8>, Vec<u8>>,
    cmd: &Command<'_>,
    out: &mut Vec<u8>,
) -> bool {
    let dispatch = m.costs().app_request;
    m.charge(dispatch);
    match (cmd.verb(&mut [0; 8]), cmd.len()) {
        (b"PING", 1) => out.extend_from_slice(resp::PONG),
        (b"SET", 3) => {
            let (key, value) = (cmd.arg(1), cmd.arg(2));
            let cost = m.costs().copy_cost(value.len() as u64);
            m.charge(cost);
            match store.get_mut(key) {
                Some(slot) => {
                    slot.clear();
                    slot.extend_from_slice(value);
                }
                None => {
                    store.insert(key.to_vec(), value.to_vec());
                }
            }
            out.extend_from_slice(resp::OK);
        }
        (b"GET", 2) => match store.get(cmd.arg(1)) {
            Some(v) => {
                let cost = m.costs().copy_cost(v.len() as u64);
                m.charge(cost);
                put_bulk(out, v);
            }
            None => out.extend_from_slice(resp::NIL),
        },
        (b"DEL", 2) => put_integer(out, i64::from(store.remove(cmd.arg(1)).is_some())),
        _ => {
            put_error(out, format_args!("unknown command '{}'", cmd.verb_lossy()));
            return false;
        }
    }
    true
}

/// What a task holds only while a burst is in flight on its connection
/// (DESIGN.md §6.15): the commands received and the replies staged.
#[derive(Default)]
struct Burst {
    parser: RespParser,
    replies: ReplyStream,
}

impl Lend for Burst {
    fn is_idle(&self) -> bool {
        self.parser.is_idle() && self.replies.is_idle()
    }

    fn clear(&mut self) {
        self.parser.clear();
        self.replies.clear();
    }

    fn capacity_bytes(&self) -> usize {
        self.parser.capacity_bytes() + self.replies.capacity_bytes()
    }
}

/// The per-connection cooperative task: drain requests, fan out to
/// shards, stream replies — parking on readiness whenever the socket
/// has nothing for it. It is spawned at its socket's id, so the id it
/// steps with is the socket it serves.
#[derive(Default)]
struct ConnTask {
    conn: Conn,
    /// Lent for the length of a step; kept between steps only with
    /// something in it.
    burst: Option<Box<Burst>>,
}

/// What a served connection is, burst or no burst.
#[derive(Default)]
struct Conn {
    /// WRITE interest is armed (restored to READ-only once drained, so
    /// an idle writable socket does not wake the task forever).
    write_armed: bool,
    /// The client sent something that is not RESP: the error reply is
    /// staged, the connection closes once it has left.
    closing: bool,
}

impl Conn {
    /// Parses everything buffered, routes each command to its shard over
    /// the async gate rings, and reassembles replies in request order.
    fn fan_out(&mut self, b: &mut Burst, w: &mut ServeWorld) -> Result<(), String> {
        let nshards = w.shards.len();
        w.ops_scratch.clear();
        w.arg_bytes.clear();
        w.arg_spans.clear();
        w.reply_bytes.clear();
        while !self.closing {
            let cmd = match b.parser.next_command(&mut w.cmd_spans) {
                Ok(cmd) => cmd,
                Err(RespError::Incomplete) => break,
                Err(RespError::Malformed { .. }) => {
                    self.closing = true;
                    break;
                }
            };
            // Proxy-side routing work (dispatch + key hash).
            let work = w.os.img.machine.costs().app_request;
            let t0 = w.os.img.machine.clock().cycles();
            let span = w.os.img.machine.span_trace_mut().begin_request(
                Label::Serve,
                w.backend,
                w.app_vcpu,
                t0,
            );
            w.os.app_compute(work);
            let shard = match cmd.len() {
                0 | 1 => 0,
                _ => (fnv1a(cmd.arg(1)) % nshards as u64) as usize,
            };
            // The parser's buffer is only good until the next command:
            // the arguments wait for their shard in the world's arena.
            let first_arg = w.arg_spans.len();
            for arg in cmd.args() {
                let at = w.arg_bytes.len();
                w.arg_bytes.extend_from_slice(arg);
                w.arg_spans.push(at..w.arg_bytes.len());
            }
            w.ops_scratch.push(ShardOp {
                span,
                shard,
                args: first_arg..w.arg_spans.len(),
                reply: 0..0,
            });
        }
        for k in 0..nshards {
            let count = w.ops_scratch.iter().filter(|o| o.shard == k).count();
            if count == 0 {
                continue;
            }
            // Routed by the compartment id resolved at boot, not by a
            // scan of the library list per call.
            let target = w.shard_comps[k];
            w.os.img.gates.ensure_ring_depth(target, count);
            for (idx, op) in w.ops_scratch.iter().enumerate() {
                if op.shard != k {
                    continue;
                }
                w.os.img
                    .gates
                    .submit(target, Sqe::new(32, 8, idx as u64).with_span(op.span))
                    .map_err(|f| f.to_string())?;
            }
            let ServeWorld {
                os,
                shards,
                shard_ops,
                shard_vcpus,
                ops_scratch,
                arg_bytes,
                arg_spans,
                reply_bytes,
                app_vcpu,
                ..
            } = w;
            let store = &mut shards[k];
            let sops = &mut shard_ops[k];
            let (shard_vcpu, proxy_vcpu) = (shard_vcpus[k], *app_vcpu);
            let BootImage { machine, gates, .. } = &mut os.img;
            gates
                .flush_async(machine, target, |m, _rt, sqe| {
                    let op = &mut ops_scratch[sqe.user_data as usize];
                    let cmd = Command::new(arg_bytes, &arg_spans[op.args.clone()]);
                    let t0 = m.clock().cycles();
                    let at = reply_bytes.len();
                    let ok = exec_shard_cmd(m, store, &cmd, reply_bytes);
                    op.reply = at..reply_bytes.len();
                    *sops += 1;
                    let t1 = m.clock().cycles();
                    // The hop probe: attributed to the request span the
                    // SQE carries, labeled with the shard it crossed to.
                    m.span_trace_mut().record(
                        shard_vcpu,
                        SpanKind::MqHop,
                        Label::SHARDS[k],
                        proxy_vcpu,
                        shard_vcpu,
                        t0,
                        t1,
                    );
                    Ok(i64::from(ok))
                })
                .map_err(|f| f.to_string())?;
            // Drain the completions; the replies already live host-side.
            while gates.reap(target).is_ok() {}
        }
        // Reassemble in request order, ending each span only when its
        // reply's last byte leaves the server (in `flush`).
        b.replies.buf().reserve(w.reply_bytes.len());
        for op in &w.ops_scratch {
            if op.reply.is_empty() {
                put_error(b.replies.buf(), format_args!("shard reply lost"));
            } else {
                let reply = &w.reply_bytes[op.reply.clone()];
                b.replies.buf().extend_from_slice(reply);
            }
            b.replies.end_reply(op.span);
        }
        if self.closing {
            let t0 = w.os.img.machine.clock().cycles();
            let span = w.os.img.machine.span_trace_mut().begin_request(
                Label::Serve,
                w.backend,
                w.app_vcpu,
                t0,
            );
            b.replies.buf().extend_from_slice(resp::PROTOCOL_ERROR);
            b.replies.end_reply(span);
        }
        Ok(())
    }

    fn drive(
        &mut self,
        sid: SocketId,
        b: &mut Burst,
        w: &mut ServeWorld,
    ) -> Result<CoPoll, String> {
        loop {
            let flushed = b
                .replies
                .flush(
                    &mut w.os,
                    sid,
                    w.tx_buf,
                    w.io_buf_len,
                    w.app_vcpu,
                    &mut w.sqe_spans,
                )
                .map_err(|f| f.to_string())?;
            match flushed {
                Flushed::Parked => {
                    w.os.net
                        .events_mut()
                        .set_interest(sid, Interest::READ | Interest::WRITE);
                    self.write_armed = true;
                    return Ok(CoPoll::Pending);
                }
                Flushed::Closed => {
                    let _ = w.os.sock_close(sid);
                    return Ok(CoPoll::Ready);
                }
                Flushed::Failed(e) => return Err(format!("send failed: {e}")),
                Flushed::Clean => {}
            }
            if self.closing {
                let _ = w.os.sock_close(sid);
                return Ok(CoPoll::Ready);
            }
            if self.write_armed {
                w.os.net.events_mut().set_interest(sid, Interest::READ);
                self.write_armed = false;
            }
            match w.os.recv(sid, w.rx_buf, w.io_buf_len) {
                Ok(0) => {
                    let _ = w.os.sock_close(sid);
                    return Ok(CoPoll::Ready);
                }
                Ok(n) => {
                    let rx_buf = w.rx_buf;
                    w.host_buf.resize(n as usize, 0);
                    let ServeWorld { os, host_buf, .. } = w;
                    os.img.read(rx_buf, host_buf).map_err(|f| f.to_string())?;
                    b.parser.feed(host_buf);
                }
                Err(NetError::WouldBlock) => {
                    if b.parser.pending() == 0 {
                        return Ok(CoPoll::Pending);
                    }
                }
                Err(NetError::Closed) => {
                    let _ = w.os.sock_close(sid);
                    return Ok(CoPoll::Ready);
                }
                Err(e) => return Err(format!("recv failed: {e}")),
            }
            self.fan_out(b, w)?;
            if b.replies.is_drained() {
                return Ok(CoPoll::Pending);
            }
        }
    }
}

impl CoTask<ServeWorld> for ConnTask {
    fn step(&mut self, w: &mut ServeWorld, id: CoTaskId) -> CoPoll {
        let sid = SocketId(id.0 as usize);
        w.bursts_kept -= usize::from(self.burst.is_some());
        let burst = w.spare.lend(&mut self.burst);
        let polled = match self.conn.drive(sid, burst, w) {
            Ok(p) => p,
            Err(e) => {
                w.errors.push(e);
                let _ = w.os.sock_close(sid);
                CoPoll::Ready
            }
        };
        if polled == CoPoll::Ready {
            // The connection is gone, and with it whoever would have
            // read what is still staged.
            burst.clear();
        }
        w.spare.retire(&mut self.burst);
        w.bursts_kept += usize::from(self.burst.is_some());
        polled
    }
}

// --- the frame-level client fleet ------------------------------------------------

/// One client connection; its address is its index
/// ([`SimClients::addr`]).
#[derive(Default)]
struct SimConn {
    snd_nxt: u32,
    rcv_nxt: u32,
    established: bool,
    need_ack: bool,
    /// Lent for the life of a burst in flight, and while an arrival
    /// waits behind one.
    burst: Option<Box<ClientBurst>>,
}

impl SimConn {
    /// Replies awaited for the burst in flight (0 = idle).
    fn expected(&self) -> u32 {
        self.burst.as_ref().map_or(0, |b| b.expected)
    }

    /// Arrivals waiting behind the burst in flight.
    fn backlog(&self) -> usize {
        self.burst.as_ref().map_or(0, |b| b.queued.len())
    }
}

/// What a client connection holds only while its bursts are in flight
/// (DESIGN.md §6.15).
#[derive(Default)]
struct ClientBurst {
    /// Replies awaited for the burst in flight (0 = none in flight).
    expected: u32,
    /// Scheduled arrival cycle of the burst in flight.
    t_arrival: u64,
    parser: RespParser,
    /// Arrivals that landed while a burst was in flight (open-loop
    /// queueing; their latency clocks started at their scheduled time).
    queued: VecDeque<u64>,
}

impl Lend for ClientBurst {
    fn is_idle(&self) -> bool {
        self.expected == 0 && self.parser.is_idle() && self.queued.is_empty()
    }

    fn clear(&mut self) {
        self.expected = 0;
        self.t_arrival = 0;
        self.parser.clear();
        self.queued.clear();
    }

    fn capacity_bytes(&self) -> usize {
        self.parser.capacity_bytes() + self.queued.capacity() * std::mem::size_of::<u64>()
    }
}

/// The frame-level simulation of up to 10⁵ clients.
struct SimClients {
    conns: Vec<SimConn>,
    server_mac: Mac,
    client_mac: Mac,
    ident: u16,
    payload: Vec<u8>,
    pipeline: usize,
    mix: Mix,
    /// Completed burst latencies in cycles.
    latencies: Vec<u64>,
    completed_bursts: u64,
    completed_reqs: u64,
    bursts_started: u64,
    established_count: usize,
    /// Connections whose `need_ack` went high since the last emit.
    ack_pending: Vec<usize>,
    /// Connections whose burst completed with arrivals still queued.
    pending_starts: Vec<usize>,
    /// Connections the server closed, to be closed in kind.
    fins: Vec<usize>,
    reply_errors: Vec<String>,
    /// Wire scratch: the burst being framed.
    req_buf: Vec<u8>,
    /// Records of the connections with no reply half-read and no arrival
    /// waiting.
    spare: SpareList<ClientBurst>,
}

/// Builds one client frame in a buffer from the server NIC's pool and
/// puts it on that NIC's receive queue.
#[allow(clippy::too_many_arguments)]
fn client_frame(
    nic: &mut Nic,
    server_mac: Mac,
    client_mac: Mac,
    ident: &mut u16,
    ip: u32,
    port: u16,
    rcv_nxt: u32,
    flags: TcpFlags,
    seq: u32,
    payload: &[u8],
) {
    *ident = ident.wrapping_add(1);
    let eth = EthHeader {
        dst: server_mac,
        src: client_mac,
        ethertype: ETHERTYPE_IPV4,
    };
    let iph = Ipv4Header {
        src: ip,
        dst: SERVER_IP,
        proto: PROTO_TCP,
        total_len: (IPV4_LEN + TCP_LEN + payload.len()) as u16,
        ttl: 64,
        ident: *ident,
    };
    let tcp = TcpHeader {
        src_port: port,
        dst_port: SERVE_PORT,
        seq,
        ack: rcv_nxt,
        flags,
        window: 65_535,
    };
    let mut frame = nic.frame_buf();
    build_tcp_frame_into(&eth, &iph, &tcp, payload, &mut frame)
        .expect("client frame within wire limits");
    nic.push_rx(frame);
}

impl SimClients {
    fn new(conns: usize, payload: usize, mix: Mix, pipeline: usize, nic_id: u8) -> Self {
        let mut list = Vec::with_capacity(conns);
        list.resize_with(conns, SimConn::default);
        Self {
            conns: list,
            server_mac: Mac::of_nic(nic_id),
            client_mac: Mac::of_nic(200),
            ident: 0,
            payload: vec![b'v'; payload.max(1)],
            pipeline: pipeline.max(1),
            mix,
            latencies: Vec::new(),
            completed_bursts: 0,
            completed_reqs: 0,
            bursts_started: 0,
            established_count: 0,
            ack_pending: Vec::new(),
            pending_starts: Vec::new(),
            fins: Vec::new(),
            reply_errors: Vec::new(),
            req_buf: Vec::new(),
            spare: SpareList::default(),
        }
    }

    /// Deterministic per-connection initial sequence number.
    fn iss(i: usize) -> u32 {
        0x1000_0000u32.wrapping_add((i as u32).wrapping_mul(0x1001))
    }

    /// The client address `ip:port` of connection `i`.
    fn addr(i: usize) -> (u32, u16) {
        (
            CLIENT_IP_BASE + (i / PORTS_PER_IP) as u32,
            CLIENT_PORT_BASE + (i % PORTS_PER_IP) as u16,
        )
    }

    /// The connection owning client address `ip:port` — the inverse of
    /// [`SimClients::addr`].
    fn conn_at(&self, ip: u32, port: u16) -> Option<usize> {
        let block = ip.checked_sub(CLIENT_IP_BASE)? as usize;
        let offset = usize::from(port.checked_sub(CLIENT_PORT_BASE)?);
        let i = block.checked_mul(PORTS_PER_IP)?.checked_add(offset)?;
        (offset < PORTS_PER_IP && i < self.conns.len()).then_some(i)
    }

    fn send_syn(&mut self, i: usize, nic: &mut Nic) {
        let iss = Self::iss(i);
        let (ip, port) = Self::addr(i);
        self.conns[i].snd_nxt = iss.wrapping_add(1);
        client_frame(
            nic,
            self.server_mac,
            self.client_mac,
            &mut self.ident,
            ip,
            port,
            0,
            TcpFlags::SYN,
            iss,
            &[],
        )
    }

    fn mark_ack(&mut self, i: usize) {
        let c = &mut self.conns[i];
        if !c.need_ack {
            c.need_ack = true;
            self.ack_pending.push(i);
        }
    }

    /// Consumes one server frame at simulated time `now`.
    fn on_frame(&mut self, now: u64, frame: &[u8]) {
        let Some((_, ip, l4)) = parse_ipv4_frame(frame).filter(|(_, ip, _)| ip.proto == PROTO_TCP)
        else {
            return;
        };
        let Some((hdr, off)) = TcpHeader::parse(&ip, l4) else {
            return;
        };
        let payload = &l4[off..];
        let Some(i) = self.conn_at(ip.dst, hdr.dst_port) else {
            return;
        };
        if hdr.flags.rst {
            self.reply_errors
                .push(format!("connection {i} reset by server"));
            return;
        }
        if hdr.flags.syn && hdr.flags.ack {
            let c = &mut self.conns[i];
            if !c.established {
                c.established = true;
                c.rcv_nxt = hdr.seq.wrapping_add(1);
                self.established_count += 1;
                self.mark_ack(i);
            }
            return;
        }
        if hdr.flags.fin {
            // The fleet never closes first: a FIN is the server giving up
            // on the connection, and its replies will never come.
            self.reply_errors
                .push(format!("connection {i} closed by server"));
        }
        if !payload.is_empty() && !self.on_data(now, i, &hdr, payload) {
            return;
        }
        let c = &mut self.conns[i];
        if hdr.flags.fin && hdr.seq.wrapping_add(payload.len() as u32) == c.rcv_nxt {
            // Closed in kind, so the server can reap the socket.
            c.rcv_nxt = c.rcv_nxt.wrapping_add(1);
            self.fins.push(i);
        }
    }

    /// Consumes the in-order payload of one server segment on connection
    /// `i`; returns whether it was in order.
    fn on_data(&mut self, now: u64, i: usize, hdr: &TcpHeader, payload: &[u8]) -> bool {
        let c = &mut self.conns[i];
        if hdr.seq != c.rcv_nxt {
            // Duplicate (retransmit) or out-of-order: re-ack, drop.
            self.mark_ack(i);
            return false;
        }
        c.rcv_nxt = c.rcv_nxt.wrapping_add(payload.len() as u32);
        let b = self.spare.lend(&mut c.burst);
        b.parser.feed(payload);
        let mut finished_burst = false;
        loop {
            match b.parser.skip_reply() {
                Ok(None) => {}
                Ok(Some(e)) => self
                    .reply_errors
                    .push(String::from_utf8_lossy(e).into_owned()),
                Err(RespError::Incomplete) => break,
                Err(e) => {
                    self.reply_errors
                        .push(format!("connection {i}: unreadable reply: {e}"));
                    break;
                }
            }
            self.completed_reqs += 1;
            if b.expected > 0 {
                b.expected -= 1;
                if b.expected == 0 {
                    finished_burst = true;
                }
            }
        }
        if finished_burst {
            self.latencies.push(now.saturating_sub(b.t_arrival));
            self.completed_bursts += 1;
            if !b.queued.is_empty() {
                self.pending_starts.push(i);
            }
        }
        self.spare.retire(&mut c.burst);
        self.mark_ack(i);
        true
    }

    /// Starts a burst on idle connection `i`; its latency clock starts
    /// at the burst's *scheduled* arrival.
    fn start_burst(&mut self, i: usize, t_arrival: u64, nic: &mut Nic) {
        let b = self.bursts_started;
        self.bursts_started += 1;
        self.req_buf.clear();
        for j in 0..self.pipeline {
            let k = (b as usize)
                .wrapping_mul(7)
                .wrapping_add(j.wrapping_mul(3))
                .wrapping_add(i)
                % KEYSPACE;
            let key = key_name(k);
            match self.mix {
                Mix::Set => put_command(&mut self.req_buf, &[b"SET", &key, &self.payload]),
                Mix::Get => put_command(&mut self.req_buf, &[b"GET", &key]),
            }
        }
        let b = self.spare.lend(&mut self.conns[i].burst);
        b.expected = self.pipeline as u32;
        b.t_arrival = t_arrival;
        self.send_request(i, nic);
    }

    /// Frames `req_buf` as the next in-order data of connection `i`.
    fn send_request(&mut self, i: usize, nic: &mut Nic) {
        let (ip, port) = Self::addr(i);
        let c = &mut self.conns[i];
        c.need_ack = false; // data frames carry the cumulative ack
        for chunk in self.req_buf.chunks(MSS) {
            client_frame(
                nic,
                self.server_mac,
                self.client_mac,
                &mut self.ident,
                ip,
                port,
                c.rcv_nxt,
                TcpFlags::ACK,
                c.snd_nxt,
                chunk,
            );
            c.snd_nxt = c.snd_nxt.wrapping_add(chunk.len() as u32);
        }
    }

    /// Records an arrival: starts the burst if the connection is idle,
    /// queues it (open-loop) otherwise.
    fn arrival(&mut self, i: usize, t: u64, nic: &mut Nic) {
        let c = &mut self.conns[i];
        if c.expected() == 0 && c.backlog() == 0 {
            self.start_burst(i, t, nic);
        } else {
            self.spare.lend(&mut c.burst).queued.push_back(t);
        }
    }

    /// Emits queued burst starts and batched ACKs.
    fn emit(&mut self, nic: &mut Nic) {
        // Both lists keep their allocation: entries re-queued below land
        // behind the `due` ones being served.
        let due = self.pending_starts.len();
        for k in 0..due {
            let i = self.pending_starts[k];
            if self.conns[i].expected() == 0 {
                let waiting = self.conns[i].burst.as_mut();
                if let Some(t) = waiting.and_then(|b| b.queued.pop_front()) {
                    self.start_burst(i, t, nic);
                }
                if self.conns[i].backlog() != 0 {
                    self.pending_starts.push(i);
                }
            }
        }
        self.pending_starts.drain(..due);
        let mut acks = std::mem::take(&mut self.ack_pending);
        for i in acks.drain(..) {
            let c = &mut self.conns[i];
            if !c.need_ack {
                continue;
            }
            c.need_ack = false;
            let (ip, port) = Self::addr(i);
            client_frame(
                nic,
                self.server_mac,
                self.client_mac,
                &mut self.ident,
                ip,
                port,
                c.rcv_nxt,
                TcpFlags::ACK,
                c.snd_nxt,
                &[],
            );
        }
        self.ack_pending = acks;
        for i in std::mem::take(&mut self.fins) {
            let c = &mut self.conns[i];
            c.need_ack = false;
            let (ip, port) = Self::addr(i);
            client_frame(
                nic,
                self.server_mac,
                self.client_mac,
                &mut self.ident,
                ip,
                port,
                c.rcv_nxt,
                TcpFlags::FIN_ACK,
                c.snd_nxt,
                &[],
            );
            c.snd_nxt = c.snd_nxt.wrapping_add(1);
        }
    }
}

// --- the seeded Poisson arrival process ------------------------------------------

fn xorshift64(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// ln 2 in Q32 fixed point.
const LN2_Q32: u64 = 2_977_044_472;

/// `-ln(U) * mean` with `U` uniform in (0, 1], computed entirely in
/// integer fixed point (atanh series) so the arrival schedule is
/// bit-identical on every platform — no libm, no floats.
fn exp_gap(s: &mut u64, mean: u64) -> u64 {
    // U = r / 2^53 with r in [1, 2^53).
    let r = (xorshift64(s) >> 11) | 1;
    let bits = 64 - r.leading_zeros() as u64; // b: r in [2^(b-1), 2^b)
                                              // -ln(U) = 53·ln2 - ln(r) = (54 - b)·ln2 - ln(m), m = r / 2^(b-1).
    let m_q32 = ((r as u128) << 32) >> (bits - 1); // m in [1, 2) as Q32
    let one = 1u128 << 32;
    // ln(m) = 2·atanh(z), z = (m-1)/(m+1) in [0, 1/3): three series
    // terms give ~1e-6 relative error, far below load-gen needs.
    let z = ((m_q32 - one) << 32) / (m_q32 + one);
    let z2 = (z * z) >> 32;
    let z3 = (z * z2) >> 32;
    let z5 = (z3 * z2) >> 32;
    let ln_m = 2 * (z + z3 / 3 + z5 / 5);
    let neg_ln_u = ((54 - bits) as u128 * LN2_Q32 as u128).saturating_sub(ln_m);
    ((neg_ln_u * mean as u128) >> 32) as u64
}

/// The arrival schedule, drawn as it is consumed: `bursts` pairs of
/// `(cycle, connection)`, non-decreasing in time from `t_base`. Each
/// draw is the gap, then the connection, from one seeded generator.
#[derive(Debug, Clone)]
struct Arrivals {
    state: u64,
    t: u64,
    t_base: u64,
    left: u64,
    conns: u64,
    mean_gap: u64,
}

impl Arrivals {
    fn new(bursts: u64, conns: usize, mean_gap: u64, seed: u64, t_base: u64) -> Self {
        Self {
            state: seed | 1,
            t: 0,
            t_base,
            left: bursts,
            conns: conns as u64,
            mean_gap: mean_gap.max(1),
        }
    }
}

impl Iterator for Arrivals {
    type Item = (u64, usize);

    fn next(&mut self) -> Option<(u64, usize)> {
        self.left = self.left.checked_sub(1)?;
        let gap = exp_gap(&mut self.state, self.mean_gap);
        let conn = (xorshift64(&mut self.state) % self.conns) as usize;
        self.t = self.t.saturating_add(gap);
        Some((self.t_base + self.t, conn))
    }
}

// --- the driver ------------------------------------------------------------------

/// The task serving socket `sid`: tasks are keyed by their socket's id.
fn task_id(sid: SocketId) -> CoTaskId {
    CoTaskId(sid.0 as u32)
}

/// Runs the serving tier and reports scaling figures.
///
/// # Errors
///
/// Returns [`RunError`] when a shard answers with a RESP error, the
/// server image fails or the run stops making progress, so sweeps degrade
/// instead of aborting.
pub fn run_serve(params: &ServeParams) -> Result<ServeResult, RunError> {
    run_serve_inner(params).map(|(r, _)| r)
}

/// [`run_serve`] plus the full telemetry snapshot (including the
/// serving block: event-queue and executor counters).
pub fn run_serve_with_stats(
    params: &ServeParams,
) -> Result<(ServeResult, StatsSnapshot), RunError> {
    run_serve_inner(params).map(|(r, tier)| (r, tier.snapshot()))
}

/// [`run_serve_with_stats`] plus the Chrome trace-event JSON of the
/// span stream (proxy → shard → proxy hops per request).
pub fn run_serve_traced(
    params: &ServeParams,
) -> Result<(ServeResult, StatsSnapshot, String), RunError> {
    let (r, tier) = run_serve_inner(params)?;
    let trace = tier.world.os.trace_json();
    Ok((r, tier.snapshot(), trace))
}

/// The booted serving tier: the proxy image with every client connected
/// and a task spawned per connection. [`run_serve`] is `boot` then
/// `measure`; the phases are public so that a test can look at the tier
/// between them (`tests/idle_budget.rs`).
pub struct Tier {
    world: ServeWorld,
    /// The task serving each socket, at the socket's id.
    exec: CoExecutor<ServeWorld, ConnTask>,
    clients: SimClients,
}

impl Tier {
    /// The proxy image's telemetry snapshot, the executor's counters
    /// included.
    fn snapshot(mut self) -> StatsSnapshot {
        self.world.os.record_serve_exec(self.exec.stats());
        self.world.os.stats_snapshot(None)
    }

    /// Boots the image and establishes `params.conns` connections.
    ///
    /// # Errors
    ///
    /// As [`run_serve`].
    pub fn boot(params: &ServeParams) -> Result<Self, RunError> {
        let shards = params.shards.clamp(1, MAX_SHARDS);
        let conns = params.conns.max(1);
        let nic_id = 1u8;
        let image = plan(serve_image(params)).map_err(RunError::server)?;
        let ncomp = image.num_compartments as u64;

        // Boot sizing: the socket-ring pool must hold every connection's
        // ring; heaps and physical frames scale with it.
        let net_pool_bytes = (conns as u64 + 64) * u64::from(CONN_RING_BYTES) + (1 << 20);
        let heap_per_compartment = net_pool_bytes + (2 << 20);
        let phys_frames = ((ncomp + 1) * heap_per_compartment + (16 << 20)).div_ceil(PAGE_SIZE);
        let opts = BootOptions {
            phys_frames,
            heap_per_compartment,
            net_pool_bytes,
        };
        let mut os = Os::boot_with(image, SERVER_IP, nic_id, opts).map_err(RunError::server)?;
        os.net.set_sock_ring_bytes(CONN_RING_BYTES);
        // The tables a connection has an entry in are sized once (the
        // listener's socket is the `+ 1`), not grown by doubling.
        os.net.reserve(conns + 1);

        let io_buf_len = 16 * 1024u64;
        let rx_buf = os.alloc_shared_buf(io_buf_len).map_err(RunError::server)?;
        let tx_buf = os.alloc_shared_buf(io_buf_len).map_err(RunError::server)?;
        let listener = os
            .listen(SERVE_PORT)
            .map_err(|e| RunError::server(format!("listen failed: {e}")))?;
        // The boot-time backend: `migrate_all` rewrites the plan's
        // backend mid-serve, and the latency rows keep the boot key.
        let backend = os.img.plan.config.backend.tag();
        let app_vcpu = os.img.gates.ctx(os.roles.app).vcpu.0 as u16;
        let shard_comps = Label::SHARDS[..shards]
            .iter()
            .map(|l| os.img.compartment_of_lib(l.as_str()).ok_or(l.as_str()))
            .collect::<Result<Vec<CompartmentId>, _>>()
            .map_err(|name| RunError::Server(format!("shard library {name} not placed")))?;
        let shard_vcpus: Vec<u16> = shard_comps
            .iter()
            .map(|&c| os.img.gates.ctx(c).vcpu.0 as u16)
            .collect();

        let mut world = ServeWorld {
            os,
            shards: vec![FixedMap::default(); shards],
            shard_ops: vec![0; shards],
            shard_comps,
            shard_vcpus,
            rx_buf,
            tx_buf,
            io_buf_len,
            backend,
            app_vcpu,
            ops_scratch: Vec::new(),
            arg_bytes: Vec::new(),
            arg_spans: Vec::new(),
            reply_bytes: Vec::new(),
            cmd_spans: Vec::new(),
            sqe_spans: Vec::new(),
            host_buf: Vec::new(),
            errors: Vec::new(),
            spare: SpareList::default(),
            bursts_kept: 0,
        };

        // Preload the keyspace host-side so GET mixes hit (the measured
        // phase then exercises only the serving path).
        if params.mix == Mix::Get {
            let value = vec![b'v'; params.payload.max(1)];
            for k in 0..KEYSPACE {
                let key = key_name(k);
                let shard = (fnv1a(&key) % shards as u64) as usize;
                world.shards[shard].insert(key.to_vec(), value.clone());
            }
        }

        let mut exec: CoExecutor<ServeWorld, ConnTask> = CoExecutor::new();
        exec.reserve(conns + 1);
        let mut clients =
            SimClients::new(conns, params.payload, params.mix, params.pipeline, nic_id);
        let mut accepted = 0usize;

        // Establishment, in waves that stay under the accept-backlog cap.
        for start in (0..conns).step_by(ESTABLISH_WAVE) {
            let end = (start + ESTABLISH_WAVE).min(conns);
            for i in start..end {
                clients.send_syn(i, &mut world.os.net.nic);
            }
            let mut spins = 0u32;
            while clients.established_count < end || accepted < end {
                world.os.poll_net().map_err(RunError::server)?;
                let now = world.os.img.machine.clock().cycles();
                while let Some(f) = world.os.net.nic.pop_tx() {
                    clients.on_frame(now, &f);
                    world.os.net.nic.recycle(f);
                }
                clients.emit(&mut world.os.net.nic);
                world.os.poll_net().map_err(RunError::server)?;
                loop {
                    match world.os.accept(listener) {
                        Ok(Some(sid)) => {
                            exec.spawn_at(task_id(sid), ConnTask::default())
                                .map_err(RunError::server)?;
                            accepted += 1;
                        }
                        Ok(None) => break,
                        Err(e) => return Err(RunError::server(format!("accept failed: {e}"))),
                    }
                }
                exec.run_until_idle(&mut world, 1_000_000);
                spins += 1;
                if spins >= MAX_IDLE_ROUNDS {
                    return Err(RunError::NoProgress {
                        phase: "handshake wave",
                        done: accepted.min(clients.established_count) as u64,
                        wanted: end as u64,
                    });
                }
            }
        }
        if !clients.reply_errors.is_empty() {
            return Err(RunError::Server(clients.reply_errors.remove(0)));
        }
        Ok(Self {
            world,
            exec,
            clients,
        })
    }

    /// One serving round: the stack takes in what the clients put on the
    /// NIC, every task whose socket became ready runs, and the clients
    /// consume what the server sent, answering with ACKs and queued
    /// bursts. Returns whether any frame moved in either direction.
    fn pump(&mut self) -> Result<bool, RunError> {
        let Self {
            world,
            exec,
            clients,
        } = self;
        let mut moved = false;
        world.os.poll_net().map_err(RunError::server)?;
        for ev in world.os.ready_events() {
            if ev.ready.contains(Interest::READ) || ev.ready.contains(Interest::WRITE) {
                exec.wake(task_id(ev.sid));
            }
        }
        exec.run_until_idle(world, 10_000_000);
        world.os.poll_net().map_err(RunError::server)?;
        let now = world.os.img.machine.clock().cycles();
        let nic = &mut world.os.net.nic;
        while let Some(f) = nic.pop_tx() {
            moved = true;
            clients.on_frame(now, &f);
            nic.recycle(f);
        }
        let rx_before = nic.stats().rx_frames;
        clients.emit(nic);
        Ok(moved || nic.stats().rx_frames != rx_before)
    }

    /// Pumps until no frame moves in either direction: every reply is
    /// acknowledged and every socket has left the stack's active set.
    ///
    /// # Errors
    ///
    /// As [`run_serve`].
    pub fn settle(&mut self) -> Result<(), RunError> {
        for _ in 0..MAX_IDLE_ROUNDS {
            if !self.pump()? {
                return Ok(());
            }
        }
        Err(RunError::NoProgress {
            phase: "settling",
            done: 0,
            wanted: 0,
        })
    }

    /// Checks that storage follows work on a settled tier: no idle
    /// socket or client connection and no parked task holds a record it
    /// should have handed back, and no spare list one it should have
    /// freed; and that every per-connection table has a row exactly where
    /// a stream is open: the stack's demux agrees with its sockets, and
    /// every task sits at the id of a live stream socket.
    ///
    /// # Errors
    ///
    /// The first holder found, in words.
    pub fn idle_storage_audit(&self) -> Result<(), String> {
        let net = &self.world.os.net;
        net.idle_storage_audit()?;
        net.table_audit()?;
        let mut sockets = self.exec.live_ids().map(|id| SocketId(id.0 as usize));
        if let Some(sid) = sockets.find(|&sid| !net.is_stream(sid)) {
            return Err(format!("a task sits at {sid:?}, which is no open stream"));
        }
        for (i, c) in self.clients.conns.iter().enumerate() {
            if c.burst.as_ref().is_some_and(|b| b.is_idle()) {
                return Err(format!("idle client {i} holds an empty record"));
            }
        }
        if self.world.bursts_kept != 0 {
            let kept = self.world.bursts_kept;
            return Err(format!("{kept} parked tasks hold a record"));
        }
        if self.world.spare.is_bounded() && self.clients.spare.is_bounded() {
            Ok(())
        } else {
            Err("a spare list outgrew its bounds".into())
        }
    }

    /// The measured phase: open-loop Poisson arrivals over simulated
    /// cycles until `params.ops` more requests have been answered.
    /// Returns the cycles and gate crossings it took.
    ///
    /// # Errors
    ///
    /// As [`run_serve`].
    pub fn measure(&mut self, params: &ServeParams) -> Result<(u64, u64), RunError> {
        let bursts = (params.ops / params.pipeline.max(1) as u64).max(1);
        let done_before = self.clients.completed_bursts;
        // One latency sample a burst: sized once, not grown by doubling.
        self.clients.latencies.reserve_exact(bursts as usize);
        let t_base = self.world.os.img.machine.clock().cycles();
        let conns = self.clients.conns.len();
        let mut arrivals = Arrivals::new(
            bursts,
            conns,
            params.arrival_gap_cycles,
            params.seed,
            t_base,
        )
        .peekable();
        let start_crossings = self.world.os.img.gates.stats().crossings;
        let mut idle = 0u32;
        let mut pending_migration = params.migrate_to;
        while self.clients.completed_bursts - done_before < bursts {
            // Live migration: once enough bursts completed, swap every
            // compartment pair to the target backend while traffic is
            // still in flight. `migrate_all` requests the swaps; pairs
            // that are quiescent right now swap immediately, busy ones
            // defer to their next safe point, which `poll_migrations`
            // below keeps pumping between executor slices.
            if let Some((after, to)) = pending_migration {
                if self.clients.completed_bursts >= after {
                    let img = &mut self.world.os.img;
                    flexos_backends::migrate_all(img, to, flexos::gate::MigrationReason::Manual)
                        .map_err(|e| RunError::server(format!("live migration failed: {e}")))?;
                    pending_migration = None;
                }
            }
            if params.migrate_to.is_some() {
                let img = &mut self.world.os.img;
                img.gates
                    .poll_migrations(&mut img.machine)
                    .map_err(|e| RunError::server(format!("migration drain failed: {e}")))?;
            }
            let now = self.world.os.img.machine.clock().cycles();
            let nic = &mut self.world.os.net.nic;
            let rx_before = nic.stats().rx_frames;
            while let Some((t, ci)) = arrivals.next_if(|&(t, _)| t <= now) {
                self.clients.arrival(ci, t, nic);
            }
            let arrived = nic.stats().rx_frames != rx_before;
            let before = self.clients.completed_bursts;
            let moved = self.pump()? || arrived;
            if let Some(e) = self.world.errors.first() {
                return Err(RunError::Server(e.clone()));
            }
            if let Some(e) = self.clients.reply_errors.first() {
                return Err(RunError::Reply(e.clone()));
            }
            if moved || self.clients.completed_bursts > before {
                idle = 0;
                continue;
            }
            // Quiescent: jump the clock toward the next arrival. Jumps are
            // bounded well under the RTO, and every in-flight byte has been
            // delivered and acked before a jump, so nothing retransmits.
            idle += 1;
            let now = self.world.os.img.machine.clock().cycles();
            match arrivals.peek() {
                Some(&(t, _)) if t > now => {
                    let jump = (t - now).min(5_000_000);
                    self.world.os.img.machine.charge(jump);
                }
                _ => self.world.os.img.machine.charge(10_000),
            }
            if idle >= MAX_IDLE_ROUNDS {
                return Err(RunError::NoProgress {
                    phase: "measured bursts",
                    done: self.clients.completed_bursts - done_before,
                    wanted: bursts,
                });
            }
        }
        let cycles = self.world.os.img.machine.clock().cycles() - t_base;
        let crossings = self.world.os.img.gates.stats().crossings - start_crossings;
        Ok((cycles, crossings))
    }
}

/// The run behind [`run_serve`], handing back the measured tier with its
/// result, for a caller that reads its telemetry.
fn run_serve_inner(params: &ServeParams) -> Result<(ServeResult, Tier), RunError> {
    let conns = params.conns.max(1);
    let mut tier = Tier::boot(params)?;
    let (cycles, crossings) = tier.measure(params)?;

    let (world, clients) = (&tier.world, &mut tier.clients);
    let ops_done = clients.completed_reqs;
    let mut lat = std::mem::take(&mut clients.latencies);
    lat.sort_unstable();
    let result = ServeResult {
        conns,
        ops: ops_done,
        cycles,
        cycles_per_op: cycles / ops_done.max(1),
        mreq_per_s: ops_done as f64 / (cycles as f64 / flexos_machine::CPU_FREQ_HZ as f64) / 1e6,
        crossings,
        p50_cycles: percentile(&lat, 50, 100),
        p99_cycles: percentile(&lat, 99, 100),
        p999_cycles: percentile(&lat, 999, 1000),
        shard_ops: world.shard_ops.clone(),
        backlog_overflows: world.os.net.stats().backlog_overflows,
    };
    Ok((result, tier))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(params: ServeParams) -> ServeResult {
        run_serve(&params).expect("serve run succeeds")
    }

    #[test]
    fn layout_budget_of_an_idle_connection() {
        // One of each per open connection, burst or no burst (DESIGN.md
        // §6.15).
        // The task's slot is `Option<ConnTask>`, its id the socket's.
        let (task, client) = (
            std::mem::size_of::<Option<ConnTask>>(),
            std::mem::size_of::<SimConn>(),
        );
        assert!(task <= 16, "Option<ConnTask> grew to {task} B (budget 16)");
        assert!(client <= 24, "SimConn grew to {client} B (budget 24)");
    }

    #[test]
    fn a_client_address_is_its_index() {
        let clients = SimClients::new(2 * PORTS_PER_IP + 1, 1, Mix::Get, 1, 0);
        assert_eq!(SimClients::addr(1), (CLIENT_IP_BASE, CLIENT_PORT_BASE + 1));
        let next_ip = (CLIENT_IP_BASE + 1, CLIENT_PORT_BASE);
        assert_eq!(SimClients::addr(PORTS_PER_IP), next_ip);
        for i in [0, 1, PORTS_PER_IP - 1, PORTS_PER_IP, 2 * PORTS_PER_IP] {
            let (ip, port) = SimClients::addr(i);
            assert_eq!(clients.conn_at(ip, port), Some(i), "client {i}");
        }
        let (ip, port) = SimClients::addr(2 * PORTS_PER_IP + 1);
        assert_eq!(clients.conn_at(ip, port), None, "past the fleet");
    }

    #[test]
    fn a_task_keeps_its_record_over_a_half_received_command_or_an_unsent_reply() {
        let (mut spare, mut slot) = (SpareList::<Burst>::default(), None);
        spare.lend(&mut slot).parser.feed(b"*1\r\n$4\r\nPI");
        spare.retire(&mut slot);
        let burst = slot.as_mut().expect("half a command is waiting in it");
        burst.parser.feed(b"NG\r\n");
        assert_eq!(
            burst.parser.next_command(&mut Vec::new()).map(|c| c.len()),
            Ok(1)
        );
        burst.replies.buf().extend_from_slice(resp::PONG);
        burst.replies.end_reply(SpanId(1));
        spare.retire(&mut slot);
        assert!(slot.is_some(), "its reply has not left");
        assert_eq!(spare.held(), 0);
    }

    #[test]
    fn small_serve_run_completes_and_spreads_shards() {
        let (r, snap) = run_serve_with_stats(&ServeParams {
            conns: 64,
            ops: 400,
            ..ServeParams::default()
        })
        .expect("serve run succeeds");
        assert_eq!(r.ops, 400);
        assert!(r.mreq_per_s > 0.0 && r.cycles_per_op > 0 && r.crossings > 0);
        assert_eq!(r.backlog_overflows, 0, "connections shed at accept");
        // The readiness layer and the executor registered their work.
        let sv = snap.serving;
        assert!(
            sv.tasks_spawned > 0
                && sv.tasks_run > 0
                && sv.events_posted > 0
                && sv.polls > 0
                && sv.wakeups > 0,
            "{sv:?}"
        );
        assert!(r.p50_cycles > 0 && r.p99_cycles >= r.p50_cycles);
        assert!(r.p999_cycles >= r.p99_cycles);
        let active = r.shard_ops.iter().filter(|&&n| n > 0).count();
        assert!(active > 1, "keys hashed to one shard: {:?}", r.shard_ops);
        assert_eq!(r.shard_ops.iter().sum::<u64>(), 400);
    }

    #[test]
    fn set_mix_round_trips_through_shards() {
        let r = quick(ServeParams {
            conns: 32,
            ops: 200,
            mix: Mix::Set,
            ..ServeParams::default()
        });
        assert_eq!(r.ops, 200);
        assert_eq!(r.shard_ops.iter().sum::<u64>(), 200);
    }

    #[test]
    fn serve_runs_are_deterministic() {
        let params = ServeParams {
            conns: 48,
            ops: 240,
            ..ServeParams::default()
        };
        let a = quick(params.clone());
        let b = quick(params);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.crossings, b.crossings);
        assert_eq!(
            (a.p50_cycles, a.p99_cycles, a.p999_cycles),
            (b.p50_cycles, b.p99_cycles, b.p999_cycles)
        );
        assert_eq!(a.shard_ops, b.shard_ops);
    }

    #[test]
    fn baseline_model_colocates_and_still_serves() {
        let r = quick(ServeParams {
            model: CompartmentModel::Baseline,
            backend: BackendChoice::None,
            conns: 16,
            ops: 120,
            ..ServeParams::default()
        });
        assert_eq!(r.ops, 120);
    }

    #[test]
    fn isolation_costs_crossings() {
        let base = quick(ServeParams {
            model: CompartmentModel::Baseline,
            backend: BackendChoice::None,
            conns: 16,
            ops: 120,
            ..ServeParams::default()
        });
        let mpk = quick(ServeParams {
            conns: 16,
            ops: 120,
            ..ServeParams::default()
        });
        assert!(mpk.crossings > base.crossings);
        assert!(mpk.mreq_per_s < base.mreq_per_s);
    }

    #[test]
    fn mid_serve_migration_completes_and_is_deterministic() {
        let params = ServeParams {
            conns: 48,
            ops: 240,
            migrate_to: Some((30, BackendChoice::VmRpc)),
            ..ServeParams::default()
        };
        let (a, sa) = run_serve_with_stats(&params).expect("migrating serve run succeeds");
        let (b, sb) = run_serve_with_stats(&params).expect("migrating serve run succeeds");
        assert_eq!(a.ops, 240);
        let m = sa.migrations;
        assert!(
            m.requested >= 1 && m.completed == m.requested && m.deferred == 0,
            "the mid-serve swap never landed: {m:?}"
        );
        assert_eq!(
            a.cycles, b.cycles,
            "migrating serve must stay deterministic"
        );
        assert_eq!(a.crossings, b.crossings);
        assert_eq!(a.shard_ops, b.shard_ops);
        assert_eq!(sa.migrations, sb.migrations);
        // And the run still serves every burst through the new backend.
        assert_eq!(a.shard_ops.iter().sum::<u64>(), 240);
    }

    #[test]
    fn migrating_serve_escalates_isolation_without_losing_requests() {
        // Start on MPK shared stacks, escalate to VM-RPC early in the
        // run: every request is still answered, and the post-swap
        // crossings pay VM-RPC costs an un-migrated run never sees.
        let migrated = quick(ServeParams {
            conns: 16,
            ops: 120,
            migrate_to: Some((5, BackendChoice::VmRpc)),
            ..ServeParams::default()
        });
        assert_eq!(migrated.ops, 120);
        assert_eq!(migrated.backlog_overflows, 0);
        let stayed = quick(ServeParams {
            conns: 16,
            ops: 120,
            ..ServeParams::default()
        });
        assert!(
            migrated.cycles > stayed.cycles,
            "post-migration crossings should cost more: {} vs {}",
            migrated.cycles,
            stayed.cycles
        );
    }

    /// A checksum-valid IPv4 header whose `total_len` falls short of the
    /// header itself is one ignored frame for the client fleet, as it is
    /// one drop for the stack — not a slice past the frame.
    #[test]
    fn a_frame_claiming_less_than_its_ip_header_is_ignored_by_the_fleet() {
        use flexos_net::wire::ETH_LEN;
        let mut clients = SimClients::new(1, 16, Mix::Get, 1, 2);
        for total_len in [0, 1, (IPV4_LEN - 1) as u16] {
            let mut frame = vec![0u8; ETH_LEN + IPV4_LEN + TCP_LEN];
            let eth = EthHeader {
                dst: Mac::of_nic(2),
                src: Mac::of_nic(1),
                ethertype: ETHERTYPE_IPV4,
            };
            eth.write(&mut frame);
            let ip = Ipv4Header {
                src: SERVER_IP,
                dst: SERVER_IP + 1,
                proto: PROTO_TCP,
                total_len,
                ttl: 64,
                ident: 1,
            };
            ip.write(&mut frame[ETH_LEN..]);
            assert_eq!(Ipv4Header::parse(&frame[ETH_LEN..]), Some(ip));
            clients.on_frame(0, &frame);
        }
        assert_eq!(clients.established_count, 0);
        assert!(clients.reply_errors.is_empty() && clients.ack_pending.is_empty());
    }

    /// Sends `wire` as it is on connection 0 of a small tier and serves
    /// until the wire falls silent; returns the error replies and closed
    /// connections the client fleet saw.
    fn raw_exchange(wire: &[u8]) -> Vec<String> {
        let mut tier = Tier::boot(&ServeParams {
            conns: 2,
            ..ServeParams::default()
        })
        .expect("tier boots");
        tier.clients.req_buf.clear();
        tier.clients.req_buf.extend_from_slice(wire);
        tier.clients.send_request(0, &mut tier.world.os.net.nic);
        let mut rounds = 0;
        while tier.pump().expect("server survives") {
            rounds += 1;
            assert!(rounds < 64, "the wire never fell silent");
        }
        assert_eq!(tier.world.errors, Vec::<String>::new());
        // A task that ended took nothing with it, and the socket it
        // closed was reaped: no demux bucket and no task is left for it.
        assert_eq!(tier.idle_storage_audit(), Ok(()));
        let errors = &tier.clients.reply_errors;
        let open = 2 - usize::from(errors.iter().any(|e| e.ends_with("closed by server")));
        assert_eq!(
            tier.world.os.net.conn_count(),
            open,
            "a closed socket was kept"
        );
        assert_eq!(tier.exec.task_count(), open);
        tier.clients.reply_errors
    }

    #[test]
    fn a_tier_established_past_the_rto_retransmits_nothing() {
        // Twelve handshake waves: the server's clock passes the RTO while
        // the later waves are opened, and a SYN-ACK that counted as sent
        // at cycle 0 went out a second time on the next pump.
        let params = ServeParams {
            conns: 12 * ESTABLISH_WAVE,
            ..ServeParams::default()
        };
        let tier = Tier::boot(&params).expect("tier boots");
        let os = &tier.world.os;
        let rto = flexos_net::TcpConfig::default().rto_cycles;
        assert!(
            os.img.machine.clock().cycles() > rto,
            "the RTO never passed"
        );
        assert_eq!(os.net.stats().retransmits, 0);
        assert_eq!(tier.idle_storage_audit(), Ok(()));
    }

    #[test]
    fn input_that_is_not_resp_is_answered_and_the_connection_closed() {
        let closed = ["ERR protocol error", "connection 0 closed by server"];
        // Used to read as "incomplete" forever, wedging the connection.
        assert_eq!(raw_exchange(b"hello\r\n*1\r\n$4\r\nPING\r\n"), closed);
        // Used to panic the proxy with "capacity overflow".
        assert_eq!(raw_exchange(b"*9223372036854775807\r\n"), closed);
        // What precedes the damage is still served.
        let wire = b"*2\r\n$3\r\nGET\r\n$8\r\nkey:0001\r\n*1\r\n$4\r\nNOPE\r\n$x\r\n";
        assert_eq!(
            raw_exchange(wire),
            [
                "ERR unknown command 'NOPE'",
                "ERR protocol error",
                "connection 0 closed by server"
            ]
        );
        // A well-formed value that is no command keeps the connection.
        assert_eq!(raw_exchange(b":1\r\n"), ["ERR unknown command ''"]);
    }

    #[test]
    fn a_buffer_that_grew_for_one_large_request_is_freed_not_kept() {
        // One 1 MiB SET used to pin 2 MiB (receive FIFO and parser) on
        // its connection for life.
        let big = ServeParams {
            conns: 4,
            mix: Mix::Set,
            payload: 1 << 20,
            pipeline: 1,
            ops: 1,
            ..ServeParams::default()
        };
        let mut tier = Tier::boot(&big).expect("tier boots");
        tier.measure(&big).expect("the large SET is served");
        tier.settle().expect("tier settles");
        assert_eq!(tier.world.shard_ops.iter().sum::<u64>(), 1);
        // Idle sockets and clients hold nothing; no list pooled a buffer
        // above `SPARE_MAX_BYTES`.
        assert_eq!(tier.idle_storage_audit(), Ok(()));
        // The connections still serve, from small buffers again.
        tier.clients.payload.truncate(50);
        let small = ServeParams { ops: 16, ..big };
        tier.measure(&small).expect("small SETs are served");
        tier.settle().expect("tier settles");
        assert_eq!(tier.world.shard_ops.iter().sum::<u64>(), 17);
        assert_eq!(tier.idle_storage_audit(), Ok(()));
    }

    #[test]
    fn a_reply_read_across_frames_keeps_the_clients_record_between_them() {
        // Four 4 KiB values a burst: a reply is three segments long, so
        // the client's parser holds part of one from frame to frame.
        let params = ServeParams {
            conns: 8,
            ops: 64,
            payload: 4096,
            ..ServeParams::default()
        };
        let mut tier = Tier::boot(&params).expect("tier boots");
        tier.measure(&params).expect("large GETs are served");
        tier.settle().expect("tier settles");
        assert_eq!(tier.clients.completed_reqs, 64);
        assert_eq!(tier.idle_storage_audit(), Ok(()));
    }

    #[test]
    fn clients_that_never_answer_are_an_error_not_a_panic() {
        let params = ServeParams {
            conns: 2,
            ops: 8,
            ..ServeParams::default()
        };
        let mut tier = Tier::boot(&params).expect("tier boots");
        // Every connection believes a burst is already in flight, so each
        // arrival queues behind replies that will never come.
        for c in &mut tier.clients.conns {
            tier.clients.spare.lend(&mut c.burst).expected = 1;
        }
        assert_eq!(
            tier.measure(&params),
            Err(RunError::NoProgress {
                phase: "measured bursts",
                done: 0,
                wanted: 2,
            })
        );
    }

    fn arrivals(bursts: u64, conns: usize, gap: u64, seed: u64) -> Vec<(u64, usize)> {
        Arrivals::new(bursts, conns, gap, seed, 0).collect()
    }

    #[test]
    fn arrival_process_is_seeded_and_exponential_ish() {
        let a = arrivals(1000, 10, 30_000, 7);
        let b = arrivals(1000, 10, 30_000, 7);
        assert_eq!(a, b, "same seed must give the same schedule");
        let c = arrivals(1000, 10, 30_000, 8);
        assert_ne!(a, c, "different seeds must differ");
        // Mean inter-arrival ≈ the configured gap (within 15%).
        let mean = a.last().unwrap().0 / 1000;
        assert!(
            (25_000..=35_000).contains(&mean),
            "mean gap {mean} not ≈ 30000"
        );
    }

    /// The stream draws what the pre-generated schedule it replaced drew
    /// (golden taken from that schedule): the first 1 000 pairs of three
    /// seeds, FNV-1a over their little-endian bytes, and the start and
    /// time base honoured.
    #[test]
    fn the_arrival_stream_draws_the_schedule_it_replaced() {
        let golden = [
            (
                1,
                (706_772, 53_505),
                (31_684_136, 32_779),
                0x1459_9dd8_faff_4685,
            ),
            (
                42,
                (593_937, 85_150),
                (31_244_343, 40_674),
                0xcde9_181b_d6b6_3593,
            ),
            (
                0x5eed_f00d,
                (71_542, 53_404),
                (31_304_709, 87_348),
                0x61be_6580_09ba_0aec,
            ),
        ];
        for (seed, first, last, digest) in golden {
            let a = arrivals(1000, 100_000, 30_000, seed);
            assert_eq!((a.len(), a[0], a[999]), (1000, first, last), "seed {seed}");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &(t, c) in &a {
                for b in t.to_le_bytes().into_iter().chain((c as u64).to_le_bytes()) {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, digest, "seed {seed}");
            let based = Arrivals::new(1000, 100_000, 30_000, seed, 5).next();
            assert_eq!(based, Some((first.0 + 5, first.1)));
        }
    }
}
