//! The external load generator and the closed-loop harness around it.
//!
//! The paper measures server-side throughput with an external client
//! machine. [`Client`] is exactly that: its own simulated [`Machine`]
//! (own clock — client work never pollutes the server's cycle count)
//! running only a network stack, connected to the server by a [`Link`].
//! [`Rig`] is the one loop that drives a server image with it, and
//! [`RunError`] the one way an app run fails.

use crate::os::Os;
use crate::profiles::SchedKind;
use flexos_kernel::exec::Executor;
use flexos_kernel::sched::{CoopScheduler, RunQueue, VerifiedScheduler};
use flexos_machine::{Addr, Fault, Machine, PageFlags, ProtKey, VcpuId, VmId};
use flexos_net::nic::{Link, Nic};
use flexos_net::stack::{NetError, NetResult, NetStack, SocketId};
use flexos_net::wire::Mac;
use std::fmt;

/// The client endpoint (IP used by every harness).
pub const CLIENT_IP: u32 = 0x0a00_0002;

/// The server endpoint.
pub const SERVER_IP: u32 = 0x0a00_0001;

/// A failure on the client side of an experiment. Chaos sweeps install
/// fault schedules on simulated machines, so every client operation can
/// legitimately fail mid-run; the error is typed (not a panic) so the
/// experiment layer records a degraded data point instead of aborting
/// the whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// A fault on the client's simulated machine (injected OOM,
    /// spurious pkey fault, ...).
    Machine(Fault),
    /// The client network stack rejected the operation.
    Net(NetError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Machine(fault) => write!(f, "client machine fault: {fault}"),
            ClientError::Net(e) => write!(f, "client net error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<Fault> for ClientError {
    fn from(fault: Fault) -> Self {
        ClientError::Machine(fault)
    }
}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

/// An external client with its own machine and clock.
#[derive(Debug)]
pub struct Client {
    /// The client's machine (separate clock).
    pub m: Machine,
    /// The client's network stack.
    pub net: NetStack,
    /// The vCPU the client runs on.
    pub vcpu: VcpuId,
    /// A staging buffer in the client's simulated memory.
    pub buf: Addr,
    buf_len: u64,
}

impl Client {
    /// Boots a client with address [`CLIENT_IP`].
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Machine`] when the client machine cannot
    /// allocate its packet pool or staging buffer (e.g. injected OOM).
    pub fn new(nic_id: u8) -> Result<Self, ClientError> {
        let mut m = Machine::with_defaults();
        let pool = m.alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)?;
        let buf_len = 1 << 18;
        let buf = m.alloc_region(VmId(0), buf_len, ProtKey(0), PageFlags::RW)?;
        let net = NetStack::new(CLIENT_IP, Nic::new(Mac::of_nic(nic_id)), pool, 1 << 20);
        Ok(Self {
            m,
            net,
            vcpu: VcpuId(0),
            buf,
            buf_len,
        })
    }

    /// Starts a connection to the server.
    pub fn connect(&mut self, port: u16) -> NetResult<SocketId> {
        self.net.tcp_connect(SERVER_IP, port)
    }

    /// Whether the connection completed its handshake.
    pub fn established(&mut self, sid: SocketId) -> bool {
        self.net.tcp_is_established(sid).unwrap_or(false)
    }

    /// One stack iteration on the client side.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] when the stack iteration faults on the
    /// client machine.
    pub fn poll(&mut self) -> Result<(), ClientError> {
        self.net.poll(&mut self.m, self.vcpu)?;
        Ok(())
    }

    /// Sends `data` (bounded by the staging buffer); returns bytes
    /// accepted (0 when the transmit path is full).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on a machine fault while staging the
    /// payload, or when the stack rejects the send for any reason other
    /// than back-pressure.
    pub fn send_bytes(&mut self, sid: SocketId, data: &[u8]) -> Result<u64, ClientError> {
        let n = (data.len() as u64).min(self.buf_len);
        self.m.write(self.vcpu, self.buf, &data[..n as usize])?;
        match self.net.tcp_send(&mut self.m, self.vcpu, sid, self.buf, n) {
            Ok(sent) => Ok(sent),
            Err(NetError::WouldBlock) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Keeps the transmit pipe full with `chunk` zero bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] when the stack rejects the send for any
    /// reason other than back-pressure or an already-closed pipe.
    pub fn pump_zeroes(&mut self, sid: SocketId, chunk: u64) -> Result<u64, ClientError> {
        let n = chunk.min(self.buf_len);
        match self.net.tcp_send(&mut self.m, self.vcpu, sid, self.buf, n) {
            Ok(sent) => Ok(sent),
            Err(NetError::WouldBlock) | Err(NetError::Closed) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Receives whatever is available into `out` (replacing its
    /// contents; empty when nothing was), as host bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on a machine fault while draining the
    /// staging buffer, or when the stack fails the receive for any
    /// reason other than an empty ring.
    pub fn recv_bytes(
        &mut self,
        sid: SocketId,
        max: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), ClientError> {
        out.clear();
        let max = max.min(self.buf_len);
        match self
            .net
            .tcp_recv(&mut self.m, self.vcpu, sid, self.buf, max)
        {
            Ok(n) => {
                out.resize(n as usize, 0);
                self.m.read(self.vcpu, self.buf, out)?;
                Ok(())
            }
            Err(NetError::WouldBlock) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Advances the client clock (lets client-side RTO timers fire).
    pub fn advance(&mut self, cycles: u64) {
        self.m.charge(cycles);
    }
}

/// Moves frames across the link in both directions.
pub fn exchange(link: &mut Link, client: &mut Client, os: &mut Os) -> usize {
    link.transfer(&mut client.net.nic, &mut os.net.nic)
        + link.transfer(&mut os.net.nic, &mut client.net.nic)
}

/// Rounds without progress after which a run gives up: an idle streak
/// of [`Rig::drive`] or of the serving tier, or one handshake wave or
/// settling of the tier. The longest a passing run reaches is 3 844 (the
/// tier taking in a 1 MiB SET), so this is 2.6 times that (E41 §2).
pub(crate) const MAX_IDLE_ROUNDS: u32 = 10_000;

/// Idle rounds after which [`Rig::drive`] advances both clocks by 30 M
/// cycles a round, so that retransmission timers fire.
const NUDGE_AFTER: u32 = 200;

/// A failed app run (redis, iperf or the serving tier), returned so a
/// faulting compartment or a chaos schedule degrades a benchmark run into
/// a recorded data point. The text does not name the app: callers do.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The server answered a request with a RESP error.
    Reply(String),
    /// The external load generator failed (client machine fault or
    /// client stack error).
    Client(ClientError),
    /// The server image failed outside a reply: a plan or boot error, a
    /// gate timeout, an allocation fault, a stack error.
    Server(String),
    /// Nothing moved although work was still owed: the handshake did not
    /// complete in its rounds, or [`MAX_IDLE_ROUNDS`] rounds in a row
    /// made no progress (a link or client that stopped answering).
    NoProgress {
        /// What the run was waiting for.
        phase: &'static str,
        /// How much of it had happened.
        done: u64,
        /// How much was wanted.
        wanted: u64,
    },
}

impl RunError {
    pub(crate) fn server(e: impl fmt::Display) -> Self {
        RunError::Server(e.to_string())
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Reply(reply) => write!(f, "server replied with error: {reply}"),
            RunError::Client(e) => write!(f, "{e}"),
            RunError::Server(e) => write!(f, "server failed: {e}"),
            RunError::NoProgress {
                phase,
                done,
                wanted,
            } => write!(f, "no progress: {phase} stuck at {done}/{wanted}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ClientError> for RunError {
    fn from(e: ClientError) -> Self {
        RunError::Client(e)
    }
}

/// The closed loop of the redis and iperf runs: a server image driven by
/// one external [`Client`] over a [`Link`]. An app boots into `os`,
/// spawns its task on `exec`, then [`Rig::connect`]s and [`Rig::drive`]s.
pub struct Rig {
    /// The server image.
    pub os: Os,
    /// The server's executor, over the scheduler the plan placed.
    pub exec: Executor<Os>,
    /// The external load generator.
    pub client: Client,
    /// The wire between them.
    pub link: Link,
}

impl Rig {
    /// Puts `os` on `link` opposite a fresh client; fails when the
    /// client machine cannot boot.
    pub fn new(os: Os, link: Link) -> Result<Self, RunError> {
        let rq: Box<dyn RunQueue> = match os.sched_kind {
            SchedKind::Coop => Box::new(CoopScheduler::new()),
            SchedKind::Verified => Box::new(VerifiedScheduler::new()),
        };
        Ok(Self {
            os,
            exec: Executor::new(rq),
            client: Client::new(2)?,
            link,
        })
    }

    /// Opens the client's connection to `port` in eight handshake
    /// rounds and returns its socket: [`RunError::NoProgress`] in phase
    /// `"handshake"` if it is not established after them.
    pub fn connect(&mut self, port: u16) -> Result<SocketId, RunError> {
        let csid = self.client.connect(port).map_err(ClientError::from)?;
        for _ in 0..8 {
            self.client.poll()?;
            exchange(&mut self.link, &mut self.client, &mut self.os);
            self.os.poll_net().map_err(RunError::server)?;
            self.exec.run(&mut self.os, 16).map_err(RunError::server)?;
            exchange(&mut self.link, &mut self.client, &mut self.os);
        }
        if !self.client.established(csid) {
            return Err(RunError::NoProgress {
                phase: "handshake",
                done: 0,
                wanted: 1,
            });
        }
        Ok(csid)
    }

    /// One measured round: the client's stack runs, frames cross, the
    /// server's stack and tasks run, and its answer crosses back.
    pub fn round(&mut self) -> Result<(), RunError> {
        self.client.poll()?;
        exchange(&mut self.link, &mut self.client, &mut self.os);
        self.os.poll_net().map_err(RunError::server)?;
        self.exec.run(&mut self.os, 64).map_err(RunError::server)?;
        self.os.poll_net().map_err(RunError::server)?;
        exchange(&mut self.link, &mut self.client, &mut self.os);
        Ok(())
    }

    /// Calls `step` until the progress count it returns (`done` before
    /// the first call) reaches `wanted`. A step that moves nothing is
    /// idle: past [`NUDGE_AFTER`] idle rounds in a row both clocks are
    /// nudged, and [`MAX_IDLE_ROUNDS`] of them are
    /// [`RunError::NoProgress`] in `phase`.
    pub fn drive(
        &mut self,
        phase: &'static str,
        mut done: u64,
        wanted: u64,
        mut step: impl FnMut(&mut Self) -> Result<u64, RunError>,
    ) -> Result<(), RunError> {
        let mut idle = 0u32;
        while done < wanted {
            let before = done;
            done = step(self)?;
            if done != before {
                idle = 0;
                continue;
            }
            idle += 1;
            if idle > NUDGE_AFTER {
                self.client.advance(30_000_000);
                self.os.img.machine.charge(30_000_000);
            }
            if idle >= MAX_IDLE_ROUNDS {
                return Err(RunError::NoProgress {
                    phase,
                    done,
                    wanted,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{evaluation_image, CompartmentModel, SchedKind};
    use flexos::build::{plan, BackendChoice};
    use flexos_machine::{ChaosConfig, ChaosPlan, Schedule};

    #[test]
    fn client_connects_to_a_flexos_server() {
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Coop,
        );
        let mut os = Os::boot(plan(cfg).unwrap(), SERVER_IP, 1).unwrap();
        let mut client = Client::new(2).unwrap();
        let mut link = Link::new();

        os.listen(5201).unwrap();
        let csid = client.connect(5201).unwrap();
        for _ in 0..6 {
            client.poll().unwrap();
            os.poll_net().unwrap();
            exchange(&mut link, &mut client, &mut os);
        }
        assert!(client.established(csid));
        // Server side accepted the connection.
        // (accept goes through the listener backlog)
    }

    /// The harness's call order is its contract: a short run of each
    /// closed loop costs exactly these server cycles and crossings, so a
    /// call that moves, appears or goes away in [`Rig`] shows here.
    #[test]
    fn each_closed_loop_costs_what_it_always_has() {
        use crate::iperf::{run_iperf, IperfParams};
        use crate::redis::{run_redis, RedisParams};
        let redis = run_redis(&RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::MpkShared,
            ops: 64,
            ..RedisParams::default()
        })
        .expect("redis run");
        let iperf = run_iperf(&IperfParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::MpkShared,
            total_bytes: 64 * 1024,
            ..IperfParams::default()
        });
        assert_eq!((redis.cycles, redis.crossings), (61_352, 32));
        assert_eq!((iperf.cycles, iperf.crossings), (227_442, 16));
    }

    #[test]
    fn client_clock_is_independent_of_the_server() {
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Coop,
        );
        let os = Os::boot(plan(cfg).unwrap(), SERVER_IP, 1).unwrap();
        let mut client = Client::new(2).unwrap();
        client.advance(1_000_000);
        assert!(client.m.clock().cycles() >= 1_000_000);
        assert!(os.img.machine.clock().cycles() < 1_000_000);
    }

    #[test]
    fn client_machine_faults_surface_as_typed_errors_not_panics() {
        let mut client = Client::new(2).unwrap();
        let csid = client.connect(5201).unwrap();
        // Every access faults spuriously: staging the payload must
        // return the fault instead of panicking the whole sweep.
        client.m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 9,
            spurious_pkey: Schedule::EveryNth(1),
            ..Default::default()
        }));
        let err = client.send_bytes(csid, b"payload").unwrap_err();
        assert!(matches!(err, ClientError::Machine(_)), "{err:?}");
    }
}
