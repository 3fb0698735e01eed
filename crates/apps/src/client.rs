//! The external load generator.
//!
//! The paper measures server-side throughput with an external client
//! machine. [`Client`] is exactly that: its own simulated [`Machine`]
//! (own clock — client work never pollutes the server's cycle count)
//! running only a network stack, connected to the server by a [`Link`].

use crate::os::Os;
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

    /// Half-closes the connection.
    pub fn close(&mut self, sid: SocketId) {
        let _ = self.net.close(sid);
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
