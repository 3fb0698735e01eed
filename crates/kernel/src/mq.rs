//! Message-queue micro-library over simulated shared memory.
//!
//! The paper lists "a message queue" among Unikraft's micro-libs (§2).
//! This one is a single-producer/single-consumer ring of fixed-size slots
//! living in *simulated* memory — so cross-compartment queues are subject
//! to the same protection-key/VM enforcement as any other data, and
//! enqueue/dequeue costs (slot copies) land on the machine clock.
//!
//! Layout in simulated memory, from `base`:
//!
//! ```text
//! +0   head (u64)     — next slot to read  (consumer-owned)
//! +8   tail (u64)     — next slot to write (producer-owned)
//! +16  slot 0 .. slot N-1, each `slot_size` bytes:
//!        [len: u64][payload: slot_size-8 bytes]
//! ```

use flexos_machine::{Addr, Fault, Machine, Result, VcpuId};
use flexos_trace::{Label, SpanKind};

const HDR: u64 = 16;

/// A SPSC ring buffer of fixed-size messages in simulated memory.
#[derive(Debug, Clone)]
pub struct MsgQueue {
    base: Addr,
    slots: u64,
    slot_size: u64,
}

impl MsgQueue {
    /// Bytes of backing memory needed for `slots` slots of `slot_size`.
    pub fn bytes_needed(slots: u64, slot_size: u64) -> u64 {
        HDR + slots * slot_size
    }

    /// Creates a queue over pre-allocated memory at `base` and zeroes the
    /// indices. `slot_size` must exceed the 8-byte length header.
    pub fn init(
        m: &mut Machine,
        vcpu: VcpuId,
        base: Addr,
        slots: u64,
        slot_size: u64,
    ) -> Result<Self> {
        assert!(slot_size > 8, "slot must fit the length header");
        assert!(slots > 0, "queue needs at least one slot");
        m.write_u64(vcpu, base, 0)?;
        m.write_u64(vcpu, Addr(base.0 + 8), 0)?;
        Ok(Self {
            base,
            slots,
            slot_size,
        })
    }

    /// Maximum payload bytes per message.
    pub fn max_payload(&self) -> u64 {
        self.slot_size - 8
    }

    fn slot_addr(&self, idx: u64) -> Addr {
        Addr(self.base.0 + HDR + (idx % self.slots) * self.slot_size)
    }

    /// Queue depth computed from untrusted indices read out of shared
    /// memory. A compartment sharing the ring can scribble over the
    /// header, so `head > tail` or a depth beyond the slot count are
    /// treated as corruption and surfaced as a [`Fault`], never as a
    /// wrap-around panic.
    fn depth(&self, head: u64, tail: u64) -> Result<u64> {
        let d = tail
            .checked_sub(head)
            .ok_or_else(|| Fault::HardeningAbort {
                mechanism: "mq",
                reason: format!("corrupted ring indices: head {head} > tail {tail}"),
            })?;
        if d > self.slots {
            return Err(Fault::HardeningAbort {
                mechanism: "mq",
                reason: format!(
                    "corrupted ring indices: depth {d} exceeds {} slots",
                    self.slots
                ),
            });
        }
        Ok(d)
    }

    /// Number of queued messages.
    pub fn len(&self, m: &mut Machine, vcpu: VcpuId) -> Result<u64> {
        let head = m.read_u64(vcpu, self.base)?;
        let tail = m.read_u64(vcpu, Addr(self.base.0 + 8))?;
        self.depth(head, tail)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self, m: &mut Machine, vcpu: VcpuId) -> Result<bool> {
        Ok(self.len(m, vcpu)? == 0)
    }

    /// Attempts to enqueue `payload`. Returns `false` if the ring is full.
    pub fn try_send(&self, m: &mut Machine, vcpu: VcpuId, payload: &[u8]) -> Result<bool> {
        if payload.len() as u64 > self.max_payload() {
            return Err(Fault::HardeningAbort {
                mechanism: "mq",
                reason: format!(
                    "message of {} bytes exceeds slot payload {}",
                    payload.len(),
                    self.max_payload()
                ),
            });
        }
        let t0 = m.clock().cycles();
        let head = m.read_u64(vcpu, self.base)?;
        let tail = m.read_u64(vcpu, Addr(self.base.0 + 8))?;
        if self.depth(head, tail)? == self.slots {
            return Ok(false);
        }
        let slot = self.slot_addr(tail);
        m.write_u64(vcpu, slot, payload.len() as u64)?;
        m.write(vcpu, Addr(slot.0 + 8), payload)?;
        m.write_u64(vcpu, Addr(self.base.0 + 8), tail + 1)?;
        self.record_hop(m, vcpu, Label::MqSend, t0);
        Ok(true)
    }

    /// Span probe for one queue hop: the window from op entry to now,
    /// sharded by the (plan-determined) vCPU doing the copy.
    fn record_hop(&self, m: &mut Machine, vcpu: VcpuId, label: Label, t0: u64) {
        let t1 = m.clock().cycles();
        m.span_trace_mut().record(
            vcpu.0 as u16,
            SpanKind::MqHop,
            label,
            vcpu.0 as u16,
            vcpu.0 as u16,
            t0,
            t1,
        );
    }

    /// Attempts to dequeue a message into `buf`; returns the payload
    /// length, or `None` if the queue is empty.
    ///
    /// The slot's length word lives in shared memory and is untrusted: a
    /// value beyond [`max_payload`](Self::max_payload) (a corrupted
    /// header) or beyond `buf` (a too-short caller buffer) returns
    /// [`Fault::HardeningAbort`] without reading a single payload byte.
    pub fn try_recv(&self, m: &mut Machine, vcpu: VcpuId, buf: &mut [u8]) -> Result<Option<usize>> {
        let t0 = m.clock().cycles();
        let head = m.read_u64(vcpu, self.base)?;
        let tail = m.read_u64(vcpu, Addr(self.base.0 + 8))?;
        if self.depth(head, tail)? == 0 {
            return Ok(None);
        }
        let slot = self.slot_addr(head);
        let len = m.read_u64(vcpu, slot)?;
        if len > self.max_payload() {
            return Err(Fault::HardeningAbort {
                mechanism: "mq",
                reason: format!(
                    "corrupted slot header: length {len} exceeds payload capacity {}",
                    self.max_payload()
                ),
            });
        }
        let len = len as usize;
        if buf.len() < len {
            return Err(Fault::HardeningAbort {
                mechanism: "mq",
                reason: format!("receive buffer too small ({} < {len})", buf.len()),
            });
        }
        m.read(vcpu, Addr(slot.0 + 8), &mut buf[..len])?;
        m.write_u64(vcpu, self.base, head + 1)?;
        self.record_hop(m, vcpu, Label::MqRecv, t0);
        Ok(Some(len))
    }

    /// Enqueues up to `msgs.len()` messages with a **single** tail
    /// publication, returning how many were enqueued.
    ///
    /// Observably equivalent to calling [`try_send`](Self::try_send) once
    /// per message: it stops (without error) at the first message the
    /// full ring cannot take, rejects an oversized message with the same
    /// [`Fault::HardeningAbort`] — publishing the messages written before
    /// it first, exactly as N single sends would have — and leaves the
    /// ring contents identical. What it saves is the per-message
    /// head/tail re-read and tail write: one read pair and one
    /// publication per batch.
    pub fn enqueue_batch(&self, m: &mut Machine, vcpu: VcpuId, msgs: &[&[u8]]) -> Result<usize> {
        if msgs.is_empty() {
            return Ok(0);
        }
        let t0 = m.clock().cycles();
        let head = m.read_u64(vcpu, self.base)?;
        let tail = m.read_u64(vcpu, Addr(self.base.0 + 8))?;
        let free = self.slots - self.depth(head, tail)?;
        let mut written = 0u64;
        let mut err: Option<Fault> = None;
        for payload in msgs {
            // Oversize is checked before fullness, like `try_send`.
            if payload.len() as u64 > self.max_payload() {
                err = Some(Fault::HardeningAbort {
                    mechanism: "mq",
                    reason: format!(
                        "message of {} bytes exceeds slot payload {}",
                        payload.len(),
                        self.max_payload()
                    ),
                });
                break;
            }
            if written == free {
                break;
            }
            let slot = self.slot_addr(tail + written);
            if let Err(e) = m.write_u64(vcpu, slot, payload.len() as u64) {
                err = Some(e);
                break;
            }
            if let Err(e) = m.write(vcpu, Addr(slot.0 + 8), payload) {
                err = Some(e);
                break;
            }
            written += 1;
        }
        if written > 0 {
            m.write_u64(vcpu, Addr(self.base.0 + 8), tail + written)?;
            self.record_hop(m, vcpu, Label::MqSendBatch, t0);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(written as usize),
        }
    }

    /// Dequeues up to `max` messages with a **single** head publication,
    /// appending each payload to `out` and returning how many were taken.
    ///
    /// Observably equivalent to calling [`try_recv`](Self::try_recv) once
    /// per message with a right-sized buffer: it stops (without error)
    /// when the ring runs dry, and a corrupted slot header raises the
    /// same [`Fault::HardeningAbort`] — after publishing the messages
    /// consumed before it, exactly as N single receives would have.
    pub fn dequeue_batch(
        &self,
        m: &mut Machine,
        vcpu: VcpuId,
        max: usize,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<usize> {
        if max == 0 {
            return Ok(0);
        }
        let t0 = m.clock().cycles();
        let head = m.read_u64(vcpu, self.base)?;
        let tail = m.read_u64(vcpu, Addr(self.base.0 + 8))?;
        let mut depth = self.depth(head, tail)?;
        let mut taken = 0u64;
        let mut err: Option<Fault> = None;
        while (taken as usize) < max && depth > 0 {
            let slot = self.slot_addr(head + taken);
            let len = match m.read_u64(vcpu, slot) {
                Ok(l) => l,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            };
            if len > self.max_payload() {
                err = Some(Fault::HardeningAbort {
                    mechanism: "mq",
                    reason: format!(
                        "corrupted slot header: length {len} exceeds payload capacity {}",
                        self.max_payload()
                    ),
                });
                break;
            }
            let mut buf = vec![0u8; len as usize];
            if let Err(e) = m.read(vcpu, Addr(slot.0 + 8), &mut buf) {
                err = Some(e);
                break;
            }
            out.push(buf);
            taken += 1;
            depth -= 1;
        }
        if taken > 0 {
            m.write_u64(vcpu, self.base, head + taken)?;
            self.record_hop(m, vcpu, Label::MqRecvBatch, t0);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(taken as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::{PageFlags, ProtKey, VmId};

    fn queue(slots: u64, slot_size: u64) -> (Machine, MsgQueue) {
        let mut m = Machine::with_defaults();
        let bytes = MsgQueue::bytes_needed(slots, slot_size);
        let base = m
            .alloc_region(VmId(0), bytes, ProtKey(0), PageFlags::RW)
            .unwrap();
        let q = MsgQueue::init(&mut m, VcpuId(0), base, slots, slot_size).unwrap();
        (m, q)
    }

    #[test]
    fn send_recv_round_trip() {
        let (mut m, q) = queue(4, 64);
        assert!(q.try_send(&mut m, VcpuId(0), b"hello").unwrap());
        let mut buf = [0u8; 64];
        let n = q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap().unwrap();
        assert_eq!(&buf[..n], b"hello");
        assert!(q.is_empty(&mut m, VcpuId(0)).unwrap());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (mut m, q) = queue(8, 32);
        for i in 0..5u8 {
            q.try_send(&mut m, VcpuId(0), &[i; 3]).unwrap();
        }
        let mut buf = [0u8; 32];
        for i in 0..5u8 {
            let n = q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap().unwrap();
            assert_eq!(&buf[..n], &[i; 3]);
        }
    }

    #[test]
    fn full_queue_rejects_and_empty_returns_none() {
        let (mut m, q) = queue(2, 32);
        assert!(q.try_send(&mut m, VcpuId(0), b"a").unwrap());
        assert!(q.try_send(&mut m, VcpuId(0), b"b").unwrap());
        assert!(!q.try_send(&mut m, VcpuId(0), b"c").unwrap());
        let mut buf = [0u8; 32];
        q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap();
        assert!(q.try_send(&mut m, VcpuId(0), b"c").unwrap());
        q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap();
        q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap();
        assert!(q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap().is_none());
    }

    #[test]
    fn wraparound_works() {
        let (mut m, q) = queue(2, 32);
        let mut buf = [0u8; 32];
        for round in 0..10u8 {
            q.try_send(&mut m, VcpuId(0), &[round]).unwrap();
            let n = q.try_recv(&mut m, VcpuId(0), &mut buf).unwrap().unwrap();
            assert_eq!(&buf[..n], &[round]);
        }
    }

    #[test]
    fn oversized_message_faults() {
        let (mut m, q) = queue(2, 16);
        assert!(q.try_send(&mut m, VcpuId(0), &[0u8; 9]).is_err());
        assert!(q.try_send(&mut m, VcpuId(0), &[0u8; 8]).unwrap());
    }

    #[test]
    fn corrupted_slot_length_aborts_instead_of_panicking() {
        let (mut m, q) = queue(4, 32);
        q.try_send(&mut m, VcpuId(0), b"ok").unwrap();
        // Scribble a huge length into the head slot's header, as a
        // compromised producer compartment sharing the ring could.
        let slot0 = Addr(q.base.0 + 16);
        m.write_u64(VcpuId(0), slot0, u64::MAX).unwrap();
        let mut buf = [0u8; 32];
        assert!(matches!(
            q.try_recv(&mut m, VcpuId(0), &mut buf),
            Err(Fault::HardeningAbort {
                mechanism: "mq",
                ..
            })
        ));
    }

    #[test]
    fn short_receive_buffer_aborts_instead_of_panicking() {
        let (mut m, q) = queue(4, 32);
        q.try_send(&mut m, VcpuId(0), &[7u8; 10]).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            q.try_recv(&mut m, VcpuId(0), &mut buf),
            Err(Fault::HardeningAbort {
                mechanism: "mq",
                ..
            })
        ));
        // The message is still there for a properly-sized reader.
        let mut big = [0u8; 32];
        let n = q.try_recv(&mut m, VcpuId(0), &mut big).unwrap().unwrap();
        assert_eq!(&big[..n], &[7u8; 10]);
    }

    #[test]
    fn corrupted_indices_fault_instead_of_panicking() {
        let (mut m, q) = queue(4, 32);
        // head > tail: bare subtraction would overflow.
        m.write_u64(VcpuId(0), q.base, 5).unwrap();
        m.write_u64(VcpuId(0), Addr(q.base.0 + 8), 1).unwrap();
        let mut buf = [0u8; 32];
        assert!(q.len(&mut m, VcpuId(0)).is_err());
        assert!(q.try_send(&mut m, VcpuId(0), b"x").is_err());
        assert!(q.try_recv(&mut m, VcpuId(0), &mut buf).is_err());
        // depth beyond the slot count is equally rejected.
        m.write_u64(VcpuId(0), q.base, 0).unwrap();
        m.write_u64(VcpuId(0), Addr(q.base.0 + 8), 100).unwrap();
        assert!(matches!(
            q.len(&mut m, VcpuId(0)),
            Err(Fault::HardeningAbort {
                mechanism: "mq",
                ..
            })
        ));
    }

    #[test]
    fn batch_roundtrip_preserves_fifo_and_wraps() {
        let (mut m, q) = queue(2, 32);
        let mut out = Vec::new();
        for round in 0..6u8 {
            let a = [round; 2];
            let b = [round.wrapping_add(100); 3];
            let n = q.enqueue_batch(&mut m, VcpuId(0), &[&a, &b]).unwrap();
            assert_eq!(n, 2);
            out.clear();
            assert_eq!(q.dequeue_batch(&mut m, VcpuId(0), 8, &mut out).unwrap(), 2);
            assert_eq!(out[0], &a);
            assert_eq!(out[1], &b);
        }
        assert!(q.is_empty(&mut m, VcpuId(0)).unwrap());
    }

    #[test]
    fn enqueue_batch_stops_at_full_and_publishes_partial() {
        let (mut m, q) = queue(2, 32);
        let n = q
            .enqueue_batch(&mut m, VcpuId(0), &[b"a", b"b", b"c"])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(q.len(&mut m, VcpuId(0)).unwrap(), 2);
        let mut out = Vec::new();
        q.dequeue_batch(&mut m, VcpuId(0), 8, &mut out).unwrap();
        assert_eq!(out, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn enqueue_batch_oversize_publishes_predecessors_then_faults() {
        let (mut m, q) = queue(4, 16); // max payload 8
        let err = q
            .enqueue_batch(&mut m, VcpuId(0), &[b"ok", &[0u8; 9], b"never"])
            .unwrap_err();
        assert!(matches!(
            err,
            Fault::HardeningAbort {
                mechanism: "mq",
                ..
            }
        ));
        // The message before the oversized one is visible, like N sends.
        assert_eq!(q.len(&mut m, VcpuId(0)).unwrap(), 1);
        let mut out = Vec::new();
        q.dequeue_batch(&mut m, VcpuId(0), 8, &mut out).unwrap();
        assert_eq!(out, vec![b"ok".to_vec()]);
    }

    #[test]
    fn dequeue_batch_corrupted_header_publishes_predecessors_then_faults() {
        let (mut m, q) = queue(4, 32);
        q.enqueue_batch(&mut m, VcpuId(0), &[b"one", b"two", b"three"])
            .unwrap();
        // Corrupt the second slot's length header.
        let slot1 = Addr(q.base.0 + 16 + q.slot_size);
        m.write_u64(VcpuId(0), slot1, u64::MAX).unwrap();
        let mut out = Vec::new();
        let err = q.dequeue_batch(&mut m, VcpuId(0), 8, &mut out).unwrap_err();
        assert!(matches!(
            err,
            Fault::HardeningAbort {
                mechanism: "mq",
                ..
            }
        ));
        // The message before the corruption was consumed and published.
        assert_eq!(out, vec![b"one".to_vec()]);
        assert_eq!(q.len(&mut m, VcpuId(0)).unwrap(), 2);
    }

    #[test]
    fn queue_respects_protection_keys() {
        // A queue in a key-3 region is unreachable once PKRU denies key 3.
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(
                VmId(0),
                MsgQueue::bytes_needed(2, 32),
                ProtKey(3),
                PageFlags::RW,
            )
            .unwrap();
        let q = MsgQueue::init(&mut m, VcpuId(0), base, 2, 32).unwrap();
        let tok = m.gate_token();
        m.wrpkru(
            VcpuId(0),
            flexos_machine::Pkru::deny_all_except(&[ProtKey(0)], &[]),
            Some(tok),
        )
        .unwrap();
        assert!(matches!(
            q.try_send(&mut m, VcpuId(0), b"x"),
            Err(Fault::PkeyViolation { .. })
        ));
    }
}
