//! Simulated NICs and the link connecting them.
//!
//! A [`Nic`] is a pair of frame queues (the virtio-net role in the
//! paper's images); a [`Link`] moves frames between two NICs and can
//! inject seeded faults (loss, corruption, duplication, reordering) to
//! exercise TCP's recovery paths.

use crate::wire::Mac;
use flexos_machine::SplitMix64;
use std::collections::VecDeque;

/// NIC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames received (into the rx queue).
    pub rx_frames: u64,
    /// Frames sent (out of the tx queue).
    pub tx_frames: u64,
}

/// A simulated network interface.
#[derive(Debug)]
pub struct Nic {
    /// The NIC's MAC address.
    pub mac: Mac,
    rx: VecDeque<Vec<u8>>,
    tx: VecDeque<Vec<u8>>,
    /// Consumed frame buffers awaiting reuse ([`Nic::frame_buf`]).
    pool: Vec<Vec<u8>>,
    stats: NicStats,
}

/// Buffers the pool keeps — a few rounds' worth of frames in flight.
/// Beyond it a recycled buffer is freed, so a NIC that receives more
/// frames than it sends cannot hoard memory.
const FRAME_POOL_CAP: usize = 128;

impl Nic {
    /// Creates a NIC with the given MAC.
    pub fn new(mac: Mac) -> Self {
        Self {
            mac,
            rx: VecDeque::new(),
            tx: VecDeque::new(),
            pool: Vec::new(),
            stats: NicStats::default(),
        }
    }

    /// An empty buffer to build a frame in: a recycled one (keeping the
    /// capacity of the largest frame it has carried) when the pool has
    /// any, else a new one.
    pub fn frame_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Hands a consumed frame's buffer back for reuse.
    pub fn recycle(&mut self, mut frame: Vec<u8>) {
        if self.pool.len() < FRAME_POOL_CAP {
            frame.clear();
            self.pool.push(frame);
        }
    }

    /// Enqueues an outgoing frame.
    pub fn push_tx(&mut self, frame: Vec<u8>) {
        self.stats.tx_frames += 1;
        self.tx.push_back(frame);
    }

    /// Dequeues an outgoing frame (link side).
    pub fn pop_tx(&mut self) -> Option<Vec<u8>> {
        self.tx.pop_front()
    }

    /// Enqueues an incoming frame (link side).
    pub fn push_rx(&mut self, frame: Vec<u8>) {
        self.stats.rx_frames += 1;
        self.rx.push_back(frame);
    }

    /// Dequeues an incoming frame (stack side).
    pub fn pop_rx(&mut self) -> Option<Vec<u8>> {
        self.rx.pop_front()
    }

    /// Whether frames are waiting in the rx queue.
    pub fn has_rx(&self) -> bool {
        !self.rx.is_empty()
    }

    /// Whether frames are waiting in the tx queue.
    pub fn has_tx(&self) -> bool {
        !self.tx.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }
}

/// Seeded probabilistic link chaos (the `flexos-inject` layer's NIC
/// choke point). Rates are per-mille per frame, drawn from a private
/// [`SplitMix64`] stream so the fault schedule is a pure function of the
/// seed and the frame sequence. At 1000‰ a fault hits every frame: a
/// loss of 1000‰ is a dead link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkChaos {
    /// Probability (‰) that a frame is silently dropped.
    pub loss_per_mille: u16,
    /// Probability (‰) that one byte of a frame is flipped. Corrupted
    /// frames survive to the receiver, where checksums reject them —
    /// exercising the demux-drop and TCP-retransmit paths.
    pub corrupt_per_mille: u16,
    /// Probability (‰) that a frame is delivered twice.
    pub dup_per_mille: u16,
    /// Probability (‰) that a frame swaps with its successor in the
    /// batch.
    pub reorder_per_mille: u16,
}

/// A point-to-point link between two NICs.
#[derive(Debug, Default)]
pub struct Link {
    chaos: Option<(LinkChaos, SplitMix64)>,
    /// Frames dropped so far.
    pub dropped: u64,
    /// Frame pairs reordered so far.
    pub reordered: u64,
    /// Frames with an injected byte flip so far.
    pub corrupted: u64,
    /// Frames delivered twice so far.
    pub duplicated: u64,
    /// Reusable staging buffer for [`Link::transfer`] (frames are moved
    /// through it; the outer Vec's capacity is what gets recycled).
    batch: Vec<Vec<u8>>,
}

impl Link {
    /// A fault-free link.
    pub fn new() -> Self {
        Self::default()
    }

    /// A link with seeded probabilistic chaos.
    pub fn with_chaos(chaos: LinkChaos, seed: u64) -> Self {
        let mut l = Self::default();
        l.set_chaos(chaos, seed);
        l
    }

    /// Installs (or replaces) the chaos configuration.
    pub fn set_chaos(&mut self, chaos: LinkChaos, seed: u64) {
        self.chaos = Some((chaos, SplitMix64::new(seed)));
    }

    /// Moves every queued frame from `from`'s tx to `to`'s rx, applying
    /// faults. Returns frames delivered (duplicates count individually).
    pub fn transfer(&mut self, from: &mut Nic, to: &mut Nic) -> usize {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        while let Some(mut f) = from.pop_tx() {
            if let Some((chaos, rng)) = self.chaos.as_mut() {
                if rng.hit(chaos.loss_per_mille) {
                    self.dropped += 1;
                    continue;
                }
                if rng.hit(chaos.corrupt_per_mille) && !f.is_empty() {
                    let i = rng.below(f.len() as u64) as usize;
                    f[i] ^= 0xff;
                    self.corrupted += 1;
                }
                if rng.hit(chaos.dup_per_mille) {
                    batch.push(f.clone());
                    self.duplicated += 1;
                }
            }
            batch.push(f);
        }
        if let Some((chaos, rng)) = self.chaos.as_mut() {
            if chaos.reorder_per_mille > 0 {
                let mut i = 0;
                while i + 1 < batch.len() {
                    if rng.hit(chaos.reorder_per_mille) {
                        batch.swap(i, i + 1);
                        self.reordered += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        let delivered = batch.len();
        for f in batch.drain(..) {
            to.push_rx(f);
        }
        self.batch = batch;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> Vec<u8> {
        vec![tag; 60]
    }

    #[test]
    fn transfer_moves_frames_in_order() {
        let mut a = Nic::new(Mac::of_nic(0));
        let mut b = Nic::new(Mac::of_nic(1));
        a.push_tx(frame(1));
        a.push_tx(frame(2));
        let mut link = Link::new();
        assert_eq!(link.transfer(&mut a, &mut b), 2);
        assert_eq!(b.pop_rx().unwrap()[0], 1);
        assert_eq!(b.pop_rx().unwrap()[0], 2);
        assert_eq!(a.stats().tx_frames, 2);
        assert_eq!(b.stats().rx_frames, 2);
    }

    #[test]
    fn a_dead_link_discards_every_frame() {
        // A loss of 1000‰ drops every frame, whatever the seed.
        for seed in 0..8 {
            let mut a = Nic::new(Mac::of_nic(0));
            let mut b = Nic::new(Mac::of_nic(1));
            for i in 0..6 {
                a.push_tx(frame(i));
            }
            let dead = LinkChaos {
                loss_per_mille: 1000,
                ..Default::default()
            };
            let mut link = Link::with_chaos(dead, seed);
            assert_eq!(link.transfer(&mut a, &mut b), 0);
            assert_eq!(link.dropped, 6);
            assert!(!b.has_rx());
        }
    }

    #[test]
    fn chaos_is_deterministic_for_a_seed() {
        let chaos = LinkChaos {
            loss_per_mille: 200,
            corrupt_per_mille: 100,
            dup_per_mille: 50,
            reorder_per_mille: 50,
        };
        let run = || {
            let mut a = Nic::new(Mac::of_nic(0));
            let mut b = Nic::new(Mac::of_nic(1));
            for i in 0..100 {
                a.push_tx(frame(i));
            }
            let mut link = Link::with_chaos(chaos, 42);
            link.transfer(&mut a, &mut b);
            let tags: Vec<u8> = std::iter::from_fn(|| b.pop_rx()).map(|f| f[0]).collect();
            (tags, link.dropped, link.corrupted, link.duplicated)
        };
        assert_eq!(run(), run());
        // A different seed produces a different schedule.
        let mut a = Nic::new(Mac::of_nic(0));
        let mut b = Nic::new(Mac::of_nic(1));
        for i in 0..100 {
            a.push_tx(frame(i));
        }
        let mut link = Link::with_chaos(chaos, 43);
        link.transfer(&mut a, &mut b);
        let other: Vec<u8> = std::iter::from_fn(|| b.pop_rx()).map(|f| f[0]).collect();
        assert_ne!(other, run().0);
    }

    #[test]
    fn chaos_loss_rate_is_roughly_honoured() {
        let mut a = Nic::new(Mac::of_nic(0));
        let mut b = Nic::new(Mac::of_nic(1));
        for _ in 0..1000 {
            a.push_tx(frame(0));
        }
        let mut link = Link::with_chaos(
            LinkChaos {
                loss_per_mille: 100,
                ..Default::default()
            },
            7,
        );
        let delivered = link.transfer(&mut a, &mut b);
        assert!((850..=950).contains(&delivered), "{delivered} delivered");
        assert_eq!(delivered as u64, 1000 - link.dropped);
    }

    #[test]
    fn chaos_corruption_flips_exactly_one_byte() {
        let mut a = Nic::new(Mac::of_nic(0));
        let mut b = Nic::new(Mac::of_nic(1));
        for i in 0..50 {
            a.push_tx(frame(i));
        }
        let mut link = Link::with_chaos(
            LinkChaos {
                corrupt_per_mille: 1000, // corrupt every frame
                ..Default::default()
            },
            1,
        );
        link.transfer(&mut a, &mut b);
        assert_eq!(link.corrupted, 50);
        let mut i = 0u8;
        while let Some(f) = b.pop_rx() {
            let flipped = f.iter().filter(|&&x| x != i).count();
            assert_eq!(flipped, 1, "frame {i}");
            i += 1;
        }
    }

    #[test]
    fn reorder_every_swaps_neighbours() {
        let mut a = Nic::new(Mac::of_nic(0));
        let mut b = Nic::new(Mac::of_nic(1));
        for i in 0..4 {
            a.push_tx(frame(i));
        }
        let swap_every = LinkChaos {
            reorder_per_mille: 1000,
            ..Default::default()
        };
        let mut link = Link::with_chaos(swap_every, 3);
        link.transfer(&mut a, &mut b);
        let tags: Vec<u8> = std::iter::from_fn(|| b.pop_rx()).map(|f| f[0]).collect();
        // At 1000‰ every frame swaps with its successor, pair by pair.
        assert_eq!(tags, vec![1, 0, 3, 2]);
        assert_eq!(link.reordered, 2);
    }
}
