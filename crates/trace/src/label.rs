//! The closed set of names a [`crate::SpanEvent`] can carry.

/// What a record is labelled with: a gate mechanism, a subsystem's
/// operation, or the app a request belongs to. One byte in the record;
/// [`Label::as_str`] is the name every report and export prints. The
/// set is closed, so a record cannot carry a name outside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Label {
    // The gate mechanisms, one per backend.
    FunctionCall,
    MpkShared,
    MpkSwitched,
    VmRpc,
    Cheri,
    // A doorbell: delivered, or dropped or duplicated by the chaos layer.
    Doorbell,
    DoorbellDrop,
    DoorbellDup,
    // The `--stats` event tail's other kinds (a fault raised or injected).
    CtxSwitch,
    Fault,
    Injected,
    AllocFail,
    PacketDrop,
    // Message-queue hops and net-stack work.
    MqSend,
    MqRecv,
    MqSendBatch,
    MqRecvBatch,
    NetRx,
    NetTx,
    // The phases of a live migration.
    DrainStart,
    DrainEnd,
    Swap,
    FirstCrossing,
    // The apps whose requests open a span.
    Redis,
    Iperf,
    Serve,
    // The serving tier's shards, by index (`Label::SHARDS`).
    Shard0,
    Shard1,
    Shard2,
    Shard3,
    Shard4,
    Shard5,
    Shard6,
    Shard7,
}

impl Label {
    /// The serving shards' labels, by shard index.
    pub const SHARDS: [Label; 8] = [
        Label::Shard0,
        Label::Shard1,
        Label::Shard2,
        Label::Shard3,
        Label::Shard4,
        Label::Shard5,
        Label::Shard6,
        Label::Shard7,
    ];

    /// The label's name, as records print it.
    pub const fn as_str(self) -> &'static str {
        match self {
            Label::FunctionCall => "function call",
            Label::MpkShared => "MPK (shared stack)",
            Label::MpkSwitched => "MPK (switched stack)",
            Label::VmRpc => "VM RPC (EPT)",
            Label::Cheri => "CHERI (sealed caps)",
            Label::Doorbell => "doorbell",
            Label::DoorbellDrop => "doorbell-drop",
            Label::DoorbellDup => "doorbell-dup",
            Label::CtxSwitch => "ctx-switch",
            Label::Fault => "fault",
            Label::Injected => "injected",
            Label::AllocFail => "alloc-fail",
            Label::PacketDrop => "packet-drop",
            Label::MqSend => "mq-send",
            Label::MqRecv => "mq-recv",
            Label::MqSendBatch => "mq-send-batch",
            Label::MqRecvBatch => "mq-recv-batch",
            Label::NetRx => "net-rx",
            Label::NetTx => "net-tx",
            Label::DrainStart => "drain-start",
            Label::DrainEnd => "drain-end",
            Label::Swap => "swap",
            Label::FirstCrossing => "first-crossing",
            Label::Redis => "redis",
            Label::Iperf => "iperf",
            Label::Serve => "serve",
            Label::Shard0 => "shard0",
            Label::Shard1 => "shard1",
            Label::Shard2 => "shard2",
            Label::Shard3 => "shard3",
            Label::Shard4 => "shard4",
            Label::Shard5 => "shard5",
            Label::Shard6 => "shard6",
            Label::Shard7 => "shard7",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every label by discriminant, with the string its records carried
    /// when the record held the name itself: each must still print it.
    const RECORDED_AS: [(Label, &str); 34] = [
        (Label::FunctionCall, "function call"),
        (Label::MpkShared, "MPK (shared stack)"),
        (Label::MpkSwitched, "MPK (switched stack)"),
        (Label::VmRpc, "VM RPC (EPT)"),
        (Label::Cheri, "CHERI (sealed caps)"),
        (Label::Doorbell, "doorbell"),
        (Label::DoorbellDrop, "doorbell-drop"),
        (Label::DoorbellDup, "doorbell-dup"),
        (Label::CtxSwitch, "ctx-switch"),
        (Label::Fault, "fault"),
        (Label::Injected, "injected"),
        (Label::AllocFail, "alloc-fail"),
        (Label::PacketDrop, "packet-drop"),
        (Label::MqSend, "mq-send"),
        (Label::MqRecv, "mq-recv"),
        (Label::MqSendBatch, "mq-send-batch"),
        (Label::MqRecvBatch, "mq-recv-batch"),
        (Label::NetRx, "net-rx"),
        (Label::NetTx, "net-tx"),
        (Label::DrainStart, "drain-start"),
        (Label::DrainEnd, "drain-end"),
        (Label::Swap, "swap"),
        (Label::FirstCrossing, "first-crossing"),
        (Label::Redis, "redis"),
        (Label::Iperf, "iperf"),
        (Label::Serve, "serve"),
        (Label::Shard0, "shard0"),
        (Label::Shard1, "shard1"),
        (Label::Shard2, "shard2"),
        (Label::Shard3, "shard3"),
        (Label::Shard4, "shard4"),
        (Label::Shard5, "shard5"),
        (Label::Shard6, "shard6"),
        (Label::Shard7, "shard7"),
    ];

    #[test]
    fn every_label_prints_the_string_its_records_carried() {
        // The table covers every discriminant, in order: a label added
        // without a row here fails the length check.
        assert_eq!(RECORDED_AS.len(), Label::Shard7 as usize + 1);
        for (i, (label, old)) in RECORDED_AS.into_iter().enumerate() {
            assert_eq!(label as usize, i, "{label:?} out of order");
            assert_eq!(label.as_str(), old, "{label:?}");
        }
        let mut names: Vec<&str> = RECORDED_AS.iter().map(|(l, _)| l.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RECORDED_AS.len(), "two labels print alike");
        for (k, shard) in Label::SHARDS.into_iter().enumerate() {
            assert_eq!(shard.as_str(), format!("shard{k}"));
        }
        assert_eq!(std::mem::size_of::<Label>(), 1);
    }
}
