//! Packets and message classification.
//!
//! The paper's §5.3 accounting splits traffic into **update messages**
//! (carrying content — "the size of an update message is usually much larger
//! than the size of other messages") and **light messages** (update polls,
//! invalidation notices, structure maintenance). [`PacketKind`] encodes both
//! the protocol role and that classification.

use crate::node::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Protocol role of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// Content update pushed or returned to a replica (carries the content).
    Update,
    /// A replica's poll asking whether newer content exists.
    Poll,
    /// Poll response indicating the content is unchanged (no payload).
    PollUnchanged,
    /// Invalidation notice marking cached content stale.
    Invalidation,
    /// Control message notifying a method switch (self-adaptive method,
    /// paper Algorithm 1 lines 8/12).
    MethodSwitch,
    /// Multicast-tree structure maintenance (join, re-parent).
    TreeMaintenance,
    /// End-user content request to a server.
    UserRequest,
    /// Server's content response to an end-user.
    UserResponse,
    /// Delivery acknowledgement for a tracked (reliable) message.
    Ack,
    /// Origin fetch filling an edge cache miss (carries the object bytes;
    /// request plane, cdnc-workload).
    OriginFetch,
}

/// Number of packet kinds (length of [`PacketKind::ALL`]).
pub const PACKET_KINDS: usize = 10;

impl PacketKind {
    /// Every kind, in declaration order (`PacketKind as usize` indexes it).
    pub const ALL: [PacketKind; PACKET_KINDS] = [
        PacketKind::Update,
        PacketKind::Poll,
        PacketKind::PollUnchanged,
        PacketKind::Invalidation,
        PacketKind::MethodSwitch,
        PacketKind::TreeMaintenance,
        PacketKind::UserRequest,
        PacketKind::UserResponse,
        PacketKind::Ack,
        PacketKind::OriginFetch,
    ];

    /// [`PacketKind::name`] with `-` folded to `_`: the stable metric-name
    /// suffix for per-kind instruments (its sent counter's name past the
    /// `sim_msgs_` prefix).
    pub fn metric_suffix(self) -> &'static str {
        &PACKET_NAMES[self as usize].1["sim_msgs_".len()..]
    }

    /// `true` for messages that carry content (the paper's "update
    /// messages"); `false` for light messages.
    pub fn is_update(self) -> bool {
        matches!(self, PacketKind::Update | PacketKind::UserResponse | PacketKind::OriginFetch)
    }

    /// `true` for control-plane messages (the paper's "light messages").
    pub fn is_light(self) -> bool {
        !self.is_update()
    }

    /// The stable wire name (the first column of [`PACKET_NAMES`]),
    /// `'static` so the tracer can label hop spans without allocating
    /// (every name is in `cdnc_obs::trace::LABELS`).
    pub fn name(self) -> &'static str {
        PACKET_NAMES[self as usize].0
    }
}

/// Each kind's names, indexed by `PacketKind as usize`: its wire name, then
/// the `sim_msgs_`, `sim_inflight_` and `net_bytes_` instruments of its
/// [`PacketKind::metric_suffix`] — the packet table of the simulation's
/// [`EventHook`](cdnc_obs::EventHook).
#[rustfmt::skip]
pub const PACKET_NAMES: [cdnc_obs::PacketNames; PACKET_KINDS] = [
    ("update", "sim_msgs_update", "sim_inflight_update", "net_bytes_update"),
    ("poll", "sim_msgs_poll", "sim_inflight_poll", "net_bytes_poll"),
    ("poll-unchanged", "sim_msgs_poll_unchanged", "sim_inflight_poll_unchanged", "net_bytes_poll_unchanged"),
    ("invalidation", "sim_msgs_invalidation", "sim_inflight_invalidation", "net_bytes_invalidation"),
    ("method-switch", "sim_msgs_method_switch", "sim_inflight_method_switch", "net_bytes_method_switch"),
    ("tree-maintenance", "sim_msgs_tree_maintenance", "sim_inflight_tree_maintenance", "net_bytes_tree_maintenance"),
    ("user-request", "sim_msgs_user_request", "sim_inflight_user_request", "net_bytes_user_request"),
    ("user-response", "sim_msgs_user_response", "sim_inflight_user_response", "net_bytes_user_response"),
    ("ack", "sim_msgs_ack", "sim_inflight_ack", "net_bytes_ack"),
    ("origin-fetch", "sim_msgs_origin_fetch", "sim_inflight_origin_fetch", "net_bytes_origin_fetch"),
];

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Default size of light (control) messages, KB. The paper sets "the size of
/// all consistency maintenance related packages and content request packages"
/// to 1 KB in §4.
pub const LIGHT_PACKET_KB: f64 = 1.0;

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Protocol role.
    pub kind: PacketKind,
    /// Payload size in KB.
    pub size_kb: f64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

impl Packet {
    /// Creates a packet.
    ///
    /// # Panics
    ///
    /// Panics if `size_kb` is negative or non-finite.
    pub fn new(kind: PacketKind, size_kb: f64, src: NodeId, dst: NodeId) -> Self {
        assert!(size_kb.is_finite() && size_kb >= 0.0, "bad packet size: {size_kb}");
        Packet { kind, size_kb, src, dst }
    }

    /// An update packet of `size_kb` from `src` to `dst`.
    pub fn update(src: NodeId, dst: NodeId, size_kb: f64) -> Self {
        Packet::new(PacketKind::Update, size_kb, src, dst)
    }

    /// A 1 KB poll from `src` to `dst`.
    pub fn poll(src: NodeId, dst: NodeId) -> Self {
        Packet::new(PacketKind::Poll, LIGHT_PACKET_KB, src, dst)
    }

    /// A 1 KB "unchanged" poll response.
    pub fn poll_unchanged(src: NodeId, dst: NodeId) -> Self {
        Packet::new(PacketKind::PollUnchanged, LIGHT_PACKET_KB, src, dst)
    }

    /// A 1 KB invalidation notice.
    pub fn invalidation(src: NodeId, dst: NodeId) -> Self {
        Packet::new(PacketKind::Invalidation, LIGHT_PACKET_KB, src, dst)
    }

    /// A 1 KB delivery acknowledgement.
    pub fn ack(src: NodeId, dst: NodeId) -> Self {
        Packet::new(PacketKind::Ack, LIGHT_PACKET_KB, src, dst)
    }

    /// An origin fetch of `size_kb` object bytes from origin `src` to edge
    /// `dst`.
    pub fn origin_fetch(src: NodeId, dst: NodeId, size_kb: f64) -> Self {
        Packet::new(PacketKind::OriginFetch, size_kb, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper() {
        assert!(PacketKind::Update.is_update());
        assert!(PacketKind::UserResponse.is_update());
        assert!(PacketKind::OriginFetch.is_update(), "origin fills carry content");
        for light in [
            PacketKind::Poll,
            PacketKind::PollUnchanged,
            PacketKind::Invalidation,
            PacketKind::MethodSwitch,
            PacketKind::TreeMaintenance,
            PacketKind::UserRequest,
            PacketKind::Ack,
        ] {
            assert!(light.is_light(), "{light} should be light");
            assert!(!light.is_update());
        }
    }

    #[test]
    fn constructors_set_sizes() {
        let a = NodeId(1);
        let b = NodeId(2);
        assert_eq!(Packet::poll(a, b).size_kb, LIGHT_PACKET_KB);
        assert_eq!(Packet::invalidation(a, b).size_kb, LIGHT_PACKET_KB);
        assert_eq!(Packet::update(a, b, 500.0).size_kb, 500.0);
        assert_eq!(Packet::update(a, b, 500.0).kind, PacketKind::Update);
    }

    #[test]
    fn packet_names_follow_each_kinds_wire_name_and_suffix() {
        for kind in PacketKind::ALL {
            let suffix = kind.metric_suffix();
            let row = PACKET_NAMES[kind as usize];
            assert_eq!(row.0.replace('-', "_"), suffix, "the suffix folds `-` to `_`");
            assert_eq!(row.1, format!("sim_msgs_{suffix}"));
            assert_eq!(row.2, format!("sim_inflight_{suffix}"));
            assert_eq!(row.3, format!("net_bytes_{suffix}"));
        }
        assert_eq!(PacketKind::PollUnchanged.name(), "poll-unchanged");
        assert_eq!(PacketKind::PollUnchanged.metric_suffix(), "poll_unchanged");
    }

    #[test]
    #[should_panic(expected = "bad packet size")]
    fn negative_size_rejected() {
        Packet::new(PacketKind::Update, -1.0, NodeId(0), NodeId(1));
    }
}
