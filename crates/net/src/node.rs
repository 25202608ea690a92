//! Network nodes.

use cdnc_geo::{GeoPoint, IspId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside a [`crate::Network`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as a usize, for slice access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node's static network attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetNode {
    id: NodeId,
    location: GeoPoint,
    isp: IspId,
}

impl NetNode {
    /// Creates a node record.
    pub fn new(id: NodeId, location: GeoPoint, isp: IspId) -> Self {
        NetNode { id, location, isp }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's geographic position.
    pub fn location(&self) -> GeoPoint {
        self.location
    }

    /// The node's serving ISP.
    pub fn isp(&self) -> IspId {
        self.isp
    }

    /// Great-circle distance to another node, km.
    pub fn distance_km(&self, other: &NetNode) -> f64 {
        self.location.distance_km(&other.location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = GeoPoint::new(10.0, 20.0).unwrap();
        let n = NetNode::new(NodeId(3), p, IspId(7));
        assert_eq!(n.id(), NodeId(3));
        assert_eq!(n.id().index(), 3);
        assert_eq!(n.location(), p);
        assert_eq!(n.isp(), IspId(7));
        assert_eq!(n.id().to_string(), "n3");
    }

    #[test]
    fn distance_between_nodes() {
        let a = NetNode::new(NodeId(0), GeoPoint::new(0.0, 0.0).unwrap(), IspId(0));
        let b = NetNode::new(NodeId(1), GeoPoint::new(0.0, 1.0).unwrap(), IspId(0));
        let d = a.distance_km(&b);
        assert!((d - 111.19).abs() < 1.0, "1° of longitude at equator ≈ 111 km, got {d}");
    }
}
