//! Topology construction: who updates whom under each scheme.
//!
//! Produces, for every node, its *upstream* (where it polls / where its
//! content comes from) and its *downstream* (whom it pushes to / notifies),
//! plus each node's effective update method.

use crate::config::Scheme;
use crate::method::MethodKind;
use crate::tree::DistributionTree;
use cdnc_geo::{cluster_by_hilbert, GeoPoint};
use cdnc_net::{Network, NodeId};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimRng;

/// The update topology of a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The provider node.
    pub provider: NodeId,
    /// All content-server nodes.
    pub servers: Vec<NodeId>,
    /// `upstream[node.index()]`: where this node polls / receives from
    /// (`None` for the provider).
    pub upstream: Vec<Option<NodeId>>,
    /// `downstream[node.index()]`: nodes this one pushes to / invalidates.
    pub downstream: Vec<Vec<NodeId>>,
    /// `method[node.index()]`: the update method this node runs against its
    /// upstream (`None` for the provider).
    pub method: Vec<Option<MethodKind>>,
    /// Supernodes (non-empty only for hybrid schemes).
    pub supernodes: Vec<NodeId>,
}

impl Topology {
    /// Builds the topology for `scheme` over a network whose node 0 is the
    /// provider and nodes 1..=N are content servers.
    ///
    /// # Panics
    ///
    /// Panics if the network has fewer than 2 nodes, or if a hybrid scheme
    /// requests zero clusters / zero arity.
    pub fn build(scheme: &Scheme, net: &Network, rng: &mut SimRng) -> Self {
        Topology::build_with_tree(scheme, net, rng).0
    }

    /// Like [`Topology::build`], but also returns the distribution tree for
    /// tree-based schemes (the multicast server tree, or the hybrid
    /// supernode tree) so callers can repair it under node failures.
    pub fn build_with_tree(
        scheme: &Scheme,
        net: &Network,
        rng: &mut SimRng,
    ) -> (Self, Option<DistributionTree>) {
        assert!(net.len() >= 2, "need a provider and at least one server");
        let provider = NodeId(0);
        let servers: Vec<NodeId> = (1..net.len() as u32).map(NodeId).collect();
        let n = net.len();
        let mut upstream: Vec<Option<NodeId>> = vec![None; n];
        let mut downstream: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut method: Vec<Option<MethodKind>> = vec![None; n];
        let mut supernodes = Vec::new();

        let mut dist_tree = None;
        match *scheme {
            Scheme::Unicast(m) => {
                for &s in &servers {
                    upstream[s.index()] = Some(provider);
                    method[s.index()] = Some(m);
                }
                downstream[provider.index()] = servers.clone();
            }
            Scheme::Multicast { method: m, arity } => {
                let tree = DistributionTree::build_proximity(provider, &servers, arity, |id| {
                    net.node(id).location()
                });
                for &s in &servers {
                    let p = tree.parent_of(s).expect("member has a parent");
                    upstream[s.index()] = Some(p);
                    method[s.index()] = Some(m);
                    downstream[p.index()].push(s);
                }
                dist_tree = Some(tree);
            }
            Scheme::Hybrid { clusters, tree_arity, member_method } => {
                assert!(clusters > 0, "need at least one cluster");
                let locations: Vec<GeoPoint> =
                    servers.iter().map(|&s| net.node(s).location()).collect();
                let groups = cluster_by_hilbert(&locations, clusters);
                for group in &groups {
                    // Pick the supernode from the cluster's plurality ISP so
                    // the member links it serves stay inside that ISP — the
                    // point of proximity clusters is cheap intra-ISP delivery
                    // (the paper's transit-pricing concern). Ties, and the
                    // choice within the plurality ISP, are broken randomly.
                    let mut counts: Vec<(cdnc_geo::IspId, usize)> = Vec::new();
                    for &m in &group.members {
                        let isp = net.node(servers[m]).isp();
                        match counts.iter_mut().find(|(i, _)| *i == isp) {
                            Some((_, c)) => *c += 1,
                            None => counts.push((isp, 1)),
                        }
                    }
                    let best = counts.iter().map(|&(_, c)| c).max().expect("non-empty cluster");
                    let plurality =
                        counts[counts.iter().position(|&(_, c)| c == best).expect("max exists")].0;
                    let candidates: Vec<usize> = group
                        .members
                        .iter()
                        .copied()
                        .filter(|&m| net.node(servers[m]).isp() == plurality)
                        .collect();
                    let pick = candidates[rng.index(candidates.len())];
                    supernodes.push(servers[pick]);
                }
                let tree =
                    DistributionTree::build_proximity(provider, &supernodes, tree_arity, |id| {
                        net.node(id).location()
                    });
                for &sn in &supernodes {
                    let p = tree.parent_of(sn).expect("supernode has a parent");
                    upstream[sn.index()] = Some(p);
                    method[sn.index()] = Some(MethodKind::Push);
                    downstream[p.index()].push(sn);
                }
                for (group, &sn) in groups.iter().zip(&supernodes) {
                    for &m in &group.members {
                        let node = servers[m];
                        if node == sn {
                            continue;
                        }
                        upstream[node.index()] = Some(sn);
                        method[node.index()] = Some(member_method);
                        downstream[sn.index()].push(node);
                    }
                }
                dist_tree = Some(tree);
            }
        }

        (Topology { provider, servers, upstream, downstream, method, supernodes }, dist_tree)
    }

    /// Moves `child` under `new_parent`, keeping upstream/downstream
    /// consistent. Used when repairing a distribution tree after a failure.
    ///
    /// # Panics
    ///
    /// Panics if `child` is the provider.
    pub fn rewire(&mut self, child: NodeId, new_parent: NodeId) {
        assert!(child != self.provider, "cannot rewire the provider");
        if let Some(old) = self.upstream[child.index()] {
            self.downstream[old.index()].retain(|&c| c != child);
        }
        self.upstream[child.index()] = Some(new_parent);
        self.downstream[new_parent.index()].push(child);
    }

    /// Disconnects `node` from its upstream (a failed node no longer
    /// receives updates). Its own downstream edges are untouched — they are
    /// rewired individually by the repair logic.
    pub fn detach(&mut self, node: NodeId) {
        if let Some(old) = self.upstream[node.index()] {
            self.downstream[old.index()].retain(|&c| c != node);
        }
        self.upstream[node.index()] = None;
    }

    /// The update method `node` runs, if it is a server.
    pub fn method_of(&self, node: NodeId) -> Option<MethodKind> {
        self.method[node.index()]
    }

    /// The node `node` polls / receives content from.
    pub fn upstream_of(&self, node: NodeId) -> Option<NodeId> {
        self.upstream[node.index()]
    }

    /// The nodes `node` is responsible for notifying.
    pub fn downstream_of(&self, node: NodeId) -> &[NodeId] {
        &self.downstream[node.index()]
    }

    /// `true` if `node` is a hybrid supernode.
    pub fn is_supernode(&self, node: NodeId) -> bool {
        self.supernodes.contains(&node)
    }

    /// Walks the mutable wiring (upstream, downstream in live order,
    /// methods, supernodes) as checkpoint state. Provider and server count
    /// are stored for verification only: reading fails if they, the node
    /// count or the supernode count (failover replaces a supernode, never
    /// adds or drops one) disagree with this topology, or if a stored id is
    /// not a node.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let n = self.upstream.len();
        let mut provider = self.provider;
        c.u32("topo_provider", &mut provider.0)?;
        if provider != self.provider {
            return Err(CkptError("checkpoint provider mismatch".to_owned()));
        }
        c.fixed("topo_servers", self.servers.len())?;
        c.fixed("topo_nodes", n)?;
        for up in &mut self.upstream {
            let mut tag = up.map_or(0, |p| u64::from(p.0) + 1);
            c.u64("topo_up", &mut tag)?;
            *up = match tag {
                0 => None,
                t if t <= n as u64 => Some(NodeId((t - 1) as u32)),
                t => return Err(CkptError(format!("topo_up={t} names no node of {n}"))),
            };
        }
        for down in &mut self.downstream {
            c.seq("topo_down", down, |kid, c| c.index("topo_kid", &mut kid.0, n))?;
        }
        for m in &mut self.method {
            let position = |k| MethodKind::ALL.iter().position(|&a| a == k).expect("known method");
            let mut tag = m.map_or(0, |k| 1 + position(k) as u32);
            c.u32("topo_method", &mut tag)?;
            *m = match tag {
                0 => None,
                t => Some(
                    *MethodKind::ALL
                        .get(t as usize - 1)
                        .ok_or_else(|| CkptError(format!("unknown method tag {t}")))?,
                ),
            };
        }
        c.fixed("topo_supernodes", self.supernodes.len())?;
        self.supernodes.iter_mut().try_for_each(|sn| c.index("topo_sn", &mut sn.0, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_geo::WorldBuilder;
    use cdnc_net::NetworkConfig;

    fn network(n: usize, seed: u64) -> Network {
        let world = WorldBuilder::new(n).seed(seed).build();
        let mut net = Network::new(NetworkConfig::default(), seed);
        net.add_node(world.provider_location(), cdnc_geo::IspId(0));
        for w in world.nodes() {
            net.add_node(w.location, w.isp);
        }
        net
    }

    #[test]
    fn unicast_wires_everyone_to_provider() {
        let net = network(50, 1);
        let mut rng = SimRng::seed_from_u64(0);
        let topo = Topology::build(&Scheme::Unicast(MethodKind::Push), &net, &mut rng);
        assert_eq!(topo.servers.len(), 50);
        assert_eq!(topo.downstream_of(NodeId(0)).len(), 50);
        for &s in &topo.servers {
            assert_eq!(topo.upstream_of(s), Some(NodeId(0)));
            assert_eq!(topo.method_of(s), Some(MethodKind::Push));
            assert!(topo.downstream_of(s).is_empty());
        }
        assert!(topo.supernodes.is_empty());
    }

    #[test]
    fn multicast_respects_arity_and_connectivity() {
        let net = network(170, 2);
        let mut rng = SimRng::seed_from_u64(0);
        let topo = Topology::build(
            &Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
            &net,
            &mut rng,
        );
        assert!(topo.downstream_of(NodeId(0)).len() <= 2);
        let mut reached = 0;
        // Follow upstream chains to the provider from every server.
        for &s in &topo.servers {
            let mut cur = s;
            let mut hops = 0;
            while let Some(up) = topo.upstream_of(cur) {
                cur = up;
                hops += 1;
                assert!(hops <= 200, "upstream cycle at {s}");
            }
            assert_eq!(cur, NodeId(0));
            reached += 1;
        }
        assert_eq!(reached, 170);
        for &s in &topo.servers {
            assert!(topo.downstream_of(s).len() <= 2);
        }
    }

    #[test]
    fn hybrid_structure() {
        let net = network(100, 3);
        let mut rng = SimRng::seed_from_u64(7);
        let topo = Topology::build(&Scheme::hat(), &net, &mut rng);
        assert_eq!(topo.supernodes.len(), 20);
        // Supernodes push; members self-adapt.
        let mut members = 0;
        for &s in &topo.servers {
            if topo.is_supernode(s) {
                assert_eq!(topo.method_of(s), Some(MethodKind::Push));
            } else {
                assert_eq!(topo.method_of(s), Some(MethodKind::SelfAdaptive));
                let up = topo.upstream_of(s).unwrap();
                assert!(topo.is_supernode(up), "member's upstream must be a supernode");
                members += 1;
            }
        }
        assert_eq!(members, 80);
        // Provider's direct children are supernodes only, ≤ arity.
        let provider_kids = topo.downstream_of(NodeId(0));
        assert!(provider_kids.len() <= 4);
        assert!(provider_kids.iter().all(|&k| topo.is_supernode(k)));
    }

    #[test]
    fn hybrid_supernode_choice_is_seeded() {
        let net = network(60, 4);
        let mut rng_a = SimRng::seed_from_u64(5);
        let mut rng_b = SimRng::seed_from_u64(5);
        let a = Topology::build(&Scheme::hat(), &net, &mut rng_a);
        let b = Topology::build(&Scheme::hat(), &net, &mut rng_b);
        assert_eq!(a, b);
        let mut rng_c = SimRng::seed_from_u64(6);
        let c = Topology::build(&Scheme::hat(), &net, &mut rng_c);
        assert_ne!(a.supernodes, c.supernodes);
    }

    #[test]
    fn more_clusters_than_servers_collapses() {
        let net = network(8, 5);
        let mut rng = SimRng::seed_from_u64(1);
        let topo = Topology::build(
            &Scheme::Hybrid { clusters: 20, tree_arity: 4, member_method: MethodKind::Ttl },
            &net,
            &mut rng,
        );
        assert_eq!(topo.supernodes.len(), 8, "every server becomes its own cluster");
    }
}
