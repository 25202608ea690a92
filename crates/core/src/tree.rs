//! Proximity-aware d-ary distribution trees.
//!
//! Paper §4 builds a binary multicast tree of "geographically close nodes
//! (measured by inter-ping latency)"; §5.2 builds a 4-ary supernode tree
//! where "newly-joined supernodes or supernodes having lost parents choose
//! the nearest supernode that has fewer than k children as its parent".
//! [`DistributionTree::build_proximity`] implements exactly that greedy
//! join rule; [`DistributionTree::remove_and_reattach`] implements the
//! failure-repair rule and reports the maintenance traffic it would cost.

use cdnc_geo::point::EARTH_RADIUS_KM;
use cdnc_geo::GeoPoint;
use cdnc_net::NodeId;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// A map hashed with fixed keys, so its bucket layout — and the allocations
/// a removal's tombstone can cost a later insert — repeat from run to run.
type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// A rooted d-ary tree over a subset of network nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributionTree {
    root: NodeId,
    arity: usize,
    parent: FixedMap<NodeId, NodeId>,
    children: FixedMap<NodeId, Vec<NodeId>>,
}

impl DistributionTree {
    /// Builds a proximity-aware tree: members join in ascending distance
    /// from the root, each attaching to the nearest already-joined node
    /// (including the root) that still has fewer than `arity` children.
    ///
    /// `location` must yield the position of the root and every member.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0` or `members` contains the root or duplicates.
    pub fn build_proximity<F>(root: NodeId, members: &[NodeId], arity: usize, location: F) -> Self
    where
        F: Fn(NodeId) -> GeoPoint,
    {
        assert!(arity > 0, "tree arity must be positive");
        let mut tree = DistributionTree {
            root,
            arity,
            parent: FixedMap::default(),
            children: FixedMap::default(),
        };
        let root_loc = location(root);
        // Closest-to-root first: near nodes occupy high layers, matching the
        // proximity-aware intent.
        let mut order: Vec<(f64, NodeId, GeoPoint)> = members
            .iter()
            .map(|&m| {
                let loc = location(m);
                (loc.distance_km(&root_loc), m, loc)
            })
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distance").then(a.1.cmp(&b.1)));
        // Position 0 is the root, position i + 1 the i-th member to join.
        let points = std::iter::once((root, root_loc)).chain(order.iter().map(|&(_, m, l)| (m, l)));
        let mut open = NearestOpen::new(points);
        open.set_open(0, true);
        for (i, &(_, node, loc)) in order.iter().enumerate() {
            assert!(node != root, "root cannot be a member");
            assert!(!tree.parent.contains_key(&node), "duplicate member {node}");
            let at = open.nearest(&loc, &location).expect("some joined node has capacity");
            let parent = open.node(at);
            tree.link(node, parent);
            if tree.children_of(parent).len() == arity {
                open.set_open(at, false);
            }
            open.set_open(i + 1, true);
        }
        tree
    }

    /// Attaches `node` to the nearest in-tree node with spare capacity,
    /// never choosing one from `excluded` (used during repair so an orphan
    /// cannot attach inside its own subtree, which would create a cycle).
    /// Returns the parent.
    fn attach_nearest<F>(
        &mut self,
        node: NodeId,
        location: &F,
        excluded: &HashSet<NodeId>,
    ) -> NodeId
    where
        F: Fn(NodeId) -> GeoPoint,
    {
        let mut candidates: Vec<NodeId> = std::iter::once(self.root)
            .chain(self.parent.keys().copied())
            .filter(|&c| {
                c != node && !excluded.contains(&c) && self.children_of(c).len() < self.arity
            })
            .collect();
        candidates.sort_unstable();
        let mut open = NearestOpen::new(candidates.iter().map(|&c| (c, location(c))));
        for at in 0..candidates.len() {
            open.set_open(at, true);
        }
        let at = open
            .nearest(&location(node), location)
            .expect("the root always has finite capacity or a descendant does");
        let parent = candidates[at];
        self.link(node, parent);
        parent
    }

    /// Makes `node` the last child of `parent`.
    fn link(&mut self, node: NodeId, parent: NodeId) {
        self.parent.insert(node, parent);
        self.children.entry(parent).or_default().push(node);
    }

    /// The tree's root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The configured maximum children per node.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of member nodes (root excluded).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the tree has no members besides the root.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `node`, or `None` for the root / non-members.
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        self.parent.get(&node).copied()
    }

    /// The children of `node` (empty for leaves and non-members).
    pub fn children_of(&self, node: NodeId) -> &[NodeId] {
        self.children.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` if `node` is the root or a member.
    pub fn contains(&self, node: NodeId) -> bool {
        node == self.root || self.parent.contains_key(&node)
    }

    /// Depth of `node` (root = 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the tree.
    pub fn depth(&self, node: NodeId) -> usize {
        assert!(self.contains(node), "{node} not in tree");
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent_of(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum depth over all members (0 for an empty tree).
    pub fn max_depth(&self) -> usize {
        self.parent.keys().map(|&n| self.depth(n)).max().unwrap_or(0)
    }

    /// All members in breadth-first order from the root (root excluded).
    pub fn bfs_members(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut frontier = std::collections::VecDeque::from([self.root]);
        while let Some(n) = frontier.pop_front() {
            let mut kids = self.children_of(n).to_vec();
            kids.sort_unstable();
            for k in &kids {
                out.push(*k);
            }
            frontier.extend(kids);
        }
        out
    }

    /// Removes a failed member and re-attaches each orphaned child to the
    /// nearest remaining node with spare capacity (paper §5.2's repair rule).
    /// Returns the `(orphan, new_parent)` re-attachments performed — each
    /// corresponds to one structure-maintenance message.
    ///
    /// # Panics
    ///
    /// Panics if `failed` is the root or not a member.
    pub fn remove_and_reattach<F>(&mut self, failed: NodeId, location: F) -> Vec<(NodeId, NodeId)>
    where
        F: Fn(NodeId) -> GeoPoint,
    {
        assert!(failed != self.root, "cannot remove the root");
        let old_parent =
            self.parent.remove(&failed).unwrap_or_else(|| panic!("{failed} not in tree"));
        if let Some(siblings) = self.children.get_mut(&old_parent) {
            siblings.retain(|&c| c != failed);
        }
        let orphans = self.children.remove(&failed).unwrap_or_default();
        let mut moves = Vec::with_capacity(orphans.len());
        for orphan in orphans {
            // Detach before re-attach so capacity checks see current truth,
            // and forbid the orphan's own subtree as a parent (cycle!).
            self.parent.remove(&orphan);
            let subtree: HashSet<NodeId> = self.subtree_of(orphan).into_iter().collect();
            let new_parent = self.attach_nearest(orphan, &location, &subtree);
            moves.push((orphan, new_parent));
        }
        moves
    }

    /// Joins a new member to the tree (the §5.2 "newly-joined" rule): the
    /// node attaches to the nearest in-tree node with spare capacity.
    /// Returns its parent.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already in the tree.
    pub fn join<F>(&mut self, node: NodeId, location: F) -> NodeId
    where
        F: Fn(NodeId) -> GeoPoint,
    {
        assert!(!self.contains(node), "{node} already in tree");
        self.attach_nearest(node, &location, &HashSet::new())
    }

    /// Replaces member `old` with `new` *in place*: `new` takes `old`'s
    /// parent slot and adopts `old`'s children. This is the supernode
    /// failover move — a promoted cluster member steps into the failed
    /// supernode's tree position without any re-attachment churn. Returns
    /// `new`'s parent.
    ///
    /// # Panics
    ///
    /// Panics if `old` is the root or not a member, or if `new` is already
    /// in the tree.
    pub fn substitute(&mut self, old: NodeId, new: NodeId) -> NodeId {
        assert!(old != self.root, "cannot substitute the root");
        assert!(!self.contains(new), "{new} already in tree");
        let parent = self.parent.remove(&old).unwrap_or_else(|| panic!("{old} not in tree"));
        self.parent.insert(new, parent);
        if let Some(siblings) = self.children.get_mut(&parent) {
            for c in siblings.iter_mut() {
                if *c == old {
                    *c = new;
                }
            }
        }
        let kids = self.children.remove(&old).unwrap_or_default();
        for &k in &kids {
            self.parent.insert(k, new);
        }
        if !kids.is_empty() {
            self.children.insert(new, kids);
        }
        parent
    }

    /// Walks the tree structure as checkpoint state; `nodes` bounds every
    /// stored node id. The child lists are walked sorted by parent, each in
    /// its live order, which repair and substitution iterate, so a restored
    /// tree replays them identically; the parent map is their inverse and
    /// is rebuilt from them on read.
    ///
    /// Reading replaces the membership wholesale, and fails if the stored
    /// root or arity disagrees with this tree — those are construction
    /// parameters, not dynamic state — if a node is listed as a child twice
    /// (or the root as a child), or if a branch hangs outside the root's
    /// tree.
    pub fn persist(&mut self, c: &mut Ckpt, nodes: usize) -> Result<(), CkptError> {
        let (mut root, mut arity) = (self.root, self.arity as u64);
        c.u32("tree_root", &mut root.0)?;
        c.u64("tree_arity", &mut arity)?;
        if root != self.root || arity != self.arity as u64 {
            return Err(CkptError(format!(
                "tree is root {} arity {}, checkpoint carries root {root} arity {arity}",
                self.root, self.arity
            )));
        }
        let mut branches: Vec<(NodeId, Vec<NodeId>)> = self
            .children
            .iter()
            .filter(|(_, kids)| !kids.is_empty())
            .map(|(&p, kids)| (p, kids.clone()))
            .collect();
        branches.sort_unstable();
        c.seq("tree_branches", &mut branches, |(parent, kids), c| {
            c.index("tree_branch", &mut parent.0, nodes)?;
            c.seq("tree_kids", kids, |kid, c| c.index("tree_kid", &mut kid.0, nodes))
        })?;
        if c.is_reading() {
            self.parent = FixedMap::default();
            for (parent, kids) in &branches {
                for &kid in kids {
                    if kid == self.root || self.parent.insert(kid, *parent).is_some() {
                        return Err(CkptError(format!("tree_kid={} is listed twice", kid.0)));
                    }
                }
            }
            self.children = branches.into_iter().collect();
            let outside = self.len() - self.subtree_of(self.root).len();
            if outside > 0 {
                return Err(CkptError(format!(
                    "tree_branch lists hang {outside} nodes outside the root's tree"
                )));
            }
        }
        Ok(())
    }

    /// All nodes in the subtree rooted at `node` (excluding `node` itself).
    fn subtree_of(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = self.children_of(node).to_vec();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend_from_slice(self.children_of(n));
        }
        out
    }
}

/// The nodes a joining node may attach to, for "nearest node with spare
/// capacity" queries: a k-d tree over the unit vectors of a fixed node set,
/// in which nodes open and close as they gain and lose spare capacity.
///
/// The index only prunes. It skips a subtree only when the chord from the
/// target to the subtree's bounding box exceeds the chord of the best exact
/// distance so far, widened by more than rounding can explain (see
/// [`reach2`]). Every open node it does not skip is compared exactly as a
/// scan would compare it: by `location(candidate).distance_km(target)`, then
/// by node id. So a query returns what a scan over all open nodes returns.
struct NearestOpen {
    /// Points in k-d order: the subtree over slots `lo..hi` is rooted at
    /// slot `lo + (hi - lo) / 2`.
    points: Vec<KdPoint>,
    /// The slot of the point given at each position.
    slot_of: Vec<usize>,
}

struct KdPoint {
    node: NodeId,
    /// Position in the order the points were given.
    at: usize,
    xyz: [f64; 3],
    /// Bounding box of the subtree rooted here.
    min: [f64; 3],
    max: [f64; 3],
    /// Open points in the subtree rooted here, this one included.
    open_below: u32,
    open: bool,
}

impl NearestOpen {
    /// Indexes `points`, all closed; later calls name a point by its
    /// position in this sequence.
    fn new(points: impl Iterator<Item = (NodeId, GeoPoint)>) -> Self {
        let mut points: Vec<KdPoint> = points
            .enumerate()
            .map(|(at, (node, loc))| {
                let xyz = unit_vector(&loc);
                KdPoint { node, at, xyz, min: xyz, max: xyz, open_below: 0, open: false }
            })
            .collect();
        Self::split(&mut points);
        let mut slot_of = vec![0; points.len()];
        for (slot, p) in points.iter().enumerate() {
            slot_of[p.at] = slot;
        }
        NearestOpen { points, slot_of }
    }

    /// Arranges `points` as a subtree split at the median of its widest axis.
    fn split(points: &mut [KdPoint]) {
        let Some(first) = points.first() else { return };
        let (mut min, mut max) = (first.xyz, first.xyz);
        for p in points.iter() {
            for a in 0..3 {
                min[a] = min[a].min(p.xyz[a]);
                max[a] = max[a].max(p.xyz[a]);
            }
        }
        let axis = (0..3).max_by(|&a, &b| (max[a] - min[a]).total_cmp(&(max[b] - min[b])));
        let axis = axis.expect("three axes");
        let mid = points.len() / 2;
        points.select_nth_unstable_by(mid, |p, q| p.xyz[axis].total_cmp(&q.xyz[axis]));
        points[mid].min = min;
        points[mid].max = max;
        let (below, rest) = points.split_at_mut(mid);
        Self::split(below);
        Self::split(&mut rest[1..]);
    }

    /// The node given at position `at`.
    fn node(&self, at: usize) -> NodeId {
        self.points[self.slot_of[at]].node
    }

    /// Opens or closes the point given at position `at`.
    fn set_open(&mut self, at: usize, open: bool) {
        let slot = self.slot_of[at];
        if self.points[slot].open == open {
            return;
        }
        self.points[slot].open = open;
        let (mut lo, mut hi) = (0, self.points.len());
        loop {
            let mid = lo + (hi - lo) / 2;
            let below = &mut self.points[mid].open_below;
            *below = if open { *below + 1 } else { *below - 1 };
            match slot.cmp(&mid) {
                std::cmp::Ordering::Less => hi = mid,
                std::cmp::Ordering::Greater => lo = mid + 1,
                std::cmp::Ordering::Equal => break,
            }
        }
    }

    /// The position of the open point nearest `target` (ties to the lower
    /// node id), or `None` when no point is open.
    fn nearest<F>(&self, target: &GeoPoint, location: &F) -> Option<usize>
    where
        F: Fn(NodeId) -> GeoPoint,
    {
        let xyz = unit_vector(target);
        let mut best = Best { target, location, found: None, reach2: f64::INFINITY };
        if self.gap2(0, self.points.len(), &xyz).is_finite() {
            self.search(0, self.points.len(), &xyz, &mut best);
        }
        best.found.map(|(_, _, at)| at)
    }

    /// Offers every open point of the subtree over `lo..hi` that pruning
    /// keeps, nearer child subtree first.
    fn search<F>(&self, lo: usize, hi: usize, xyz: &[f64; 3], best: &mut Best<'_, F>)
    where
        F: Fn(NodeId) -> GeoPoint,
    {
        let mid = lo + (hi - lo) / 2;
        let p = &self.points[mid];
        if p.open {
            best.offer(p.node, p.at);
        }
        let mut kids = [(lo, mid), (mid + 1, hi)].map(|(l, h)| (self.gap2(l, h, xyz), l, h));
        if kids[1].0 < kids[0].0 {
            kids.swap(0, 1);
        }
        for (gap2, l, h) in kids {
            if gap2.is_finite() && gap2 <= best.reach2 {
                self.search(l, h, xyz, best);
            }
        }
    }

    /// The squared chord from `xyz` to the bounding box of the subtree over
    /// `lo..hi`: a lower bound for every point in it. Infinite when the
    /// subtree holds no open point.
    fn gap2(&self, lo: usize, hi: usize, xyz: &[f64; 3]) -> f64 {
        if lo >= hi {
            return f64::INFINITY;
        }
        let p = &self.points[lo + (hi - lo) / 2];
        if p.open_below == 0 {
            return f64::INFINITY;
        }
        (0..3)
            .map(|a| {
                let d = (p.min[a] - xyz[a]).max(xyz[a] - p.max[a]).max(0.0);
                d * d
            })
            .sum()
    }
}

/// The best candidate of a [`NearestOpen::nearest`] query so far.
struct Best<'a, F> {
    target: &'a GeoPoint,
    location: &'a F,
    /// `(distance_km, node, position)` of the best candidate.
    found: Option<(f64, NodeId, usize)>,
    /// Squared chord beyond which no point can beat or tie `found`.
    reach2: f64,
}

impl<F: Fn(NodeId) -> GeoPoint> Best<'_, F> {
    fn offer(&mut self, node: NodeId, at: usize) {
        let d = (self.location)(node).distance_km(self.target);
        let better = self.found.is_none_or(|(best, best_node, _)| {
            d.partial_cmp(&best).expect("finite distance").then(node.cmp(&best_node)).is_lt()
        });
        if better {
            self.found = Some((d, node, at));
            self.reach2 = reach2(d);
        }
    }
}

/// The squared chord (on the unit sphere) that bounds every point whose
/// computed distance from the target can be at most `km`. It widens `km` by
/// 1e-9 relative plus 1e-9 km, and the half chord by 1e-12, which covers
/// the rounding of both the haversine and the unit vectors; the second
/// margin matters near the antipode, where the haversine's arcsine is
/// ill-conditioned. Infinite when the widened distance spans half the globe.
fn reach2(km: f64) -> f64 {
    let half_angle = (km * (1.0 + 1e-9) + 1e-9) / (2.0 * EARTH_RADIUS_KM);
    if half_angle >= std::f64::consts::FRAC_PI_2 {
        return f64::INFINITY;
    }
    let chord = 2.0 * (half_angle.sin() + 1e-12);
    chord * chord
}

/// The point's position on the unit sphere.
fn unit_vector(p: &GeoPoint) -> [f64; 3] {
    let (lat, lon) = (p.lat_deg().to_radians(), p.lon_deg().to_radians());
    [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_geo::WorldBuilder;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// The reference builder, join and repair: each attachment scans every
    /// in-tree node with spare capacity.
    impl DistributionTree {
        fn scan_build<F>(root: NodeId, members: &[NodeId], arity: usize, location: F) -> Self
        where
            F: Fn(NodeId) -> GeoPoint,
        {
            let mut tree = DistributionTree {
                root,
                arity,
                parent: FixedMap::default(),
                children: FixedMap::default(),
            };
            let root_loc = location(root);
            let mut order: Vec<NodeId> = members.to_vec();
            order.sort_by(|&a, &b| {
                let da = location(a).distance_km(&root_loc);
                let db = location(b).distance_km(&root_loc);
                da.partial_cmp(&db).expect("finite distance").then(a.cmp(&b))
            });
            for node in order {
                tree.attach_excluding(node, &location, &[]);
            }
            tree
        }

        fn attach_excluding<F>(&mut self, node: NodeId, location: &F, excluded: &[NodeId])
        where
            F: Fn(NodeId) -> GeoPoint,
        {
            let loc = location(node);
            let candidates = std::iter::once(self.root).chain(self.parent.keys().copied());
            let parent = candidates
                .filter(|&c| {
                    c != node && !excluded.contains(&c) && self.children_of(c).len() < self.arity
                })
                .min_by(|&a, &b| {
                    let da = location(a).distance_km(&loc);
                    let db = location(b).distance_km(&loc);
                    da.partial_cmp(&db).expect("finite distance").then(a.cmp(&b))
                })
                .expect("the root always has finite capacity or a descendant does");
            self.parent.insert(node, parent);
            self.children.entry(parent).or_default().push(node);
        }

        fn scan_join<F: Fn(NodeId) -> GeoPoint>(&mut self, node: NodeId, location: F) -> NodeId {
            self.attach_excluding(node, &location, &[]);
            self.parent_of(node).expect("just attached")
        }

        fn scan_remove_and_reattach<F>(
            &mut self,
            failed: NodeId,
            location: F,
        ) -> Vec<(NodeId, NodeId)>
        where
            F: Fn(NodeId) -> GeoPoint,
        {
            let old_parent = self.parent.remove(&failed).expect("a member");
            if let Some(siblings) = self.children.get_mut(&old_parent) {
                siblings.retain(|&c| c != failed);
            }
            let orphans = self.children.remove(&failed).unwrap_or_default();
            let mut moves = Vec::with_capacity(orphans.len());
            for orphan in orphans {
                self.parent.remove(&orphan);
                let subtree = self.subtree_of(orphan);
                self.attach_excluding(orphan, &location, &subtree);
                moves.push((orphan, self.parent_of(orphan).expect("just attached")));
            }
            moves
        }
    }

    /// The provider (node 0) and then each server of a generated world.
    fn world_locations(n: usize, seed: u64) -> Vec<GeoPoint> {
        let world = WorldBuilder::new(n).seed(seed).build();
        let mut locations: Vec<GeoPoint> = vec![world.provider_location()];
        locations.extend(world.nodes().iter().map(|w| w.location));
        locations
    }

    /// A tree over a generated world; node 0 is the root (provider).
    fn world_tree(n: usize, arity: usize, seed: u64) -> (DistributionTree, Vec<GeoPoint>) {
        let locations = world_locations(n, seed);
        let members: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
        let locs = locations.clone();
        let tree = DistributionTree::build_proximity(NodeId(0), &members, arity, move |id| {
            locs[id.index()]
        });
        (tree, locations)
    }

    #[test]
    fn every_member_has_a_parent_path_to_root() {
        let (tree, _) = world_tree(100, 2, 1);
        assert_eq!(tree.len(), 100);
        for i in 1..=100u32 {
            let d = tree.depth(NodeId(i));
            assert!(d >= 1);
            assert!(d <= 100);
        }
    }

    #[test]
    fn arity_respected() {
        for arity in [2usize, 4, 8] {
            let (tree, _) = world_tree(150, arity, 2);
            assert!(tree.children_of(NodeId(0)).len() <= arity);
            for i in 1..=150u32 {
                assert!(
                    tree.children_of(NodeId(i)).len() <= arity,
                    "node {i} exceeds arity {arity}"
                );
            }
        }
    }

    #[test]
    fn depth_shrinks_with_arity() {
        let (binary, _) = world_tree(170, 2, 3);
        let (quad, _) = world_tree(170, 4, 3);
        assert!(
            quad.max_depth() <= binary.max_depth(),
            "4-ary depth {} vs binary {}",
            quad.max_depth(),
            binary.max_depth()
        );
        // A 170-node binary tree needs depth ≥ 7 (2^7 − 1 = 127 < 170).
        assert!(binary.max_depth() >= 7);
    }

    #[test]
    fn bfs_covers_all_members_once() {
        let (tree, _) = world_tree(60, 3, 4);
        let mut bfs = tree.bfs_members();
        assert_eq!(bfs.len(), 60);
        bfs.sort_unstable();
        bfs.dedup();
        assert_eq!(bfs.len(), 60);
    }

    #[test]
    fn proximity_matters() {
        // A member's parent should usually be closer than a random node:
        // compare mean parent distance against mean all-pairs distance.
        let (tree, locations) = world_tree(120, 2, 5);
        let mut parent_sum = 0.0;
        for i in 1..=120u32 {
            let p = tree.parent_of(NodeId(i)).unwrap();
            parent_sum += locations[i as usize].distance_km(&locations[p.index()]);
        }
        let parent_mean = parent_sum / 120.0;
        let mut all_sum = 0.0;
        let mut pairs = 0u64;
        for i in 1..=120usize {
            for j in (i + 1)..=120 {
                all_sum += locations[i].distance_km(&locations[j]);
                pairs += 1;
            }
        }
        let all_mean = all_sum / pairs as f64;
        assert!(
            parent_mean < all_mean * 0.5,
            "proximity tree should link nearby nodes: parent mean {parent_mean} vs all {all_mean}"
        );
    }

    #[test]
    fn removal_reattaches_orphans() {
        let (mut tree, locations) = world_tree(80, 2, 6);
        // Find an internal node with children.
        let internal = (1..=80u32)
            .map(NodeId)
            .find(|&n| !tree.children_of(n).is_empty())
            .expect("some internal node exists");
        let orphans: Vec<NodeId> = tree.children_of(internal).to_vec();
        let locs = locations.clone();
        let moves = tree.remove_and_reattach(internal, move |id| locs[id.index()]);
        assert_eq!(moves.len(), orphans.len());
        assert!(!tree.contains(internal));
        assert_eq!(tree.len(), 79);
        for &(orphan, new_parent) in &moves {
            assert_eq!(tree.parent_of(orphan), Some(new_parent));
            assert!(new_parent != internal);
            // Still a valid path to root.
            let _ = tree.depth(orphan);
        }
        // Arity still respected everywhere.
        for i in (0..=80u32).filter(|&i| NodeId(i) != internal) {
            assert!(tree.children_of(NodeId(i)).len() <= 2);
        }
    }

    #[test]
    fn leaf_removal_costs_nothing() {
        let (mut tree, locations) = world_tree(40, 2, 7);
        let leaf = (1..=40u32)
            .map(NodeId)
            .find(|&n| tree.children_of(n).is_empty())
            .expect("some leaf exists");
        let moves = tree.remove_and_reattach(leaf, move |id| locations[id.index()]);
        assert!(moves.is_empty());
        assert_eq!(tree.len(), 39);
    }

    #[test]
    fn repeated_removals_never_create_cycles() {
        // Regression: an orphan re-attaching inside its own subtree would
        // create a cycle and make depth() diverge.
        let (mut tree, locations) = world_tree(60, 2, 9);
        let locs = locations.clone();
        for victim in (1..=40u32).map(NodeId) {
            if !tree.contains(victim) {
                continue;
            }
            tree.remove_and_reattach(victim, |id| locs[id.index()]);
            // depth() terminates for every remaining member — no cycles.
            for i in (1..=60u32).map(NodeId).filter(|&n| tree.contains(n)) {
                assert!(tree.depth(i) <= 60);
            }
        }
    }

    #[test]
    fn substitute_preserves_structure() {
        let (mut tree, _) = world_tree(80, 2, 11);
        let internal = (1..=80u32)
            .map(NodeId)
            .find(|&n| !tree.children_of(n).is_empty())
            .expect("some internal node exists");
        let old_parent = tree.parent_of(internal).unwrap();
        let old_children: Vec<NodeId> = tree.children_of(internal).to_vec();
        let old_depth = tree.depth(internal);
        let promoted = NodeId(999);
        let parent = tree.substitute(internal, promoted);
        assert_eq!(parent, old_parent);
        assert!(!tree.contains(internal));
        assert!(tree.contains(promoted));
        assert_eq!(tree.parent_of(promoted), Some(old_parent));
        assert_eq!(tree.children_of(promoted), &old_children[..]);
        assert_eq!(tree.depth(promoted), old_depth);
        for &k in &old_children {
            assert_eq!(tree.parent_of(k), Some(promoted));
            let _ = tree.depth(k); // still rooted, no cycles
        }
        assert!(tree.children_of(old_parent).contains(&promoted));
        assert!(!tree.children_of(old_parent).contains(&internal));
        assert_eq!(tree.len(), 80, "substitution is size-preserving");
    }

    #[test]
    #[should_panic(expected = "already in tree")]
    fn substitute_rejects_existing_member() {
        let (mut tree, _) = world_tree(10, 2, 12);
        tree.substitute(NodeId(1), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "cannot substitute the root")]
    fn substitute_rejects_root() {
        let (mut tree, _) = world_tree(10, 2, 13);
        tree.substitute(NodeId(0), NodeId(99));
    }

    #[test]
    #[should_panic(expected = "cannot remove the root")]
    fn root_removal_rejected() {
        let (mut tree, locations) = world_tree(5, 2, 8);
        tree.remove_and_reattach(NodeId(0), move |id| locations[id.index()]);
    }

    #[test]
    fn checkpoint_round_trip_preserves_repaired_structure() {
        // Checkpoint after a repair, so the saved structure differs from
        // anything the builder would produce.
        let (mut tree, locations) = world_tree(60, 2, 14);
        let internal = (1..=60u32)
            .map(NodeId)
            .find(|&n| !tree.children_of(n).is_empty())
            .expect("some internal node exists");
        let locs = locations.clone();
        tree.remove_and_reattach(internal, move |id| locs[id.index()]);
        let text = Ckpt::write("test", |c| tree.persist(c, 61));
        let (mut restored, _) = world_tree(60, 2, 14);
        Ckpt::read(&text, "test", |c| restored.persist(c, 61)).unwrap();
        assert_eq!(restored, tree, "restored tree is structurally identical");
        // Wrong construction parameters are rejected.
        let (mut quad, _) = world_tree(60, 4, 14);
        let read = Ckpt::read(&text, "test", |c| quad.persist(c, 61));
        assert!(read.is_err(), "arity mismatch rejected");
    }

    #[test]
    fn empty_tree() {
        let tree = DistributionTree::build_proximity(NodeId(0), &[], 2, |_| {
            GeoPoint::new(0.0, 0.0).unwrap()
        });
        assert!(tree.is_empty());
        assert_eq!(tree.max_depth(), 0);
        assert!(tree.contains(NodeId(0)));
        assert!(!tree.contains(NodeId(1)));
    }

    proptest! {
        /// The greedy builder always yields a connected tree with respected
        /// arity, whatever the geometry.
        #[test]
        fn prop_tree_invariants(
            coords in proptest::collection::vec((-80.0f64..80.0, -170.0f64..170.0), 1..60),
            arity in 1usize..5,
        ) {
            let locations: Vec<GeoPoint> = std::iter::once(GeoPoint::new(0.0, 0.0).unwrap())
                .chain(coords.iter().map(|&(la, lo)| GeoPoint::new(la, lo).unwrap()))
                .collect();
            let members: Vec<NodeId> = (1..locations.len() as u32).map(NodeId).collect();
            let locs = locations.clone();
            let tree = DistributionTree::build_proximity(
                NodeId(0), &members, arity, move |id| locs[id.index()],
            );
            prop_assert_eq!(tree.len(), members.len());
            for &m in &members {
                prop_assert!(tree.depth(m) >= 1); // reachable from root
                prop_assert!(tree.children_of(m).len() <= arity);
            }
            prop_assert!(tree.children_of(NodeId(0)).len() <= arity);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The indexed tree equals the scan's, parent for parent and child
        /// list for child list, after the build and after every repair,
        /// join and substitution. Points sit on a 0.25° grid around one to
        /// three centres anywhere on the globe, so equal distances,
        /// coincident nodes and near-antipodal pairs all occur.
        #[test]
        fn prop_index_matches_the_scan(
            centres in proptest::collection::vec((0u32..721, 0u32..1440), 1..4),
            offsets in proptest::collection::vec((0usize..3, 0u32..13, 0u32..13), 2..70),
            arity in 1usize..9,
            ops in proptest::collection::vec((0u8..3, 0usize..1000), 0..25),
        ) {
            let locations: Vec<GeoPoint> = offsets
                .iter()
                .map(|&(c, dlat, dlon)| {
                    let (lat, lon) = centres[c % centres.len()];
                    let lat = (f64::from(lat + dlat) * 0.25 - 91.5).clamp(-90.0, 90.0);
                    let lon = f64::from(lon + dlon) * 0.25 - 181.5;
                    let lon = match lon {
                        l if l < -180.0 => l + 360.0,
                        l if l > 180.0 => l - 360.0,
                        l => l,
                    };
                    GeoPoint::new(lat, lon).unwrap()
                })
                .collect();
            let location = |id: NodeId| locations[id.index()];
            let pool = locations.len() as u32;
            let members: Vec<NodeId> = (1..pool - pool / 3).map(NodeId).collect();
            let mut tree = DistributionTree::build_proximity(NodeId(0), &members, arity, location);
            let mut oracle = DistributionTree::scan_build(NodeId(0), &members, arity, location);
            prop_assert_eq!(&tree, &oracle);
            for (op, pick) in ops {
                let mut inside: Vec<NodeId> = tree.parent.keys().copied().collect();
                inside.sort_unstable();
                let outside: Vec<NodeId> =
                    (1..pool).map(NodeId).filter(|&n| !tree.contains(n)).collect();
                match op {
                    0 if !inside.is_empty() => {
                        let victim = inside[pick % inside.len()];
                        prop_assert_eq!(
                            tree.remove_and_reattach(victim, location),
                            oracle.scan_remove_and_reattach(victim, location)
                        );
                    }
                    1 if !outside.is_empty() => {
                        let node = outside[pick % outside.len()];
                        prop_assert_eq!(tree.join(node, location), oracle.scan_join(node, location));
                    }
                    2 if !inside.is_empty() && !outside.is_empty() => {
                        let (old, new) = (inside[pick % inside.len()], outside[pick % outside.len()]);
                        prop_assert_eq!(tree.substitute(old, new), oracle.substitute(old, new));
                    }
                    _ => continue,
                }
                prop_assert_eq!(&tree, &oracle);
            }
        }
    }

    /// Both builders over a generated world of `servers`.
    fn assert_index_matches_scan(servers: usize, arity: usize) {
        let locations = world_locations(servers, 42);
        let members: Vec<NodeId> = (1..=servers as u32).map(NodeId).collect();
        let location = |id: NodeId| locations[id.index()];
        let tree = DistributionTree::build_proximity(NodeId(0), &members, arity, location);
        let oracle = DistributionTree::scan_build(NodeId(0), &members, arity, location);
        assert!(tree == oracle, "{servers} servers, arity {arity}: trees differ");
    }

    #[test]
    fn index_matches_the_scan_at_1020_servers() {
        assert_index_matches_scan(1020, 2);
        assert_index_matches_scan(1020, 4);
    }

    #[test]
    fn index_matches_the_scan_at_4080_servers_arity_2() {
        assert_index_matches_scan(4080, 2);
    }

    #[test]
    fn index_matches_the_scan_at_4080_servers_arity_4() {
        assert_index_matches_scan(4080, 4);
    }

    #[test]
    fn build_compares_few_candidates_per_member() {
        // The scan compared 3,233 locations per member at this size; an
        // index that stopped pruning would show here, without a clock.
        let n = 4096;
        let locations = world_locations(n, 44);
        let members: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
        let calls = Cell::new(0usize);
        let tree = DistributionTree::build_proximity(NodeId(0), &members, 2, |id| {
            calls.set(calls.get() + 1);
            locations[id.index()]
        });
        assert_eq!(tree.len(), n);
        let per_member = calls.get() as f64 / n as f64;
        assert!(per_member < 100.0, "{per_member:.1} location calls per member");
    }
}
