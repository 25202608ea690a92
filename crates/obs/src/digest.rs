//! Determinism audit trail: a chained 64-bit digest over the simulation's
//! structural event stream.
//!
//! Every fold point (each pop and event dispatch, through
//! [`EventHook`](crate::EventHook), and each network send) mixes the
//! event's *structural identity* — sim-time, event/message kind label, node
//! ids, payload tags — into a running chain. While a simulation runs, its
//! event hook holds the recording segment and folds into it without a lock,
//! from label words computed once; [`Digest::fold`] folds into the shared
//! segment under its lock.
//! Wall-clock readings, pointer values and trace contexts are never folded,
//! so two runs of the same scenario produce bit-identical chains regardless
//! of machine, worker count, or which other observability subsystems are
//! armed.
//!
//! Sharding: each simulation runs inside one registry shard, so each shard
//! records an independent chain ("segment") starting from
//! [`CHAIN_SEED`]. At absorb the parent assigns the shard the next
//! absorb-order segment index and mixes the segment chain into its own
//! run-level chain. Absorb order is task order (see `cdnc-par`), hence the
//! run-level chain is identical for `--jobs 1/2/4/…`.
//!
//! Checkpoints: every `checkpoint_every` folds the segment records
//! `(index, chain)`. The per-segment list is bounded: when it would exceed
//! [`MAX_CHECKPOINTS_PER_SEGMENT`] entries the stride doubles and every
//! other existing checkpoint is dropped — deterministic, because the
//! schedule depends only on the fold count.
//!
//! Divergence support: a [`TrapWindow`] makes every shard record full
//! per-fold entries (label, node, time, digest before/after) for local fold
//! indices in `[lo, hi)`; at absorb the parent keeps only the entries from
//! the shard whose segment index matches the trap. `perturb` flips the
//! folded word at one local fold index in every segment — an
//! observation-layer corruption used by the divergence self-test (simulation
//! state is untouched, so domain results stay bit-identical).

use crate::json::Json;
use parking_lot::Mutex;
use std::sync::Arc;

/// Default checkpoint stride (folds between recorded checkpoints).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 4096;

/// Per-segment checkpoint cap; reaching it doubles the stride.
pub const MAX_CHECKPOINTS_PER_SEGMENT: usize = 1024;

/// Hard cap on recorded trap entries (a trap window wider than this is
/// truncated; the divergence search narrows windows well below it).
pub const MAX_TRAP_ENTRIES: usize = 1 << 20;

/// Seed every segment chain starts from (an arbitrary odd constant; folding
/// zero events leaves the chain at the seed).
pub const CHAIN_SEED: u64 = 0xCD11_C0DE_D16E_5770;

/// XOR mask applied to the folded word at a perturbed index.
const PERTURB_FLIP: u64 = 1;

/// One digest-window trap: record per-fold entries for local fold indices
/// `lo..hi` of the shard absorbed as segment `segment`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapWindow {
    /// Absorb-order segment index the trap targets.
    pub segment: usize,
    /// First local fold index recorded (inclusive, 0-based).
    pub lo: u64,
    /// End of the recorded window (exclusive).
    pub hi: u64,
}

/// Configuration for [`crate::Registry::enable_digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// Folds between checkpoints (initial stride; doubles when a segment
    /// would exceed [`MAX_CHECKPOINTS_PER_SEGMENT`]).
    pub checkpoint_every: u64,
    /// Flip the folded word at this local fold index, in every segment.
    pub perturb: Option<u64>,
    /// Record a per-fold window for the divergence search.
    pub trap: Option<TrapWindow>,
}

impl Default for DigestConfig {
    fn default() -> Self {
        DigestConfig { checkpoint_every: DEFAULT_CHECKPOINT_EVERY, perturb: None, trap: None }
    }
}

/// One periodic digest checkpoint: the chain value after `index` folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Number of folds absorbed into `chain` (1-based: the checkpoint after
    /// fold `index - 1`).
    pub index: u64,
    /// Chain value at that point.
    pub chain: u64,
}

/// One trapped fold: everything `divergence` needs to print the context
/// window around the first diverging event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapEntry {
    /// Local (segment-relative, 0-based) fold index.
    pub index: u64,
    /// Fold-point label (event/message kind).
    pub label: &'static str,
    /// Node the event concerned.
    pub node: u32,
    /// Sim-time of the fold, µs.
    pub t_us: u64,
    /// Chain value before this fold.
    pub before: u64,
    /// Chain value after this fold.
    pub after: u64,
}

/// A completed segment as absorbed into the parent.
#[derive(Debug, Clone)]
pub struct SegmentSnapshot {
    /// Absorb-order index.
    pub index: usize,
    /// Folds recorded in this segment.
    pub events: u64,
    /// Final segment chain.
    pub chain: u64,
    /// Periodic checkpoints, ascending by index.
    pub checkpoints: Vec<Checkpoint>,
}

/// The whole audit trail of one run, as written to `<fig>.digest.json`.
#[derive(Debug, Clone)]
pub struct DigestSnapshot {
    /// Total folds across all segments.
    pub events: u64,
    /// Run-level chain (segment chains mixed in absorb order).
    pub chain: u64,
    /// Per-segment chains and checkpoints, absorb order.
    pub segments: Vec<SegmentSnapshot>,
    /// Entries recorded by the trap window, if one was armed.
    pub trap: Vec<TrapEntry>,
}

/// SplitMix64-style combine: order-sensitive, full-avalanche mixing of one
/// word into the chain.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) ^ (x >> 31)
}

/// FNV-1a over a label's bytes — the word a fold starts from.
#[inline]
pub(crate) fn label_word(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a digest of a string as 16 hex digits: hash the rendering of a
/// configuration, and two runs with the same digest used the same inputs.
pub fn digest_str(s: &str) -> String {
    format!("{:016x}", label_word(s))
}

/// Renders a chain value the way artifacts carry it. Digests are 64-bit and
/// the JSON layer's only number type is `f64`, so chains travel as hex
/// strings.
pub fn chain_hex(chain: u64) -> String {
    format!("0x{chain:016x}")
}

/// Parses a [`chain_hex`] rendering back to the chain value.
pub fn parse_chain_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// The currently-recording local chain of one registry (parent or shard).
#[derive(Debug, Clone)]
struct SegmentState {
    events: u64,
    chain: u64,
    stride: u64,
    checkpoints: Vec<Checkpoint>,
    trap: Vec<TrapEntry>,
}

impl SegmentState {
    fn new(stride: u64) -> Self {
        SegmentState {
            events: 0,
            chain: CHAIN_SEED,
            stride: stride.max(1),
            checkpoints: Vec::new(),
            trap: Vec::new(),
        }
    }

    /// Folds one event whose fold starts from `word` (its label's
    /// [`label_word`]) into the chain: the word mixes in the node, the time
    /// and the tags, `config.perturb` flips it at its index, and the fold
    /// counts toward checkpoints and the trap window.
    #[inline]
    fn fold(
        &mut self,
        config: &DigestConfig,
        mut w: u64,
        label: &'static str,
        node: u32,
        t_us: u64,
        tags: &[u64],
    ) {
        w = mix(w, u64::from(node));
        w = mix(w, t_us);
        for &tag in tags {
            w = mix(w, tag);
        }
        let index = self.events;
        if config.perturb == Some(index) {
            w ^= PERTURB_FLIP;
        }
        let before = self.chain;
        let after = mix(before, w);
        self.chain = after;
        self.events = index + 1;
        if self.events.is_multiple_of(self.stride) {
            self.checkpoints.push(Checkpoint { index: self.events, chain: after });
            if self.checkpoints.len() > MAX_CHECKPOINTS_PER_SEGMENT {
                // Double the stride; keep only checkpoints on the new grid.
                self.stride *= 2;
                let stride = self.stride;
                self.checkpoints.retain(|c| c.index.is_multiple_of(stride));
            }
        }
        if let Some(tw) = config.trap {
            if index >= tw.lo && index < tw.hi && self.trap.len() < MAX_TRAP_ENTRIES {
                self.trap.push(TrapEntry { index, label, node, t_us, before, after });
            }
        }
    }
}

/// Segments absorbed from shards, in absorb order.
#[derive(Debug, Default)]
struct ParentState {
    segments: Vec<SegmentSnapshot>,
    trap: Vec<TrapEntry>,
}

/// The digest subsystem behind [`crate::Registry::enable_digest`].
#[derive(Debug)]
pub struct DigestCore {
    config: DigestConfig,
    local: Mutex<SegmentState>,
    parent: Mutex<ParentState>,
}

impl DigestCore {
    pub(crate) fn new(config: DigestConfig) -> Self {
        DigestCore {
            config,
            local: Mutex::new(SegmentState::new(config.checkpoint_every)),
            parent: Mutex::new(ParentState::default()),
        }
    }

    pub(crate) fn config(&self) -> DigestConfig {
        self.config
    }

    /// Folds one event into the local chain (see [`Digest::fold`]).
    fn fold(&self, label: &'static str, node: u32, t_us: u64, tags: &[u64]) {
        let word = label_word(label);
        self.local.lock().fold(&self.config, word, label, node, t_us, tags);
    }

    /// Checkpoint view of the currently-recording local segment, as
    /// `(events, chain, stride, checkpoints)` — everything a restored run
    /// needs to keep folding where a saved run left off. Trap entries are
    /// not part of the view: divergence traps are re-armed per run.
    pub(crate) fn export_local(&self) -> (u64, u64, u64, Vec<Checkpoint>) {
        let s = self.local.lock();
        (s.events, s.chain, s.stride, s.checkpoints.clone())
    }

    /// Overwrites the local segment with state captured by
    /// [`DigestCore::export_local`], so subsequent folds continue the saved
    /// run's chain exactly.
    pub(crate) fn restore_local(
        &self,
        events: u64,
        chain: u64,
        stride: u64,
        checkpoints: Vec<Checkpoint>,
    ) {
        let mut s = self.local.lock();
        s.events = events;
        s.chain = chain;
        s.stride = stride.max(1);
        s.checkpoints = checkpoints;
        s.trap.clear();
    }

    /// Absorbs a shard's segment: assign it the next absorb-order index,
    /// snapshot its chain + checkpoints, and keep its trap entries when the
    /// trap targets that segment. Shards that folded nothing leave no
    /// segment — the segment numbering tracks simulations, not workers.
    pub(crate) fn absorb(&self, shard: &DigestCore) {
        let s = shard.local.lock();
        if s.events == 0 {
            return;
        }
        let mut p = self.parent.lock();
        let index = p.segments.len();
        p.segments.push(SegmentSnapshot {
            index,
            events: s.events,
            chain: s.chain,
            checkpoints: s.checkpoints.clone(),
        });
        if self.config.trap.is_some_and(|tw| tw.segment == index) {
            p.trap = s.trap.clone();
        }
    }

    /// The run-level audit trail: all absorbed segments, plus this
    /// registry's own local chain as a trailing segment when it folded
    /// anything (figures always fold inside shards, so that is the
    /// exception, not the rule). Non-destructive.
    pub(crate) fn snapshot(&self) -> DigestSnapshot {
        let p = self.parent.lock();
        let s = self.local.lock();
        let mut segments = p.segments.clone();
        let mut trap = p.trap.clone();
        if s.events > 0 {
            let index = segments.len();
            segments.push(SegmentSnapshot {
                index,
                events: s.events,
                chain: s.chain,
                checkpoints: s.checkpoints.clone(),
            });
            if self.config.trap.is_some_and(|tw| tw.segment == index) {
                trap = s.trap.clone();
            }
        }
        let mut chain = CHAIN_SEED;
        let mut events = 0;
        for seg in &segments {
            chain = mix(chain, seg.chain);
            events += seg.events;
        }
        DigestSnapshot { events, chain, segments, trap }
    }
}

impl DigestSnapshot {
    /// Global (run-level) fold index of local fold `local` in segment
    /// `segment`: the sum of earlier segments' fold counts plus `local`.
    pub fn global_index(&self, segment: usize, local: u64) -> u64 {
        self.segments.iter().take(segment).map(|s| s.events).sum::<u64>() + local
    }

    /// The snapshot as the `<fig>.digest.json` document body (identity
    /// fields like figure/scale are the caller's to add).
    pub fn to_json(&self) -> Json {
        let segments: Vec<Json> = self
            .segments
            .iter()
            .map(|seg| {
                let checkpoints: Vec<Json> = seg
                    .checkpoints
                    .iter()
                    .map(|c| Json::obj().field("index", c.index).field("chain", chain_hex(c.chain)))
                    .collect();
                Json::obj()
                    .field("index", seg.index as u64)
                    .field("events", seg.events)
                    .field("chain", chain_hex(seg.chain))
                    .field("checkpoints", Json::Arr(checkpoints))
            })
            .collect();
        Json::obj()
            .field("events", self.events)
            .field("chain", chain_hex(self.chain))
            .field("segments", Json::Arr(segments))
    }

    /// Reads back the body [`DigestSnapshot::to_json`] writes: the run
    /// chain and each segment's fold count, chain and checkpoints. Segment
    /// indexes are their positions, `events` is the segments' sum, and no
    /// trap entries are read. `Err` names the first missing or malformed
    /// field.
    pub fn from_json(doc: &Json) -> Result<DigestSnapshot, &'static str> {
        let hex = |j: &Json, key| j.get(key).and_then(Json::as_str).and_then(parse_chain_hex);
        let num = |j: &Json, key| j.get(key).and_then(Json::as_f64).map(|n| n as u64);
        let chain = hex(doc, "chain").ok_or("chain")?;
        let Some(Json::Arr(raw)) = doc.get("segments") else { return Err("segments") };
        let mut segments = Vec::with_capacity(raw.len());
        for (index, seg) in raw.iter().enumerate() {
            let events = num(seg, "events").ok_or("events")?;
            let chain = hex(seg, "chain").ok_or("segments[].chain")?;
            let checkpoints = match seg.get("checkpoints") {
                Some(Json::Arr(raw)) => raw
                    .iter()
                    .map(|c| Some(Checkpoint { index: num(c, "index")?, chain: hex(c, "chain")? }))
                    .collect::<Option<_>>()
                    .ok_or("checkpoints")?,
                _ => Vec::new(),
            };
            segments.push(SegmentSnapshot { index, events, chain, checkpoints });
        }
        let events = segments.iter().map(|s| s.events).sum();
        Ok(DigestSnapshot { events, chain, segments, trap: Vec::new() })
    }
}

/// The local segment held by its one writer, the event hook (see
/// [`EventHook`](crate::EventHook)): loaded from the core when the hook is
/// minted and when a restored run has overwritten the core's segment, and
/// stored back at the hook's write-back points.
#[derive(Debug)]
pub(crate) struct OwnedSegment {
    core: Arc<DigestCore>,
    config: DigestConfig,
    state: SegmentState,
}

impl OwnedSegment {
    /// Takes over `digest`'s local segment; `None` for an inert handle.
    pub(crate) fn own(digest: Digest) -> Option<Self> {
        let core = digest.0?;
        let state = core.local.lock().clone();
        Some(OwnedSegment { config: core.config, state, core })
    }

    /// Folds one event whose label's [`label_word`] is `word`; the chain
    /// and every checkpoint equal [`Digest::fold`]'s.
    #[inline]
    pub(crate) fn fold(
        &mut self,
        word: u64,
        label: &'static str,
        node: u32,
        t_us: u64,
        tags: &[u64],
    ) {
        self.state.fold(&self.config, word, label, node, t_us, tags);
    }

    /// Reloads the segment from the core.
    pub(crate) fn reload(&mut self) {
        self.state.clone_from(&self.core.local.lock());
    }

    /// Writes the segment back into the core.
    pub(crate) fn store(&self) {
        self.core.local.lock().clone_from(&self.state);
    }
}

/// Cloneable fold handle: inert (one branch per call) unless the registry
/// armed the digest subsystem.
#[derive(Debug, Clone, Default)]
pub struct Digest(Option<Arc<DigestCore>>);

impl Digest {
    pub(crate) fn from_core(core: Option<Arc<DigestCore>>) -> Self {
        Digest(core)
    }

    /// Folds one event's structural identity into the chain. `label` names
    /// the fold point (event/message kind), `node` the node concerned,
    /// `t_us` the sim-time, `tags` the deterministic payload words
    /// (snapshot ids, generations, tokens — never wall-clock readings,
    /// trace contexts, or pointer values). Order-sensitive: the chain
    /// fingerprints the exact fold sequence.
    #[inline]
    pub fn fold(&self, label: &'static str, node: u32, t_us: u64, tags: &[u64]) {
        if let Some(core) = &self.0 {
            core.fold(label, node, t_us, tags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(config: DigestConfig) -> DigestCore {
        DigestCore::new(config)
    }

    #[test]
    fn fold_is_order_sensitive_and_deterministic() {
        let a = core(DigestConfig::default());
        a.fold("publish", 1, 10, &[7]);
        a.fold("arrive", 2, 20, &[8]);
        let b = core(DigestConfig::default());
        b.fold("publish", 1, 10, &[7]);
        b.fold("arrive", 2, 20, &[8]);
        let c = core(DigestConfig::default());
        c.fold("arrive", 2, 20, &[8]);
        c.fold("publish", 1, 10, &[7]);
        assert_eq!(a.snapshot().chain, b.snapshot().chain);
        assert_ne!(a.snapshot().chain, c.snapshot().chain);
    }

    #[test]
    fn every_field_feeds_the_chain() {
        let base = || {
            let c = core(DigestConfig::default());
            c.fold("publish", 1, 10, &[7]);
            c.snapshot().chain
        };
        let b = base();
        let label = core(DigestConfig::default());
        label.fold("arrive", 1, 10, &[7]);
        let node = core(DigestConfig::default());
        node.fold("publish", 2, 10, &[7]);
        let time = core(DigestConfig::default());
        time.fold("publish", 1, 11, &[7]);
        let tag = core(DigestConfig::default());
        tag.fold("publish", 1, 10, &[8]);
        for other in [label, node, time, tag] {
            assert_ne!(other.snapshot().chain, b);
        }
    }

    #[test]
    fn checkpoints_record_on_the_stride() {
        let c = core(DigestConfig { checkpoint_every: 4, ..DigestConfig::default() });
        for i in 0..10 {
            c.fold("ev", 0, i, &[]);
        }
        let snap = c.snapshot();
        let seg = &snap.segments[0];
        assert_eq!(seg.events, 10);
        assert_eq!(seg.checkpoints.iter().map(|c| c.index).collect::<Vec<_>>(), vec![4, 8]);
    }

    #[test]
    fn checkpoint_stride_doubles_at_the_cap() {
        let c = core(DigestConfig { checkpoint_every: 1, ..DigestConfig::default() });
        let n = (MAX_CHECKPOINTS_PER_SEGMENT as u64) * 4;
        for i in 0..n {
            c.fold("ev", 0, i, &[]);
        }
        let snap = c.snapshot();
        let ckpts = &snap.segments[0].checkpoints;
        assert!(ckpts.len() <= MAX_CHECKPOINTS_PER_SEGMENT + 1, "bounded: {}", ckpts.len());
        // Still ascending and still ending at a recent fold.
        assert!(ckpts.windows(2).all(|w| w[0].index < w[1].index));
        assert!(ckpts.last().unwrap().index > n / 2);
    }

    #[test]
    fn perturb_flips_exactly_one_fold() {
        let run = |perturb| {
            let c = core(DigestConfig { checkpoint_every: 2, perturb, ..DigestConfig::default() });
            for i in 0..8 {
                c.fold("ev", 0, i, &[i]);
            }
            c.snapshot()
        };
        let clean = run(None);
        let bad = run(Some(5));
        assert_ne!(clean.chain, bad.chain);
        // Checkpoints before the perturbed index agree; later ones differ.
        let (ca, cb) = (&clean.segments[0].checkpoints, &bad.segments[0].checkpoints);
        assert_eq!(ca[0], cb[0], "checkpoint at index 2 unaffected");
        assert_eq!(ca[1], cb[1], "checkpoint at index 4 unaffected");
        assert_ne!(ca[2], cb[2], "checkpoint at index 6 sees the flip at fold 5");
    }

    #[test]
    fn trap_records_the_window_with_before_after_chains() {
        let c = core(DigestConfig {
            checkpoint_every: 64,
            trap: Some(TrapWindow { segment: 0, lo: 2, hi: 5 }),
            ..DigestConfig::default()
        });
        for i in 0..8 {
            c.fold("ev", 3, i * 10, &[i]);
        }
        let snap = c.snapshot();
        assert_eq!(snap.trap.len(), 3);
        assert_eq!(snap.trap[0].index, 2);
        assert_eq!(snap.trap[2].index, 4);
        // The chain is contiguous through the window.
        assert_eq!(snap.trap[0].after, snap.trap[1].before);
        assert_eq!(snap.trap[1].after, snap.trap[2].before);
        assert_eq!(snap.trap[0].node, 3);
        assert_eq!(snap.trap[1].t_us, 30);
    }

    #[test]
    fn absorb_assigns_segments_in_order_and_mixes_the_run_chain() {
        let parent = core(DigestConfig::default());
        let s1 = core(DigestConfig::default());
        s1.fold("a", 0, 1, &[]);
        let s2 = core(DigestConfig::default());
        s2.fold("b", 0, 2, &[]);
        let empty = core(DigestConfig::default());
        parent.absorb(&s1);
        parent.absorb(&empty); // no folds -> no segment
        parent.absorb(&s2);
        let snap = parent.snapshot();
        assert_eq!(snap.segments.len(), 2);
        assert_eq!(snap.segments[1].index, 1);
        assert_eq!(snap.events, 2);
        // Swapping absorb order changes the run chain.
        let parent2 = core(DigestConfig::default());
        parent2.absorb(&s2);
        parent2.absorb(&s1);
        assert_ne!(parent2.snapshot().chain, snap.chain);
    }

    #[test]
    fn global_index_offsets_by_earlier_segments() {
        let parent = core(DigestConfig::default());
        let s1 = core(DigestConfig::default());
        for i in 0..5 {
            s1.fold("a", 0, i, &[]);
        }
        let s2 = core(DigestConfig::default());
        s2.fold("b", 0, 9, &[]);
        parent.absorb(&s1);
        parent.absorb(&s2);
        let snap = parent.snapshot();
        assert_eq!(snap.global_index(0, 3), 3);
        assert_eq!(snap.global_index(1, 0), 5);
    }

    #[test]
    fn chain_hex_round_trips() {
        assert_eq!(parse_chain_hex(&chain_hex(0)), Some(0));
        assert_eq!(parse_chain_hex(&chain_hex(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_chain_hex(&chain_hex(CHAIN_SEED)), Some(CHAIN_SEED));
        assert_eq!(parse_chain_hex("nope"), None);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let d = Digest::default();
        assert!(d.0.is_none());
        d.fold("ev", 0, 0, &[]); // must not panic
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest_str("abc"), digest_str("abc"));
        assert_ne!(digest_str("abc"), digest_str("abd"));
        assert_eq!(digest_str("").len(), 16);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let c = core(DigestConfig { checkpoint_every: 2, ..DigestConfig::default() });
        for i in 0..5 {
            c.fold("ev", 0, i, &[i]);
        }
        let snap = c.snapshot();
        let back = DigestSnapshot::from_json(&snap.to_json()).expect("reads its own output");
        assert_eq!((back.events, back.chain), (snap.events, snap.chain));
        assert_eq!(back.segments.len(), 1);
        assert_eq!(back.segments[0].events, 5);
        assert_eq!(back.segments[0].checkpoints, snap.segments[0].checkpoints);
        assert_eq!(DigestSnapshot::from_json(&Json::obj()).unwrap_err(), "chain");
    }

    #[test]
    fn snapshot_json_uses_hex_chains() {
        let c = core(DigestConfig { checkpoint_every: 2, ..DigestConfig::default() });
        for i in 0..4 {
            c.fold("ev", 0, i, &[]);
        }
        let j = c.snapshot().to_json();
        let chain = j.get("chain").and_then(Json::as_str).unwrap();
        assert!(chain.starts_with("0x") && chain.len() == 18, "{chain}");
        let Some(Json::Arr(segs)) = j.get("segments") else { panic!("segments array") };
        assert_eq!(segs[0].get("events").and_then(Json::as_f64), Some(4.0));
    }
}
