//! The update methods and Algorithm 1: publishing, downstream
//! notification, poll timers, user visits and on-demand fetches, the
//! content/invalidation/poll handlers, and what users observe.

use super::wire::{Event, Msg};
use super::CdnSimulation;
use crate::method::{AdaptiveMode, MethodKind};
use cdnc_net::NodeId;
use cdnc_obs::{SpanKind, TraceCtx};
use cdnc_simcore::{SimDuration, SimTime};
use cdnc_trace::SnapshotId;

impl CdnSimulation<'_> {
    pub(super) fn on_publish(&mut self, now: SimTime, snap: SnapshotId) {
        let provider = self.topo.provider;
        let ctx = self.obs.tracer.publish(
            snap.0,
            provider.index() as u32,
            now.as_micros(),
            self.config.scheme.label(),
        );
        self.nodes[provider.index()].content = snap;
        self.nodes[provider.index()].content_modified_at = now;
        self.nodes[provider.index()].content_ctx = ctx;
        // The publish is pending at every server and user until adopted or
        // observed.
        for &s in &self.topo.servers {
            self.obs.pending(self.topo.method_of(s)).add(1);
        }
        self.obs.pending_user_updates.add(self.users.len() as u64);
        self.notify_downstream(now, provider, snap, ctx, true);
    }

    /// The current content of `node` as an update message.
    fn content_msg(&self, node: NodeId) -> Msg {
        let state = &self.nodes[node.index()];
        Msg::Update {
            snap: state.content,
            modified_at: state.content_modified_at,
            ctx: state.content_ctx,
        }
    }

    /// Tells `node`'s children about version `snap`: children expecting
    /// invalidations get a notice carrying `ctx` (once per version), and
    /// with `push` (the node adopted `snap` itself) push children get the
    /// content.
    fn notify_downstream(
        &mut self,
        now: SimTime,
        node: NodeId,
        snap: SnapshotId,
        ctx: TraceCtx,
        push: bool,
    ) {
        let last_invalidated = self.nodes[node.index()].last_invalidated;
        let mut invalidated_any = false;
        // Indexed, not iterated: the sends below borrow `self` mutably, and
        // nothing in this loop rewires `topo`.
        for i in 0..self.topo.downstream_of(node).len() {
            let child = self.topo.downstream_of(node)[i];
            let expects = match self.topo.method_of(child) {
                Some(MethodKind::Push) if push => {
                    self.send_reliable(now, node, child, self.content_msg(node));
                    false
                }
                Some(MethodKind::Invalidation) => true,
                Some(MethodKind::SelfAdaptive) => {
                    self.nodes[node.index()].inval_registry.contains(&child)
                }
                _ => false,
            };
            if expects && snap > last_invalidated {
                self.send_reliable(now, node, child, Msg::Invalidate(snap, ctx));
                invalidated_any = true;
            }
        }
        if invalidated_any {
            self.nodes[node.index()].last_invalidated = snap;
        }
    }

    pub(super) fn on_poll_timer(&mut self, now: SimTime, node: NodeId, gen: u64) {
        let method = self.topo.method_of(node);
        let state = &self.nodes[node.index()];
        if gen != state.timer_gen {
            return; // a stale chain
        }
        if method == Some(MethodKind::SelfAdaptive) && state.mode == AdaptiveMode::Invalidation {
            return; // Algorithm 1: no polling in invalidation mode
        }
        let Some(up) = self.topo.upstream_of(node).filter(|_| !state.absent) else {
            // Overloaded/failed, or detached by a failure upstream: skip this
            // poll but keep the chain alive (repair or recovery re-wires us).
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(node, gen));
            return;
        };
        let have = state.content;
        let conditional =
            matches!(method, Some(MethodKind::SelfAdaptive | MethodKind::AdaptiveTtl));
        self.send(now, node, up, Msg::Poll { from: node, have, conditional });
        let next = if method == Some(MethodKind::AdaptiveTtl) {
            SimDuration::from_secs_f64(self.adaptive_interval_s(node))
        } else {
            self.config.server_ttl
        };
        self.sched.schedule_at(now + next, Event::PollTimer(node, gen));
    }

    /// The adaptive-TTL poll interval of `node`: half the predicted update
    /// gap, clamped to `[2 s, 8 × server_ttl]`; the configured TTL until a
    /// first prediction exists.
    fn adaptive_interval_s(&self, node: NodeId) -> f64 {
        let state = &self.nodes[node.index()];
        if state.adaptive_interval_s <= 0.0 {
            self.config.server_ttl.as_secs_f64()
        } else {
            state.adaptive_interval_s
        }
    }

    pub(super) fn on_user_visit(&mut self, now: SimTime, u: u32) {
        let target = if self.config.users_roam {
            // Fig. 24 scenario: every successive visit goes to a different
            // random server.
            let servers = &self.topo.servers;
            let idx = self.rng.index(servers.len());
            if servers[idx] == self.users[u as usize].last_server && servers.len() > 1 {
                servers[(idx + 1) % servers.len()]
            } else {
                servers[idx]
            }
        } else {
            self.users[u as usize].home
        };
        self.users[u as usize].last_server = target;
        let state = &self.nodes[target.index()];
        // Failed servers still answer from cache, slowly (paper §3.4.5:
        // users acquire cached IPs of failed servers and observe
        // inconsistent content); they cannot fetch on demand.
        if !state.absent && self.expects_invalidations(target) && state.is_stale() {
            // Algorithm 1 lines 10–12 / plain invalidation: the visit
            // triggers the fetch; the user's response waits for it.
            self.nodes[target.index()].waiting_users.push(u);
            self.trigger_fetch(now, target);
        } else {
            self.observe(u, target, state.content, now);
        }
        self.sched.schedule_at(now + self.users[u as usize].visit_interval, Event::UserVisit(u));
    }

    /// Starts an on-demand fetch from `node` to its upstream, unless one is
    /// already in flight.
    fn trigger_fetch(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].fetch_pending {
            return;
        }
        let Some(up) = self.topo.upstream_of(node) else { return };
        self.nodes[node.index()].fetch_pending = true;
        let have = self.nodes[node.index()].content;
        self.send(now, node, up, Msg::Poll { from: node, have, conditional: true });
        // Under failure injection the upstream may never answer.
        if let Some(failures) = &self.config.failures {
            self.nodes[node.index()].fetch_token += 1;
            let token = self.nodes[node.index()].fetch_token;
            self.sched.schedule_at(now + failures.fetch_timeout, Event::FetchTimeout(node, token));
        }
    }

    pub(super) fn on_fetch_timeout(&mut self, node: NodeId, token: u64) {
        let state = &mut self.nodes[node.index()];
        if state.fetch_pending && state.fetch_token == token {
            // The upstream died mid-request; give up so the next visit or
            // poll can retry.
            state.fetch_pending = false;
        }
    }

    pub(super) fn on_update(
        &mut self,
        now: SimTime,
        node: NodeId,
        snap: SnapshotId,
        modified_at: SimTime,
        ctx: TraceCtx,
    ) {
        let was_fetching = std::mem::take(&mut self.nodes[node.index()].fetch_pending);
        // Any content response proves the upstream is alive.
        self.nodes[node.index()].awaiting_probe = None;
        if snap > self.nodes[node.index()].content {
            let adopt_ctx = self.obs.tracer.adopt(ctx, node.index() as u32, now.as_micros());
            let method = self.topo.method_of(node);
            let adopt_lag = self.obs.adopt_lag(method);
            let pending = self.obs.pending(method);
            let state = &mut self.nodes[node.index()];
            state.content = snap;
            state.content_modified_at = modified_at;
            state.content_ctx = adopt_ctx;
            if state.known_stale.is_some_and(|s| s <= snap) {
                state.known_stale = None;
                self.obs.stale_replicas.sub(1);
            }
            state.count_lags(self.config, now, |lag_s| {
                adopt_lag.record(lag_s);
                pending.sub(1);
            });
            // Adaptive TTL (Alex protocol): the next poll interval is a
            // fraction of the content's observed age — young content is
            // polled quickly, old content slowly.
            if method == Some(MethodKind::AdaptiveTtl) {
                let max_s = 8.0 * self.config.server_ttl.as_secs_f64();
                let age_s = now.saturating_since(modified_at).as_secs_f64();
                state.adaptive_interval_s = (0.3 * age_s).clamp(2.0, max_s);
            }
            self.notify_downstream(now, node, snap, adopt_ctx, true);
        } else {
            // Superseded or duplicate delivery: terminal, not anomalous.
            self.obs.tracer.skip(ctx, node.index() as u32, now.as_micros());
        }
        self.serve_waiters(now, node);
        // Algorithm 1 line 12–13: the first fetched update after an
        // invalidation switches the node back to TTL.
        if self.topo.method_of(node) == Some(MethodKind::SelfAdaptive)
            && self.nodes[node.index()].mode == AdaptiveMode::Invalidation
            && was_fetching
        {
            self.obs.switch_to_ttl.inc();
            self.obs.control(SpanKind::ModeSwitch, node, now, "to_ttl");
            self.set_mode(node, AdaptiveMode::Ttl);
            self.nodes[node.index()].timer_gen += 1;
            let gen = self.nodes[node.index()].timer_gen;
            if let Some(up) = self.topo.upstream_of(node) {
                self.send(now, node, up, Msg::SwitchMode { from: node, to_invalidation: false });
            }
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(node, gen));
        }
    }

    pub(super) fn on_invalidate(
        &mut self,
        now: SimTime,
        node: NodeId,
        snap: SnapshotId,
        ctx: TraceCtx,
    ) {
        let state = &mut self.nodes[node.index()];
        let fwd_ctx = if snap > state.content {
            // Terminal for this delivery; forwarded notices chain from it.
            let fwd_ctx = self.obs.tracer.stale(ctx, node.index() as u32, now.as_micros());
            if state.known_stale.is_none() {
                self.obs.stale_replicas.add(1);
            }
            state.known_stale = Some(state.known_stale.map_or(snap, |s| s.max(snap)));
            fwd_ctx
        } else {
            self.obs.tracer.skip(ctx, node.index() as u32, now.as_micros());
            ctx
        };
        // Forward immediately to children that expect invalidations.
        self.notify_downstream(now, node, snap, fwd_ctx, false);
    }

    pub(super) fn on_poll(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        have: SnapshotId,
        conditional: bool,
    ) {
        let state = &self.nodes[node.index()];
        if state.content > have {
            self.send(now, node, from, self.content_msg(node));
        } else if state.is_stale() {
            // We know we are stale too: chain the fetch upward and answer
            // the child when our own fetch completes.
            self.nodes[node.index()].waiting_children.push(from);
            self.trigger_fetch(now, node);
        } else if conditional {
            self.send(now, node, from, Msg::Unchanged);
        } else {
            // Unconditional GET: full content goes back even when unchanged —
            // the TTL method's wasted traffic.
            self.send(now, node, from, self.content_msg(node));
        }
    }

    pub(super) fn on_unchanged(&mut self, now: SimTime, node: NodeId) {
        self.nodes[node.index()].fetch_pending = false;
        // An unchanged response proves the upstream is alive.
        self.nodes[node.index()].awaiting_probe = None;
        // Adaptive TTL: nothing new — back off the poll interval.
        if self.topo.method_of(node) == Some(MethodKind::AdaptiveTtl) {
            let max_s = 8.0 * self.config.server_ttl.as_secs_f64();
            let current = self.adaptive_interval_s(node);
            self.nodes[node.index()].adaptive_interval_s = (current * 1.5).min(max_s);
        }
        // Serve waiters with what we have (rare race: our upstream answered
        // "unchanged" while an invalidation was still in flight to it).
        self.serve_waiters(now, node);
        // Algorithm 1 line 7–8: a poll that found no update switches the
        // node to invalidation mode.
        if self.topo.method_of(node) == Some(MethodKind::SelfAdaptive)
            && self.nodes[node.index()].mode == AdaptiveMode::Ttl
        {
            self.obs.switch_to_invalidation.inc();
            self.obs.control(SpanKind::ModeSwitch, node, now, "to_invalidation");
            self.set_mode(node, AdaptiveMode::Invalidation);
            self.nodes[node.index()].timer_gen += 1; // kill the poll chain
            if let Some(up) = self.topo.upstream_of(node) {
                self.send(now, node, up, Msg::SwitchMode { from: node, to_invalidation: true });
            }
            // Under failure injection or a fault plan the switch notice can
            // be lost; keep re-registering until we leave invalidation mode.
            if self.config.failures.is_some() || self.config.faults.is_some() {
                let gen = self.nodes[node.index()].timer_gen;
                self.sched
                    .schedule_at(now + self.config.server_ttl * 5, Event::Heartbeat(node, gen));
            }
        }
    }

    /// A downstream node `from` (un)registers for invalidations: a mode
    /// switch notice, or a tree join declaring its mode.
    pub(super) fn on_register(&mut self, node: NodeId, from: NodeId, to_invalidation: bool) {
        let reg = &mut self.nodes[node.index()].inval_registry;
        if !to_invalidation {
            reg.retain(|&c| c != from);
        } else if !reg.contains(&from) {
            reg.push(from);
        }
    }

    /// Failure-injection safety net: while in invalidation mode, repeat the
    /// registration with the (possibly changed, possibly previously failed)
    /// upstream.
    pub(super) fn on_heartbeat(&mut self, now: SimTime, node: NodeId, gen: u64) {
        let state = &self.nodes[node.index()];
        if gen != state.timer_gen || state.mode != AdaptiveMode::Invalidation {
            return;
        }
        if let Some(up) = self.topo.upstream_of(node).filter(|_| !state.absent) {
            self.send(now, node, up, Msg::SwitchMode { from: node, to_invalidation: true });
        }
        self.sched.schedule_at(now + self.config.server_ttl * 5, Event::Heartbeat(node, gen));
    }

    /// Answers everyone waiting on `node`'s fetch with its current content:
    /// children get an update, users observe it.
    pub(super) fn serve_waiters(&mut self, now: SimTime, node: NodeId) {
        for child in std::mem::take(&mut self.nodes[node.index()].waiting_children) {
            self.send(now, node, child, self.content_msg(node));
        }
        let content = self.nodes[node.index()].content;
        for u in std::mem::take(&mut self.nodes[node.index()].waiting_users) {
            self.observe(u, node, content, now);
        }
    }

    /// Sets `node`'s Algorithm 1 mode, keeping the mode-occupancy gauge in
    /// step.
    pub(super) fn set_mode(&mut self, node: NodeId, mode: AdaptiveMode) {
        let state = &mut self.nodes[node.index()];
        match (state.mode, mode) {
            (AdaptiveMode::Ttl, AdaptiveMode::Invalidation) => self.obs.inval_mode_nodes.add(1),
            (AdaptiveMode::Invalidation, AdaptiveMode::Ttl) => self.obs.inval_mode_nodes.sub(1),
            _ => {}
        }
        state.mode = mode;
    }

    /// `true` if `node` currently needs invalidation notices from its
    /// upstream (plain invalidation, or a self-adaptive node in
    /// invalidation mode).
    pub(super) fn expects_invalidations(&self, node: NodeId) -> bool {
        match self.topo.method_of(node) {
            Some(MethodKind::Invalidation) => true,
            Some(MethodKind::SelfAdaptive) => {
                self.nodes[node.index()].mode == AdaptiveMode::Invalidation
            }
            _ => false,
        }
    }

    /// User `u` observes snapshot `snap` at `server` (see
    /// [`UserState::observe`](super::state::UserState::observe)).
    pub(super) fn observe(&mut self, u: u32, server: NodeId, snap: SnapshotId, now: SimTime) {
        // The view descends causally from the served content's provenance
        // (inert when that content predates tracing or tracing is off).
        self.obs.tracer.user_view(
            self.nodes[server.index()].content_ctx,
            u,
            server.index() as u32,
            now.as_micros(),
        );
        let resolved = self.users[u as usize].observe(self.config, snap, now);
        self.obs.pending_user_updates.sub(resolved);
    }
}
