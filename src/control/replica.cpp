#include "control/replica.hpp"

#include <algorithm>

#include "chunnels/shard.hpp"
#include "core/wire.hpp"
#include "util/log.hpp"

namespace bertha {

Result<std::unique_ptr<DiscoveryReplica>> DiscoveryReplica::start(
    TransportPtr rpc_transport, TransportPtr member,
    DiscoveryReplicaOptions opts) {
  if (!rpc_transport || !member)
    return err(Errc::invalid_argument, "replica needs rpc + member transports");
  if (opts.replica_id.empty())
    return err(Errc::invalid_argument, "replica needs an id");
  if (!opts.sequencer.valid() && opts.sequencers.empty())
    return err(Errc::invalid_argument, "replica needs a sequencer address");
  if (!opts.sequencer.valid()) opts.sequencer = opts.sequencers.front();
  if (opts.catch_up && opts.peers.empty())
    return err(Errc::invalid_argument, "catch-up boot needs peers");

  std::shared_ptr<Transport> member_shared(std::move(member));
  auto rep = std::unique_ptr<DiscoveryReplica>(
      new DiscoveryReplica(std::move(member_shared), std::move(opts)));

  rep->rpc_addr_ = rpc_transport->local_addr();
  rep->boot_rpc_ = std::move(rpc_transport);
  if (!rep->opts_.catch_up) {
    // Fresh partition: serve immediately over the (empty) local state. A
    // catch-up boot defers this until a peer snapshot has installed, so
    // clients never observe a stale-empty replica (see member_loop()).
    std::lock_guard<std::mutex> lk(rep->server_mu_);
    rep->create_server_locked();
    rep->ready_.store(true, std::memory_order_release);
  }
  DiscoveryReplica* raw = rep.get();
  rep->member_thread_ = std::thread([raw] { raw->member_loop(); });
  if (rep->opts_.sweep_period > Duration::zero())
    rep->sweep_thread_ = std::thread([raw] { raw->sweep_loop(); });
  return rep;
}

DiscoveryReplica::DiscoveryReplica(std::shared_ptr<Transport> member,
                                   DiscoveryReplicaOptions opts)
    : member_(std::move(member)),
      member_addr_(member_->local_addr()),
      opts_(std::move(opts)),
      state_(std::make_shared<DiscoveryState>()) {
  // Replicated state: no local-clock sweeps, partition-namespaced ids.
  state_->set_manual_sweep(true);
  state_->set_alloc_namespace(opts_.partition_index);
  if (opts_.stats) state_->set_fault_stats(opts_.stats);
}

DiscoveryReplica::~DiscoveryReplica() { stop(); }

void DiscoveryReplica::stop() {
  if (stopping_.exchange(true)) return;
  // Wake proposals first so server threads blocked in propose() bail out
  // with unavailable instead of riding out apply_timeout.
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    for (auto& [id, w] : pending_) {
      std::lock_guard<std::mutex> wlk(w->mu);
      w->cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lk(server_mu_);
    server_.reset();  // closes the rpc transport, joins serve/push threads
    if (boot_rpc_) boot_rpc_->close();  // server never got created
  }
  sweep_cv_.notify_all();
  if (sweep_thread_.joinable()) sweep_thread_.join();
  member_->close();
  if (member_thread_.joinable()) member_thread_.join();
  {
    std::lock_guard<std::mutex> lk(fwd_mu_);
    if (fwd_) fwd_->close();
  }
}

size_t DiscoveryReplica::reshard_ranges() const {
  std::lock_guard<std::mutex> lk(reshard_mu_);
  return reshard_.size();
}

bool DiscoveryReplica::wait_ready(Duration timeout) {
  Deadline dl = Deadline::after(timeout);
  while (!ready_.load(std::memory_order_acquire)) {
    if (dl.expired() || stopping_.load()) return false;
    sleep_for(ms(2));
  }
  return true;
}

void DiscoveryReplica::create_server_locked() {
  if (!boot_rpc_) return;
  DiscoveryServer::Options sopts = opts_.server;
  if (!sopts.tracer) sopts.tracer = opts_.tracer;
  // The server routes every mutation here; `this` outlives the server
  // (stop() tears the server down first).
  sopts.mutation_executor = [this](const DiscRequest& req) {
    return propose(req);
  };
  sopts.request_interceptor = [this](const DiscRequest& req) {
    return intercept(req);
  };
  server_ =
      std::make_unique<DiscoveryServer>(std::move(boot_rpc_), state_, sopts);
  if (boot_log_) {
    server_->install_event_log(*boot_log_, boot_log_seq_);
    boot_log_.reset();
  }
}

Addr DiscoveryReplica::sequencer_for(uint32_t view) const {
  if (opts_.sequencers.empty()) return opts_.sequencer;
  return opts_.sequencers[view % opts_.sequencers.size()];
}

DiscResponse DiscoveryReplica::propose(const DiscRequest& req) {
  if (stopping_.load())
    return error_response(err(Errc::unavailable, "replica stopping"));
  CtrlOp op;
  op.kind = CtrlOpKind::disc;
  op.origin = opts_.replica_id;
  op.submit_id = next_submit_.fetch_add(1) + 1;
  op.time_ns = now().time_since_epoch().count();
  op.req = encode_request(req);

  auto waiter = std::make_shared<PendingApply>();
  // Kept around so a view change can re-propose the op to the newly
  // elected sequencer (written before the pending_mu_ insert publishes
  // the waiter to the member thread).
  waiter->ctrl_op = encode_ctrl_op(op);
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_[op.submit_id] = waiter;
  }
  auto sent =
      member_->send_to(sequencer_for(cur_view_.load(std::memory_order_acquire)),
                       mcast_frame(member_addr_, waiter->ctrl_op));
  bool done = false;
  DiscResponse rsp;
  if (sent.ok()) {
    std::unique_lock<std::mutex> lk(waiter->mu);
    waiter->cv.wait_for(lk, opts_.apply_timeout,
                        [&] { return waiter->done || stopping_.load(); });
    done = waiter->done;
    if (done) {
      auto decoded = decode_response(waiter->response);
      rsp = decoded.ok()
                ? std::move(decoded).value()
                : error_response(err(Errc::internal, "bad replicated response"));
    }
  }
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_.erase(op.submit_id);
  }
  if (!done)
    // Transient: the server does not dedup-cache this, so the client's
    // retry (same idem key) re-proposes and the apply-side cache absorbs
    // any duplicate execution.
    return error_response(
        err(Errc::unavailable, "replication timed out (op not sequenced)"));
  return rsp;
}

void DiscoveryReplica::member_loop() {
  if (opts_.catch_up) {
    // Joining/restarting: install a peer snapshot before serving anyone.
    while (!stopping_.load()) {
      if (do_catchup("boot")) break;
      if (stopping_.load()) return;
      sleep_for(ms(10));
    }
  }
  {
    std::lock_guard<std::mutex> lk(server_mu_);
    if (stopping_.load()) return;
    if (!server_) create_server_locked();
  }
  ready_.store(true, std::memory_order_release);
  last_seen_ = now();
  for (;;) {
    check_timers();
    auto pkt_r = member_->recv(next_deadline());
    if (!pkt_r.ok()) {
      if (pkt_r.error().code != Errc::timed_out) return;  // closed
      continue;
    }
    dispatch(pkt_r.value().payload);
  }
}

bool DiscoveryReplica::detection_enabled() {
  if (opts_.view_silence_timeout <= Duration::zero()) return false;
  if (opts_.sequencers.size() < 2) return false;
  // Silence only means failure when traffic was expected: replicated
  // sweeps are the keepalive; otherwise in-flight proposals are.
  if (opts_.sweep_period > Duration::zero()) return true;
  std::lock_guard<std::mutex> lk(pending_mu_);
  return !pending_.empty();
}

Deadline DiscoveryReplica::next_deadline() {
  std::optional<TimePoint> tp;
  auto consider = [&](TimePoint t) {
    if (!tp || t < *tp) tp = t;
  };
  if (window_.has_gap() && fetch_sent_)
    consider(gap_since_ + opts_.gap_timeout);
  if (vc_.view > cur_view_.load(std::memory_order_acquire)) {
    consider(vc_.started + opts_.view_ack_timeout);
    consider(vc_.started + opts_.view_silence_timeout +
             2 * opts_.view_ack_timeout);
  } else if (detection_enabled()) {
    consider(last_seen_ + opts_.view_silence_timeout);
  }
  return tp ? Deadline::at(*tp) : Deadline::never();
}

void DiscoveryReplica::check_timers() {
  // Gap recovery ladder: sequencer retransmit → peer catch-up → bounded
  // skip (last resort, counted so the chaos harness can assert zero).
  if (window_.has_gap()) {
    if (!fetch_sent_) {
      (void)member_->send_to(
          sequencer_for(cur_view_.load(std::memory_order_acquire)),
          mcast_fetch_frame(member_addr_, window_.next_seq(),
                            window_.gap_end()));
      fetches_.fetch_add(1, std::memory_order_relaxed);
      fetch_sent_ = true;
      gap_since_ = now();
    } else if (now() - gap_since_ >= opts_.gap_timeout) {
      if (!gap_catchup_tried_ && !opts_.peers.empty()) {
        gap_catchup_tried_ = true;
        if (do_catchup("gap")) return;  // window replaced, gap gone
        gap_since_ = now();  // one more fetch window before skipping
      } else {
        auto released = window_.skip_to(window_.gap_end());
        gaps_skipped_.fetch_add(1, std::memory_order_relaxed);
        BLOG(debug, "control") << opts_.replica_id << " skipped seq gap";
        for (auto& [seq, frame] : released) apply(seq, frame);
        fetch_sent_ = false;
        gap_catchup_tried_ = false;
      }
    }
  } else {
    fetch_sent_ = false;
    gap_catchup_tried_ = false;
  }

  uint32_t cur = cur_view_.load(std::memory_order_acquire);
  if (vc_.view > cur) {
    maybe_send_view_start();
    // The round itself went stale (elected candidate dead too, or no
    // quorum): escalate to the next view.
    if (vc_.view > cur_view_.load(std::memory_order_acquire) &&
        now() - vc_.started >
            opts_.view_silence_timeout + 2 * opts_.view_ack_timeout)
      initiate_view_change(vc_.view + 1);
  } else if (detection_enabled() &&
             now() - last_seen_ >= opts_.view_silence_timeout) {
    initiate_view_change(cur + 1);
  }
}

void DiscoveryReplica::dispatch(BytesView payload) {
  if (auto op_r = parse_sequenced_mcast(payload); op_r.ok()) {
    handle_sequenced(op_r.value());
    return;
  }
  if (auto miss_r = parse_mcast_fetch_miss(payload); miss_r.ok()) {
    handle_fetch_miss(miss_r.value());
    return;
  }
  auto kind_r = peek_ctrl_frame(payload);
  if (!kind_r.ok()) {
    BLOG(debug, "control") << opts_.replica_id
                           << " unrecognised member frame dropped";
    return;
  }
  switch (kind_r.value()) {
    case CtrlFrameKind::snapshot_req:
      if (auto r = decode_snapshot_req(payload); r.ok())
        serve_snapshot(r.value());
      break;
    case CtrlFrameKind::view_change:
      if (auto r = decode_view_change(payload); r.ok())
        handle_view_change(r.value());
      break;
    case CtrlFrameKind::snapshot_rsp:
      break;  // straggler answer from an already-finished catch-up
    case CtrlFrameKind::membership:
      break;  // membership rides the client RPC path, not the member bus
    case CtrlFrameKind::reshard_snapshot_req:
      if (auto r = decode_reshard_snapshot_req(payload); r.ok())
        handle_reshard_snapshot_req(r.value());
      break;
    case CtrlFrameKind::reshard_ack:
    case CtrlFrameKind::reshard_snapshot_rsp:
      break;  // coordinator-bound frames; not ours to consume
  }
}

void DiscoveryReplica::handle_sequenced(const McastOp& op) {
  uint32_t cur = cur_view_.load(std::memory_order_acquire);
  if (op.view < cur) return;  // deposed sequencer still multicasting
  if (op.view > cur) adopt_view(op.view, "stamp");
  last_seen_ = now();
  auto released =
      window_.offer(op.seq, Bytes(op.payload.begin(), op.payload.end()));
  for (auto& [seq, frame] : released) apply(seq, frame);
}

void DiscoveryReplica::handle_fetch_miss(const McastFetchMiss& miss) {
  if (!window_.has_gap()) return;          // gap already resolved
  if (miss.to <= window_.next_seq()) return;  // stale answer
  gap_misses_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.stats) opts_.stats->gap_misses.fetch_add(1);
  if (opts_.tracer) {
    Span span = trace_span(opts_.tracer, "ctrl.gap_miss");
    span.tag_u64("from", miss.from);
    span.tag_u64("to", miss.to);
  }
  BLOG(info, "control") << opts_.replica_id << " fetch miss [" << miss.from
                        << "," << miss.to << "): sequencer log evicted";
  if (!opts_.peers.empty() && do_catchup("gap_miss")) {
    fetch_sent_ = false;
    gap_catchup_tried_ = false;
    return;
  }
  // No peer could help: give up on exactly the evicted prefix — anything
  // past miss.to may still be retransmitted from the sequencer log.
  auto released = window_.skip_to(std::min(miss.to, window_.gap_end()));
  gaps_skipped_.fetch_add(1, std::memory_order_relaxed);
  for (auto& [seq, frame] : released) apply(seq, frame);
  fetch_sent_ = false;
  gap_catchup_tried_ = false;
}

void DiscoveryReplica::handle_view_change(const CtrlViewChangeMsg& m) {
  uint32_t cur = cur_view_.load(std::memory_order_acquire);
  // Stale round: the peer will adopt the current view from the next
  // stamped packet it sees.
  if (m.view <= cur) return;
  if (m.view > vc_.view) {
    // Join the (higher) round: reset, record our own ack, relay once.
    vc_ = ViewChangeRound{};
    vc_.view = m.view;
    vc_.started = now();
    vc_.acks[opts_.replica_id] = window_.next_seq();
    broadcast_view_change(m.view);
    last_seen_ = now();  // don't re-trip silence during the round
  }
  if (m.view == vc_.view) {
    auto& slot = vc_.acks[m.from];
    slot = std::max(slot, m.last_contig);
    maybe_send_view_start();
  }
}

void DiscoveryReplica::initiate_view_change(uint32_t target) {
  if (target <= cur_view_.load(std::memory_order_acquire)) return;
  if (target <= vc_.view) return;  // already running a round ≥ target
  vc_ = ViewChangeRound{};
  vc_.view = target;
  vc_.started = now();
  vc_.acks[opts_.replica_id] = window_.next_seq();
  BLOG(info, "control") << opts_.replica_id
                        << " sequencer silent: starting view change -> "
                        << target;
  broadcast_view_change(target);
  last_seen_ = now();
}

void DiscoveryReplica::broadcast_view_change(uint32_t view) {
  CtrlViewChangeMsg out;
  out.view = view;
  out.from = opts_.replica_id;
  out.last_contig = window_.next_seq();
  Bytes frame = encode_view_change(out);
  for (const auto& p : opts_.peers) (void)member_->send_to(p, frame);
}

void DiscoveryReplica::maybe_send_view_start() {
  if (vc_.view == 0 || vc_.start_sent) return;
  if (vc_.view <= cur_view_.load(std::memory_order_acquire)) return;
  size_t quorum = (opts_.peers.size() + 1) / 2 + 1;
  if (vc_.acks.size() < quorum) return;
  // Grace past the majority: stragglers may still raise the resume seq.
  if (now() - vc_.started < opts_.view_ack_timeout) return;
  uint64_t start = 0;
  for (const auto& [id, s] : vc_.acks) start = std::max(start, s);
  (void)member_->send_to(sequencer_for(vc_.view),
                         mcast_view_start_frame(vc_.view, start));
  vc_.start_sent = true;
  BLOG(info, "control") << opts_.replica_id << " activating view " << vc_.view
                        << " at seq " << start << " (" << vc_.acks.size()
                        << "/" << opts_.peers.size() + 1 << " acks)";
}

void DiscoveryReplica::adopt_view(uint32_t view, const char* how) {
  uint32_t old = cur_view_.load(std::memory_order_acquire);
  if (view <= old) return;
  cur_view_.store(view, std::memory_order_release);
  vc_ = ViewChangeRound{};
  last_seen_ = now();
  view_changes_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.stats) opts_.stats->view_changes.fetch_add(1);
  if (opts_.tracer) {
    Span span = trace_span(opts_.tracer, "ctrl.view_change");
    span.tag_u64("view", view);
    span.tag_u64("from_view", old);
    span.tag("via", how);
  }
  BLOG(info, "control") << opts_.replica_id << " adopted sequencer view "
                        << view << " (" << how << ")";
  // Re-propose in-flight ops: the old sequencer may have died holding
  // them. The replicated applied-ids make this at-most-once even when
  // the original stamp did land somewhere.
  std::vector<Bytes> inflight;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    inflight.reserve(pending_.size());
    for (auto& [id, w] : pending_) inflight.push_back(w->ctrl_op);
  }
  Addr seq_addr = sequencer_for(view);
  for (auto& f : inflight)
    (void)member_->send_to(seq_addr, mcast_frame(member_addr_, f));
}

bool DiscoveryReplica::do_catchup(const char* reason) {
  if (opts_.peers.empty()) return false;
  struct Stashed {
    uint64_t seq;
    uint32_t view;
    Bytes payload;
  };
  for (size_t i = 0; i < opts_.peers.size(); i++) {
    if (stopping_.load()) return false;
    const Addr& peer = opts_.peers[(catchup_rr_ + i) % opts_.peers.size()];
    CtrlSnapshotReq req;
    req.from = opts_.replica_id;
    req.reply_uri = member_addr_.to_string();
    if (!member_->send_to(peer, encode_snapshot_req(req)).ok()) continue;
    Deadline dl = Deadline::after(opts_.catchup_timeout);
    std::vector<Stashed> stash;  // sequenced traffic racing the snapshot
    while (!dl.expired() && !stopping_.load()) {
      auto pkt_r = member_->recv(dl);
      if (!pkt_r.ok()) {
        if (pkt_r.error().code == Errc::timed_out) break;  // next peer
        return false;                                      // closed
      }
      BytesView payload = pkt_r.value().payload;
      if (auto op_r = parse_sequenced_mcast(payload); op_r.ok()) {
        const McastOp& op = op_r.value();
        stash.push_back({op.seq, op.view,
                         Bytes(op.payload.begin(), op.payload.end())});
        continue;
      }
      auto kind_r = peek_ctrl_frame(payload);
      if (!kind_r.ok()) continue;  // fetch-miss/garbage: moot after install
      if (kind_r.value() == CtrlFrameKind::view_change) {
        if (auto m_r = decode_view_change(payload); m_r.ok())
          handle_view_change(m_r.value());
        continue;
      }
      if (kind_r.value() != CtrlFrameKind::snapshot_rsp) continue;
      auto rsp_r = decode_snapshot_rsp(payload);
      if (!rsp_r.ok()) {
        BLOG(debug, "control") << opts_.replica_id << " bad snapshot: "
                               << rsp_r.error().to_string();
        continue;
      }
      const CtrlSnapshotRsp& rsp = rsp_r.value();
      // A peer behind our own apply point can't help (installing would
      // rewind acked state); try the next one.
      if (rsp.next_seq < window_.next_seq()) break;
      install_peer_snapshot(rsp, reason);
      catchup_rr_ = (catchup_rr_ + i + 1) % opts_.peers.size();
      uint32_t cur = cur_view_.load(std::memory_order_acquire);
      for (auto& s : stash) {
        if (s.view < cur) continue;
        if (s.view > cur) {
          adopt_view(s.view, "stamp");
          cur = s.view;
        }
        auto released = window_.offer(s.seq, std::move(s.payload));
        for (auto& [seq, frame] : released) apply(seq, frame);
      }
      last_seen_ = now();
      return true;
    }
  }
  BLOG(info, "control") << opts_.replica_id
                        << " catch-up found no usable peer (" << reason << ")";
  return false;
}

void DiscoveryReplica::install_peer_snapshot(const CtrlSnapshotRsp& rsp,
                                             const char* reason) {
  // Received-but-gapped items may extend past the snapshot; re-offer
  // them below (offer() drops anything the snapshot already covers).
  auto leftover = window_.take_buffered();
  state_->install_snapshot(rsp.state);
  apply_dedup_.clear();
  apply_dedup_order_.clear();
  for (const auto& [k, v] : rsp.dedup)
    if (apply_dedup_.emplace(k, v).second) apply_dedup_order_.push_back(k);
  applied_ids_.clear();
  applied_ids_order_.clear();
  for (const auto& id : rsp.applied)
    if (applied_ids_.insert(id).second) applied_ids_order_.push_back(id);
  window_ = SequencedApplyWindow(rsp.next_seq);
  {
    std::lock_guard<std::mutex> lk(server_mu_);
    if (server_) {
      server_->install_event_log(rsp.event_log, rsp.state.watch_seq);
    } else {
      boot_log_ = rsp.event_log;
      boot_log_seq_ = rsp.state.watch_seq;
    }
  }
  {
    // Reshard range state is replicated state too: a replica that
    // catches up mid-migration must keep fencing/forwarding like its
    // peers, or a client landing on it would see the moved range as
    // silently empty.
    std::lock_guard<std::mutex> rlk(reshard_mu_);
    reshard_.clear();
    for (const auto& s : rsp.reshard) {
      RangeState rs;
      rs.modulo = s.modulo;
      rs.epoch = s.epoch;
      rs.role = s.role;
      rs.phase = s.phase;
      for (const auto& uri : s.dst_rpc)
        if (auto a = Addr::parse(uri); a.ok())
          rs.dst_rpc.push_back(std::move(a).value());
      rs.migrated.insert(s.migrated_allocs.begin(), s.migrated_allocs.end());
      rs.payload = s.payload;
      if (rs.role == 1 && !rs.payload.empty()) {
        if (auto p = decode_reshard_payload(rs.payload); p.ok()) {
          rs.frozen = std::make_shared<DiscoveryState>();
          rs.frozen->set_manual_sweep(true);
          rs.frozen->install_snapshot(p.value().state);
        }
      }
      reshard_[s.range] = std::move(rs);
    }
  }
  if (rsp.view > cur_view_.load(std::memory_order_acquire))
    adopt_view(rsp.view, "snapshot");
  for (auto& [seq, frame] : leftover) {
    auto released = window_.offer(seq, std::move(frame));
    for (auto& [s, f] : released) apply(s, f);
  }
  catchups_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.stats) opts_.stats->catchups.fetch_add(1);
  if (opts_.tracer) {
    Span span = trace_span(opts_.tracer, "ctrl.catchup");
    span.tag("from", rsp.from);
    span.tag("reason", reason);
    span.tag_u64("next_seq", rsp.next_seq);
    span.tag_u64("view", rsp.view);
  }
  BLOG(info, "control") << opts_.replica_id << " installed snapshot from "
                        << rsp.from << " at seq " << rsp.next_seq << " ("
                        << reason << ")";
}

void DiscoveryReplica::serve_snapshot(const CtrlSnapshotReq& req) {
  if (!ready_.load(std::memory_order_acquire)) return;  // catching up too
  auto to_r = Addr::parse(req.reply_uri);
  if (!to_r.ok()) return;
  CtrlSnapshotRsp rsp;
  rsp.from = opts_.replica_id;
  rsp.view = cur_view_.load(std::memory_order_acquire);
  // Consistent cut: next_seq, state, dedup, and applied-ids all reflect
  // the same apply point because only this (member) thread applies.
  rsp.next_seq = window_.next_seq();
  rsp.state = state_->export_snapshot();
  rsp.dedup.reserve(apply_dedup_order_.size());
  for (const auto& k : apply_dedup_order_) {
    auto it = apply_dedup_.find(k);
    if (it != apply_dedup_.end()) rsp.dedup.emplace_back(k, it->second);
  }
  rsp.applied.assign(applied_ids_order_.begin(), applied_ids_order_.end());
  {
    std::lock_guard<std::mutex> lk(server_mu_);
    if (server_) {
      rsp.event_log =
          server_->export_event_log(rsp.state.watch_seq, Deadline::after(ms(100)));
    } else {
      rsp.event_log.pruned_through = rsp.state.watch_seq;
      rsp.event_log.observed_through = rsp.state.watch_seq;
    }
  }
  {
    std::lock_guard<std::mutex> rlk(reshard_mu_);
    for (const auto& [range, rs] : reshard_) {
      ReshardRangeState s;
      s.range = range;
      s.modulo = rs.modulo;
      s.epoch = rs.epoch;
      s.role = rs.role;
      s.phase = rs.phase;
      for (const auto& a : rs.dst_rpc) s.dst_rpc.push_back(a.to_string());
      s.migrated_allocs.assign(rs.migrated.begin(), rs.migrated.end());
      std::sort(s.migrated_allocs.begin(), s.migrated_allocs.end());
      s.payload = rs.payload;
      rsp.reshard.push_back(std::move(s));
    }
  }
  (void)member_->send_to(to_r.value(), encode_snapshot_rsp(rsp));
  snapshots_served_.fetch_add(1, std::memory_order_relaxed);
  BLOG(info, "control") << opts_.replica_id << " served snapshot to "
                        << req.from << " at seq " << rsp.next_seq;
}

void DiscoveryReplica::record_applied_id(std::string op_id) {
  if (op_id.empty()) return;
  if (!applied_ids_.insert(op_id).second) return;
  applied_ids_order_.push_back(std::move(op_id));
  if (applied_ids_order_.size() > kAppliedIdsCap) {
    applied_ids_.erase(applied_ids_order_.front());
    applied_ids_order_.pop_front();
  }
}

void DiscoveryReplica::apply(uint64_t seq, BytesView ctrl_frame) {
  // The sequencer emits an empty payload to announce a new view (it
  // consumes a seq so the window stays contiguous): nothing to apply.
  if (ctrl_frame.empty()) return;
  auto op_r = decode_ctrl_op(ctrl_frame);
  if (!op_r.ok()) {
    BLOG(debug, "control") << "undecodable ctrl op: "
                           << op_r.error().to_string();
    return;
  }
  CtrlOp op = std::move(op_r).value();
  // Origin-stamped time: every replica computes identical lease expiry.
  // (Single steady-clock domain per deployment; a multi-host cluster
  // would substitute a hybrid clock here.)
  TimePoint at{Duration(op.time_ns)};
  Bytes encoded;

  if (op.kind == CtrlOpKind::sweep) {
    size_t reaped = state_->expire_leases_at(at);
    if (reaped > 0 && opts_.tracer) {
      Span span = trace_span(opts_.tracer, "ctrl.apply");
      span.tag("op", "sweep");
      span.tag_u64("seq", seq);
      span.tag_u64("reaped", reaped);
    }
    applied_.fetch_add(1, std::memory_order_relaxed);
  } else if (op.kind == CtrlOpKind::reshard) {
    auto rop_r = decode_reshard_op(op.req);
    if (!rop_r.ok()) return;
    const ReshardOp& rop = rop_r.value();
    std::string op_id;
    if (op.submit_id != 0 && !op.origin.empty())
      op_id = op.origin + "#" + std::to_string(op.submit_id);
    // apply_reshard is phase-monotonic (duplicates no-op), but the
    // applied-ids guard keeps a double-sequenced coordinator retry from
    // even logging twice.
    if (op_id.empty() || applied_ids_.count(op_id) == 0) {
      apply_reshard(rop, seq);
      record_applied_id(std::move(op_id));
    }
    // Always ack — including duplicates — so coordinator retries
    // converge even when the first ack was lost.
    if (!rop.reply_uri.empty()) {
      if (auto to = Addr::parse(rop.reply_uri); to.ok()) {
        ReshardAck ack;
        ack.cmd_id = rop.cmd_id;
        ack.from = opts_.replica_id;
        (void)member_->send_to(to.value(), encode_reshard_ack(ack));
      }
    }
    applied_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto req_r = decode_request(op.req);
    if (!req_r.ok()) return;
    DiscRequest req = std::move(req_r).value();
    Span span = trace_span(opts_.tracer, "ctrl.apply", req.trace);
    span.tag("op", serve_span_name(req.op));
    span.tag("origin", op.origin);
    span.tag_u64("seq", seq);

    // At-most-once across re-proposal: a view change re-sends in-flight
    // ops, and the original stamp may have landed too. The applied-ids
    // set is replicated state (snapshot-transferred, FIFO-bounded), so
    // every replica skips the same duplicates.
    std::string op_id;
    if (op.submit_id != 0 && !op.origin.empty())
      op_id = op.origin + "#" + std::to_string(op.submit_id);
    bool replayed = !op_id.empty() && applied_ids_.count(op_id) > 0;

    // Replicated idempotency: a client retry that was re-proposed (e.g.
    // it landed on a different replica after failover) must not execute
    // twice. The cache is part of the replicated state — maintained only
    // from sequenced ops, bounded FIFO for deterministic eviction — so
    // every replica agrees on which (client, idem) pairs are spent.
    std::string dedup_key;
    if (is_mutation(req.op) && req.idem_key != 0 && !req.client_id.empty())
      dedup_key = req.client_id + "#" + std::to_string(req.idem_key);
    auto hit = dedup_key.empty() ? apply_dedup_.end()
                                 : apply_dedup_.find(dedup_key);
    if (replayed) {
      // Second sequencing of the same proposal: don't execute. Answer
      // the waiter from the cache when possible; otherwise the client's
      // own retry gets absorbed by it.
      if (hit != apply_dedup_.end()) encoded = hit->second;
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      span.tag("replayed", "1");
    } else if (hit != apply_dedup_.end()) {
      encoded = hit->second;
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      span.tag("dedup", "1");
      record_applied_id(std::move(op_id));
    } else {
      DiscResponse rsp = execute_request(*state_, req, at);
      if (!rsp.success) span.tag("error", rsp.error);
      encoded = encode_response(rsp);
      if (!dedup_key.empty() &&
          apply_dedup_.emplace(dedup_key, encoded).second) {
        apply_dedup_order_.push_back(dedup_key);
        if (apply_dedup_order_.size() > kApplyDedupCap) {
          apply_dedup_.erase(apply_dedup_order_.front());
          apply_dedup_order_.pop_front();
        }
      }
      record_applied_id(std::move(op_id));
    }
    applied_.fetch_add(1, std::memory_order_relaxed);
  }

  // Our own proposal came back out of the sequencer: the mutation is
  // replicated, answer the waiting client RPC. (A replayed op with no
  // cached response leaves the waiter to time out transiently.)
  if (op.submit_id != 0 && op.origin == opts_.replica_id &&
      !encoded.empty()) {
    std::shared_ptr<PendingApply> w;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      auto it = pending_.find(op.submit_id);
      if (it != pending_.end()) w = it->second;
    }
    if (w) {
      std::lock_guard<std::mutex> wlk(w->mu);
      w->response = std::move(encoded);
      w->done = true;
      w->cv.notify_all();
    }
  }
}

// --- Online repartitioning ---

namespace {
uint64_t bucket_of(const std::string& key, uint64_t modulo) {
  return shard_pick(
      BytesView(reinterpret_cast<const uint8_t*>(key.data()), key.size()),
      static_cast<size_t>(modulo));
}
}  // namespace

void DiscoveryReplica::apply_reshard(const ReshardOp& rop, uint64_t seq) {
  std::vector<Addr> dst;
  for (const auto& uri : rop.dst_rpc)
    if (auto a = Addr::parse(uri); a.ok()) dst.push_back(std::move(a).value());

  std::lock_guard<std::mutex> lk(reshard_mu_);
  // Idempotence across coordinator retries and migrations: within one
  // migration (epoch) phases are monotonic, and a newer migration of the
  // same range supersedes whatever marker an older one left behind.
  auto stale_or_dup = [&](uint64_t range) {
    auto it = reshard_.find(range);
    if (it == reshard_.end() || it->second.phase == 0) return false;
    if (it->second.epoch > rop.epoch) return true;  // op from an older epoch
    if (it->second.epoch == rop.epoch &&
        it->second.phase >= static_cast<uint8_t>(rop.phase))
      return true;  // duplicate of an applied phase
    if (it->second.epoch < rop.epoch) it->second = RangeState{};
    return false;
  };
  const char* phase_name = "?";
  switch (rop.phase) {
    case ReshardPhase::fence: {
      phase_name = "fence";
      if (stale_or_dup(rop.range)) break;
      auto& rs = reshard_[rop.range];
      rs.modulo = rop.modulo;
      rs.epoch = rop.epoch;
      rs.role = 1;
      rs.dst_rpc = dst;
      // The consistent cut happens AT this apply point: nothing later in
      // the op stream (sweeps included) can touch the range or emit
      // events for it, because it is no longer in the live state.
      DiscoverySnapshot cut = state_->extract_range(rop.modulo, rop.range);
      ReshardPayload p;
      p.dedup.reserve(apply_dedup_order_.size());
      for (const auto& k : apply_dedup_order_) {
        auto dit = apply_dedup_.find(k);
        if (dit != apply_dedup_.end()) p.dedup.emplace_back(k, dit->second);
      }
      p.applied.assign(applied_ids_order_.begin(), applied_ids_order_.end());
      {
        std::lock_guard<std::mutex> slk(server_mu_);
        if (server_) {
          p.event_log = server_->export_event_log(cut.watch_seq,
                                                  Deadline::after(ms(100)));
        } else {
          p.event_log.pruned_through = cut.watch_seq;
          p.event_log.observed_through = cut.watch_seq;
        }
      }
      for (const auto& a : cut.allocs) rs.migrated.insert(a.id);
      rs.frozen = std::make_shared<DiscoveryState>();
      rs.frozen->set_manual_sweep(true);
      rs.frozen->install_snapshot(cut);
      p.state = std::move(cut);
      rs.payload = encode_reshard_payload(p);
      rs.phase = static_cast<uint8_t>(ReshardPhase::fence);
      if (opts_.stats) opts_.stats->reshard_fences.fetch_add(1);
      break;
    }
    case ReshardPhase::install: {
      phase_name = "install";
      if (stale_or_dup(rop.range)) break;
      auto pay_r = decode_reshard_payload(rop.payload);
      if (!pay_r.ok()) {
        BLOG(info, "control") << opts_.replica_id << " undecodable reshard "
                              << "payload: " << pay_r.error().to_string();
        break;
      }
      const ReshardPayload& pay = pay_r.value();
      // A brand-new destination (split) has never published an event, so
      // it adopts the source's event log and seq outright — the range's
      // watch domain forks and subscribers seq-resume. An established
      // destination (merge) keeps its own log; the max-seq merge below
      // means re-homed subscribers fall back to a snapshot batch instead
      // of seeing a seq rewind.
      bool fresh = state_->catalogue_snapshot().second == 0;
      state_->ingest_snapshot(pay.state, /*emit_events=*/!fresh);
      for (const auto& [k, v] : pay.dedup) {
        if (apply_dedup_.emplace(k, v).second) {
          apply_dedup_order_.push_back(k);
          if (apply_dedup_order_.size() > kApplyDedupCap) {
            apply_dedup_.erase(apply_dedup_order_.front());
            apply_dedup_order_.pop_front();
          }
        }
      }
      for (const auto& id : pay.applied) record_applied_id(id);
      if (fresh) {
        std::lock_guard<std::mutex> slk(server_mu_);
        if (server_) {
          server_->install_event_log(pay.event_log, pay.state.watch_seq);
        } else {
          boot_log_ = pay.event_log;
          boot_log_seq_ = pay.state.watch_seq;
        }
      }
      auto& rs = reshard_[rop.range];
      rs.modulo = rop.modulo;
      rs.epoch = rop.epoch;
      rs.role = 2;
      rs.phase = static_cast<uint8_t>(ReshardPhase::install);
      if (opts_.stats) opts_.stats->reshard_installs.fetch_add(1);
      break;
    }
    case ReshardPhase::cutover: {
      phase_name = "cutover";
      if (stale_or_dup(rop.range)) break;
      auto& rs = reshard_[rop.range];
      rs.modulo = rop.modulo;
      rs.epoch = rop.epoch;
      rs.role = 1;
      if (!dst.empty()) rs.dst_rpc = dst;
      // Frozen reads end here: every range request — stale-client
      // queries, mutations, releases of migrated allocs — now forwards
      // one hop to the new home.
      rs.frozen.reset();
      rs.payload.clear();
      rs.phase = static_cast<uint8_t>(ReshardPhase::cutover);
      if (opts_.stats) opts_.stats->reshard_cutovers.fetch_add(1);
      break;
    }
    case ReshardPhase::retire: {
      phase_name = "retire";
      auto it = reshard_.find(rop.range);
      if (it != reshard_.end() && it->second.epoch <= rop.epoch)
        reshard_.erase(it);
      break;
    }
  }
  if (opts_.tracer) {
    Span span = trace_span(opts_.tracer, std::string("ctrl.reshard.") +
                                             phase_name);
    span.tag_u64("range", rop.range);
    span.tag_u64("modulo", rop.modulo);
    span.tag_u64("epoch", rop.epoch);
    span.tag_u64("seq", seq);
  }
  BLOG(info, "control") << opts_.replica_id << " reshard " << phase_name
                        << " range " << rop.range << "/" << rop.modulo
                        << " epoch " << rop.epoch;
}

void DiscoveryReplica::handle_reshard_snapshot_req(
    const ReshardSnapshotReq& req) {
  auto to = Addr::parse(req.reply_uri);
  if (!to.ok()) return;
  ReshardSnapshotRsp rsp;
  rsp.range = req.range;
  rsp.from = opts_.replica_id;
  {
    std::lock_guard<std::mutex> lk(reshard_mu_);
    auto it = reshard_.find(req.range);
    if (it == reshard_.end() || it->second.role != 1 ||
        it->second.modulo != req.modulo || it->second.payload.empty())
      return;  // not fenced here (yet): coordinator retries elsewhere
    rsp.payload = it->second.payload;
  }
  (void)member_->send_to(to.value(), encode_reshard_snapshot_rsp(rsp));
}

std::optional<DiscResponse> DiscoveryReplica::intercept(
    const DiscRequest& req) {
  enum class Act { none, unavail, frozen_query, fwd, spans };
  // Where a request for one scope key goes.
  struct Route {
    Act act = Act::none;
    std::shared_ptr<DiscoveryState> frozen;
    std::vector<Addr> dst;
    bool operator==(const Route&) const = default;
  };
  Route route;
  // query_types: the batch's types grouped by route, one leg per route.
  std::vector<std::pair<Route, std::vector<std::string>>> legs;
  {
    std::lock_guard<std::mutex> lk(reshard_mu_);
    if (reshard_.empty()) return std::nullopt;
    // Source-side range lookup for one scope key.
    auto range_for = [&](const std::string& key) -> RangeState* {
      for (auto& [range, rs] : reshard_) {
        if (rs.role != 1 || rs.phase == 0) continue;
        if (bucket_of(key, rs.modulo) == range) return &rs;
      }
      return nullptr;
    };
    auto classify = [&](RangeState* rs) {
      Route r;
      if (!rs) return r;
      if (rs->phase == static_cast<uint8_t>(ReshardPhase::fence)) {
        if (!is_mutation(req.op) && rs->frozen) {
          r.act = Act::frozen_query;
          r.frozen = rs->frozen;
        } else {
          r.act = Act::unavail;
        }
      } else if (rs->phase >= static_cast<uint8_t>(ReshardPhase::cutover)) {
        r.act = Act::fwd;
        r.dst = rs->dst_rpc;
      }
      return r;
    };
    switch (req.op) {
      case DiscOp::register_impl:
        if (req.entry) route = classify(range_for(req.entry->type));
        break;
      case DiscOp::unregister_impl:
      case DiscOp::query:
      case DiscOp::set_pool:
        route = classify(range_for(req.type));
        break;
      case DiscOp::query_types:
        // Each type is routed as a single-type query of it would be, so
        // a batch straddling migration ranges is answered per type.
        for (const auto& type : req.types) {
          Route r = classify(range_for(type));
          auto it = std::find_if(legs.begin(), legs.end(),
                                 [&](const auto& leg) { return leg.first == r; });
          if (it == legs.end())
            it = legs.emplace(legs.end(), std::move(r),
                              std::vector<std::string>{});
          it->second.push_back(type);
        }
        break;
      case DiscOp::acquire: {
        RangeState* first = nullptr;
        bool mixed = false;
        for (const auto& r : req.resources) {
          RangeState* rs = range_for(r.pool);
          if (!first) first = rs;
          if (rs != first) mixed = true;
        }
        if (mixed && first)
          route.act = Act::spans;  // pools straddle a migration boundary
        else
          route = classify(first);
        break;
      }
      case DiscOp::release: {
        for (auto& [range, rs] : reshard_) {
          if (rs.role != 1 || rs.migrated.count(req.alloc_id) == 0) continue;
          route = classify(&rs);
          break;
        }
        break;
      }
      case DiscOp::heartbeat:
        break;  // handled below (mirror + local execution)
    }
  }
  if (req.op == DiscOp::heartbeat) {
    mirror_heartbeat(req);
    return std::nullopt;
  }
  auto answer = [&](const Route& r, const DiscRequest& q) -> DiscResponse {
    switch (r.act) {
      case Act::none:
        return execute_request(*state_, q, now());
      case Act::unavail:
        return error_response(
            err(Errc::unavailable, "key range fenced for migration"));
      case Act::spans:
        return error_response(err(
            Errc::invalid_argument,
            "acquire spans partitions: pools split by an in-flight reshard"));
      case Act::frozen_query:
        return execute_request(*r.frozen, q, now());
      case Act::fwd: {
        auto f = forward(q, r.dst);
        if (!f.ok()) return error_response(f.error());
        return std::move(f).value();
      }
    }
    return error_response(err(Errc::internal, "unrouted discovery request"));
  };
  if (req.op != DiscOp::query_types) {
    if (route.act == Act::none) return std::nullopt;
    return answer(route, req);
  }
  if (legs.size() == 1 && legs[0].first.act == Act::none) return std::nullopt;
  DiscResponse out;
  out.success = true;
  for (auto& [leg, types] : legs) {
    DiscRequest part = req;
    part.types = std::move(types);
    DiscResponse rsp = answer(leg, part);
    if (!rsp.success) {
      // `unavailable` means "retry shortly": the whole batch takes it, so
      // the client retries in place as it would a single-type query. Any
      // other failure leaves just this leg's types out of the answer.
      if (rsp.errc == static_cast<uint8_t>(Errc::unavailable)) return rsp;
      continue;
    }
    out.types.insert(out.types.end(), rsp.types.begin(), rsp.types.end());
    for (auto& e : rsp.entries) out.entries.push_back(std::move(e));
  }
  return out;
}

Result<DiscResponse> DiscoveryReplica::forward(const DiscRequest& req,
                                               const std::vector<Addr>& dst) {
  if (dst.empty())
    return err(Errc::unavailable, "resharded range has no forward target");
  std::lock_guard<std::mutex> lk(fwd_mu_);
  if (!fwd_) {
    if (!opts_.forward_bind)
      return err(Errc::unavailable, "replica has no forward transport");
    auto t = opts_.forward_bind();
    if (!t.ok()) return t.error();
    fwd_ = std::move(t).value();
  }
  // One-shot RPC with the client's own identity: the destination's
  // replicated dedup cache (which migrated with the range) still keys on
  // the original client#idem, so a forwarded retry stays exactly-once.
  uint64_t token = fwd_token_.fetch_add(1) + 1;
  Bytes frame = encode_frame(MsgKind::discovery, token, encode_request(req));
  for (const auto& d : dst) {
    if (stopping_.load()) break;
    if (!fwd_->send_to(d, frame).ok()) continue;
    Deadline dl = Deadline::after(opts_.forward_timeout);
    while (!dl.expired() && !stopping_.load()) {
      auto pkt = fwd_->recv(dl);
      if (!pkt.ok()) break;
      auto fr = decode_frame(pkt.value().payload);
      if (!fr.ok() || fr.value().kind != MsgKind::discovery ||
          fr.value().token != token)
        continue;  // stray mirror response from an earlier forward
      auto rsp = decode_response(fr.value().payload);
      if (!rsp.ok()) break;
      reshard_forwards_.fetch_add(1, std::memory_order_relaxed);
      if (opts_.stats) opts_.stats->reshard_forwards.fetch_add(1);
      return std::move(rsp).value();
    }
  }
  // Transient by design: the client retries, and usually re-steers to
  // the new home from the pushed membership before the next attempt.
  return err(Errc::unavailable, "new range home unreachable (forward)");
}

void DiscoveryReplica::mirror_heartbeat(const DiscRequest& req) {
  std::vector<Addr> dst;
  {
    std::lock_guard<std::mutex> lk(reshard_mu_);
    for (const auto& [range, rs] : reshard_) {
      if (rs.role != 1 ||
          rs.phase < static_cast<uint8_t>(ReshardPhase::cutover))
        continue;
      for (const auto& a : rs.dst_rpc) {
        bool dup = false;
        for (const auto& have : dst) dup = dup || have == a;
        if (!dup) dst.push_back(a);
      }
    }
  }
  if (dst.empty()) return;
  std::lock_guard<std::mutex> lk(fwd_mu_);
  if (!fwd_) {
    if (!opts_.forward_bind) return;
    auto t = opts_.forward_bind();
    if (!t.ok()) return;
    fwd_ = std::move(t).value();
  }
  // Fire-and-forget: responses (if any) are drained and discarded by the
  // next forward's token filter. The migrated lease rows keep their
  // original owners, who still heartbeat *us* — the mirror is what keeps
  // those rows alive on the new home until the owners re-steer.
  uint64_t token = fwd_token_.fetch_add(1) + 1;
  Bytes frame = encode_frame(MsgKind::discovery, token, encode_request(req));
  for (const auto& d : dst) (void)fwd_->send_to(d, frame);
}

void DiscoveryReplica::sweep_loop() {
  std::unique_lock<std::mutex> lk(sweep_mu_);
  while (!stopping_.load()) {
    sweep_cv_.wait_for(lk, opts_.sweep_period);
    if (stopping_.load()) return;
    // Idempotent replicated sweep: every replica proposes one, all
    // replicas apply all of them; expiry happens at a point *in the op
    // stream*, not at a local clock tick. The steady trickle doubles as
    // keepalive traffic that exposes sequence gaps promptly — and as the
    // sequencer liveness signal view-change detection relies on.
    CtrlOp op;
    op.kind = CtrlOpKind::sweep;
    op.origin = opts_.replica_id;
    op.time_ns = now().time_since_epoch().count();
    (void)member_->send_to(
        sequencer_for(cur_view_.load(std::memory_order_acquire)),
        mcast_frame(member_addr_, encode_ctrl_op(op)));
  }
}

}  // namespace bertha
