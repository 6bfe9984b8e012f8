#include "core/generic_broadcast.hpp"

#include <algorithm>
#include <cassert>

#include "util/codec.hpp"

namespace gcs {

namespace {
// Kind byte of Tag::kGbcast channel messages.
constexpr std::uint8_t kGbAck = 0;
constexpr std::uint8_t kGbPull = 1;
constexpr std::uint8_t kGbPush = 2;
}  // namespace

GenericBroadcast::GenericBroadcast(sim::Context& ctx, ReliableChannel& channel,
                                   ReliableBroadcast& rbcast, AtomicBroadcast& abcast,
                                   ConflictRelation relation)
    : GenericBroadcast(ctx, channel, rbcast, abcast, std::move(relation), Config{}) {}

GenericBroadcast::GenericBroadcast(sim::Context& ctx, ReliableChannel& channel,
                                   ReliableBroadcast& rbcast, AtomicBroadcast& abcast,
                                   ConflictRelation relation, Config config)
    : ctx_(ctx),
      m_broadcasts_(metric_id("gbcast.broadcasts")),
      m_fast_delivered_(metric_id("gbcast.fast_delivered")),
      m_resolved_delivered_(metric_id("gbcast.resolved_delivered")),
      m_resolutions_(metric_id("gbcast.resolutions_triggered")),
      m_rounds_resolved_(metric_id("gbcast.rounds_resolved")),
      m_pull_requests_(metric_id("gbcast.pull_requests")),
      m_pull_served_(metric_id("gbcast.pull_served")),
      m_pushes_(metric_id("gbcast.pushes")),
      h_fast_latency_(metric_id("gbcast.fast_latency_us")),
      h_slow_latency_(metric_id("gbcast.slow_latency_us")),
      h_pull_wait_(metric_id("gbcast.pull_wait_us")),
      channel_(channel), rbcast_(rbcast), abcast_(abcast),
      relation_(std::move(relation)), config_(config) {
  rbcast_.on_deliver([this](const MsgId& id, BytesView b) { on_gb_data(id, b); });
  channel_.subscribe(Tag::kGbcast,
                     [this](ProcessId from, BytesView b) { on_channel_message(from, b); });
  abcast_.subscribe(AtomicBroadcast::kGbResolve,
                    [this](const MsgId& id, const Bytes& b) { on_report(id, b); });
  // No stability hook for the delivered index: it is watermark-compressed
  // (DeliveredIndex), so the out-of-order overflow self-prunes as gaps fill
  // and the contiguous prefix collapses into the per-sender floor. Erasing
  // overflow bits early would stall that collapse forever.
}

void GenericBroadcast::set_group(std::vector<ProcessId> group) {
  group_ = std::move(group);
  rbcast_.set_group(group_);
  // Quorums changed: a pending resolution may now be satisfiable (e.g. a
  // crashed member was excluded, shrinking report_need). That holds for a
  // later round this member holds reports of while still delivering its
  // own, as it does for the others, who are in that round now.
  for (auto& [r, rr] : reports_) close_round(rr);
  maybe_finalize_round();
}

bool GenericBroadcast::is_member() const {
  return std::find(group_.begin(), group_.end(), ctx_.self()) != group_.end();
}

int GenericBroadcast::fast_quorum() const {
  if (config_.unsafe_fast_quorum_override > 0) return config_.unsafe_fast_quorum_override;
  const int n = static_cast<int>(group_.size());
  return 2 * n / 3 + 1;
}

int GenericBroadcast::report_need() const {
  const int n = static_cast<int>(group_.size());
  return n - (n - 1) / 3;
}

int GenericBroadcast::tau() const {
  const int n = static_cast<int>(group_.size());
  const int t = fast_quorum() - (n - 1) / 3;
  return t < 1 ? 1 : t;
}

bool GenericBroadcast::is_delivered(const MsgId& id) const {
  const auto it = delivered_.find(id.sender);
  return it != delivered_.end() && it->second.contains(id.seq);
}

bool GenericBroadcast::mark_delivered(const MsgId& id) {
  return delivered_[id.sender].insert(id.seq);
}

MsgId GenericBroadcast::gbcast(MsgClass cls, Bytes payload) {
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(cls);
  enc.put_bytes(payload);
  ctx_.metrics().inc(m_broadcasts_);
  const MsgId id =
      rbcast_.broadcast(Payload(std::shared_ptr<const Bytes>(std::move(wire))));
  ctx_.trace_instant(obs::Names::get().gb_submit, id, cls);
  if (observe_submit_) observe_submit_(id, cls);
  return id;
}

void GenericBroadcast::on_gb_data(const MsgId& id, BytesView wire) {
  if (is_delivered(id) || store_.count(id)) return;
  Decoder dec(wire);
  const MsgClass cls = dec.get_byte();
  const BytesView body = dec.get_view();
  if (!dec.ok()) return;
  Stored stored{cls, to_bytes(body), sim::kNoTimer, ctx_.now()};
  stored.deadline = ctx_.after(config_.resolve_timeout, [this, id] {
    if (!is_delivered(id)) trigger_resolution();
  });
  store_.emplace(id, std::move(stored));
  ctx_.trace_begin(obs::Names::get().gb_fast_pending, id, cls);
  consider(id);
  // An ACK quorum may have assembled before the payload arrived.
  maybe_fast_deliver(id);
  // So may a resolution: a round pull-stalled on this payload goes on.
  if (missing_.erase(id) != 0 && missing_.empty()) maybe_finalize_round();
}

void GenericBroadcast::consider(const MsgId& id) {
  if (!is_member() || frozen_ || is_delivered(id)) return;
  const auto it = store_.find(id);
  if (it == store_.end()) return;
  // Conflict check against everything we ACKed this round. The conflict
  // predicate is purely class-based, so per-class ACK counts carry exactly
  // the information the per-message scan this replaces did — including for
  // already-settled messages, whose counts persist until the round ends
  // (ACK sets of conflicting messages must stay disjoint for the
  // quorum-intersection argument to hold).
  for (std::size_t c = 0; c < acked_cls_.size(); ++c) {
    if (acked_cls_[c] != 0 &&
        relation_.conflicts(it->second.cls, static_cast<MsgClass>(c))) {
      trigger_resolution();
      return;
    }
  }
  it->second.acked = true;
  ++acked_cls_[it->second.cls];
  ctx_.trace_instant(obs::Names::get().gb_ack, id, static_cast<std::int64_t>(round_));
  // Our own ACK counts here and now; the callers check the quorum next.
  acks_[round_][id].insert(ctx_.self());
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(kGbAck);
  enc.put_u64(round_);
  enc.put_msgid(id);
  const Payload ack(std::shared_ptr<const Bytes>(std::move(wire)));
  for (ProcessId p : group_) {
    if (p != ctx_.self()) channel_.send(p, Tag::kGbcast, ack);
  }
}

void GenericBroadcast::on_channel_message(ProcessId from, BytesView wire) {
  Decoder dec(wire);
  const std::uint8_t kind = dec.get_byte();
  if (!dec.ok()) return;
  switch (kind) {
    case kGbAck:
      on_ack(from, dec);
      break;
    case kGbPull:
      on_pull(from, dec);
      break;
    case kGbPush:
      on_push(from, dec);
      break;
    default:
      break;
  }
}

void GenericBroadcast::on_ack(ProcessId from, Decoder& dec) {
  const std::uint64_t r = dec.get_u64();
  const MsgId id = dec.get_msgid();
  if (!dec.ok() || r < round_) return;  // stale round
  if (is_delivered(id)) {
    // Late ACKs for a delivered message still count toward settlement
    // (all-acked → the store entry can retire early), but must not revive
    // bookkeeping that settlement already cleared.
    const auto rit = acks_.find(r);
    if (rit == acks_.end()) return;
    const auto ait = rit->second.find(id);
    if (ait == rit->second.end()) return;
    ait->second.insert(from);
    if (r == round_) maybe_settle(id);
    return;
  }
  std::set<ProcessId>& ackers = acks_[r][id];
  ackers.insert(from);
  if (r != round_) return;
  if (store_.count(id)) {
    maybe_fast_deliver(id);
  } else if (static_cast<int>(ackers.size()) == fast_quorum()) {
    // A quorum holds a payload this member still lacks. Its origin's copy
    // is most likely on the way; if not (the origin sent it before this
    // member joined), fetch it from the ACKers.
    fetch_from_ackers(id, 0);
  }
}

void GenericBroadcast::fetch_from_ackers(const MsgId& id, std::size_t attempt) {
  ctx_.after(config_.pull_retry, [this, id, attempt] {
    if (is_delivered(id) || store_.count(id)) return;
    const auto rit = acks_.find(round_);
    if (rit == acks_.end()) return;
    const auto ait = rit->second.find(id);
    if (ait == rit->second.end() || ait->second.empty()) return;
    // Every ACKer holds the payload; rotate over them across retries.
    send_pull(*std::next(ait->second.begin(),
                         static_cast<std::ptrdiff_t>(attempt % ait->second.size())),
              {id});
    fetch_from_ackers(id, attempt + 1);
  });
}

void GenericBroadcast::on_pull(ProcessId from, Decoder& dec) {
  const std::uint64_t n = dec.get_u64();
  if (n > dec.remaining()) return;  // hostile count
  // Collect what we can serve (store first, then the retired window), then
  // frame the reply in one pooled buffer.
  Encoder entries_enc;
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < n && dec.ok(); ++i) {
    const MsgId id = dec.get_msgid();
    if (!dec.ok()) break;
    if (const auto sit = store_.find(id); sit != store_.end()) {
      entries_enc.put_msgid(id);
      entries_enc.put_byte(sit->second.cls);
      entries_enc.put_bytes(sit->second.payload);
      ++found;
    } else if (const auto rit = retired_.find(id); rit != retired_.end()) {
      entries_enc.put_msgid(id);
      entries_enc.put_byte(rit->second.first);
      entries_enc.put_bytes(rit->second.second);
      ++found;
    }
  }
  if (found == 0) return;
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(kGbPush);
  enc.put_u64(found);
  enc.put_bytes(entries_enc.bytes());
  channel_.send(from, Tag::kGbcast, Payload(std::shared_ptr<const Bytes>(std::move(wire))));
  ctx_.metrics().inc(m_pull_served_, static_cast<std::int64_t>(found));
}

void GenericBroadcast::on_push(ProcessId, Decoder& dec) {
  const std::uint64_t n = dec.get_u64();
  Decoder entries(dec.get_view());
  if (!dec.ok()) return;
  bool resolved_any = false;
  for (std::uint64_t i = 0; i < n && entries.ok(); ++i) {
    const MsgId id = entries.get_msgid();
    const MsgClass cls = entries.get_byte();
    const BytesView body = entries.get_view();
    if (!entries.ok()) break;
    ctx_.metrics().inc(m_pushes_);
    if (!is_delivered(id) && !store_.count(id)) {
      // No resolve deadline (a resolution or an ACK quorum is already
      // waiting on it) and no fast-path latency sample.
      store_.emplace(id, Stored{cls, to_bytes(body), sim::kNoTimer, 0});
      consider(id);
      maybe_fast_deliver(id);
    }
    // The reliable broadcast may have brought the payload since the pull.
    if (missing_.erase(id) != 0) resolved_any = true;
  }
  if (resolved_any && missing_.empty()) maybe_finalize_round();
}

void GenericBroadcast::send_pull(ProcessId target, const std::set<MsgId>& ids) {
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(kGbPull);
  enc.put_u64(ids.size());
  for (const MsgId& id : ids) enc.put_msgid(id);
  channel_.send(target, Tag::kGbcast, Payload(std::shared_ptr<const Bytes>(std::move(wire))));
  ctx_.metrics().inc(m_pull_requests_);
}

void GenericBroadcast::request_pull() {
  if (missing_.empty() || group_.size() < 2) return;
  ProcessId target = ctx_.self();
  while (target == ctx_.self()) target = group_[pull_rr_++ % group_.size()];
  send_pull(target, missing_);
  if (!pull_timer_armed_) {
    pull_timer_armed_ = true;
    ctx_.after(config_.pull_retry, [this] {
      pull_timer_armed_ = false;
      if (!missing_.empty()) request_pull();
    });
  }
}

void GenericBroadcast::maybe_fast_deliver(const MsgId& id) {
  if (is_delivered(id) || round_over()) return;
  const auto rit = acks_.find(round_);
  if (rit == acks_.end()) return;
  const auto ait = rit->second.find(id);
  if (ait == rit->second.end() ||
      static_cast<int>(ait->second.size()) < fast_quorum()) {
    return;
  }
  const auto sit = store_.find(id);
  if (sit == store_.end()) return;  // payload not here yet
  ++fast_deliveries_;
  ctx_.metrics().inc(m_fast_delivered_);
  ctx_.metrics().observe(h_fast_latency_, ctx_.now() - sit->second.received_at);
  deliver(id, sit->second.cls, sit->second.payload, /*fast=*/true);
  maybe_settle(id);
}

void GenericBroadcast::maybe_settle(const MsgId& id) {
  // Settlement = delivered here AND acked by the whole group: no further
  // ACK can change anything here, so the ACK set is dropped. The store
  // entry stays until the round ends, because this round's report must
  // still list our ACK. A member that has not seen the fast quorum yet may
  // resolve the round from the other members' reports alone; if they left
  // out what they settled, it would deliver the message a round late,
  // after a conflicting one. Closing the round once kSettledCap messages
  // have settled keeps the fast path's working set bounded when no
  // conflict ends it. The per-class ACK count is deliberately NOT
  // decremented: conflict disjointness is a round-scoped invariant and
  // must survive settlement.
  if (!is_delivered(id)) return;
  const auto rit = acks_.find(round_);
  if (rit == acks_.end()) return;
  const auto ait = rit->second.find(id);
  if (ait == rit->second.end() || ait->second.size() < group_.size()) return;
  rit->second.erase(ait);
  if (const auto sit = store_.find(id); sit != store_.end()) sit->second.settled = true;
  if (++settled_ >= kSettledCap) trigger_resolution();
}

std::map<MsgId, GenericBroadcast::Stored>::iterator GenericBroadcast::retire_entry(
    std::map<MsgId, Stored>::iterator it) {
  if (it->second.deadline != sim::kNoTimer) ctx_.cancel(it->second.deadline);
  if (retired_
          .emplace(it->first, std::make_pair(it->second.cls, std::move(it->second.payload)))
          .second) {
    retired_log_.emplace_back(round_, it->first);
  }
  const auto next = store_.erase(it);
  prune_retired();
  return next;
}

void GenericBroadcast::prune_retired() {
  while (!retired_log_.empty() &&
         (retired_log_.front().first + kRetiredRounds < round_ ||
          retired_log_.size() > kRetiredCap)) {
    retired_.erase(retired_log_.front().second);
    retired_log_.pop_front();
  }
}

void GenericBroadcast::deliver(const MsgId& id, MsgClass cls, const Bytes& payload,
                               bool fast, std::uint32_t pos) {
  if (!mark_delivered(id)) return;
  if (observe_deliver_) observe_deliver_(id, cls, round_, fast, pos);
  const obs::Names& names = obs::Names::get();
  if (!fast) {
    ++resolved_deliveries_;
    ctx_.metrics().inc(m_resolved_delivered_);
    if (auto sit = store_.find(id); sit != store_.end() && sit->second.received_at > 0) {
      ctx_.metrics().observe(h_slow_latency_, ctx_.now() - sit->second.received_at);
    }
  }
  ctx_.trace_end(names.gb_fast_pending, id);
  ctx_.trace_instant(fast ? names.gb_deliver_fast : names.gb_deliver_slow, id,
                     static_cast<std::int64_t>(round_));
  auto it = store_.find(id);
  if (it != store_.end() && it->second.deadline != sim::kNoTimer) {
    ctx_.cancel(it->second.deadline);
    it->second.deadline = sim::kNoTimer;
  }
  for (const auto& fn : deliver_fns_) fn(id, cls, payload);
}

void GenericBroadcast::trigger_resolution() {
  if (resolving_ || !is_member()) return;
  resolving_ = true;
  frozen_ = true;
  ctx_.metrics().inc(m_resolutions_);
  ctx_.trace_begin(obs::Names::get().gb_resolve,
                   MsgId{obs::kGbRoundKey, round_},
                   static_cast<std::int64_t>(store_.size()));
  if (ctx_.log().enabled(LogLevel::kDebug)) {
    ctx_.log().debug("gb resolution round=" + std::to_string(round_) + " store=" +
                     std::to_string(store_.size()));
  }
  // Report = snapshot of our round: every message we know plus whether we
  // ACKed it. Slim format carries ids and classes only; payloads resolve
  // from local stores (the pull fallback covers the holdouts). Settled
  // messages follow as runs of consecutive seqs per sender: they count as
  // ACKed, and every member holds their payloads, so ids suffice.
  std::vector<std::pair<MsgId, std::uint64_t>> runs;  // first id, length
  std::uint64_t open = 0;
  for (const auto& [id, stored] : store_) {
    if (!stored.settled) {
      ++open;
      continue;
    }
    if (!runs.empty() && runs.back().first.sender == id.sender &&
        runs.back().first.seq + runs.back().second == id.seq) {
      ++runs.back().second;
    } else {
      runs.emplace_back(id, 1);
    }
  }
  Encoder enc;
  enc.put_u64(round_);
  enc.put_byte(static_cast<std::uint8_t>(config_.wire_format));
  enc.put_u64(open);
  for (const auto& [id, stored] : store_) {
    if (stored.settled) continue;
    enc.put_msgid(id);
    enc.put_byte(stored.cls);
    if (config_.wire_format == WireFormat::kLegacy) enc.put_bytes(stored.payload);
    enc.put_bool(stored.acked);
  }
  enc.put_u64(runs.size());
  for (const auto& [first, length] : runs) {
    enc.put_msgid(first);
    enc.put_u64(length);
  }
  abcast_.abcast(AtomicBroadcast::kGbResolve, enc.take());
}

void GenericBroadcast::on_report(const MsgId& report_id, BytesView wire) {
  Decoder dec(wire);
  const std::uint64_t r = dec.get_u64();
  if (!dec.ok() || r < round_) return;  // late report from a finished round
  const std::uint8_t fmt = dec.get_byte();
  if (!dec.ok() || fmt > static_cast<std::uint8_t>(WireFormat::kLegacy)) return;
  const bool inline_payloads = fmt == static_cast<std::uint8_t>(WireFormat::kLegacy);
  // A report of a later round means the others finished ours while this
  // member is still delivering it (pull-stalled). It is tallied now, under
  // the group in force now, as the others tally it.
  RoundReports& rr = reports_[r];
  if (rr.sequence) return;  // the round's report set is complete
  const ProcessId reporter = report_id.sender;
  if (!rr.reporters.insert(reporter).second) return;  // one report per member
  const std::uint64_t count = dec.get_u64();
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    const MsgId id = dec.get_msgid();
    const MsgClass cls = dec.get_byte();
    BytesView payload;
    if (inline_payloads) payload = dec.get_view();
    const bool acked = dec.get_bool();
    if (!dec.ok()) break;
    Tally& tally = rr.tally[id];
    ++tally.listed;
    if (acked) ++tally.acked;
    if (inline_payloads && !is_delivered(id) && !store_.count(id)) {
      store_.emplace(id, Stored{cls, to_bytes(payload), sim::kNoTimer, 0});
    }
  }
  // A round closes after kSettledCap settlements and only the few already
  // acked by then settle during the resolution, so a longer list is hostile.
  constexpr std::uint64_t kMaxSettled = 4 * kSettledCap;
  const std::uint64_t runs = dec.get_u64();
  std::uint64_t settled = 0;
  for (std::uint64_t i = 0; i < runs && dec.ok(); ++i) {
    const MsgId first = dec.get_msgid();
    const std::uint64_t length = dec.get_u64();
    if (!dec.ok() || length > kMaxSettled - settled) break;
    settled += length;
    for (std::uint64_t k = 0; k < length; ++k) {
      Tally& tally = rr.tally[MsgId{first.sender, first.seq + k}];
      ++tally.listed;
      ++tally.acked;
      tally.settled = true;
    }
  }
  close_round(rr);
  if (r != round_) return;
  // A report commits everyone to this round's resolution: contribute ours.
  if (!resolving_) trigger_resolution();
  maybe_finalize_round();
}

void GenericBroadcast::close_round(RoundReports& rr) const {
  if (rr.sequence || rr.reporters.empty()) return;
  if (static_cast<int>(rr.reporters.size()) < report_need()) return;
  // Deterministic: every member sees the same adelivered report prefix and
  // the same group (view changes are adelivered too), so the sequence is
  // identical everywhere, and fixed from here on: later reports of the
  // round are ignored. An id outside first that fewer than f+1 reports list
  // may have no correct holder: it is left out of this round (holders
  // carry it into the next) rather than stalling every member on a pull.
  // A settled id is held by the whole group. tau >= f+1, so first needs no
  // such check.
  const int f = static_cast<int>(group_.size() - 1) / 3;
  std::vector<MsgId> first;
  std::vector<MsgId> second;
  for (const auto& [id, tally] : rr.tally) {
    if (tally.acked >= tau()) {
      first.push_back(id);
    } else if (tally.settled || tally.listed > f) {
      second.push_back(id);
    }
  }
  // The tally iterates in MsgId order, so both lists are sorted.
  first.insert(first.end(), second.begin(), second.end());
  rr.sequence = std::move(first);
  rr.reporters.clear();
  rr.tally.clear();
}

void GenericBroadcast::maybe_finalize_round() {
  const auto rit = reports_.find(round_);
  if (rit == reports_.end()) return;
  close_round(rit->second);
  if (!rit->second.sequence) return;
  // A copy: a delivery upcall may reach this round's state again.
  const std::vector<MsgId> sequence = *rit->second.sequence;
  // The round is over: no more ACKs or reports in it (the fast path is
  // closed by round_over()).
  frozen_ = true;
  resolving_ = true;
  // Slim reports carry no payloads: every undelivered message of the
  // sequence must be resolvable from the local store before the round can
  // finalize. Anything missing (late join, restore mid-resolution, a
  // payload still on its way) stalls the round locally and is pulled;
  // pushes and rbcast deliveries re-enter here.
  missing_.clear();
  for (const MsgId& id : sequence) {
    if (!is_delivered(id) && !store_.count(id)) missing_.insert(id);
  }
  if (!missing_.empty()) {
    if (!pull_stalled_) {
      pull_stalled_ = true;
      pull_stall_since_ = ctx_.now();
      ctx_.trace_begin(obs::Names::get().gb_pull_wait, MsgId{obs::kGbRoundKey, round_},
                       static_cast<std::int64_t>(missing_.size()));
    }
    request_pull();
    return;
  }
  if (pull_stalled_) {
    pull_stalled_ = false;
    ctx_.metrics().observe(h_pull_wait_, ctx_.now() - pull_stall_since_);
    ctx_.trace_end(obs::Names::get().gb_pull_wait, MsgId{obs::kGbRoundKey, round_});
  }
  // Positions are batch-absolute across the first+second sequence, so every
  // member attributes the same (round, pos) coordinate to each message even
  // though each skips its own fast-delivered prefix inside deliver().
  std::uint32_t pos = 0;
  for (const MsgId& id : sequence) {
    if (const auto sit = store_.find(id); sit != store_.end()) {
      deliver(id, sit->second.cls, sit->second.payload, /*fast=*/false, pos);
    }
    ++pos;
  }
  ++rounds_resolved_;
  ctx_.metrics().inc(m_rounds_resolved_);
  ctx_.trace_end(obs::Names::get().gb_resolve, MsgId{obs::kGbRoundKey, round_},
                 static_cast<std::int64_t>(sequence.size()));
  start_new_round();
}

Bytes GenericBroadcast::snapshot() const {
  Encoder enc;
  enc.put_u64(round_);
  enc.put_u64(reports_.size());
  for (const auto& [r, rr] : reports_) {
    enc.put_u64(r);
    enc.put_u64(rr.reporters.size());
    for (ProcessId p : rr.reporters) enc.put_i32(p);
    enc.put_u64(rr.tally.size());
    for (const auto& [id, tally] : rr.tally) {
      enc.put_msgid(id);
      enc.put_i32(tally.acked);
      enc.put_i32(tally.listed);
      enc.put_bool(tally.settled);
    }
    enc.put_bool(rr.sequence.has_value());
    if (rr.sequence) {
      enc.put_u64(rr.sequence->size());
      for (const MsgId& id : *rr.sequence) enc.put_msgid(id);
    }
  }
  enc.put_u64(delivered_.size());
  for (const auto& [sender, idx] : delivered_) {
    enc.put_i32(sender);
    enc.put_u64(idx.floor);
    enc.put_u64(idx.beyond.size());
    for (const std::uint64_t seq : idx.beyond) enc.put_u64(seq);
  }
  enc.put_u64(store_.size());
  for (const auto& [id, stored] : store_) {
    enc.put_msgid(id);
    enc.put_byte(stored.cls);
    enc.put_bytes(stored.payload);
  }
  return enc.take();
}

void GenericBroadcast::restore(BytesView snapshot) {
  Decoder dec(snapshot);
  round_ = dec.get_u64();
  reports_.clear();
  const std::uint64_t n_rounds = dec.get_u64();
  for (std::uint64_t i = 0; i < n_rounds && dec.ok(); ++i) {
    RoundReports& rr = reports_[dec.get_u64()];
    const std::uint64_t n_rep = dec.get_u64();
    for (std::uint64_t j = 0; j < n_rep && dec.ok(); ++j) rr.reporters.insert(dec.get_i32());
    const std::uint64_t n_tallies = dec.get_u64();
    for (std::uint64_t j = 0; j < n_tallies && dec.ok(); ++j) {
      Tally& tally = rr.tally[dec.get_msgid()];
      tally.acked = dec.get_i32();
      tally.listed = dec.get_i32();
      tally.settled = dec.get_bool();
    }
    if (dec.get_bool()) {
      rr.sequence.emplace();
      const std::uint64_t n_seq = dec.get_u64();
      for (std::uint64_t j = 0; j < n_seq && dec.ok(); ++j) {
        rr.sequence->push_back(dec.get_msgid());
      }
    }
  }
  delivered_.clear();
  const std::uint64_t n_del = dec.get_u64();
  for (std::uint64_t i = 0; i < n_del && dec.ok(); ++i) {
    const ProcessId sender = dec.get_i32();
    DeliveredIndex idx;
    idx.floor = dec.get_u64();
    const std::uint64_t n_beyond = dec.get_u64();
    for (std::uint64_t j = 0; j < n_beyond && dec.ok(); ++j) idx.beyond.insert(dec.get_u64());
    delivered_[sender] = std::move(idx);
  }
  for (auto& [id, stored] : store_) {
    if (stored.deadline != sim::kNoTimer) ctx_.cancel(stored.deadline);
    (void)id;
  }
  store_.clear();
  retired_.clear();
  retired_log_.clear();
  missing_.clear();
  if (pull_stalled_) {
    // The stalled round was superseded by the snapshot; close the span so
    // the flight recorder stays balanced.
    pull_stalled_ = false;
    ctx_.metrics().observe(h_pull_wait_, ctx_.now() - pull_stall_since_);
    ctx_.trace_end(obs::Names::get().gb_pull_wait, MsgId{obs::kGbRoundKey, round_});
  }
  const std::uint64_t n_store = dec.get_u64();
  for (std::uint64_t i = 0; i < n_store && dec.ok(); ++i) {
    const MsgId id = dec.get_msgid();
    Stored stored;
    stored.cls = dec.get_byte();
    stored.payload = dec.get_bytes();
    stored.deadline = ctx_.after(config_.resolve_timeout, [this, id] {
      if (!is_delivered(id)) trigger_resolution();
    });
    store_.emplace(id, std::move(stored));
  }
  frozen_ = false;
  resolving_ = false;
  settled_ = 0;
  acked_cls_.fill(0);
  acks_.clear();
  // We may be the report that completes the quorum count after a member was
  // excluded; harmless otherwise. Under the slim format this may also park
  // the round on the pull path until donors push the missing payloads.
  maybe_finalize_round();
}

void GenericBroadcast::start_new_round() {
  ++round_;
  settled_ = 0;
  acked_cls_.fill(0);
  missing_.clear();
  // Drop report and ACK bookkeeping for finished rounds.
  reports_.erase(reports_.begin(), reports_.lower_bound(round_));
  acks_.erase(acks_.begin(), acks_.lower_bound(round_));
  // The others may have resolved this round already, while this member was
  // still delivering the last one (pull-stalled). Then the round is over:
  // this member ACKs nothing in it and only delivers their sequence.
  frozen_ = round_over();
  resolving_ = frozen_;
  // Carry undelivered messages into the new round: retire delivered
  // entries into the pull window, re-ACK (or re-trigger) the survivors and
  // restart their deadlines.
  std::vector<MsgId> carried;
  for (auto it = store_.begin(); it != store_.end();) {
    if (is_delivered(it->first)) {
      it = retire_entry(it);
    } else {
      carried.push_back(it->first);
      ++it;
    }
  }
  prune_retired();
  for (const MsgId& id : carried) {
    auto& stored = store_.at(id);
    if (stored.deadline != sim::kNoTimer) ctx_.cancel(stored.deadline);
    stored.deadline = ctx_.after(config_.resolve_timeout, [this, id] {
      if (!is_delivered(id)) trigger_resolution();
    });
    stored.acked = false;
    consider(id);
    maybe_fast_deliver(id);
  }
  // Reports of this round that arrived meanwhile commit this member to it.
  if (reports_.count(round_) != 0) {
    if (!resolving_) trigger_resolution();
    maybe_finalize_round();
  }
}

bool GenericBroadcast::round_over() const {
  const auto rit = reports_.find(round_);
  return rit != reports_.end() && rit->second.sequence.has_value();
}

}  // namespace gcs
