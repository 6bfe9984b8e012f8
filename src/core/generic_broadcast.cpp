#include "core/generic_broadcast.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/codec.hpp"

namespace gcs {

namespace {
// Kind byte of a fast-path ACK on Tag::kGbcast; 0 and 1 are the payload
// pull's.
constexpr std::uint8_t kAck = 2;
}  // namespace

bool GenericBroadcast::ProcessSet::insert(ProcessId p) {
  if (p < 0) return false;
  const auto word = static_cast<std::size_t>(p) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (static_cast<unsigned>(p) % 64);
  if (word > high.size()) high.resize(word, 0);
  std::uint64_t& w = word == 0 ? low : high[word - 1];
  if ((w & bit) != 0) return false;
  w |= bit;
  return true;
}

int GenericBroadcast::ProcessSet::size() const {
  int n = std::popcount(low);
  for (const std::uint64_t w : high) n += std::popcount(w);
  return n;
}

bool GenericBroadcast::ProcessSet::empty() const {
  return low == 0 &&
         std::all_of(high.begin(), high.end(), [](std::uint64_t w) { return w == 0; });
}

void GenericBroadcast::ProcessSet::clear() {
  low = 0;
  std::fill(high.begin(), high.end(), 0);
}

void GenericBroadcast::ProcessSet::swap(ProcessSet& other) {
  std::swap(low, other.low);
  high.swap(other.high);
}

ProcessId GenericBroadcast::ProcessSet::nth(std::size_t k) const {
  for (std::size_t i = 0; i <= high.size(); ++i) {
    std::uint64_t w = i == 0 ? low : high[i - 1];
    const auto count = static_cast<std::size_t>(std::popcount(w));
    if (k >= count) {
      k -= count;
      continue;
    }
    for (; k > 0; --k) w &= w - 1;  // clear the lowest k members
    return static_cast<ProcessId>(i * 64 + static_cast<std::size_t>(std::countr_zero(w)));
  }
  assert(false && "nth past the set's size");
  return kNoProcess;
}

void GenericBroadcast::Entry::recycle() {
  payload.clear();
  ackers.clear();
  deadline = sim::kNoTimer;
  received_at = 0;
  cls = 0;
  held = false;
  acked = false;
  settled = false;
}

GenericBroadcast::Entry& GenericBroadcast::Origin::at(std::uint64_t seq) {
  if (entries.empty()) {
    base = seq;
    entries.extend(1);
  } else if (seq < base) {
    entries.extend_front(static_cast<std::size_t>(base - seq));
    base = seq;
  } else if (seq - base >= entries.size()) {
    entries.extend(static_cast<std::size_t>(seq - base) + 1);
  }
  return entries[seq - base];
}

void GenericBroadcast::Origin::trim() {
  while (!entries.empty() && !entries.front().held) {
    entries.pop_front();
    ++base;
  }
  while (!entries.empty() && !entries.back().held) entries.pop_back();
}

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
      h_fast_latency_(metric_id("gbcast.fast_latency_us")),
      h_slow_latency_(metric_id("gbcast.slow_latency_us")),
      channel_(channel), rbcast_(rbcast), abcast_(abcast),
      relation_(std::move(relation)), config_(config),
      pull_(ctx, channel, Tag::kGbcast, group_, "gbcast", obs::Names::get().gb_pull_wait,
            config.pull_retry,
            [this](const MsgId& id) -> std::optional<PayloadPull::Held> {
              if (const Entry* e = held(id)) return PayloadPull::Held{e->cls, e->payload};
              for (std::size_t i = 0; i < retired_.size(); ++i) {
                const Retired& r = retired_[i];
                if (r.id == id) return PayloadPull::Held{r.cls, r.payload};
              }
              return std::nullopt;
            },
            [this](const MsgId& id, MsgClass cls, BytesView body) {
              if (is_delivered(id) || held(id) != nullptr || !storable(id)) return;
              // No resolve deadline (a resolution or an ACK quorum is
              // already waiting on it) and no fast-path latency sample.
              store(id, cls, body);
              consider(id);
              maybe_fast_deliver(id);
            },
            [this](bool drained) {
              if (drained) maybe_finalize_round();
            }) {
  rbcast_.on_deliver([this](const MsgId& id, BytesView b) { on_gb_data(id, b); });
  channel_.subscribe(Tag::kGbcast, [this](ProcessId from, BytesView b) {
    Decoder dec(b);
    if (dec.get_byte() == kAck && dec.ok()) {
      on_ack(from, dec);
    } else {
      pull_.on_message(from, b);
    }
  });
  abcast_.subscribe(AtomicBroadcast::kGbResolve,
                    [this](const MsgId& id, const Bytes& b) { on_report(id, b); });
  // No stability hook for the delivered index: it is watermark-compressed
  // (DeliveredIndex), so the out-of-order overflow self-prunes as gaps fill
  // and the contiguous prefix collapses into the per-sender floor. Erasing
  // overflow bits early would stall that collapse forever.
}

void GenericBroadcast::set_group(std::vector<ProcessId> group) {
  group_ = std::move(group);
  is_member_ = std::find(group_.begin(), group_.end(), ctx_.self()) != group_.end();
  rbcast_.set_group(group_);
  // Quorums changed: a pending resolution may now be satisfiable (e.g. a
  // crashed member was excluded, shrinking report_need). That holds for a
  // later round this member holds reports of while still delivering its
  // own, as it does for the others, who are in that round now.
  for (std::size_t i = 0; i < reports_used_; ++i) close_round(reports_[i]);
  maybe_finalize_round();
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

GenericBroadcast::Origin& GenericBroadcast::origin(ProcessId sender) {
  assert(sender >= 0);
  const auto idx = static_cast<std::size_t>(sender);
  if (idx >= origins_.size()) origins_.resize(idx + 1);
  return origins_[idx];
}

GenericBroadcast::Entry* GenericBroadcast::held(const MsgId& id) {
  const auto idx = static_cast<std::size_t>(id.sender);
  if (id.sender < 0 || idx >= origins_.size()) return nullptr;
  Entry* e = origins_[idx].find(id.seq);
  return e != nullptr && e->held ? e : nullptr;
}

bool GenericBroadcast::storable(const MsgId& id) const {
  if (id.sender < 0 || id.sender >= channel_.universe_size()) return false;
  const auto idx = static_cast<std::size_t>(id.sender);
  const std::uint64_t floor = idx < origins_.size() ? origins_[idx].delivered.floor : 0;
  return (id.seq >= floor ? id.seq - floor : floor - id.seq) < kWireSeqWindow;
}

bool GenericBroadcast::is_delivered(const MsgId& id) const {
  const auto idx = static_cast<std::size_t>(id.sender);
  return id.sender >= 0 && idx < origins_.size() && origins_[idx].delivered.contains(id.seq);
}

bool GenericBroadcast::mark_delivered(const MsgId& id) {
  return origin(id.sender).delivered.insert(id.seq);
}

std::size_t GenericBroadcast::store_span() const {
  std::size_t span = 0;
  for (const Origin& o : origins_) span += o.entries.size();
  return span;
}

GenericBroadcast::Entry& GenericBroadcast::store(const MsgId& id, MsgClass cls,
                                                 BytesView body) {
  Entry& e = origin(id.sender).at(id.seq);
  assert(!e.held);
  e.held = true;
  e.cls = cls;
  e.payload.assign(body.begin(), body.end());
  ++store_count_;
  if (const std::size_t i = find_pending(round_, id); i < pending_.size()) {
    e.ackers.swap(pending_[i].ackers);
    drop_pending(i);
  }
  return e;
}

std::size_t GenericBroadcast::find_pending(std::uint64_t r, const MsgId& id) const {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].round == r && pending_[i].id == id) return i;
  }
  return pending_.size();
}

GenericBroadcast::ProcessSet* GenericBroadcast::pending_for(std::uint64_t r, const MsgId& id) {
  if (const std::size_t i = find_pending(r, id); i < pending_.size()) return &pending_[i].ackers;
  if (pending_.size() >= kPendingCap) return nullptr;
  pending_.push_back(PendingAcks{r, id, {}});
  return &pending_.back().ackers;
}

void GenericBroadcast::drop_pending(std::size_t i) {
  std::swap(pending_[i], pending_.back());
  pending_.pop_back();
}

GenericBroadcast::ProcessSet* GenericBroadcast::find_acks(std::uint64_t r, const MsgId& id) {
  // A held message's ACKs of this round live in its slot, all others in
  // the pending list.
  if (r == round_) {
    if (Entry* e = held(id)) return &e->ackers;
  }
  const std::size_t i = find_pending(r, id);
  return i < pending_.size() ? &pending_[i].ackers : nullptr;
}

GenericBroadcast::RoundReports* GenericBroadcast::find_reports(std::uint64_t r) {
  for (std::size_t i = 0; i < reports_used_; ++i) {
    if (reports_[i].round == r) return &reports_[i];
  }
  return nullptr;
}

GenericBroadcast::RoundReports& GenericBroadcast::reports_for(std::uint64_t r) {
  if (RoundReports* rr = find_reports(r)) return *rr;
  if (reports_used_ == reports_.size()) reports_.emplace_back();
  // Take the first spare and rotate it into place: the used prefix stays
  // sorted by round.
  std::size_t at = reports_used_;
  while (at > 0 && reports_[at - 1].round > r) --at;
  std::rotate(reports_.begin() + static_cast<std::ptrdiff_t>(at),
              reports_.begin() + static_cast<std::ptrdiff_t>(reports_used_),
              reports_.begin() + static_cast<std::ptrdiff_t>(reports_used_) + 1);
  ++reports_used_;
  RoundReports& rr = reports_[at];
  rr.round = r;
  rr.reporters.clear();
  rr.tally.clear();
  rr.closed = false;
  rr.sequence.clear();
  return rr;
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
  // The rbcast hands up relayed frames of any id; the store is indexed by it.
  if (!storable(id) || is_delivered(id) || held(id) != nullptr) return;
  Decoder dec(wire);
  const MsgClass cls = dec.get_byte();
  const BytesView body = dec.get_view();
  if (!dec.ok()) return;
  const sim::TimerId deadline = ctx_.after(config_.resolve_timeout, [this, id] {
    if (!is_delivered(id)) trigger_resolution();
  });
  Entry& e = store(id, cls, body);
  e.received_at = ctx_.now();
  e.deadline = deadline;
  ctx_.trace_begin(obs::Names::get().gb_fast_pending, id, cls);
  consider(id);
  // An ACK quorum may have assembled before the payload arrived.
  maybe_fast_deliver(id);
  // So may a resolution: a round pull-stalled on this payload goes on.
  if (pull_.resolve(id)) maybe_finalize_round();
}

void GenericBroadcast::consider(const MsgId& id) {
  if (!is_member_ || frozen_ || is_delivered(id)) return;
  Entry* e = held(id);
  if (e == nullptr) return;
  // Conflict check against everything we ACKed this round.
  if (conflicts_acked_[e->cls]) {
    trigger_resolution();
    return;
  }
  e->acked = true;
  if (!acked_cls_[e->cls]) {
    acked_cls_[e->cls] = true;
    for (std::size_t c = 0; c < conflicts_acked_.size(); ++c) {
      conflicts_acked_[c] =
          conflicts_acked_[c] || relation_.conflicts(static_cast<MsgClass>(c), e->cls);
    }
  }
  ctx_.trace_instant(obs::Names::get().gb_ack, id, static_cast<std::int64_t>(round_));
  // Our own ACK counts here and now; the callers check the quorum next.
  e->ackers.insert(ctx_.self());
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(kAck);
  enc.put_u64(round_);
  enc.put_msgid(id);
  const Payload ack(std::shared_ptr<const Bytes>(std::move(wire)));
  for (ProcessId p : group_) {
    if (p != ctx_.self()) channel_.send(p, Tag::kGbcast, ack);
  }
}

void GenericBroadcast::on_ack(ProcessId from, Decoder& dec) {
  const std::uint64_t r = dec.get_u64();
  const MsgId id = dec.get_msgid();
  // A stale round, or an id no store slot can hold.
  if (!dec.ok() || r < round_ || !storable(id)) return;
  if (is_delivered(id)) {
    // Late ACKs for a delivered message still count toward settlement
    // (all-acked → the store entry can retire early), but must not revive
    // bookkeeping that settlement already cleared.
    ProcessSet* ackers = find_acks(r, id);
    if (ackers == nullptr || ackers->empty()) return;
    ackers->insert(from);
    if (r == round_) maybe_settle(id);
    return;
  }
  Entry* e = r == round_ ? held(id) : nullptr;
  ProcessSet* ackers = e != nullptr ? &e->ackers : pending_for(r, id);
  if (ackers == nullptr) return;  // the pending list is full: only the fast path loses
  ackers->insert(from);
  if (r != round_) return;
  if (e != nullptr) {
    maybe_fast_deliver(id);
  } else if (ackers->size() == fast_quorum()) {
    // A quorum holds a payload this member still lacks. Its origin's copy
    // is most likely on the way; if not (the origin sent it before this
    // member joined), fetch it from the ACKers.
    fetch_from_ackers(id, 0);
  }
}

void GenericBroadcast::fetch_from_ackers(const MsgId& id, std::size_t attempt) {
  ctx_.after(config_.pull_retry, [this, id, attempt] {
    if (is_delivered(id) || held(id) != nullptr) return;
    const ProcessSet* ackers = find_acks(round_, id);
    if (ackers == nullptr || ackers->empty()) return;
    // Every ACKer holds the payload; rotate over them, in id order, across
    // retries.
    pull_.send(ackers->nth(attempt % static_cast<std::size_t>(ackers->size())), {id});
    fetch_from_ackers(id, attempt + 1);
  });
}

void GenericBroadcast::maybe_fast_deliver(const MsgId& id) {
  if (is_delivered(id) || round_over()) return;
  Entry* e = held(id);  // null: the payload is not here yet
  if (e == nullptr || e->ackers.size() < fast_quorum()) return;
  ctx_.metrics().inc(m_fast_delivered_);
  ctx_.metrics().observe(h_fast_latency_, ctx_.now() - e->received_at);
  deliver(id, *e, /*fast=*/true);
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
  // conflict ends it. The ACKed-class mark is deliberately NOT cleared:
  // conflict disjointness is a round-scoped invariant and must survive
  // settlement.
  if (!is_delivered(id)) return;
  ProcessSet* ackers = find_acks(round_, id);
  if (ackers == nullptr || ackers->empty() ||
      static_cast<std::size_t>(ackers->size()) < group_.size()) {
    return;
  }
  if (Entry* e = held(id)) {
    e->ackers.clear();
    e->settled = true;
  } else {
    drop_pending(find_pending(round_, id));
  }
  if (++settled_ >= kSettledCap) trigger_resolution();
}

void GenericBroadcast::retire_entry(const MsgId& id, Entry& entry) {
  if (entry.deadline != sim::kNoTimer) ctx_.cancel(entry.deadline);
  if (retired_.size() == kRetiredCap) retired_.pop_front();
  retired_.extend(retired_.size() + 1);  // a recycled slot, with its buffer
  Retired& r = retired_.back();
  r.id = id;
  r.round = round_;
  r.cls = entry.cls;
  r.payload.assign(entry.payload.begin(), entry.payload.end());
  entry.recycle();
  --store_count_;
  prune_retired();
}

void GenericBroadcast::prune_retired() {
  while (!retired_.empty() && retired_.front().round + kRetiredRounds < round_) {
    retired_.pop_front();
  }
}

void GenericBroadcast::deliver(const MsgId& id, Entry& entry, bool fast, std::uint32_t pos) {
  if (!mark_delivered(id)) return;
  const MsgClass cls = entry.cls;
  if (observe_deliver_) observe_deliver_(id, cls, round_, fast, pos);
  const obs::Names& names = obs::Names::get();
  if (!fast) {
    ctx_.metrics().inc(m_resolved_delivered_);
    if (entry.received_at > 0) {
      ctx_.metrics().observe(h_slow_latency_, ctx_.now() - entry.received_at);
    }
  }
  ctx_.trace_end(names.gb_fast_pending, id);
  ctx_.trace_instant(fast ? names.gb_deliver_fast : names.gb_deliver_slow, id,
                     static_cast<std::int64_t>(round_));
  if (entry.deadline != sim::kNoTimer) {
    ctx_.cancel(entry.deadline);
    entry.deadline = sim::kNoTimer;
  }
  // The upcalls get a copy: one may store a message, and so move the slots.
  if (deliver_depth_ == delivering_.size()) delivering_.push_back(std::make_unique<Bytes>());
  Bytes& payload = *delivering_[deliver_depth_++];
  payload.assign(entry.payload.begin(), entry.payload.end());
  for (const auto& fn : deliver_fns_) fn(id, cls, payload);
  --deliver_depth_;
}

template <typename Fn>
void GenericBroadcast::for_each_settled_run(Fn&& fn) const {
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    const Origin& o = origins_[sender];
    std::uint64_t length = 0;
    for (std::size_t i = 0; i <= o.entries.size(); ++i) {
      if (i < o.entries.size() && o.entries[i].held && o.entries[i].settled) {
        ++length;
      } else if (length > 0) {
        fn(MsgId{static_cast<ProcessId>(sender), o.base + i - length}, length);
        length = 0;
      }
    }
  }
}

void GenericBroadcast::trigger_resolution() {
  if (resolving_ || !is_member_) return;
  resolving_ = true;
  frozen_ = true;
  ctx_.metrics().inc(m_resolutions_);
  ctx_.trace_begin(obs::Names::get().gb_resolve,
                   MsgId{obs::kGbRoundKey, round_},
                   static_cast<std::int64_t>(store_count_));
  if (ctx_.log().enabled(LogLevel::kDebug)) {
    ctx_.log().debug("gb resolution round=" + std::to_string(round_) + " store=" +
                     std::to_string(store_count_));
  }
  // Report = snapshot of our round: every message we know plus whether we
  // ACKed it, in MsgId order. It carries ids only; payloads resolve from
  // local stores (the pull fallback covers the holdouts). Settled
  // messages follow as runs of consecutive seqs per sender: they count as
  // ACKed, and every member holds their payloads, so ids suffice.
  std::uint64_t runs = 0;
  std::uint64_t settled = 0;
  for_each_settled_run([&](const MsgId&, std::uint64_t length) {
    ++runs;
    settled += length;
  });
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_u64(round_);
  enc.put_u64(store_count_ - settled);
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    const Origin& o = origins_[sender];
    for (std::size_t i = 0; i < o.entries.size(); ++i) {
      const Entry& e = o.entries[i];
      if (!e.held || e.settled) continue;
      enc.put_msgid(MsgId{static_cast<ProcessId>(sender), o.base + i});
      enc.put_bool(e.acked);
    }
  }
  enc.put_u64(runs);
  for_each_settled_run([&enc](const MsgId& first, std::uint64_t length) {
    enc.put_msgid(first);
    enc.put_u64(length);
  });
  abcast_.abcast(AtomicBroadcast::kGbResolve,
                 Payload(std::shared_ptr<const Bytes>(std::move(wire))));
}

void GenericBroadcast::on_report(const MsgId& report_id, BytesView wire) {
  Decoder dec(wire);
  const std::uint64_t r = dec.get_u64();
  if (!dec.ok() || r < round_) return;  // late report from a finished round
  // A report of a later round means the others finished ours while this
  // member is still delivering it (pull-stalled). It is tallied now, under
  // the group in force now, as the others tally it.
  RoundReports& rr = reports_for(r);
  if (rr.closed) return;  // the round's report set is complete
  if (!rr.reporters.insert(report_id.sender)) return;  // one report per member
  const std::uint64_t count = dec.get_u64();
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    const MsgId id = dec.get_msgid();
    const bool acked = dec.get_bool();
    if (!dec.ok()) break;
    rr.tally.push_back(Tally{id, acked ? 1 : 0, 1, false});
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
      rr.tally.push_back(Tally{MsgId{first.sender, first.seq + k}, 1, 1, true});
    }
  }
  close_round(rr);
  if (r != round_) return;
  // A report commits everyone to this round's resolution: contribute ours.
  if (!resolving_) trigger_resolution();
  maybe_finalize_round();
}

namespace {
// Sort a round's tally lines by id and merge each id's lines into one.
template <typename Tally>
void merge_tally(std::vector<Tally>& tally) {
  std::sort(tally.begin(), tally.end(),
            [](const Tally& a, const Tally& b) { return a.id < b.id; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < tally.size(); ++i) {
    if (out > 0 && tally[out - 1].id == tally[i].id) {
      tally[out - 1].acked += tally[i].acked;
      tally[out - 1].listed += tally[i].listed;
      tally[out - 1].settled = tally[out - 1].settled || tally[i].settled;
    } else {
      tally[out++] = tally[i];
    }
  }
  tally.resize(out);
}
}  // namespace

void GenericBroadcast::close_round(RoundReports& rr) const {
  if (rr.closed || rr.reporters.empty()) return;
  if (rr.reporters.size() < report_need()) return;
  // Deterministic: every member sees the same adelivered report prefix and
  // the same group (view changes are adelivered too), so the sequence is
  // identical everywhere, and fixed from here on: later reports of the
  // round are ignored. An id outside first that fewer than f+1 reports list
  // may have no correct holder: it is left out of this round (holders
  // carry it into the next) rather than stalling every member on a pull.
  // A settled id is held by the whole group. tau >= f+1, so first needs no
  // such check. The merged tally is in MsgId order, so first and second
  // are sorted.
  merge_tally(rr.tally);
  const int f = static_cast<int>(group_.size() - 1) / 3;
  const int t = tau();
  rr.sequence.clear();
  for (const Tally& tally : rr.tally) {
    if (tally.acked >= t) rr.sequence.push_back(tally.id);
  }
  for (const Tally& tally : rr.tally) {
    if (tally.acked < t && (tally.settled || tally.listed > f)) {
      rr.sequence.push_back(tally.id);
    }
  }
  rr.closed = true;
  rr.reporters.clear();
  rr.tally.clear();
}

void GenericBroadcast::maybe_finalize_round() {
  RoundReports* rr = find_reports(round_);
  if (rr == nullptr) return;
  close_round(*rr);
  if (!rr->closed) return;
  // A copy: a delivery upcall may reach this round's state again.
  const std::vector<MsgId> sequence = rr->sequence;
  // The round is over: no more ACKs or reports in it (the fast path is
  // closed by round_over()).
  frozen_ = true;
  resolving_ = true;
  // Reports carry no payloads: every undelivered message of the
  // sequence must be resolvable from the local store before the round can
  // finalize. Anything missing (late join, restore mid-resolution, a
  // payload still on its way) stalls the round locally and is pulled;
  // pushes and rbcast deliveries re-enter here.
  pull_.clear();
  for (const MsgId& id : sequence) {
    if (!is_delivered(id) && held(id) == nullptr) pull_.need(id);
  }
  const bool stalled = pull_.wait(MsgId{obs::kGbRoundKey, round_});
  if (!stalled) {
    // Positions are batch-absolute across the first+second sequence, so
    // every member attributes the same (round, pos) coordinate to each
    // message even though each skips its own fast-delivered prefix inside
    // deliver().
    std::uint32_t pos = 0;
    for (const MsgId& id : sequence) {
      if (Entry* e = held(id)) deliver(id, *e, /*fast=*/false, pos);
      ++pos;
    }
    ctx_.metrics().inc(m_rounds_resolved_);
    ctx_.trace_end(obs::Names::get().gb_resolve, MsgId{obs::kGbRoundKey, round_},
                   static_cast<std::int64_t>(sequence.size()));
  }
  if (!stalled) start_new_round();
}

Bytes GenericBroadcast::snapshot() const {
  Encoder enc;
  enc.put_u64(round_);
  enc.put_u64(reports_used_);
  std::vector<Tally> merged;
  for (std::size_t i = 0; i < reports_used_; ++i) {
    const RoundReports& rr = reports_[i];
    enc.put_u64(rr.round);
    enc.put_u64(static_cast<std::uint64_t>(rr.reporters.size()));
    for (int k = 0; k < rr.reporters.size(); ++k) {
      enc.put_i32(rr.reporters.nth(static_cast<std::size_t>(k)));
    }
    merged = rr.tally;
    merge_tally(merged);
    enc.put_u64(merged.size());
    for (const Tally& tally : merged) {
      enc.put_msgid(tally.id);
      enc.put_i32(tally.acked);
      enc.put_i32(tally.listed);
      enc.put_bool(tally.settled);
    }
    enc.put_bool(rr.closed);
    if (rr.closed) {
      enc.put_u64(rr.sequence.size());
      for (const MsgId& id : rr.sequence) enc.put_msgid(id);
    }
  }
  const auto delivered_any = [](const Origin& o) {
    return o.delivered.floor > 0 || !o.delivered.beyond.empty();
  };
  enc.put_u64(static_cast<std::uint64_t>(
      std::count_if(origins_.begin(), origins_.end(), delivered_any)));
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    const DeliveredIndex& idx = origins_[sender].delivered;
    if (!delivered_any(origins_[sender])) continue;
    enc.put_i32(static_cast<ProcessId>(sender));
    enc.put_u64(idx.floor);
    enc.put_u64(idx.beyond.size());
    for (const std::uint64_t seq : idx.beyond) enc.put_u64(seq);
  }
  enc.put_u64(store_count_);
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    const Origin& o = origins_[sender];
    for (std::size_t i = 0; i < o.entries.size(); ++i) {
      const Entry& e = o.entries[i];
      if (!e.held) continue;
      enc.put_msgid(MsgId{static_cast<ProcessId>(sender), o.base + i});
      enc.put_byte(e.cls);
      enc.put_bytes(e.payload);
    }
  }
  return enc.take();
}

void GenericBroadcast::restore(BytesView snapshot) {
  Decoder dec(snapshot);
  const int universe = channel_.universe_size();
  round_ = dec.get_u64();
  reports_used_ = 0;
  const std::uint64_t n_rounds = dec.get_u64();
  for (std::uint64_t i = 0; i < n_rounds && dec.ok(); ++i) {
    RoundReports& rr = reports_for(dec.get_u64());
    const std::uint64_t n_rep = dec.get_u64();
    for (std::uint64_t j = 0; j < n_rep && dec.ok(); ++j) {
      const ProcessId reporter = dec.get_i32();
      if (reporter < universe) rr.reporters.insert(reporter);
    }
    const std::uint64_t n_tallies = dec.get_u64();
    for (std::uint64_t j = 0; j < n_tallies && dec.ok(); ++j) {
      Tally tally;
      tally.id = dec.get_msgid();
      tally.acked = dec.get_i32();
      tally.listed = dec.get_i32();
      tally.settled = dec.get_bool();
      if (dec.ok()) rr.tally.push_back(tally);
    }
    if (dec.get_bool()) {
      rr.closed = true;
      const std::uint64_t n_seq = dec.get_u64();
      for (std::uint64_t j = 0; j < n_seq && dec.ok(); ++j) {
        rr.sequence.push_back(dec.get_msgid());
      }
    }
  }
  // Cancel the store's deadlines and empty it, with the delivered index.
  for (Origin& o : origins_) {
    for (std::size_t i = 0; i < o.entries.size(); ++i) {
      const Entry& e = o.entries[i];
      if (e.held && e.deadline != sim::kNoTimer) ctx_.cancel(e.deadline);
    }
    o.entries.clear();
    o.delivered = DeliveredIndex{};
  }
  store_count_ = 0;
  const std::uint64_t n_del = dec.get_u64();
  for (std::uint64_t i = 0; i < n_del && dec.ok(); ++i) {
    const ProcessId sender = dec.get_i32();
    DeliveredIndex idx;
    idx.floor = dec.get_u64();
    const std::uint64_t n_beyond = dec.get_u64();
    for (std::uint64_t j = 0; j < n_beyond && dec.ok(); ++j) idx.beyond.insert(dec.get_u64());
    if (dec.ok() && sender >= 0 && sender < universe) origin(sender).delivered = std::move(idx);
  }
  retired_.clear();
  // The snapshot supersedes a stalled round; close its span so the flight
  // recorder stays balanced.
  pull_.reset();
  frozen_ = false;
  resolving_ = false;
  settled_ = 0;
  acked_cls_.fill(false);
  conflicts_acked_.fill(false);
  pending_.clear();
  const std::uint64_t n_store = dec.get_u64();
  for (std::uint64_t i = 0; i < n_store && dec.ok(); ++i) {
    const MsgId id = dec.get_msgid();
    const MsgClass cls = dec.get_byte();
    const BytesView body = dec.get_view();
    if (!dec.ok() || held(id) != nullptr || !storable(id)) continue;
    const sim::TimerId deadline = ctx_.after(config_.resolve_timeout, [this, id] {
      if (!is_delivered(id)) trigger_resolution();
    });
    store(id, cls, body).deadline = deadline;
  }
  // We may be the report that completes the quorum count after a member was
  // excluded; harmless otherwise. This may also park the round on the pull
  // path until donors push the missing payloads.
  maybe_finalize_round();
}

void GenericBroadcast::start_new_round() {
  ++round_;
  settled_ = 0;
  acked_cls_.fill(false);
  conflicts_acked_.fill(false);
  // Drop report and ACK bookkeeping for finished rounds.
  std::size_t finished = 0;
  while (finished < reports_used_ && reports_[finished].round < round_) ++finished;
  std::rotate(reports_.begin(), reports_.begin() + static_cast<std::ptrdiff_t>(finished),
              reports_.begin() + static_cast<std::ptrdiff_t>(reports_used_));
  reports_used_ -= finished;
  for (std::size_t i = pending_.size(); i-- > 0;) {
    if (pending_[i].round < round_) drop_pending(i);
  }
  // The others may have resolved this round already, while this member was
  // still delivering the last one (pull-stalled). Then the round is over:
  // this member ACKs nothing in it and only delivers their sequence.
  frozen_ = round_over();
  resolving_ = frozen_;
  // Carry undelivered messages into the new round: retire delivered
  // entries into the pull window, re-ACK (or re-trigger) the survivors and
  // restart their deadlines. This round's ACKs that came early move into
  // the survivors' slots.
  std::vector<MsgId> carried = std::move(carried_scratch_);
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    Origin& o = origins_[sender];
    for (std::size_t i = 0; i < o.entries.size(); ++i) {
      Entry& e = o.entries[i];
      if (!e.held) continue;
      e.ackers.clear();
      const MsgId id{static_cast<ProcessId>(sender), o.base + i};
      if (is_delivered(id)) {
        retire_entry(id, e);
      } else {
        carried.push_back(id);
      }
    }
    o.trim();
  }
  prune_retired();
  for (std::size_t i = pending_.size(); i-- > 0;) {
    if (Entry* e = held(pending_[i].id); e != nullptr && pending_[i].round == round_) {
      e->ackers.swap(pending_[i].ackers);
      drop_pending(i);
    }
  }
  for (const MsgId& id : carried) {
    Entry* e = held(id);
    if (e == nullptr) continue;
    if (e->deadline != sim::kNoTimer) ctx_.cancel(e->deadline);
    e->deadline = ctx_.after(config_.resolve_timeout, [this, id] {
      if (!is_delivered(id)) trigger_resolution();
    });
    e->acked = false;
    consider(id);
    maybe_fast_deliver(id);
  }
  carried.clear();
  carried_scratch_ = std::move(carried);
  // Reports of this round that arrived meanwhile commit this member to it.
  if (find_reports(round_) != nullptr) {
    if (!resolving_) trigger_resolution();
    maybe_finalize_round();
  }
}

bool GenericBroadcast::round_over() const {
  for (std::size_t i = 0; i < reports_used_; ++i) {
    if (reports_[i].round == round_) return reports_[i].closed;
  }
  return false;
}

}  // namespace gcs
