#include "broadcast/atomic_broadcast.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/codec.hpp"

namespace gcs {

AtomicBroadcast::Entry& AtomicBroadcast::Origin::at(std::uint64_t seq) {
  if (entries.empty()) {
    base = seq;
    entries.extend(1);
  } else if (seq < base) {
    for (; base > seq; --base) entries.push_front(Entry{});
  } else if (seq - base >= entries.size()) {
    entries.extend(static_cast<std::size_t>(seq - base) + 1);
  }
  return entries[seq - base];
}

namespace {
// First index of the ascending \p ring whose seq is not below \p seq.
std::size_t lower_bound(const Ring<std::uint64_t>& ring, std::uint64_t seq) {
  std::size_t lo = 0;
  std::size_t hi = ring.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ring[mid] < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

void AtomicBroadcast::Origin::make_eligible(std::uint64_t seq) {
  // Usually the highest (a fresh rdelivery) or the lowest (a release), so
  // the insertion shifts next to nothing.
  if (eligible.empty() || eligible.back() < seq) {
    eligible.push_back(seq);
    return;
  }
  const std::size_t i = lower_bound(eligible, seq);
  if (eligible[i] != seq) eligible.insert(i, seq);
}

void AtomicBroadcast::Origin::drop_eligible(std::uint64_t seq) {
  // Decisions order the oldest messages first: usually the front.
  const std::size_t i = lower_bound(eligible, seq);
  if (i < eligible.size() && eligible[i] == seq) eligible.erase(i);
}

void AtomicBroadcast::Origin::trim() {
  while (!entries.empty() && !entries.front().stored()) {
    entries.pop_front();
    ++base;
  }
  while (!entries.empty() && !entries.back().stored()) entries.pop_back();
}

AtomicBroadcast::AtomicBroadcast(sim::Context& ctx, ReliableBroadcast& rbcast,
                                 ConsensusProtocol& consensus, ReliableChannel& channel)
    : AtomicBroadcast(ctx, rbcast, consensus, channel, Config{}) {}

AtomicBroadcast::AtomicBroadcast(sim::Context& ctx, ReliableBroadcast& rbcast,
                                 ConsensusProtocol& consensus, ReliableChannel& channel,
                                 Config config)
    : ctx_(ctx), rbcast_(rbcast), consensus_(consensus), channel_(channel), config_(config),
      m_broadcasts_(metric_id("abcast.broadcasts")),
      m_delivered_(metric_id("abcast.delivered")),
      h_order_latency_(metric_id("abcast.order_latency_us")),
      h_batch_wait_(metric_id("abcast.batch_wait_us")),
      h_gap_wait_(metric_id("abcast.gap_wait_us")),
      h_accept_rtt_(metric_id("consensus.accept_rtt_us")),
      cur_depth_(std::max<std::uint32_t>(1, config.pipeline_depth)),
      cur_batch_(config.max_batch),
      pull_(ctx, channel, Tag::kAbcast, members_, "abcast", obs::Names::get().abcast_pull_wait,
            config.pull_retry,
            // Some correct member holds every decided payload: the
            // admission gate made a majority hold it before the decision,
            // and each holder keeps it (store, or else rbcast retention)
            // until every member has it.
            [this](const MsgId& id) -> std::optional<PayloadPull::Held> {
              if (const Entry* e = find(id); e != nullptr && e->stored()) {
                return PayloadPull::Held{e->subtag, e->payload.bytes()};
              }
              // A retained rbcast frame is subtag | payload, as abcast()
              // framed it.
              Decoder body(rbcast_.retained(id).value_or(BytesView{}));
              const SubTag subtag = body.get_byte();
              const BytesView payload = body.get_view();
              if (!body.ok()) return std::nullopt;
              return PayloadPull::Held{subtag, payload};
            },
            [this](const MsgId& id, SubTag subtag, BytesView body) {
              if (!is_adelivered(id) && !stored(id)) store(id, subtag, body);
            },
            [this](bool drained) {
              consensus_.retry_deferred();
              if (drained) process_decisions();
            }),
      subscribers_(8) {
  rbcast_.on_deliver([this](const MsgId& id, BytesView b) { on_rdeliver(id, b); });
  consensus_.on_decide([this](std::uint64_t k, const Bytes& v) { on_decide(k, v); });
  consensus_.set_admission([this](const Bytes& v) { return holds_payloads(v); });
  channel_.subscribe(Tag::kAbcast,
                     [this](ProcessId from, BytesView b) { pull_.on_message(from, b); });
}

void AtomicBroadcast::init(std::vector<ProcessId> members, std::uint64_t first_instance) {
  assert(!members.empty());
  members_ = std::move(members);
  next_instance_ = first_instance;
  next_proposal_k_ = first_instance;
  initialized_ = true;
  rbcast_.set_group(members_);
  if (config_.adaptive && !control_armed_) {
    control_armed_ = true;
    ctx_.after(config_.control_interval, [this] { control_tick(); });
  }
}

bool AtomicBroadcast::is_member() const {
  return std::find(members_.begin(), members_.end(), ctx_.self()) != members_.end();
}

AtomicBroadcast::Origin& AtomicBroadcast::origin(ProcessId sender) {
  const auto idx = static_cast<std::size_t>(sender);
  if (idx >= origins_.size()) origins_.resize(idx + 1);
  return origins_[idx];
}

const AtomicBroadcast::Entry* AtomicBroadcast::find(const MsgId& id) const {
  const auto idx = static_cast<std::size_t>(id.sender);
  return idx < origins_.size() ? origins_[idx].find(id.seq) : nullptr;
}

AtomicBroadcast::Entry& AtomicBroadcast::store(const MsgId& id, SubTag subtag, BytesView body) {
  Entry& e = origin(id.sender).at(id.seq);
  if (e.stored()) return e;
  e.payload = Payload(std::make_shared<const Bytes>(body.begin(), body.end()));
  e.subtag = subtag;
  ++stored_count_;
  return e;
}

bool AtomicBroadcast::is_adelivered(const MsgId& id) const {
  const auto idx = static_cast<std::size_t>(id.sender);
  return idx < origins_.size() && origins_[idx].adelivered.contains(id.seq);
}

bool AtomicBroadcast::holds_payloads(const Bytes& value) const {
  if (value.empty()) return true;  // no-op fill
  Decoder dec(value);
  const BatchProposal prop = BatchProposal::decode(dec);
  if (!dec.ok()) return true;  // a corrupt value delivers nothing
  for (const ProposalEntry& e : prop.entries) {
    if (!is_adelivered(e.id) && !stored(e.id)) return false;
  }
  return true;
}

bool AtomicBroadcast::mark_adelivered(const MsgId& id) {
  DeliveredIndex& idx = origin(id.sender).adelivered;
  const std::uint64_t floor = idx.floor;
  const bool fresh = idx.insert(id.seq);
  gc_steps_ += idx.floor - floor;
  return fresh;
}

MsgId AtomicBroadcast::abcast(SubTag subtag, Payload payload) {
  assert(initialized_);
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(subtag);
  enc.put_bytes(payload.bytes());
  ctx_.metrics().inc(m_broadcasts_);
  const MsgId id =
      rbcast_.broadcast(Payload(std::shared_ptr<const Bytes>(std::move(wire))));
  ctx_.trace_instant(obs::Names::get().abcast_submit, id, subtag);
  if (observe_submit_) observe_submit_(id, subtag);
  return id;
}

void AtomicBroadcast::subscribe(SubTag subtag, DeliverFn fn) {
  if (subtag >= subscribers_.size()) subscribers_.resize(subtag + 1);
  subscribers_[subtag].push_back(std::move(fn));
}

void AtomicBroadcast::set_members(std::vector<ProcessId> members) {
  assert(!members.empty());
  members_ = std::move(members);
  rbcast_.set_group(members_);
}

Bytes AtomicBroadcast::snapshot() const {
  Encoder enc;
  enc.put_vector(members_, [](Encoder& e, ProcessId p) { e.put_i32(p); });
  // Mid-batch, the joiner resumes at the batch's own instance.
  const bool mid_batch = !delivering_batch_.empty();
  enc.put_u64(mid_batch ? next_instance_ - 1 : next_instance_);
  std::uint64_t count = 0;
  for (const Origin& o : origins_) count += o.adelivered.floor + o.adelivered.beyond.size();
  enc.put_u64(count);
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    const DeliveredIndex& idx = origins_[sender].adelivered;
    const auto p = static_cast<ProcessId>(sender);
    for (std::uint64_t seq = 0; seq < idx.floor; ++seq) enc.put_msgid(MsgId{p, seq});
    for (const std::uint64_t seq : idx.beyond) enc.put_msgid(MsgId{p, seq});
  }
  enc.put_bytes(rbcast_.stability_snapshot());
  enc.put_bytes(delivering_batch_);
  return enc.take();
}

void AtomicBroadcast::restore(BytesView snapshot) {
  Decoder dec(snapshot);
  auto members = dec.get_vector<ProcessId>([](Decoder& d) { return d.get_i32(); });
  const std::uint64_t next = dec.get_u64();
  const std::uint64_t count = dec.get_u64();
  std::vector<MsgId> delivered;
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) delivered.push_back(dec.get_msgid());
  const BytesView stability = dec.get_view();
  Bytes batch = dec.get_bytes();
  if (!dec.ok()) return;
  rbcast_.restore_stability(stability);
  members_ = std::move(members);
  next_instance_ = next;
  // Stored payloads this process never delivered itself are outside the
  // delivery log; those the snapshot covers join it here, so the tail GC
  // drops them like delivered ones.
  std::vector<MsgId> unlogged;
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    Origin& o = origins_[sender];
    for (std::size_t i = 0; i < o.entries.size(); ++i) {
      const std::uint64_t seq = o.base + i;
      if (o.entries[i].stored() && !o.adelivered.contains(seq)) {
        unlogged.push_back(MsgId{static_cast<ProcessId>(sender), seq});
      }
    }
    o.adelivered = DeliveredIndex{};
  }
  for (const MsgId& id : delivered) mark_adelivered(id);
  for (const MsgId& id : unlogged) {
    if (is_adelivered(id)) delivered_log_.emplace_back(next_instance_, id);
  }
  // Discard anything learned while not a member: old pending messages are
  // either already delivered (covered by the adelivered index) or will
  // reappear in future decisions, with payloads resolved via the store or
  // a pull. Open proposals from before the snapshot are moot; the window
  // restarts empty and every remaining pending message becomes eligible.
  for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
    Origin& o = origins_[sender];
    o.eligible.clear();
    for (std::size_t i = 0; i < o.entries.size(); ++i) {
      Entry& e = o.entries[i];
      if (!e.pending) continue;
      if (o.adelivered.contains(o.base + i)) {
        e.pending = false;
        --pending_count_;
      } else {
        e.proposed_in = kNotProposed;
        o.eligible.push_back(o.base + i);
      }
    }
  }
  proposed_ids_.clear();
  proposed_counts_.clear();
  decision_buffer_.erase(decision_buffer_.begin(),
                         decision_buffer_.lower_bound(next_instance_));
  // The snapshot supersedes a stalled head decision and any gap spans
  // opened for decisions; close them so the flight recorder stays balanced.
  pull_.reset();
  for (const auto& [k, since] : gap_since_) {
    ctx_.metrics().observe(h_gap_wait_, ctx_.now() - since);
    ctx_.trace_end(obs::Names::get().abcast_gap_wait, MsgId{obs::kConsensusKey, k});
  }
  gap_since_.clear();
  next_proposal_k_ = next_instance_;
  if (!batch.empty()) {
    // The snapshot was taken inside this batch: its ids up to the view
    // change are delivered above; deliver the rest once the view is in.
    decision_buffer_.emplace(next_instance_, std::move(batch));
    ++next_proposal_k_;
    ctx_.after(0, [this] { process_decisions(); });
  }
  initialized_ = true;
  rbcast_.set_group(members_);
  if (config_.adaptive && !control_armed_) {
    control_armed_ = true;
    ctx_.after(config_.control_interval, [this] { control_tick(); });
  }
  try_start_instances();
}

void AtomicBroadcast::on_rdeliver(const MsgId& id, BytesView payload) {
  if (is_adelivered(id)) return;
  Decoder dec(payload);
  const SubTag subtag = dec.get_byte();
  const BytesView body = dec.get_view();
  if (!dec.ok()) return;
  Entry& e = store(id, subtag, body);
  if (!e.pending) {
    e.pending = true;
    e.since = ctx_.now();
    ++pending_count_;
    origin(id.sender).make_eligible(id.seq);
    ctx_.trace_begin(obs::Names::get().abcast_pending, id, subtag);
    ctx_.trace_begin(obs::Names::get().abcast_batch_wait, id, subtag);
  }
  consensus_.retry_deferred();
  if (pull_.resolve(id)) process_decisions();
  try_start_instances();
}

bool AtomicBroadcast::fc_blocked() {
  // The channel's Totem-style window is per peer; any member with held-back
  // frames means a follower cannot absorb more ordering traffic.
  for (const ProcessId p : members_) {
    if (p != ctx_.self() && channel_.queued_by_flow_control(p) > 0) return true;
  }
  return false;
}

void AtomicBroadcast::try_start_instances() {
  // Not while a decided batch with a view change is being delivered: the
  // change sets the member set of the next instance, and a proposal made
  // from an earlier delivery's upcall would use the old set.
  // process_decisions() proposes once the batch is done.
  if (!initialized_ || proposing_ || view_change_pending_ || !is_member()) return;
  proposing_ = true;
  // Fill the pipeline window: each proposal takes a fresh instance while
  // earlier ones are still deciding, up to the effective depth. A message
  // rides in at most one open instance (proposed_in dedup).
  while (true) {
    if (next_proposal_k_ < next_instance_) next_proposal_k_ = next_instance_;
    const auto open = static_cast<std::uint32_t>(next_proposal_k_ - next_instance_);
    if (open >= cur_depth_) {
      window_saturated_ = true;
      break;
    }
    if (fc_blocked()) {
      // Backpressure: retry once the window drains (acks are not hooked up
      // to this layer, so poll on a short timer).
      if (!fc_retry_armed_) {
        fc_retry_armed_ = true;
        ctx_.after(msec(1), [this] {
          fc_retry_armed_ = false;
          try_start_instances();
        });
      }
      break;
    }
    if (leave_to_leader()) break;
    // Batch eligible pending messages in MsgId order: origins in id order,
    // each one's eligible seqs from the lowest. The proposal is (id,
    // subtag) tuples — O(batch · ~16B) regardless of payload size;
    // payloads are resolved at delivery from the store.
    const std::uint64_t k = next_proposal_k_;
    BatchProposal prop;
    ++proposal_steps_;
    for (std::size_t sender = 0; sender < origins_.size(); ++sender) {
      Origin& o = origins_[sender];
      while (!o.eligible.empty() && (cur_batch_ == 0 || prop.entries.size() < cur_batch_)) {
        ++proposal_steps_;
        const MsgId id{static_cast<ProcessId>(sender), o.eligible.front()};
        o.eligible.pop_front();
        Entry* e = o.find(id.seq);
        assert(e != nullptr && e->pending && e->proposed_in == kNotProposed);
        if (!e->proposed) {
          // Batch-queue residence ends at the first proposal carrying the
          // message (re-proposals after a lost instance are ordering work).
          e->proposed = true;
          ctx_.metrics().observe(h_batch_wait_, ctx_.now() - e->since);
          ctx_.trace_end(obs::Names::get().abcast_batch_wait, id,
                         static_cast<std::int64_t>(k));
        }
        e->proposed_in = k;
        prop.entries.push_back(ProposalEntry{id, e->subtag});
        proposed_ids_.push_back(id);
      }
    }
    if (prop.entries.empty()) break;  // nothing eligible
    proposed_counts_.push_back({k, static_cast<std::uint32_t>(prop.entries.size())});
    next_proposal_k_ = k + 1;
    max_open_ = std::max(max_open_, static_cast<std::uint32_t>(next_proposal_k_ -
                                                               std::min(next_instance_, k)));
    Encoder enc;
    prop.encode(enc);
    consensus_.propose(k, enc.take(), members_);
    // propose() can decide inline (an already-decided instance replays its
    // callbacks), advancing next_instance_; the loop re-reads the window.
  }
  proposing_ = false;
}

bool AtomicBroadcast::leave_to_leader() {
  const ConsensusProtocol::Proposer proposer = consensus_.proposer();
  if (proposer.leader == kNoProcess || proposer.leader == ctx_.self()) return false;
  // The oldest eligible message: each origin's eligible seqs ascend, and an
  // origin's messages are rdelivered in seq order, so its front is its
  // oldest but for relayed or released stragglers.
  TimePoint oldest = std::numeric_limits<TimePoint>::max();
  for (const Origin& o : origins_) {
    if (!o.eligible.empty()) oldest = std::min(oldest, o.find(o.eligible.front())->since);
  }
  if (oldest == std::numeric_limits<TimePoint>::max()) return false;  // nothing to hold
  const Duration wait = oldest + proposer.hold - ctx_.now();
  if (wait <= 0) return false;
  if (!hold_armed_) {
    hold_armed_ = true;
    ctx_.after(wait, [this] {
      hold_armed_ = false;
      try_start_instances();
    });
  }
  return true;
}

void AtomicBroadcast::on_decide(std::uint64_t k, const Bytes& value) {
  if (k >= next_instance_) {
    const bool inserted = decision_buffer_.emplace(k, value).second;
    if (inserted && k > next_instance_ && !gap_since_.count(k)) {
      // Out-of-order decision: parked behind an undecided earlier instance.
      gap_since_.emplace(k, ctx_.now());
      ctx_.trace_begin(obs::Names::get().abcast_gap_wait, MsgId{obs::kConsensusKey, k},
                       static_cast<std::int64_t>(k - next_instance_));
    }
  }
  process_decisions();
}

void AtomicBroadcast::process_decisions() {
  // A delivery upcall can re-enter here: it may abcast, and a proposal for
  // an instance that is already decided decides inline. The nested call
  // must not deliver a later instance in the middle of this one; the loop
  // below picks up whatever it buffered.
  if (delivering_) return;
  delivering_ = true;
  // Drop any stale decisions (re-delivered duplicates) so they cannot block
  // the in-order processing loop below, closing their gap spans if open.
  decision_buffer_.erase(decision_buffer_.begin(),
                         decision_buffer_.lower_bound(next_instance_));
  for (auto git = gap_since_.begin();
       git != gap_since_.end() && git->first < next_instance_;) {
    ctx_.metrics().observe(h_gap_wait_, ctx_.now() - git->second);
    ctx_.trace_end(obs::Names::get().abcast_gap_wait,
                   MsgId{obs::kConsensusKey, git->first});
    git = gap_since_.erase(git);
  }
  // Process decisions strictly in instance order.
  while (!decision_buffer_.empty() && decision_buffer_.begin()->first == next_instance_) {
    // Peek — the head decision stays buffered while payloads are missing.
    Decoder dec(decision_buffer_.begin()->second);
    BatchProposal prop = BatchProposal::decode(dec);
    if (!dec.ok()) prop.entries.clear();  // corrupt decision: deliver nothing
    pull_.clear();
    for (const ProposalEntry& e : prop.entries) {
      if (!is_adelivered(e.id) && !stored(e.id)) pull_.need(e.id);
    }
    // Missing payloads stall this instance (later ones queue behind it,
    // preserving total order) while they are pulled from a peer.
    if (pull_.wait(MsgId{obs::kConsensusKey, next_instance_})) {
      delivering_ = false;
      return;
    }
    delivering_batch_ = std::move(decision_buffer_.begin()->second);
    decision_buffer_.erase(decision_buffer_.begin());
    if (auto git = gap_since_.find(next_instance_); git != gap_since_.end()) {
      // This decision waited out of order behind a now-closed gap.
      ctx_.metrics().observe(h_gap_wait_, ctx_.now() - git->second);
      ctx_.trace_end(obs::Names::get().abcast_gap_wait,
                     MsgId{obs::kConsensusKey, next_instance_});
      gap_since_.erase(git);
    }
    // The proposer already ordered by MsgId (std::map iteration), but sort
    // defensively so the delivery order never depends on the proposer.
    std::sort(prop.entries.begin(), prop.entries.end(),
              [](const ProposalEntry& a, const ProposalEntry& b) { return a.id < b.id; });
    const std::uint64_t instance = next_instance_;
    ++next_instance_;
    view_change_pending_ =
        std::any_of(prop.entries.begin(), prop.entries.end(),
                    [](const ProposalEntry& e) { return e.subtag == kViewChange; });
    for (std::size_t idx = 0; idx < prop.entries.size(); ++idx) {
      const ProposalEntry& e = prop.entries[idx];
      if (!mark_adelivered(e.id)) continue;  // already ordered
      // Present by the stall check above; the store keeps it until tail
      // GC. The upcalls below may grow the store, so hold the buffer, not
      // the entry.
      Origin& o = origin(e.id.sender);
      Entry& entry = o.at(e.id.seq);
      const Payload payload = entry.payload;
      if (entry.pending) {
        if (entry.proposed_in == kNotProposed) o.drop_eligible(e.id.seq);
        entry.pending = false;
        --pending_count_;
        ctx_.metrics().observe(h_order_latency_, ctx_.now() - entry.since);
        ctx_.trace_end(obs::Names::get().abcast_pending, e.id);
        // Left to another proposer: the residence ends unproposed (arg -1).
        if (!entry.proposed) ctx_.trace_end(obs::Names::get().abcast_batch_wait, e.id, -1);
      }
      ctx_.metrics().inc(m_delivered_);
      ctx_.trace_instant(obs::Names::get().abcast_deliver, e.id, e.subtag);
      ctx_.trace_instant(obs::Names::get().abcast_ordered, e.id,
                         static_cast<std::int64_t>(instance));
      if (observe_deliver_) {
        observe_deliver_(e.id, e.subtag, instance, static_cast<std::uint32_t>(idx));
      }
      if (e.subtag < subscribers_.size()) {
        for (const auto& fn : subscribers_[e.subtag]) fn(e.id, payload.bytes());
      }
      delivered_log_.emplace_back(instance, e.id);
    }
    view_change_pending_ = false;
    delivering_batch_.clear();
    release_proposed(instance);
    // Tail GC: payloads of long-delivered messages have served every
    // straggler that could still want them; drop them from the store.
    while (!delivered_log_.empty() &&
           delivered_log_.front().first + kPayloadRetainInstances < next_instance_) {
      const MsgId id = delivered_log_.front().second;
      delivered_log_.pop_front();
      Origin& o = origin(id.sender);
      if (Entry* e = o.find(id.seq); e != nullptr && e->stored()) {
        e->payload = Payload{};
        --stored_count_;
        o.trim();
      }
    }
  }
  delivering_ = false;
  // Old decision values are dead weight; keep a small tail for stragglers'
  // DECIDE echoes, then let consensus forget them. (Forgetting never
  // touches the open pipeline window: it sits at >= next_instance_.)
  if (next_instance_ > 16) consensus_.forget_below(next_instance_ - 16);
  try_start_instances();
}

void AtomicBroadcast::release_proposed(std::uint64_t k) {
  // Messages we proposed into this instance that lost (another proposer's
  // batch decided) become eligible for the next proposal. The front batch
  // is not necessarily k's: this process may have made no proposal into k,
  // and a delivery upcall may already have proposed into k + 1.
  ++proposal_steps_;
  while (!proposed_counts_.empty() && proposed_counts_.front().first <= k) {
    const auto [batch_k, count] = proposed_counts_.front();
    proposed_counts_.pop_front();
    for (std::uint32_t i = 0; i < count; ++i) {
      ++proposal_steps_;
      const MsgId id = proposed_ids_.front();
      proposed_ids_.pop_front();
      Origin& o = origin(id.sender);
      Entry* e = o.find(id.seq);
      if (e == nullptr || !e->pending || e->proposed_in != batch_k) continue;
      e->proposed_in = kNotProposed;
      o.make_eligible(id.seq);
    }
  }
}

void AtomicBroadcast::control_tick() {
  // AIMD (DESIGN.md §15), from this process's own gauges over the last
  // interval. All inputs are deterministic functions of the simulation, so
  // the controller never breaks byte-determinism for a fixed seed.
  const auto& bw = ctx_.metrics().histogram(h_batch_wait_);
  const auto& rtt = ctx_.metrics().histogram(h_accept_rtt_);
  const std::uint64_t bw_count = bw.count();
  const double bw_sum = bw.mean() * static_cast<double>(bw.count());
  const std::uint64_t rtt_count = rtt.count();
  const double rtt_sum = rtt.mean() * static_cast<double>(rtt.count());
  const std::uint64_t d_bw_n = bw_count - ctl_bw_count_;
  const double d_bw = bw_sum - ctl_bw_sum_;
  const std::uint64_t d_rtt_n = rtt_count - ctl_rtt_count_;
  const double d_rtt = rtt_sum - ctl_rtt_sum_;
  ctl_bw_count_ = bw_count;
  ctl_bw_sum_ = bw_sum;
  ctl_rtt_count_ = rtt_count;
  ctl_rtt_sum_ = rtt_sum;
  if (fc_blocked() || pull_.stalled()) {
    // A follower cannot keep up (send window exhausted) or a delivery is
    // stalled on payloads: multiplicative decrease.
    cur_depth_ = std::max<std::uint32_t>(1, cur_depth_ / 2);
    if (cur_batch_ != 0) cur_batch_ = std::max(config_.min_batch, cur_batch_ / 2);
  } else {
    // Additive depth increase only while the window actually saturated —
    // otherwise more depth cannot help.
    if (window_saturated_ && cur_depth_ < config_.max_pipeline_depth) ++cur_depth_;
    if (cur_batch_ != 0 && d_bw_n > 0 && d_rtt_n > 0) {
      const double bw_mean = d_bw / static_cast<double>(d_bw_n);
      const double rtt_mean = d_rtt / static_cast<double>(d_rtt_n);
      // Messages queue longer than a decree round trip: batches are too
      // small for the offered load. Well under it: shrink back.
      if (bw_mean > rtt_mean && cur_batch_ < 4096) {
        cur_batch_ *= 2;
      } else if (bw_mean * 4 < rtt_mean && cur_batch_ > config_.min_batch) {
        cur_batch_ = std::max(config_.min_batch, cur_batch_ / 2);
      }
    }
  }
  window_saturated_ = false;
  ctx_.after(config_.control_interval, [this] { control_tick(); });
  try_start_instances();
}

}  // namespace gcs
