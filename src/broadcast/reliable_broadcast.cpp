#include "broadcast/reliable_broadcast.hpp"

#include <algorithm>

#include "util/codec.hpp"

namespace gcs {

namespace {
// Frame layouts:
//   kData:       kind | id | body          (eager mode)
//   kWatermarks: kind | count | count x (sender | upto)
//   kHeldData:   kind | id | W_o | body    (quorum mode)
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kWatermarks = 1;
constexpr std::uint8_t kHeldData = 2;

bool contains(const std::vector<ProcessId>& group, ProcessId p) {
  return std::find(group.begin(), group.end(), p) != group.end();
}

// First retained frame at or above \p seq (frames are kept in seq order).
template <typename Frames>
auto seq_lower_bound(Frames& frames, std::uint64_t seq) {
  return std::lower_bound(frames.begin(), frames.end(), seq,
                          [](const auto& entry, std::uint64_t s) { return entry.first < s; });
}
}  // namespace

ReliableBroadcast::ReliableBroadcast(sim::Context& ctx, ReliableChannel& channel, Tag tag,
                                     Dissemination mode)
    : ctx_(ctx), channel_(channel), tag_(tag), mode_(mode),
      m_broadcasts_(metric_id("rbcast.broadcasts")),
      m_delivered_(metric_id("rbcast.delivered")),
      m_relayed_(metric_id("rbcast.relayed")),
      m_stability_gossip_(metric_id("rbcast.stability_gossip")),
      m_stability_pruned_(metric_id("rbcast.stability_pruned")) {
  channel_.subscribe(tag_, [this](ProcessId from, BytesView b) { on_message(from, b); });
}

void ReliableBroadcast::set_group(std::vector<ProcessId> group) {
  group_ = std::move(group);
  if (mode_ == Dissemination::kQuorum) {
    // A departed origin's obligations pass to its holders: relay what we
    // retain of it to the new group, then forget it.
    for (auto it = held_.begin(); it != held_.end();) {
      if (contains(group_, it->first)) {
        ++it;
        continue;
      }
      for (const auto& entry : it->second.frames) relay(it->first, entry.second);
      it = held_.erase(it);
    }
    // Departed peers no longer hold W_o back.
    for (auto it = unacked_.begin(); it != unacked_.end();) {
      it = contains(group_, it->first) ? ++it : unacked_.erase(it);
    }
  }
  if (stability_enabled_) {
    // Membership changed: drop watermarks of departed members (a crashed
    // member would otherwise freeze the floor forever) and re-min.
    for (auto it = peer_watermarks_.begin(); it != peer_watermarks_.end();) {
      it = contains(group_, it->first) ? ++it : peer_watermarks_.erase(it);
    }
    recompute_floors();
  }
}

MsgId ReliableBroadcast::broadcast(Payload payload) {
  const MsgId id{ctx_.self(), next_seq_++};
  broadcast_with_id(id, payload);
  return id;
}

bool ReliableBroadcast::mark_seen(const MsgId& id) { return seen_[id.sender].insert(id.seq); }

std::size_t ReliableBroadcast::dedup_size() const {
  std::size_t n = 0;
  for (const auto& [sender, idx] : seen_) n += idx.size();
  return n;
}

std::uint64_t ReliableBroadcast::own_window(std::uint64_t next) {
  std::uint64_t window = next;
  for (auto& [peer, frames] : unacked_) {
    const std::uint64_t acked = channel_.acked_below(peer);
    while (!frames.empty() && frames.front().first < acked) frames.pop_front();
    if (!frames.empty()) window = std::min(window, frames.front().second);
  }
  return window;
}

void ReliableBroadcast::broadcast_with_id(const MsgId& id, const Payload& payload) {
  if (id.sender == ctx_.self() && id.seq >= next_seq_) next_seq_ = id.seq + 1;
  if (!mark_seen(id)) return;  // already known
  const bool quorum = mode_ == Dissemination::kQuorum;
  // Frame into a pooled buffer; the channel's retransmit queues hold the
  // shared buffer, so fan-out costs no copies and steady state no allocs.
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(quorum ? kHeldData : kData);
  enc.put_msgid(id);
  if (quorum) enc.put_u64(own_window(id.seq));
  enc.put_bytes(payload.bytes());
  const Payload frame(std::shared_ptr<const Bytes>(std::move(wire)));
  // One copy to every other member; the origin delivers directly below.
  for (ProcessId p : group_) {
    if (p == ctx_.self()) continue;
    const std::uint64_t seq = channel_.send(p, tag_, frame);
    if (quorum) unacked_[p].emplace_back(seq, id.seq);
  }
  ctx_.metrics().inc(m_broadcasts_);
  ctx_.trace_instant(obs::Names::get().rbcast_flood, id,
                     static_cast<std::int64_t>(payload.size()));
  if (observe_broadcast_) observe_broadcast_(id);
  deliver(id, payload.bytes());
}

void ReliableBroadcast::on_message(ProcessId from, BytesView payload) {
  Decoder dec(payload);
  const std::uint8_t kind = dec.get_byte();
  if (kind == kData || kind == kHeldData) {
    handle_data(from, payload);
  } else if (kind == kWatermarks) {
    handle_watermarks(from, dec);
  }
}

void ReliableBroadcast::deliver(const MsgId& id, BytesView body) {
  ctx_.metrics().inc(m_delivered_);
  ctx_.trace_instant(obs::Names::get().rbcast_deliver, id);
  if (observe_deliver_) observe_deliver_(id);
  for (const auto& fn : deliver_fns_) fn(id, body);
}

void ReliableBroadcast::relay(ProcessId origin, const Payload& frame, ProcessId skip) {
  for (ProcessId p : group_) {
    if (p != ctx_.self() && p != origin && p != skip) channel_.send(p, tag_, frame);
  }
  ctx_.metrics().inc(m_relayed_);
}

void ReliableBroadcast::handle_data(ProcessId from, BytesView wire) {
  Decoder dec(wire);
  const std::uint8_t kind = dec.get_byte();
  const MsgId id = dec.get_msgid();
  const std::uint64_t window = kind == kHeldData ? dec.get_u64() : 0;
  const BytesView body = dec.get_view();
  if (!dec.ok() || id.sender == ctx_.self()) return;
  if (kind == kData) {
    if (!mark_seen(id)) return;  // duplicate
    // Eager: relay before delivering, which makes delivery uniform under
    // crash-stop. The incoming view is materialized once into a pooled
    // buffer that every destination's channel queue then shares.
    std::shared_ptr<Bytes> copy = ctx_.pool().acquire();
    copy->assign(wire.begin(), wire.end());
    relay(id.sender, Payload(std::shared_ptr<const Bytes>(std::move(copy))));
    ctx_.trace_instant(obs::Names::get().rbcast_relay, id);
    deliver(id, body);
    return;
  }
  // Quorum. W_o is news even on a duplicate.
  Held* held = nullptr;
  if (contains(group_, id.sender)) {
    held = &held_[id.sender];
    if (window > held->window) {
      held->window = window;
      prune(id.sender, *held);
    }
  }
  if (!mark_seen(id)) return;  // duplicate
  // An origin outside the group has no holder obligations left to track:
  // pass its frames on at once, as for a suspected one.
  const bool relay_now = held == nullptr || held->suspected;
  const bool keep =
      held != nullptr && id.seq >= std::max(held->window, stable_floor(id.sender));
  if (relay_now || keep) {
    std::shared_ptr<Bytes> copy = ctx_.pool().acquire();
    copy->assign(wire.begin(), wire.end());
    Payload frame(std::shared_ptr<const Bytes>(std::move(copy)));
    if (relay_now) {
      relay(id.sender, frame, from);
      ctx_.trace_instant(obs::Names::get().rbcast_relay, id);
    }
    if (keep) hold(id, *held, std::move(frame));
  }
  deliver(id, body);
}

void ReliableBroadcast::hold(const MsgId& id, Held& held, Payload frame) {
  // Frames from the origin arrive in seq order; only relayed ones can come
  // out of order.
  auto& frames = held.frames;
  if (frames.empty() || frames.back().first < id.seq) {
    frames.emplace_back(id.seq, std::move(frame));
    return;
  }
  frames.emplace(seq_lower_bound(frames, id.seq), id.seq, std::move(frame));
}

void ReliableBroadcast::prune(ProcessId origin, Held& held) {
  const std::uint64_t floor = std::max(held.window, stable_floor(origin));
  while (!held.frames.empty() && held.frames.front().first < floor) held.frames.pop_front();
}

void ReliableBroadcast::suspect(ProcessId origin) {
  if (mode_ != Dissemination::kQuorum || origin == ctx_.self()) return;
  Held& held = held_[origin];
  if (held.suspected) return;
  held.suspected = true;
  for (const auto& entry : held.frames) relay(origin, entry.second);
}

void ReliableBroadcast::restore(ProcessId origin) {
  auto it = held_.find(origin);
  if (it != held_.end()) it->second.suspected = false;
}

std::optional<BytesView> ReliableBroadcast::retained(const MsgId& id) const {
  auto hit = held_.find(id.sender);
  if (hit == held_.end()) return std::nullopt;
  const auto& frames = hit->second.frames;
  const auto it = seq_lower_bound(frames, id.seq);
  if (it == frames.end() || it->first != id.seq) return std::nullopt;
  Decoder dec(it->second.bytes());
  dec.get_byte();
  dec.get_msgid();
  dec.get_u64();
  const BytesView body = dec.get_view();
  if (!dec.ok()) return std::nullopt;
  return body;
}

std::size_t ReliableBroadcast::retained_size() const {
  std::size_t n = 0;
  for (const auto& [origin, held] : held_) n += held.frames.size();
  return n;
}

void ReliableBroadcast::enable_stability(Duration interval) {
  if (stability_enabled_) return;
  stability_enabled_ = true;
  gossip_interval_ = interval;
  ctx_.after(gossip_interval_, [this] { gossip_tick(); });
}

void ReliableBroadcast::gossip_tick() {
  if (!stability_enabled_) return;
  Encoder enc;
  enc.put_byte(kWatermarks);
  enc.put_u64(seen_.size());
  for (const auto& [sender, idx] : seen_) {
    enc.put_i32(sender);
    enc.put_u64(idx.floor);
  }
  channel_.send_group(group_, tag_, enc.bytes());
  ctx_.metrics().inc(m_stability_gossip_);
  ctx_.after(gossip_interval_, [this] { gossip_tick(); });
}

void ReliableBroadcast::handle_watermarks(ProcessId from, Decoder& dec) {
  if (!stability_enabled_) return;
  const std::uint64_t n = dec.get_u64();
  std::map<ProcessId, std::uint64_t> marks;
  for (std::uint64_t i = 0; i < n && dec.ok(); ++i) {
    const ProcessId sender = dec.get_i32();
    marks[sender] = dec.get_u64();
  }
  if (!dec.ok()) return;
  peer_watermarks_[from] = std::move(marks);
  recompute_floors();
}

void ReliableBroadcast::recompute_floors() {
  // The floor for sender s = min over all current members' watermark for s
  // (a member that never mentioned s contributes 0). Need a report from
  // every member, ourselves included.
  if (static_cast<int>(peer_watermarks_.size()) + 1 < static_cast<int>(group_.size())) {
    return;  // not enough reports yet (we count for ourselves below)
  }
  for (const auto& [sender, idx] : seen_) {
    std::uint64_t floor = idx.floor;
    bool complete = true;
    for (ProcessId member : group_) {
      if (member == ctx_.self()) continue;
      auto pit = peer_watermarks_.find(member);
      if (pit == peer_watermarks_.end()) {
        complete = false;
        break;
      }
      auto sit = pit->second.find(sender);
      floor = std::min(floor, sit == pit->second.end() ? 0 : sit->second);
    }
    if (!complete || floor == 0) continue;
    auto& current = stable_floor_[sender];
    if (floor <= current) continue;
    current = floor;
    // Everyone has everything below the floor: no holder needs to keep it.
    // (Dedup needs nothing: our own watermark is already at or above it.)
    if (auto hit = held_.find(sender); hit != held_.end()) prune(sender, hit->second);
    ctx_.metrics().inc(m_stability_pruned_);
  }
}

Bytes ReliableBroadcast::stability_snapshot() const {
  Encoder enc;
  enc.put_bool(stability_enabled_);
  enc.put_u64(seen_.size());
  for (const auto& [sender, idx] : seen_) {
    enc.put_i32(sender);
    enc.put_u64(idx.floor);
  }
  enc.put_u64(stable_floor_.size());
  for (const auto& [sender, floor] : stable_floor_) {
    enc.put_i32(sender);
    enc.put_u64(floor);
  }
  return enc.take();
}

void ReliableBroadcast::restore_stability(BytesView snapshot) {
  Decoder dec(snapshot);
  const bool enabled = dec.get_bool();
  if (!enabled) return;
  const std::uint64_t n_marks = dec.get_u64();
  for (std::uint64_t i = 0; i < n_marks && dec.ok(); ++i) {
    const ProcessId sender = dec.get_i32();
    seen_[sender].advance_floor(dec.get_u64());
  }
  const std::uint64_t n_floors = dec.get_u64();
  for (std::uint64_t i = 0; i < n_floors && dec.ok(); ++i) {
    const ProcessId sender = dec.get_i32();
    const std::uint64_t floor = dec.get_u64();
    auto& mine = stable_floor_[sender];
    mine = std::max(mine, floor);
  }
}

std::uint64_t ReliableBroadcast::stable_floor(ProcessId sender) const {
  auto it = stable_floor_.find(sender);
  return it == stable_floor_.end() ? 0 : it->second;
}

}  // namespace gcs
