#include "broadcast/reliable_broadcast.hpp"

#include <algorithm>

#include "util/codec.hpp"

namespace gcs {

namespace {
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kWatermarks = 1;
}  // namespace

ReliableBroadcast::ReliableBroadcast(sim::Context& ctx, ReliableChannel& channel, Tag tag)
    : ctx_(ctx), channel_(channel), tag_(tag),
      m_broadcasts_(metric_id("rbcast.broadcasts")),
      m_delivered_(metric_id("rbcast.delivered")),
      m_stability_gossip_(metric_id("rbcast.stability_gossip")),
      m_stability_pruned_(metric_id("rbcast.stability_pruned")) {
  channel_.subscribe(tag_, [this](ProcessId from, BytesView b) { on_message(from, b); });
}

void ReliableBroadcast::set_group(std::vector<ProcessId> group) {
  group_ = std::move(group);
  if (stability_enabled_) {
    // Membership changed: drop watermarks of departed members (a crashed
    // member would otherwise freeze the floor forever) and re-min.
    for (auto it = peer_watermarks_.begin(); it != peer_watermarks_.end();) {
      const bool still_member =
          std::find(group_.begin(), group_.end(), it->first) != group_.end();
      it = still_member ? ++it : peer_watermarks_.erase(it);
    }
    recompute_floors();
  }
}

MsgId ReliableBroadcast::broadcast(Payload payload) {
  const MsgId id{ctx_.self(), next_seq_++};
  broadcast_with_id(id, payload);
  return id;
}

bool ReliableBroadcast::mark_seen(const MsgId& id) {
  if (!seen_[id.sender].insert(id.seq).second) return false;
  ++seen_count_;
  return true;
}

void ReliableBroadcast::broadcast_with_id(const MsgId& id, const Payload& payload) {
  if (id.sender == ctx_.self() && id.seq >= next_seq_) next_seq_ = id.seq + 1;
  if (below_floor(id) || !mark_seen(id)) return;  // already known
  note_received(id);
  // Frame into a pooled buffer; the channel's retransmit queues hold the
  // shared buffer, so fan-out costs no copies and steady state no allocs.
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(kData);
  enc.put_msgid(id);
  enc.put_bytes(payload.bytes());
  // Send to the whole group (ourselves excluded: we deliver directly below,
  // and marking the id seen suppresses the loopback copy).
  channel_.send_group(group_, tag_, Payload(std::shared_ptr<const Bytes>(std::move(wire))));
  ctx_.metrics().inc(m_broadcasts_);
  ctx_.metrics().inc(m_delivered_);
  ctx_.trace_instant(obs::Names::get().rbcast_flood, id,
                     static_cast<std::int64_t>(payload.size()));
  ctx_.trace_instant(obs::Names::get().rbcast_deliver, id);
  if (observe_broadcast_) observe_broadcast_(id);
  if (observe_deliver_) observe_deliver_(id);
  for (const auto& fn : deliver_fns_) fn(id, payload.bytes());
}

void ReliableBroadcast::on_message(ProcessId from, BytesView payload) {
  Decoder dec(payload);
  const std::uint8_t kind = dec.get_byte();
  if (kind == kData) {
    handle_data(payload);
  } else if (kind == kWatermarks) {
    handle_watermarks(from, dec);
  }
}

void ReliableBroadcast::handle_data(BytesView wire) {
  Decoder dec(wire);
  dec.get_byte();  // kind
  const MsgId id = dec.get_msgid();
  const BytesView body = dec.get_view();
  if (!dec.ok()) return;
  if (below_floor(id)) return;   // stable: late relay of an old message
  if (!mark_seen(id)) return;    // duplicate
  note_received(id);
  if (non_uniform_) {
    // Lazy mode: no relay at all — NOT uniform (see header).
    ctx_.metrics().inc(m_delivered_);
    ctx_.trace_instant(obs::Names::get().rbcast_deliver, id);
    if (observe_deliver_) observe_deliver_(id);
    for (const auto& fn : deliver_fns_) fn(id, body);
    return;
  }
  // Relay before delivering: guarantees uniformity under crash-stop. The
  // incoming view is materialized once into a pooled buffer that every
  // destination's channel queue then shares.
  std::shared_ptr<Bytes> relay = ctx_.pool().acquire();
  relay->assign(wire.begin(), wire.end());
  channel_.send_group(group_, tag_, Payload(std::shared_ptr<const Bytes>(std::move(relay))));
  ctx_.metrics().inc(m_delivered_);
  ctx_.trace_instant(obs::Names::get().rbcast_relay, id);
  ctx_.trace_instant(obs::Names::get().rbcast_deliver, id);
  if (observe_deliver_) observe_deliver_(id);
  for (const auto& fn : deliver_fns_) fn(id, body);
}

bool ReliableBroadcast::below_floor(const MsgId& id) const {
  if (!stability_enabled_) return false;
  auto it = stable_floor_.find(id.sender);
  return it != stable_floor_.end() && id.seq < it->second;
}

void ReliableBroadcast::note_received(const MsgId& id) {
  if (!stability_enabled_) return;
  auto& upto = received_upto_[id.sender];
  auto& gaps = received_gaps_[id.sender];
  if (id.seq < upto) return;
  gaps.insert(id.seq);
  while (!gaps.empty() && *gaps.begin() == upto) {
    gaps.erase(gaps.begin());
    ++upto;
  }
}

void ReliableBroadcast::enable_stability(Duration interval) {
  if (stability_enabled_) return;
  stability_enabled_ = true;
  gossip_interval_ = interval;
  // Seed the contiguous watermarks from what we already hold.
  for (const auto& [sender, seqs] : seen_) {
    for (const std::uint64_t seq : seqs) note_received(MsgId{sender, seq});
  }
  ctx_.after(gossip_interval_, [this] { gossip_tick(); });
}

void ReliableBroadcast::gossip_tick() {
  if (!stability_enabled_) return;
  Encoder enc;
  enc.put_byte(kWatermarks);
  enc.put_u64(received_upto_.size());
  for (const auto& [sender, upto] : received_upto_) {
    enc.put_i32(sender);
    enc.put_u64(upto);
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
  for (const auto& [sender, my_upto] : received_upto_) {
    std::uint64_t floor = my_upto;
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
    // Prune the dedup set: ids below the floor answer via below_floor().
    // Per-sender index, so this erases exactly the stable prefix.
    auto sit = seen_.find(sender);
    if (sit != seen_.end()) {
      auto& seqs = sit->second;
      auto end = seqs.lower_bound(floor);
      seen_count_ -= static_cast<std::size_t>(std::distance(seqs.begin(), end));
      seqs.erase(seqs.begin(), end);
    }
    ctx_.metrics().inc(m_stability_pruned_);
  }
}

Bytes ReliableBroadcast::stability_snapshot() const {
  Encoder enc;
  enc.put_bool(stability_enabled_);
  enc.put_u64(received_upto_.size());
  for (const auto& [sender, upto] : received_upto_) {
    enc.put_i32(sender);
    enc.put_u64(upto);
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
    const std::uint64_t upto = dec.get_u64();
    auto& mine = received_upto_[sender];
    mine = std::max(mine, upto);
    // Drop gap entries now covered by the adopted watermark.
    auto& gaps = received_gaps_[sender];
    gaps.erase(gaps.begin(), gaps.lower_bound(mine));
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
