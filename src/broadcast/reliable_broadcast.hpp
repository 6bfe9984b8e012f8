/// \file reliable_broadcast.hpp
/// Uniform reliable broadcast over reliable channels, with optional
/// stability tracking and garbage collection.
///
/// Eager flooding: on first receipt of a message every process relays it to
/// the whole group before delivering. With reliable channels and crash-stop
/// faults this yields *uniform* agreement: if any process delivers m, every
/// correct group member delivers m.
///
/// Stability (the role of Ensemble's `stable` component, paper Fig 5): a
/// message is *stable* once every group member has received it. Members
/// periodically gossip per-sender contiguous receive watermarks; the
/// group-wide minimum is the stability floor. Everything at or below the
/// floor can be forgotten: the duplicate check for old ids becomes a seq
/// comparison instead of a set lookup, so dedup memory stays bounded on
/// long runs. Upper layers do not prune by stability: a stable message may
/// still appear in a later ordering decision, so atomic broadcast collects
/// its dedup index by local delivery instead. A crashed member freezes the
/// floor until the membership excludes it — one more reason exclusions
/// matter (paper §3.3.2).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "util/codec.hpp"
#include "sim/context.hpp"

namespace gcs {

class ReliableBroadcast {
 public:
  /// Delivery hands a view of the payload valid only for the call; layers
  /// that keep the bytes copy them into their own stores.
  using DeliverFn = std::function<void(const MsgId& id, BytesView payload)>;

  /// \param tag distinct wire tag per instance, so independent rbcast
  ///            streams (e.g. atomic broadcast's vs generic broadcast's)
  ///            do not interfere.
  ReliableBroadcast(sim::Context& ctx, ReliableChannel& channel, Tag tag);

  /// The relay/destination group. Updated by the membership layer when
  /// views change; joiners receive the current state by state transfer
  /// rather than by replaying old broadcasts.
  void set_group(std::vector<ProcessId> group);
  const std::vector<ProcessId>& group() const { return group_; }

  /// Broadcast \p payload; returns the id assigned to the message.
  MsgId broadcast(Payload payload);

  /// Broadcast under a caller-chosen id (id.sender must be self; seq must
  /// be fresh). Lets upper layers correlate their own identifiers.
  void broadcast_with_id(const MsgId& id, const Payload& payload);

  /// ABLATION ONLY: skip the receiver-side relay ("lazy" broadcast).
  /// Cheaper — O(n) messages instead of O(n^2) — and NOT uniform: if the
  /// sender crashes while some of its datagrams are lost, the receivers
  /// that did get the message deliver it while correct processes never
  /// will. tests/uniformity_test.cpp demonstrates the violation.
  void unsafe_set_non_uniform(bool on) { non_uniform_ = on; }

  void on_deliver(DeliverFn fn) { deliver_fns_.push_back(std::move(fn)); }

  /// -- stability / garbage collection ----------------------------------

  /// Start gossiping watermarks every \p interval and pruning dedup state
  /// as the floor advances. Off by default (bounded runs don't need it).
  void enable_stability(Duration interval);

  /// Current stability floor for \p sender (0 = nothing known stable;
  /// floors are "number of stable messages", i.e. seqs < floor are stable).
  std::uint64_t stable_floor(ProcessId sender) const;

  /// Dedup-set size (tests assert boundedness; probe gauge).
  std::size_t dedup_size() const { return seen_count_; }

  /// Oracle taps: message origination (the local broadcast call actually
  /// admitting a fresh id) and local rdelivery. The wiring layer closes
  /// over this instance's wire tag, so the callbacks carry only the id.
  using Observer = std::function<void(const MsgId&)>;
  void set_observer(Observer on_broadcast, Observer on_deliver) {
    observe_broadcast_ = std::move(on_broadcast);
    observe_deliver_ = std::move(on_deliver);
  }

  /// Joiner state transfer: the donor's receive watermarks. A joiner
  /// adopting them reports the donor's reception state in its gossip (its
  /// application snapshot covers the effects of those messages), keeping
  /// the group's stability floors moving after the join.
  Bytes stability_snapshot() const;
  void restore_stability(BytesView snapshot);

 private:
  void on_message(ProcessId from, BytesView payload);
  void handle_data(BytesView wire);
  bool mark_seen(const MsgId& id);  // false if already seen
  void handle_watermarks(ProcessId from, Decoder& dec);
  void note_received(const MsgId& id);
  void gossip_tick();
  void recompute_floors();
  bool below_floor(const MsgId& id) const;

  sim::Context& ctx_;
  ReliableChannel& channel_;
  Tag tag_;
  MetricId m_broadcasts_;
  MetricId m_delivered_;
  MetricId m_stability_gossip_;
  MetricId m_stability_pruned_;
  std::vector<ProcessId> group_;
  std::uint64_t next_seq_ = 0;
  // Dedup set indexed per sender so stability GC erases a contiguous
  // per-sender prefix instead of scanning every id ever seen.
  std::map<ProcessId, std::set<std::uint64_t>> seen_;
  std::size_t seen_count_ = 0;
  std::vector<DeliverFn> deliver_fns_;
  Observer observe_broadcast_;
  Observer observe_deliver_;
  bool non_uniform_ = false;

  // Stability state.
  bool stability_enabled_ = false;
  Duration gossip_interval_ = 0;
  // Contiguous receive watermark per sender: we have all seqs < upto.
  std::map<ProcessId, std::uint64_t> received_upto_;
  std::map<ProcessId, std::set<std::uint64_t>> received_gaps_;  // seqs >= upto
  // Latest watermark vector reported by each peer.
  std::map<ProcessId, std::map<ProcessId, std::uint64_t>> peer_watermarks_;
  // Group-wide minimum: seqs < floor are stable and forgotten.
  std::map<ProcessId, std::uint64_t> stable_floor_;
};

}  // namespace gcs
