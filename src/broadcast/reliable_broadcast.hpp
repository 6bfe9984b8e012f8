/// \file reliable_broadcast.hpp
/// Reliable broadcast over reliable channels, with optional stability
/// tracking. Both atomic and generic broadcast run on one instance each.
///
/// Dissemination (DESIGN.md §12): the origin sends each message to every
/// other member once, and a receiver delivers on receipt without relaying:
/// n-1 copies per message. Uniformity lives a layer up. Atomic broadcast's
/// consensus votes only for batches whose payloads the voter holds, and
/// generic broadcast fast-delivers only on ACKs from holders and resolves
/// only ids that f+1 reports list, so every delivered id has a correct
/// holder. This class keeps that holder able to hand the payload on until
/// every member has it:
///   - every frame from origin o carries W_o, o's lowest seq that some
///     current member has not yet acknowledged at the channel level (the
///     origin reads it off channel cumulative acks);
///   - each receiver retains o's frames at or above the highest W_o it
///     heard (or o's stability floor, when gossip runs), in shared pooled
///     buffers; retained() serves atomic broadcast's payload pulls;
///   - when the failure detector suspects o, or a view excludes o, the
///     receiver relays its retained o-frames to every member but itself
///     and o; while o stays suspected, its frames are relayed on receipt.
/// Retention is bounded by what o sent in the last ack round trip, or, if a
/// member stops acknowledging, by that member's exclusion.
///
/// Dedup is a per-sender DeliveredIndex: a watermark plus the seqs received
/// above it. FIFO channels from the origin keep the out-of-order part empty
/// in steady state, so dedup memory stays O(1) per sender.
///
/// Stability (the role of Ensemble's `stable` component, paper Fig 5): a
/// message is *stable* once every group member has received it. Members
/// periodically gossip their per-sender watermarks; the group-wide minimum
/// is the stability floor. Upper layers do not prune by stability: a stable
/// message may still appear in a later ordering decision, so atomic
/// broadcast collects its dedup index by local delivery instead. A crashed
/// member freezes the floor until the membership excludes it — one more
/// reason exclusions matter (paper §3.3.2).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "util/codec.hpp"
#include "util/delivered_index.hpp"
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

  /// The destination group. Updated by the membership layer when views
  /// change; joiners receive the current state by state transfer rather
  /// than by replaying old broadcasts. A member leaving the group has its
  /// retained frames relayed and then dropped.
  void set_group(std::vector<ProcessId> group);
  const std::vector<ProcessId>& group() const { return group_; }

  /// Broadcast \p payload; returns the id assigned to the message.
  MsgId broadcast(Payload payload);

  /// Broadcast under a caller-chosen id (id.sender must be self; seq must
  /// be fresh). Lets upper layers correlate their own identifiers.
  void broadcast_with_id(const MsgId& id, const Payload& payload);

  void on_deliver(DeliverFn fn) { deliver_fns_.push_back(std::move(fn)); }

  /// -- suspicion-driven relay --------------------------------------------

  /// The failure detector suspects \p origin: relay its retained frames,
  /// and relay its frames on receipt until restore().
  void suspect(ProcessId origin);
  void restore(ProcessId origin);

  /// The payload of a retained frame, if \p id is retained.
  std::optional<BytesView> retained(const MsgId& id) const;

  /// Frames currently retained across all origins (tests, probe gauge).
  std::size_t retained_size() const;

  /// -- stability / garbage collection ----------------------------------

  /// Start gossiping watermarks every \p interval. Off by default (bounded
  /// runs don't need it).
  void enable_stability(Duration interval);

  /// Current stability floor for \p sender (0 = nothing known stable;
  /// floors are "number of stable messages", i.e. seqs < floor are stable).
  std::uint64_t stable_floor(ProcessId sender) const;

  /// Seqs held above a sender's watermark, summed over senders (tests
  /// assert boundedness; probe gauge).
  std::size_t dedup_size() const;

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
  /// Per-origin receiver state.
  struct Held {
    std::uint64_t window = 0;  // highest W_o heard
    bool suspected = false;
    std::deque<std::pair<std::uint64_t, Payload>> frames;  // by seq, >= window
  };

  void on_message(ProcessId from, BytesView payload);
  void handle_data(ProcessId from, BytesView wire);
  void deliver(const MsgId& id, BytesView body);
  bool mark_seen(const MsgId& id);  // false if already seen
  // W_o for the next frame: the lowest own seq some member has not acked.
  std::uint64_t own_window(std::uint64_t next);
  void hold(const MsgId& id, Held& held, Payload frame);
  void prune(ProcessId origin, Held& held);
  // Send \p frame of \p origin to every member except self, the origin and
  // \p skip.
  void relay(ProcessId origin, const Payload& frame, ProcessId skip = kNoProcess);
  void handle_watermarks(ProcessId from, Decoder& dec);
  void gossip_tick();
  void recompute_floors();

  sim::Context& ctx_;
  ReliableChannel& channel_;
  Tag tag_;
  MetricId m_broadcasts_;
  MetricId m_delivered_;
  MetricId m_relayed_;
  MetricId m_stability_gossip_;
  MetricId m_stability_pruned_;
  std::vector<ProcessId> group_;
  std::uint64_t next_seq_ = 0;
  // Dedup and receive watermark per sender: seqs < floor all received.
  std::map<ProcessId, DeliveredIndex> seen_;
  std::vector<DeliverFn> deliver_fns_;
  Observer observe_broadcast_;
  Observer observe_deliver_;

  // Origin side: per peer, the (channel seq, own seq) of each
  // frame sent to it that the channel has not yet seen acknowledged.
  std::map<ProcessId, std::deque<std::pair<std::uint64_t, std::uint64_t>>> unacked_;
  // Receiver side, per origin.
  std::map<ProcessId, Held> held_;

  // Stability state.
  bool stability_enabled_ = false;
  Duration gossip_interval_ = 0;
  // Latest watermark vector reported by each peer.
  std::map<ProcessId, std::map<ProcessId, std::uint64_t>> peer_watermarks_;
  // Group-wide minimum: seqs < floor were received by every member.
  std::map<ProcessId, std::uint64_t> stable_floor_;
};

}  // namespace gcs
