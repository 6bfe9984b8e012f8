/// \file atomic_broadcast.hpp
/// Atomic (total order) broadcast by reduction to consensus [Chandra–Toueg].
///
/// This is the paper's basic ordering component (Fig 6/7/9): it does NOT
/// rely on a group membership service — it runs on ◇S consensus, so false
/// suspicions never block or reconfigure it. The reduction:
///
///   abcast(m):  rbcast m to the group.
///   ordering:   each process batches rdelivered-but-unordered messages and
///               proposes the batch as consensus instance k; the decision of
///               instance k is a batch, delivered in deterministic (MsgId)
///               order; then k+1 starts if work remains.
///
/// Wire-path memory model (DESIGN.md §12): proposals carry only (MsgId,
/// subtag) tuples — payload bytes never ride inside consensus. Deliveries
/// resolve payloads from the local store fed by rbcast. In the full stack
/// that substrate sends each payload once (quorum mode), so uniform agreement rests on the consensus admission
/// gate this class installs: a member votes for a batch only once it holds
/// every payload the batch names, so every decided payload is held by a
/// majority, and rbcast retention keeps it until every member has it.
/// Channel FIFO order does not make the payload arrive before the
/// decision: the origin may have crashed mid-send, or the decision may
/// come from a majority this process is not in. A process that decides an
/// instance without holding some payload stalls that instance and pulls
/// the payloads (PayloadPull, on Tag::kAbcast) until they arrive, then
/// resumes in order.
///
/// Bookkeeping is per origin and indexed by the origin's dense rbcast seq:
/// one ring of entries (pending meta plus the stored payload) and one
/// ascending ring of the seqs eligible for the next
/// proposal. The ids this process proposed into each open instance are kept
/// in proposal order, so a decision releases only its own batch and a
/// proposal walks only eligible ids: neither is O(pending).
///
/// Dynamic membership (the membership layer lives ABOVE this component):
/// view changes arrive as ordinary adelivered messages; set_members() takes
/// effect for instances started after the current decision, so every member
/// agrees on the member set of every instance.
///
/// Messages carry a one-byte SubTag so several upper layers (application,
/// membership, generic broadcast) share one total order — the essence of
/// "the ordering problem is solved in exactly one place" (§4.1).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "broadcast/payload_pull.hpp"
#include "broadcast/proposal.hpp"
#include "broadcast/reliable_broadcast.hpp"
#include "consensus/consensus.hpp"
#include "consensus/consensus_protocol.hpp"
#include "sim/context.hpp"
#include "util/delivered_index.hpp"
#include "util/ring.hpp"

namespace gcs {

class AtomicBroadcast {
 public:
  /// Upper-layer multiplexing within the single total order.
  using SubTag = std::uint8_t;
  static constexpr SubTag kApp = 0;         ///< application payloads
  static constexpr SubTag kViewChange = 1;  ///< membership view changes
  static constexpr SubTag kGbResolve = 2;   ///< generic broadcast resolution

  using DeliverFn = std::function<void(const MsgId& id, const Bytes& payload)>;

  struct Config {
    /// Retry period for the payload-pull fallback; each retry rotates to
    /// the next member, so one unresponsive target cannot stall a joiner.
    Duration pull_retry = msec(25);
    /// Maximum consensus instances running concurrently. 1 reproduces the
    /// legacy one-at-a-time behavior exactly; >1 pipelines ordering: each
    /// proposal takes a fresh instance while earlier ones are still
    /// deciding, out-of-order decisions park in the gap-tolerant decided
    /// log and deliveries stay strictly in instance order.
    std::uint32_t pipeline_depth = 1;
    /// Messages per proposal; 0 = unbounded (the whole eligible pending
    /// set, the legacy behavior).
    std::uint32_t max_batch = 0;
    /// AIMD controller (DESIGN.md §15): adjusts the effective depth/batch
    /// online from abcast.batch_wait_us vs consensus.accept_rtt_us, backing
    /// off multiplicatively when the channel's flow-control window stalls.
    bool adaptive = false;
    /// Adaptive controller bounds + tick period.
    std::uint32_t max_pipeline_depth = 32;
    std::uint32_t min_batch = 8;
    Duration control_interval = msec(5);
  };

  /// \p channel carries the payload-pull fallback (Tag::kAbcast) and its
  /// flow-control window backpressures proposals.
  AtomicBroadcast(sim::Context& ctx, ReliableBroadcast& rbcast, ConsensusProtocol& consensus,
                  ReliableChannel& channel, Config config);
  AtomicBroadcast(sim::Context& ctx, ReliableBroadcast& rbcast, ConsensusProtocol& consensus,
                  ReliableChannel& channel);

  /// Install the initial view (Fig 9: init_view). Must be identical at all
  /// initial members. \p first_instance > 0 is used by joiners after state
  /// transfer.
  void init(std::vector<ProcessId> members, std::uint64_t first_instance = 0);

  /// Atomically broadcast \p payload for layer \p subtag. Returns the
  /// message id (also passed to the delivery callback).
  MsgId abcast(SubTag subtag, Payload payload);

  /// Total-order delivery for one subtag. Deliveries across subtags are
  /// interleaved in the single total order.
  void subscribe(SubTag subtag, DeliverFn fn);

  /// Change the member set, effective from the next consensus instance.
  /// Called by the membership layer inside a kViewChange delivery.
  void set_members(std::vector<ProcessId> members);
  const std::vector<ProcessId>& members() const { return members_; }
  bool is_member() const;

  /// Next consensus instance number (== number of decided batches). Part of
  /// the state-transfer snapshot for joiners.
  std::uint64_t next_instance() const { return next_instance_; }

  /// Serialize the ordering state a joiner needs: member set, next
  /// instance, and the ids already delivered (so relayed copies of old
  /// messages are not re-ordered). Taken at a view-change adelivery point,
  /// where it is identical at every member. That point may lie inside a
  /// batch: the snapshot then names the batch's instance and carries the
  /// batch, and the joiner delivers the rest of it, in the new view.
  Bytes snapshot() const;

  /// Install a snapshot (joiner side). Replaces init().
  void restore(BytesView snapshot);

  /// Number of messages adelivered locally.
  std::uint64_t delivered_count() const {
    return static_cast<std::uint64_t>(ctx_.metrics().counter(m_delivered_));
  }

  /// Messages rdelivered but not yet ordered (probe gauge).
  std::size_t pending_count() const { return pending_count_; }

  /// Consensus instances currently in flight from this proposer (window
  /// occupancy, <= effective pipeline depth) and the high-water mark.
  std::uint32_t open_proposals() const {
    return next_proposal_k_ > next_instance_
               ? static_cast<std::uint32_t>(next_proposal_k_ - next_instance_)
               : 0;
  }
  std::uint32_t max_open_proposals() const { return max_open_; }
  /// Effective knobs (== the configured ones unless adaptive).
  std::uint32_t current_depth() const { return cur_depth_; }
  std::uint32_t current_batch() const { return cur_batch_; }

  /// Payloads currently retained for delivery / pull serving (tests assert
  /// boundedness of the tail-GC'd store).
  std::size_t store_size() const { return stored_count_; }

  /// Total work performed by the GC of the adelivered dedup index, in ids
  /// retired below a sender's watermark. Each id retires once, so this is
  /// O(deliveries); the regression test bounds it against the
  /// full-set-scan behavior of earlier versions.
  std::uint64_t stability_gc_steps() const { return gc_steps_; }

  /// Total work of the proposal bookkeeping, in steps: one per proposal
  /// built plus one per eligible id it takes, and one per decided instance
  /// plus one per id it released. Each id is visited O(1) times per
  /// proposal carrying it, so this is O(decisions + proposed ids),
  /// independent of how many messages are pending; the
  /// regression test bounds it against the per-decision scan of the whole
  /// pending set that it replaced.
  std::uint64_t proposal_steps() const { return proposal_steps_; }

  /// Oracle taps. The delivery observer reports the global total-order
  /// coordinate of each adelivery: consensus instance k plus the message's
  /// index within the decided batch (position in the MsgId-sorted decision
  /// value, which is identical at every process by consensus agreement —
  /// including entries a process skips as already delivered, so the
  /// coordinate never depends on local dedup state).
  using SubmitObserver = std::function<void(const MsgId&, SubTag)>;
  using DeliverObserver =
      std::function<void(const MsgId&, SubTag, std::uint64_t instance, std::uint32_t index)>;
  void set_observer(SubmitObserver on_submit, DeliverObserver on_deliver) {
    observe_submit_ = std::move(on_submit);
    observe_deliver_ = std::move(on_deliver);
  }

 private:
  /// proposed_in sentinel: not currently in any open instance.
  static constexpr std::uint64_t kNotProposed = ~std::uint64_t{0};

  /// One message of one origin: live from its rdelivery (or a pushed
  /// payload) until the store's tail GC drops it. Pending messages are
  /// always stored.
  struct Entry {
    Payload payload;        // empty: a dead slot
    TimePoint since = 0;    // when rdelivered locally (order-latency metric)
    // Open instance currently carrying this message (proposer-side dedup:
    // a message rides in at most one open instance; reset when that
    // instance decides without it, making it eligible again).
    std::uint64_t proposed_in = kNotProposed;
    SubTag subtag = 0;
    bool pending = false;   // rdelivered, not yet ordered
    bool proposed = false;  // included in a consensus proposal at least once
    bool stored() const { return payload.shared() != nullptr; }
  };
  /// Per-origin state, indexed by the origin's rbcast seq.
  struct Origin {
    DeliveredIndex adelivered;
    std::uint64_t base = 0;  // entries[i] is seq base + i
    Ring<Entry> entries;     // front and back slots always stored
    // Seqs of pending messages in no open instance, ascending.
    Ring<std::uint64_t> eligible;

    Entry* find(std::uint64_t seq) {
      return seq >= base && seq - base < entries.size() ? &entries[seq - base] : nullptr;
    }
    const Entry* find(std::uint64_t seq) const {
      return seq >= base && seq - base < entries.size() ? &entries[seq - base] : nullptr;
    }
    Entry& at(std::uint64_t seq);
    void make_eligible(std::uint64_t seq);
    // A pending message left the eligible set without being proposed
    // (another proposer's batch ordered it).
    void drop_eligible(std::uint64_t seq);
    // Drop dead slots at both ends.
    void trim();
  };
  /// Delivered payloads are retained for this many further instances to
  /// serve pulls from processes still catching up, then tail-GC'd.
  static constexpr std::uint64_t kPayloadRetainInstances = 64;

  void on_rdeliver(const MsgId& id, BytesView payload);
  void on_decide(std::uint64_t k, const Bytes& value);
  void process_decisions();
  void try_start_instances();
  /// One proposer per instance (DESIGN.md §15): true while consensus names
  /// a stable leader other than us that we do not suspect, and our oldest
  /// eligible message has waited less than the hold; the hold timer then
  /// retries. The leader's dissemination copy reached it directly, so it
  /// proposes our messages.
  bool leave_to_leader();
  /// True while the channel's Totem-style send window is exhausted toward
  /// some member: a slow follower backpressures proposals end-to-end
  /// instead of ballooning open-instance memory.
  bool fc_blocked();
  /// AIMD tick (Config::adaptive): adjusts cur_depth_/cur_batch_ from the
  /// interval means of batch_wait vs accept_rtt and the fc-stall signal.
  void control_tick();
  Origin& origin(ProcessId sender);
  const Entry* find(const MsgId& id) const;
  bool stored(const MsgId& id) const {
    const Entry* e = find(id);
    return e != nullptr && e->stored();
  }
  /// Store \p body for \p id (a no-op if stored already).
  Entry& store(const MsgId& id, SubTag subtag, BytesView body);
  /// Ids this process proposed into instance \p k (or earlier) that \p k
  /// decided without become eligible again.
  void release_proposed(std::uint64_t k);
  /// The consensus admission gate: true when every id of a batch is in the
  /// store or already adelivered.
  bool holds_payloads(const Bytes& value) const;
  bool is_adelivered(const MsgId& id) const;
  bool mark_adelivered(const MsgId& id);

  sim::Context& ctx_;
  ReliableBroadcast& rbcast_;
  ConsensusProtocol& consensus_;
  ReliableChannel& channel_;
  Config config_;
  MetricId m_broadcasts_;
  MetricId m_delivered_;
  MetricId h_order_latency_;  ///< rdeliver -> adeliver (time-to-order)
  MetricId h_batch_wait_;     ///< rdeliver -> first consensus proposal (batch residence)
  MetricId h_gap_wait_;       ///< out-of-order decision parked behind a gap
  MetricId h_accept_rtt_;     ///< consensus accept RTT (read by the controller)
  std::vector<ProcessId> members_;
  bool initialized_ = false;
  std::uint64_t next_instance_ = 0;
  /// Next instance this proposer will propose into; the open window is
  /// [next_instance_, next_proposal_k_).
  std::uint64_t next_proposal_k_ = 0;
  std::uint32_t cur_depth_ = 1;   // effective pipeline depth
  std::uint32_t cur_batch_ = 0;   // effective max batch (0 = unbounded)
  std::uint32_t max_open_ = 0;    // high-water open-window occupancy
  bool window_saturated_ = false; // hit the depth gate since the last tick
  bool proposing_ = false;        // re-entrancy guard (propose can decide inline)
  bool delivering_ = false;       // re-entrancy guard of process_decisions()
  bool view_change_pending_ = false;  // delivering a batch that changes the members
  bool fc_retry_armed_ = false;   // timer to re-try proposals after an fc stall
  bool hold_armed_ = false;       // timer to re-try proposals when a hold expires
  bool control_armed_ = false;    // adaptive tick scheduled
  // Controller interval bookkeeping: last-seen histogram totals.
  std::uint64_t ctl_bw_count_ = 0;
  double ctl_bw_sum_ = 0;
  std::uint64_t ctl_rtt_count_ = 0;
  double ctl_rtt_sum_ = 0;
  // Per origin, by ProcessId: pending messages, stored payloads, and the
  // adelivered dedup index (watermark-compressed; it shrinks by local
  // delivery alone: a message received everywhere, i.e. stable, may still
  // ride in a later pipelined decision, which must find it there).
  std::vector<Origin> origins_;
  std::size_t pending_count_ = 0;
  std::size_t stored_count_ = 0;
  // The ids this process proposed into its open instances, in proposal
  // order, and per proposal its instance and how many ids it took.
  Ring<MsgId> proposed_ids_;
  Ring<std::pair<std::uint64_t, std::uint32_t>> proposed_counts_;
  std::uint64_t gc_steps_ = 0;
  std::uint64_t proposal_steps_ = 0;
  std::map<std::uint64_t, Bytes> decision_buffer_;  // out-of-order decisions
  Bytes delivering_batch_;  // the decision being delivered (for snapshot())
  // Instances whose decision is parked behind an undecided gap (pipelining
  // out-of-order arrivals): k -> when it was buffered, for the gap_wait
  // span/metric closed when k finally processes in order.
  std::map<std::uint64_t, TimePoint> gap_since_;
  // Payloads the head decision needs but the store lacks; while any is
  // missing the decision stays buffered.
  PayloadPull pull_;
  // (instance, id) log of deliveries, driving the store's tail GC.
  std::deque<std::pair<std::uint64_t, MsgId>> delivered_log_;
  std::vector<std::vector<DeliverFn>> subscribers_;
  SubmitObserver observe_submit_;
  DeliverObserver observe_deliver_;
};

}  // namespace gcs
