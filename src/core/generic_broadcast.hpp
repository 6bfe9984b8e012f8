/// \file generic_broadcast.hpp
/// Thrifty generic broadcast (paper §3.2, [Pedone & Schiper DISC'99],
/// [Aguilera et al. DISC'00]).
///
/// Semantics: all group members deliver every gbcast message; two messages
/// whose classes CONFLICT (per the ConflictRelation) are delivered in the
/// same relative order everywhere; non-conflicting messages are unordered.
///
/// Thrifty implementation, round-based:
///
///   Fast path (no conflict observed): the origin sends a message to every
///   member once (reliable broadcast) and every member that holds it and
///   sees no conflict with what it already acknowledged sends an ACK to the
///   others, counting its own locally. A message is gdelivered as soon as
///   ⌊2n/3⌋+1 ACKs for it are seen — two communication steps and no
///   consensus. Because a member never ACKs two conflicting messages in the
///   same round, two conflicting messages can never both reach the fast
///   quorum.
///
///   Resolution path (conflict observed, or a message lingers past a
///   timeout): members freeze their ACK sets and *atomically broadcast* a
///   report of their round. Reports are totally ordered by the atomic
///   broadcast below (Fig 7/9: generic broadcast uses atomic broadcast only
///   when conflicts occur — the "thrifty" property). When the first n−f
///   reports of the round have been adelivered, every member
///   deterministically computes:
///      first  = messages acked in ≥ (fast_quorum − f) of those reports
///               — a superset of everything that may have been
///               fast-delivered anywhere;
///      second = the other messages that ≥ f+1 reports list (or one
///               reports settled), so some correct member holds each.
///   and delivers first, then second (each in MsgId order), skipping what
///   it already delivered. The round then ends and a new round starts;
///   messages in neither set stay with their holders for the next round.
///
/// Wire-path memory model (DESIGN.md §12): a report carries (MsgId, acked)
/// pairs, plus the messages it has settled as per-sender runs of ids —
/// payloads and classes never ride through consensus. Each member resolves
/// payloads and classes from its local store (fed by
/// reliable broadcast); a member that reaches the finalize point missing
/// some payload stalls the round locally and pulls it (PayloadPull, on
/// Tag::kGbcast) from rotating peers, which serve from their store or from
/// a small window of recently retired (delivered) payloads.
/// The stall also ends when the reliable broadcast brings the payload.
///
/// State layout (node-free, DESIGN.md §12): per origin, by ProcessId, a
/// ring indexed by the origin's GB rbcast seq holds the store (a slot per
/// message seen, with its payload bytes, flags and this round's ACK set as
/// a member bitmask; delivered messages retire at the round's end and
/// leave holes) next to the delivered index; a payload or ACK whose id
/// (off the wire) names no process of the universe, or a seq far from its
/// origin's delivered floor, is dropped, so no id widens a ring. ACKs that
/// arrive before the payload, or for a later round, wait in a short
/// pending list of at most kPendingCap messages. Retired payloads sit in a
/// FIFO of at most kRetiredCap slots; each round's report tally is a flat
/// list, sorted and merged once when the round closes. Slots, sets and
/// lists keep their capacity when reused, and no payload byte comes from
/// the context's buffer pool. Ordering invariant: reports, re-ACKs at a
/// round's start, sequences and snapshots visit ids in MsgId order
/// (origin, then seq), so every member computes the same bytes; the
/// tally never depends on a member's local ring span, since report ids
/// come off the wire.
///
/// Quorum arithmetic (n = |group|, f = ⌊(n−1)/3⌋):
///   fast_quorum  = ⌊2n/3⌋ + 1     (> 2n/3)
///   report_need  = n − f
///   tau          = fast_quorum − f
/// guarantees: (a) a fast-delivered message appears acked in ≥ tau of any
/// n−f reports; (b) a message conflicting with a fast-delivered one appears
/// in < tau (ACK sets of conflicting messages are disjoint); (c) two
/// conflicting messages cannot both reach tau; (d) tau ≥ f+1, so every
/// resolved message is listed by f+1 reporters, and a reporter lists only
/// what it holds: one correct holder keeps it retained until every member
/// has it (reliable_broadcast.hpp). Requires n ≥ 4 for f ≥ 1
/// fault tolerance on the GB fast path (consensus below still tolerates
/// f < n/2).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "broadcast/atomic_broadcast.hpp"
#include "broadcast/payload_pull.hpp"
#include "broadcast/proposal.hpp"
#include "broadcast/reliable_broadcast.hpp"
#include "channel/reliable_channel.hpp"
#include "core/conflict.hpp"
#include "sim/context.hpp"
#include "util/delivered_index.hpp"
#include "util/ring.hpp"

namespace gcs {

class GenericBroadcast {
 public:
  using DeliverFn =
      std::function<void(const MsgId& id, MsgClass cls, const Bytes& payload)>;

  struct Config {
    /// A message not gdelivered within this bound triggers resolution even
    /// without an observed conflict (liveness when ackers crash).
    Duration resolve_timeout = msec(200);
    /// Retry period for the payload-pull fallback; each retry rotates to
    /// the next member, so one unresponsive peer cannot stall the round.
    Duration pull_retry = msec(25);
    /// TESTING/ABLATION ONLY: override the fast quorum size. Values at or
    /// below 2n/3 BREAK the safety argument (two conflicting messages can
    /// both gather a quorum); OracleStack.BrokenFastQuorumIsCaught shows
    /// exactly that. 0 = use the correct formula.
    int unsafe_fast_quorum_override = 0;
  };

  GenericBroadcast(sim::Context& ctx, ReliableChannel& channel, ReliableBroadcast& rbcast,
                   AtomicBroadcast& abcast, ConflictRelation relation, Config config);
  GenericBroadcast(sim::Context& ctx, ReliableChannel& channel, ReliableBroadcast& rbcast,
                   AtomicBroadcast& abcast, ConflictRelation relation);

  /// The delivering group; must track the membership's current view.
  void set_group(std::vector<ProcessId> group);
  const std::vector<ProcessId>& group() const { return group_; }

  /// Generic-broadcast \p payload with class \p cls.
  MsgId gbcast(MsgClass cls, Bytes payload);

  /// Convenience mapping per the paper's Fig 9 operations (§3.3 table).
  MsgId rbcast_op(Bytes payload) { return gbcast(kRbcastClass, std::move(payload)); }
  MsgId abcast_op(Bytes payload) { return gbcast(kAbcastClass, std::move(payload)); }

  void on_deliver(DeliverFn fn) { deliver_fns_.push_back(std::move(fn)); }

  const ConflictRelation& relation() const { return relation_; }

  /// Serialize the generic-broadcast state a joiner needs: round number,
  /// resolution progress (a pure function of the adelivered prefix, hence
  /// identical at every member at a view-change point, except that a member
  /// still pulling payloads of a fixed sequence is behind: it passes on that
  /// sequence and the later rounds' reports or sequences), delivered ids, and
  /// the payload cache of seen-but-undelivered messages. The
  /// retired-payload pull window is deliberately excluded: a fresh joiner
  /// simply declines pulls it cannot serve.
  Bytes snapshot() const;

  /// Install a snapshot (joiner side). A snapshot taken mid-resolution may
  /// reference payloads this member never received; the finalize step
  /// detects those and pulls them.
  void restore(BytesView snapshot);

  /// -- statistics (E3/E6 use these) ------------------------------------
  std::uint64_t fast_deliveries() const { return count(m_fast_delivered_); }
  std::uint64_t resolved_deliveries() const { return count(m_resolved_delivered_); }
  std::uint64_t rounds_resolved() const { return count(m_rounds_resolved_); }
  std::uint64_t current_round() const { return round_; }
  /// Messages seen (payload cached) and not yet garbage collected — the
  /// current round's working set (probe gauge).
  std::size_t store_size() const { return store_count_; }
  /// Recently retired payloads held back to serve late pulls (bounded by
  /// the kRetiredRounds window; probe gauge).
  std::size_t retired_size() const { return retired_.size(); }
  /// Slots the store's per-origin rings span, holes included; at least
  /// store_size(). Ids off the wire never widen it.
  std::size_t store_span() const;
  /// Messages with ACKs waiting outside a store slot (payload not here yet,
  /// or a later round); at most kPendingCap.
  std::size_t pending_acks() const { return pending_.size(); }
  /// Hard cap on pending_acks() (the list is searched linearly): an ACK
  /// that would go past it is dropped, which can only cost that message
  /// its fast path.
  static constexpr std::size_t kPendingCap = 1024;

  /// Oracle taps. The delivery observer reports each gdelivery's global
  /// coordinate: the GB round, whether it took the fast path, and — for
  /// resolution deliveries — the message's batch-absolute position in the
  /// round's deterministic first+second sequence (identical at every
  /// member; positions of locally skipped entries are simply unused).
  using SubmitObserver = std::function<void(const MsgId&, MsgClass)>;
  using DeliverObserver = std::function<void(const MsgId&, MsgClass, std::uint64_t round,
                                             bool fast, std::uint32_t pos)>;
  void set_observer(SubmitObserver on_submit, DeliverObserver on_deliver) {
    observe_submit_ = std::move(on_submit);
    observe_deliver_ = std::move(on_deliver);
  }

 private:
  std::uint64_t count(MetricId id) const {
    return static_cast<std::uint64_t>(ctx_.metrics().counter(id));
  }

  /// A set of processes as a bitmask indexed by ProcessId: ids below 64
  /// in one inline word, the rest in words grown on demand that clear()
  /// keeps, so a reused set allocates nothing.
  struct ProcessSet {
    std::uint64_t low = 0;
    std::vector<std::uint64_t> high;  // high[i]: ids 64 (i + 1) and up

    /// Add \p p; false if it was in the set (or is not a process id).
    bool insert(ProcessId p);
    int size() const;
    bool empty() const;
    void clear();
    void swap(ProcessSet& other);
    /// The \p k-th member in ascending id order; k < size().
    ProcessId nth(std::size_t k) const;
  };
  /// One store slot: a message seen (payload known), possibly delivered,
  /// and this round's ACKs for it.
  struct Entry {
    Bytes payload;  // a recycled slot keeps its capacity for the next one
    ProcessSet ackers;  // this round's ACKers; empty: none, or settled
    sim::TimerId deadline = sim::kNoTimer;
    TimePoint received_at = 0;  // payload arrival (fast/slow latency metric)
    MsgClass cls = 0;
    bool held = false;     // a store entry; false: a hole
    bool acked = false;    // we ACKed it this round (report flag)
    bool settled = false;  // delivered here and ACKed by the whole group
    void recycle();
  };
  /// Per-origin state, indexed by the origin's GB rbcast seq.
  struct Origin {
    DeliveredIndex delivered;
    std::uint64_t base = 0;  // entries[i] is seq base + i
    Ring<Entry> entries;     // front and back slots always held

    Entry* find(std::uint64_t seq) {
      return seq >= base && seq - base < entries.size() ? &entries[seq - base] : nullptr;
    }
    Entry& at(std::uint64_t seq);
    // Drop the holes at both ends.
    void trim();
  };
  /// ACKs held outside a store slot: for a message whose payload has not
  /// arrived, for a later round, or for a message retired meanwhile.
  struct PendingAcks {
    std::uint64_t round = 0;
    MsgId id;
    ProcessSet ackers;
  };
  /// A delivered payload kept to serve late pulls, in a buffer the slot
  /// keeps for the next one.
  struct Retired {
    MsgId id;
    std::uint64_t round = 0;  // the round that retired it
    MsgClass cls = 0;
    Bytes payload;
    void recycle() { payload.clear(); }
  };
  // One id some report of a round listed: how many reports list it, how
  // many of those ACKed it, and whether one reported it settled. A report
  // appends one line per id; close_round sorts and merges them.
  struct Tally {
    MsgId id;
    int acked = 0;
    int listed = 0;
    bool settled = false;
  };
  // The reports of one round, tallied as they are adelivered, with the
  // group in force then, until report_need are in; then the round's
  // first+second sequence is fixed and the tally dropped. Delivering the
  // sequence may still wait on payload pulls.
  struct RoundReports {
    std::uint64_t round = 0;
    ProcessSet reporters;
    std::vector<Tally> tally;
    bool closed = false;  // the sequence is fixed
    std::vector<MsgId> sequence;
  };
  /// Delivered payloads stay pullable for this many further rounds.
  static constexpr std::uint64_t kRetiredRounds = 4;
  /// Hard cap on the retired-payload window: rounds only advance on a
  /// resolution, so a run that resolves rarely would otherwise retain every
  /// delivered payload for a long time. Pulls target messages some member
  /// still holds undelivered in its active store, so the window is a fast-serve
  /// optimization, not a correctness requirement — a few hundred entries
  /// cover any realistic pull latency.
  static constexpr std::size_t kRetiredCap = 256;
  /// Settled messages per round before the round is closed by a
  /// resolution (see maybe_settle): bounds the store in conflict-free runs.
  static constexpr std::size_t kSettledCap = 256;
  /// A payload whose id comes off the wire (a push, a snapshot) is stored
  /// only within this many seqs of its origin's delivered floor: the
  /// store's rings are indexed by that id.
  static constexpr std::uint64_t kWireSeqWindow = std::uint64_t{1} << 16;

  void on_gb_data(const MsgId& id, BytesView wire);
  void consider(const MsgId& id);  // ack (self locally) or trigger resolution
  void on_ack(ProcessId from, Decoder& dec);
  /// After pull_retry, pull \p id from one of its ACKers if it is still
  /// missing, and retry against the next ACKer until it arrives.
  void fetch_from_ackers(const MsgId& id, std::size_t attempt);
  void maybe_fast_deliver(const MsgId& id);
  void maybe_settle(const MsgId& id);
  /// Move a store entry's payload into the retired pull window, leaving a
  /// hole in its ring.
  void retire_entry(const MsgId& id, Entry& entry);
  void prune_retired();
  void trigger_resolution();
  void on_report(const MsgId& report_id, BytesView wire);
  /// Fix \p rr's sequence if report_need reports of the current group are
  /// in; every member does so at the same point of the adelivered prefix.
  void close_round(RoundReports& rr) const;
  /// The current round's sequence is fixed: it admits no ACK and no fast
  /// delivery (after a view change, its ACK counts would be weighed
  /// against another group's quorum), only the sequence's delivery.
  bool round_over() const;
  void maybe_finalize_round();
  void deliver(const MsgId& id, Entry& entry, bool fast, std::uint32_t pos = 0);
  void start_new_round();
  bool is_delivered(const MsgId& id) const;
  bool mark_delivered(const MsgId& id);
  int fast_quorum() const;
  int report_need() const;
  int tau() const;

  Origin& origin(ProcessId sender);
  /// The store entry of \p id, or null.
  Entry* held(const MsgId& id);
  /// \p id, off the wire, names a process of the universe and a seq
  /// within kWireSeqWindow of its origin's delivered floor.
  bool storable(const MsgId& id) const;
  /// Store \p body for \p id (not held yet); this round's ACKs that came
  /// before it move into the slot.
  Entry& store(const MsgId& id, MsgClass cls, BytesView body);
  /// \p id's ACKs of round \p r, or null.
  ProcessSet* find_acks(std::uint64_t r, const MsgId& id);
  std::size_t find_pending(std::uint64_t r, const MsgId& id) const;
  /// \p id's pending ACKs of round \p r, made if missing; null when the
  /// list is full.
  ProcessSet* pending_for(std::uint64_t r, const MsgId& id);
  void drop_pending(std::size_t i);
  /// The reports of round \p r, or null; reports_for creates them.
  RoundReports* find_reports(std::uint64_t r);
  RoundReports& reports_for(std::uint64_t r);
  /// Call \p fn(first id, length) for each run of consecutive settled
  /// seqs of one origin, in MsgId order.
  template <typename Fn>
  void for_each_settled_run(Fn&& fn) const;

  sim::Context& ctx_;
  MetricId m_broadcasts_;
  MetricId m_fast_delivered_;
  MetricId m_resolved_delivered_;
  MetricId m_resolutions_;
  MetricId m_rounds_resolved_;
  MetricId h_fast_latency_;  ///< payload arrival -> fast-path delivery
  MetricId h_slow_latency_;  ///< payload arrival -> resolution delivery
  ReliableChannel& channel_;
  ReliableBroadcast& rbcast_;
  AtomicBroadcast& abcast_;
  ConflictRelation relation_;
  Config config_;
  std::vector<ProcessId> group_;
  bool is_member_ = false;  // self is in group_
  // Payloads the finalize step needs but the store lacks (a report named
  // them, or a restore); while any is missing the round stalls locally.
  PayloadPull pull_;

  std::uint64_t round_ = 0;
  bool frozen_ = false;     // report sent; no more ACKs this round
  bool resolving_ = false;  // resolution in progress this round
  std::size_t settled_ = 0;  // messages settled this round

  // Per origin, by ProcessId: the store (messages seen, payload known,
  // possibly delivered this round; delivered ones retire at the round's
  // end and leave holes) and the delivered dedup index
  // (watermark-compressed, see util/delivered_index.hpp).
  std::vector<Origin> origins_;
  std::size_t store_count_ = 0;
  // Delivered payloads retained to serve late pulls, oldest first (a FIFO
  // found by a linear search; pulls are rare), evicted by the round window
  // for resolved rounds and by kRetiredCap overall.
  Ring<Retired> retired_;
  // Classes ACKed this round, and per class whether it conflicts with one
  // of them: the conflict check is one lookup. The conflict predicate is
  // purely class-based, so this carries exactly what a scan over every
  // message we ACKed would — including already-settled messages, whose
  // classes stay marked until the round ends (ACK sets of conflicting
  // messages must stay disjoint for the quorum-intersection argument).
  std::array<bool, 256> acked_cls_{};
  std::array<bool, 256> conflicts_acked_{};
  // ACKs outside store slots (current and future rounds only, storable
  // ids only, at most kPendingCap), unordered.
  std::vector<PendingAcks> pending_;
  // This round's reports and, while this member is still delivering it
  // (pull-stalled), those of the later rounds the others go on to, by
  // round; entries past reports_used_ are spares, so a round's tally and
  // sequence reuse a finished round's capacity (rounds are frequent when
  // conflicts are). A later round past its report_need keeps only its
  // sequence: the ids this member must deliver anyway once its stall ends.
  std::vector<RoundReports> reports_;
  std::size_t reports_used_ = 0;
  // The ids carried into a new round, reused across rounds (moved out
  // while in use, so a re-entrant call gets its own).
  std::vector<MsgId> carried_scratch_;
  // The payloads handed to delivery upcalls, one per nesting level (by
  // pointer: a nested level must not move an outer one's bytes).
  std::vector<std::unique_ptr<Bytes>> delivering_;
  std::size_t deliver_depth_ = 0;

  std::vector<DeliverFn> deliver_fns_;
  SubmitObserver observe_submit_;
  DeliverObserver observe_deliver_;
};

}  // namespace gcs
