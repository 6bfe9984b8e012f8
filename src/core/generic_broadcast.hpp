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
/// Wire-path memory model (DESIGN.md §12): under the default slim format a
/// report carries (MsgId, class, acked) tuples, plus the messages it has
/// settled as per-sender runs of ids — payloads never ride through
/// consensus. Each member resolves payloads from its local store (fed by
/// reliable broadcast); a member that reaches the finalize point missing
/// some payload stalls the round locally and runs a bounded pull/push
/// exchange on Tag::kGbcast against rotating peers, which serve from their
/// store or from a small window of recently retired (delivered) payloads.
/// The stall also ends when the reliable broadcast brings the payload.
/// The legacy format (payloads inline in reports) is kept as the benchmark
/// baseline.
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
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "broadcast/atomic_broadcast.hpp"
#include "broadcast/proposal.hpp"
#include "broadcast/reliable_broadcast.hpp"
#include "channel/reliable_channel.hpp"
#include "core/conflict.hpp"
#include "sim/context.hpp"
#include "util/delivered_index.hpp"

namespace gcs {

class GenericBroadcast {
 public:
  using DeliverFn =
      std::function<void(const MsgId& id, MsgClass cls, const Bytes& payload)>;

  struct Config {
    /// A message not gdelivered within this bound triggers resolution even
    /// without an observed conflict (liveness when ackers crash).
    Duration resolve_timeout = msec(200);
    /// Report wire format. kSlim keeps payloads out of the resolution path;
    /// kLegacy is the payload-inline baseline (benchmarks compare both).
    WireFormat wire_format = WireFormat::kSlim;
    /// Retry period for the payload-pull fallback; each retry rotates to
    /// the next member, so one unresponsive peer cannot stall the round.
    Duration pull_retry = msec(25);
    /// TESTING/ABLATION ONLY: override the fast quorum size. Values at or
    /// below 2n/3 BREAK the safety argument (two conflicting messages can
    /// both gather a quorum); bench_e8 demonstrates exactly that. 0 = use
    /// the correct formula.
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

  /// Install a snapshot (joiner side). Under the slim format a snapshot
  /// taken mid-resolution may reference payloads the donor no longer
  /// inlines; the finalize step detects those and pulls them.
  void restore(BytesView snapshot);

  /// -- statistics (E3/E6 use these) ------------------------------------
  std::uint64_t fast_deliveries() const { return fast_deliveries_; }
  std::uint64_t resolved_deliveries() const { return resolved_deliveries_; }
  std::uint64_t rounds_resolved() const { return rounds_resolved_; }
  std::uint64_t current_round() const { return round_; }
  /// Messages seen (payload cached) and not yet garbage collected — the
  /// current round's working set (probe gauge).
  std::size_t store_size() const { return store_.size(); }
  /// Recently retired payloads held back to serve late pulls (bounded by
  /// the kRetiredRounds window; probe gauge).
  std::size_t retired_size() const { return retired_.size(); }

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
  struct Stored {
    MsgClass cls;
    Bytes payload;
    sim::TimerId deadline = sim::kNoTimer;
    TimePoint received_at = 0;  // payload arrival (fast/slow latency metric)
    bool acked = false;         // we ACKed it this round (report flag)
    bool settled = false;       // delivered here and ACKed by the whole group
  };
  // Per id some report of a round listed: how many reports list it, how
  // many of those ACKed it, and whether one reported it settled.
  struct Tally {
    int acked = 0;
    int listed = 0;
    bool settled = false;
  };
  // The reports of one round, tallied as they are adelivered, with the
  // group in force then, until report_need are in; then the round's
  // first+second sequence is fixed and the tally dropped. Delivering the
  // sequence may still wait on payload pulls.
  struct RoundReports {
    std::set<ProcessId> reporters;
    std::map<MsgId, Tally> tally;
    std::optional<std::vector<MsgId>> sequence;
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

  bool is_member() const;
  void on_gb_data(const MsgId& id, BytesView wire);
  void consider(const MsgId& id);  // ack (self locally) or trigger resolution
  void on_channel_message(ProcessId from, BytesView wire);
  void on_ack(ProcessId from, Decoder& dec);
  void on_pull(ProcessId from, Decoder& dec);
  void on_push(ProcessId from, Decoder& dec);
  void send_pull(ProcessId target, const std::set<MsgId>& ids);
  void request_pull();
  /// After pull_retry, pull \p id from one of its ACKers if it is still
  /// missing, and retry against the next ACKer until it arrives.
  void fetch_from_ackers(const MsgId& id, std::size_t attempt);
  void maybe_fast_deliver(const MsgId& id);
  void maybe_settle(const MsgId& id);
  /// Move a store entry's payload into the retired pull window and erase
  /// it from the store; returns the iterator past the erased entry.
  std::map<MsgId, Stored>::iterator retire_entry(std::map<MsgId, Stored>::iterator it);
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
  void deliver(const MsgId& id, MsgClass cls, const Bytes& payload, bool fast,
               std::uint32_t pos = 0);
  void start_new_round();
  bool is_delivered(const MsgId& id) const;
  bool mark_delivered(const MsgId& id);
  int fast_quorum() const;
  int report_need() const;
  int tau() const;

  sim::Context& ctx_;
  MetricId m_broadcasts_;
  MetricId m_fast_delivered_;
  MetricId m_resolved_delivered_;
  MetricId m_resolutions_;
  MetricId m_rounds_resolved_;
  MetricId m_pull_requests_;
  MetricId m_pull_served_;
  MetricId m_pushes_;
  MetricId h_fast_latency_;  ///< payload arrival -> fast-path delivery
  MetricId h_slow_latency_;  ///< payload arrival -> resolution delivery
  MetricId h_pull_wait_;     ///< round-finalize stall on missing payloads
  ReliableChannel& channel_;
  ReliableBroadcast& rbcast_;
  AtomicBroadcast& abcast_;
  ConflictRelation relation_;
  Config config_;
  std::vector<ProcessId> group_;

  std::uint64_t round_ = 0;
  bool frozen_ = false;     // report sent; no more ACKs this round
  bool resolving_ = false;  // resolution in progress this round
  std::size_t settled_ = 0;  // messages settled this round

  // Delivered dedup, indexed per sender and watermark-compressed (see
  // util/delivered_index.hpp).
  std::map<ProcessId, DeliveredIndex> delivered_;
  // Messages seen (payload known) and possibly not yet delivered this round.
  std::map<MsgId, Stored> store_;
  // Delivered payloads retained to serve late pulls; (round, id) log drives
  // the eviction (round window for resolved rounds, count cap overall).
  std::map<MsgId, std::pair<MsgClass, Bytes>> retired_;
  std::deque<std::pair<std::uint64_t, MsgId>> retired_log_;
  // ACK counts per class for the current round. The conflict check only
  // depends on classes, so this fixed array replaces a scan over every
  // message we ACKed — O(#classes) per considered message, zero heap.
  std::array<std::uint32_t, 256> acked_cls_{};
  // ACK counts per round (current and future rounds only).
  std::map<std::uint64_t, std::map<MsgId, std::set<ProcessId>>> acks_;
  // This round's reports and, while this member is still delivering it
  // (pull-stalled), those of the later rounds the others go on to. A later
  // round past its report_need keeps only its sequence: the ids this member
  // must deliver anyway once its stall ends.
  std::map<std::uint64_t, RoundReports> reports_;
  // Payloads the finalize step needs but the store lacks (slim format /
  // restore); while non-empty the round stalls locally and pulls rotate.
  std::set<MsgId> missing_;
  std::size_t pull_rr_ = 0;
  bool pull_timer_armed_ = false;
  bool pull_stalled_ = false;       // round finalize currently pull-stalled
  TimePoint pull_stall_since_ = 0;  // when the current stall began

  std::vector<DeliverFn> deliver_fns_;
  SubmitObserver observe_submit_;
  DeliverObserver observe_deliver_;
  std::uint64_t fast_deliveries_ = 0;
  std::uint64_t resolved_deliveries_ = 0;
  std::uint64_t rounds_resolved_ = 0;
};

}  // namespace gcs
