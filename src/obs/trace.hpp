/// \file trace.hpp
/// Message-lifecycle tracing: interned span/event names, a bounded
/// per-process ring-buffer flight recorder, and a cheap per-process Tracer
/// handle threaded through the protocol stack.
///
/// Span model: every record carries a correlation key (a MsgId, or a
/// synthetic key for consensus instances / GB rounds / views), so one
/// message's lifecycle — submit → flood → consensus → decide → deliver —
/// reads as a causally linked span tree keyed by message id. Records are
/// fixed-size PODs appended to a preallocated ring; steady-state tracing
/// never allocates, and a disabled tracer costs one load + compare at the
/// call site (the branch predicts perfectly).
///
/// Exporters live in obs/exporters.hpp: Chrome trace-event JSON (loadable
/// in Perfetto, virtual-time timestamps) and a text sequence diagram.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace gcs::obs {

/// Dense id of an interned span/event name.
using NameId = std::uint16_t;

/// Sentinel: name not interned (returned by find_name for unknown names).
inline constexpr NameId kNoName = 0xffff;

/// Intern \p name, returning its stable id (idempotent, process-wide).
NameId intern_name(std::string_view name);

/// Lookup without interning; kNoName if the name was never interned.
NameId find_name(std::string_view name);

/// Reverse lookup (exporters, flight-recorder dumps).
std::string_view name_of(NameId id);

/// What a record marks on its correlation key's timeline.
enum class Phase : std::uint8_t {
  kBegin,    ///< span opens (matched by a later kEnd with the same key+name)
  kEnd,      ///< span closes
  kInstant,  ///< point event
};

/// Synthetic correlation-key senders for things that are not messages.
/// MsgId{kConsensusKey, k} identifies consensus instance k, etc. Real
/// process ids are >= 0, so these can never collide with a message id.
inline constexpr ProcessId kConsensusKey = -2;  ///< seq = instance number
inline constexpr ProcessId kGbRoundKey = -3;    ///< seq = GB round number
inline constexpr ProcessId kViewKey = -4;       ///< seq = view id
inline constexpr ProcessId kPeerKey = -5;       ///< seq = peer process id

/// One fixed-size trace record. `msg` is the correlation key; a
/// default-constructed MsgId (sender == kNoProcess) means "uncorrelated".
/// `arg` is a free-form argument whose meaning depends on `name` (round
/// number, packed to/tag/size for channel transmits, view id, ...).
struct Record {
  TimePoint ts = 0;
  MsgId msg{};
  std::int64_t arg = 0;
  ProcessId proc = kNoProcess;
  NameId name = kNoName;
  Phase phase = Phase::kInstant;
};

/// Pack/unpack helpers for channel transmit/receive records: the argument
/// carries (peer, upper tag, datagram payload size) in one int64.
constexpr std::int64_t pack_channel_arg(ProcessId peer, std::uint8_t tag, std::size_t size) {
  return (static_cast<std::int64_t>(size) << 16) |
         (static_cast<std::int64_t>(static_cast<std::uint8_t>(peer)) << 8) |
         static_cast<std::int64_t>(tag);
}
constexpr ProcessId channel_arg_peer(std::int64_t arg) {
  return static_cast<ProcessId>((arg >> 8) & 0xff);
}
constexpr std::uint8_t channel_arg_tag(std::int64_t arg) {
  return static_cast<std::uint8_t>(arg & 0xff);
}
constexpr std::size_t channel_arg_size(std::int64_t arg) {
  return static_cast<std::size_t>(arg >> 16);
}

/// Bounded flight recorder: a preallocated ring of Records shared by every
/// process of one simulation (records carry the process id). When full, the
/// oldest records are overwritten — the recorder always holds the most
/// recent window, which is exactly what a post-mortem dump wants.
class Recorder {
 public:
  Recorder() = default;
  /// Construct enabled with room for \p capacity records.
  explicit Recorder(std::size_t capacity) { enable(capacity); }

  void enable(std::size_t capacity);
  void disable();
  bool enabled() const { return enabled_; }

  void append(const Record& r) {
    if (!enabled_) return;
    ring_[head_] = r;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++dropped_;
    }
  }

  /// Records in append order (oldest first). Allocates; not a hot path.
  std::vector<Record> records() const;

  /// The last \p n records of process \p proc (all processes when proc ==
  /// kNoProcess), oldest first.
  std::vector<Record> tail(ProcessId proc, std::size_t n) const;

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }
  void clear();

 private:
  bool enabled_ = false;
  std::vector<Record> ring_;
  std::size_t head_ = 0;   // next write position
  std::size_t count_ = 0;  // live records (<= capacity)
  std::uint64_t dropped_ = 0;
};

/// Per-process tracing handle, cheap to copy and held by sim::Context. A
/// default-constructed Tracer is permanently disabled; enabled() is the
/// entire cost of tracing when the recorder is off.
class Tracer {
 public:
  Tracer() = default;
  Tracer(Recorder* recorder, ProcessId self) : rec_(recorder), self_(self) {}

  bool enabled() const { return rec_ != nullptr && rec_->enabled(); }

  void begin(TimePoint ts, NameId name, const MsgId& msg, std::int64_t arg = 0) const {
    if (enabled()) rec_->append({ts, msg, arg, self_, name, Phase::kBegin});
  }
  void end(TimePoint ts, NameId name, const MsgId& msg, std::int64_t arg = 0) const {
    if (enabled()) rec_->append({ts, msg, arg, self_, name, Phase::kEnd});
  }
  void instant(TimePoint ts, NameId name, const MsgId& msg = MsgId{},
               std::int64_t arg = 0) const {
    if (enabled()) rec_->append({ts, msg, arg, self_, name, Phase::kInstant});
  }

  Recorder* recorder() const { return rec_; }

 private:
  Recorder* rec_ = nullptr;
  ProcessId self_ = kNoProcess;
};

/// Well-known names, interned once per process. Components read these
/// instead of re-interning strings on hot paths.
struct Names {
  // channel frames
  NameId channel_tx;          ///< data transmit; arg = pack_channel_arg(to, tag, size)
  NameId channel_rx;          ///< in-order delivery; arg = pack_channel_arg(from, tag, size)
  NameId channel_retransmit;  ///< arg = pack_channel_arg(to, tag, size)
  NameId channel_fc_stall;    ///< span keyed by MsgId{kPeerKey, peer}: send
                              ///< window full, messages held back; arg =
                              ///< queued count at stall begin
  // rbcast flood
  NameId rbcast_flood;    ///< instant at the origin, keyed by msg
  NameId rbcast_relay;    ///< instant at each relaying process
  NameId rbcast_deliver;  ///< instant at each delivering process
  // consensus (keyed by MsgId{kConsensusKey, k}; arg = round unless noted)
  NameId consensus_instance;  ///< span: propose() .. decision
  NameId consensus_estimate;
  NameId consensus_propose;
  NameId consensus_ack;
  NameId consensus_nack;
  NameId consensus_decide;       ///< arg = decision value size
  NameId consensus_propose_wait; ///< span at the coordinator/proposer:
                                 ///< quorum assembly before the phase-2
                                 ///< proposal goes out (CT: first estimate
                                 ///< .. PROPOSE; Paxos: PREPARE .. ACCEPT)
  NameId consensus_accept_wait;  ///< span per in-flight instance at the
                                 ///< driver: ACCEPT/PROPOSE out .. local
                                 ///< decision (pipelined instances overlap);
                                 ///< arg = ballot/round
  NameId paxos_prepare;          ///< instant: a (ranged or per-instance)
                                 ///< PREPARE went out; absent after epoch
                                 ///< start in a fault-free leader-stable run
                                 ///< (the 1-RTT steady-state assert)
  // atomic broadcast (keyed by msg)
  NameId abcast_submit;      ///< instant at the abcast() caller
  NameId abcast_pending;     ///< span: rdelivered .. adelivered (per process)
  NameId abcast_batch_wait;  ///< span: rdelivered .. first proposed to consensus
                             ///< (batch-queue residence); end arg = instance
  NameId abcast_ordered;     ///< instant at adelivery; arg = deciding instance
  NameId abcast_pull_wait;   ///< span keyed by MsgId{kConsensusKey, k}: head
                             ///< decision stalled on missing payloads (pull
                             ///< fallback); arg = missing count
  NameId abcast_gap_wait;    ///< span keyed by MsgId{kConsensusKey, k}: a
                             ///< decision arrived out of order and is
                             ///< buffered behind undecided earlier
                             ///< instances (pipelining gap-log); arg =
                             ///< instance distance from the delivery head
  NameId abcast_deliver;     ///< instant; arg = subtag
  // generic broadcast
  NameId gb_submit;        ///< instant at the gbcast() caller; arg = class
  NameId gb_ack;           ///< instant; arg = round
  NameId gb_fast_pending;  ///< span keyed by msg: payload seen .. fast delivery
  NameId gb_deliver_fast;  ///< instant; fast-path quorum delivery; arg = round
  NameId gb_deliver_slow;  ///< instant; delivery out of a resolution round; arg = round
  NameId gb_resolve;       ///< span keyed by MsgId{kGbRoundKey, round}
  NameId gb_pull_wait;     ///< span keyed by MsgId{kGbRoundKey, round}: round
                           ///< finalize stalled on missing payloads
  // membership / views (keyed by MsgId{kViewKey, id} where applicable)
  NameId view_install;          ///< instant; arg = member count
  NameId membership_join_req;   ///< instant; arg = contact/joiner
  NameId membership_state_txf;  ///< instant; arg = joiner
  // failure detection / monitoring (arg = subject process)
  NameId fd_suspect;
  NameId fd_restore;
  NameId monitoring_exclusion;

  static const Names& get();
};

}  // namespace gcs::obs
