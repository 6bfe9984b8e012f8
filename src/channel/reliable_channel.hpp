/// \file reliable_channel.hpp
/// Reliable point-to-point channel (Fig 9: "Reliable Channel").
///
/// Guarantees: if a correct process p sends m to a correct process q, then q
/// eventually receives m; per (sender, receiver) pair delivery is FIFO and
/// duplicate-free. Implemented with per-peer sequence numbers, cumulative
/// acknowledgements and periodic retransmission over the unreliable
/// transport — the shape of the TCP-based channel of [Ekwall et al. 2002]
/// that the paper cites.
///
/// Acknowledgements are delayed and piggybacked, as in TCP: every data
/// frame carries the sender's cumulative ack for its destination, and a
/// standalone ack goes out only when no outgoing frame has carried it
/// within a hold of rto/8, when a duplicate arrives (the previous ack may
/// have been lost), or when half a send window awaits acknowledgement.
///
/// Retransmission is per peer and driven by evidence. A peer's retransmit
/// period starts at one rto and doubles on every expiry that resent
/// something, up to kMaxBackoff rtos; progress (the cumulative ack
/// advancing, or newly SACKed seqs) resets it. While the failure detector suspects a peer, each expiry sends it a
/// single probe (the oldest unacked frame) and keeps everything else
/// buffered: suspicion slows the channel, only exclusion voids it (paper
/// §3.3). A receiver whose holdback gap outlives the ack hold reports the
/// seqs it holds above the cumulative ack as a bounded SACK bitmap (RFC
/// 2018): the sender resends the missing seqs at once (each at most once
/// per rto) and never resends a held one.
///
/// Per-peer state lives in vectors indexed by ProcessId, and both queues are
/// rings indexed by seq (util/ring.hpp). The retransmit queue holds the
/// dense seqs [acked_below, next_seq). The holdback holds out-of-order
/// arrivals at slot `seq - next_expected`, each copied into a pooled buffer
/// (the datagram's view dies with the receive call). The holdback is bounded
/// by send_window when flow control is on, else by kHoldbackLimit; a frame
/// beyond the bound is dropped unacknowledged, and the sender resends it.
///
/// The channel also exposes its output buffer age per peer: a message that
/// stays unacknowledged for a long time is the basis for *output-triggered
/// suspicion* (paper §3.3.2), consumed by the monitoring component.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <vector>

#include "sim/context.hpp"
#include "transport/transport.hpp"
#include "util/ring.hpp"

namespace gcs {

class Encoder;

class ReliableChannel {
 public:
  /// Receives a view into the channel's receive path (the datagram buffer
  /// for in-order arrivals, the holdback copy otherwise); valid only for
  /// the duration of the call.
  using Handler = std::function<void(ProcessId from, BytesView payload)>;

  struct Config {
    /// Retransmission period for unacked messages. rto/8 is also how long
    /// an owed ack waits for a data frame to carry it.
    Duration rto = msec(20);
    /// Flow control (the role Totem's middle layer plays, paper Fig 4):
    /// at most this many in-flight (transmitted, unacked) messages per
    /// peer; the rest queue locally until acks open the window. 0 = off.
    /// Also the receive holdback bound (kHoldbackLimit when 0).
    std::size_t send_window = 0;
  };

  ReliableChannel(sim::Context& ctx, Transport& transport, Config config);
  ReliableChannel(sim::Context& ctx, Transport& transport);

  /// Reliable FIFO send of \p payload to \p to, for the component owning
  /// \p upper. Messages to self are delivered through the loopback link.
  /// Payload converts implicitly from Bytes; the shared buffer is held in
  /// the retransmit queue without copying. Returns the channel seq the
  /// message took toward \p to (see acked_below()).
  std::uint64_t send(ProcessId to, Tag upper, Payload payload);

  /// Convenience: send the same payload to every process in \p group. One
  /// shared buffer backs every destination's retransmit-queue entry.
  void send_group(const std::vector<ProcessId>& group, Tag upper, const Payload& payload) {
    for (ProcessId p : group) send(p, upper, payload);
  }

  /// Register the upper-layer receive handler for \p upper; returns the
  /// one it replaces, so a tap can hand frames on to it.
  Handler subscribe(Tag upper, Handler handler);

  /// -- output-triggered suspicion hooks (paper §3.3.2) ------------------

  /// Age of the oldest unacknowledged message to \p to; 0 if none.
  Duration oldest_unacked_age(ProcessId to) const;

  /// Number of buffered (unacknowledged) messages to \p to.
  std::size_t unacked_count(ProcessId to) const;

  /// Every channel seq below this, as returned by send(), has been
  /// cumulatively acknowledged by \p to (or voided by forget()).
  std::uint64_t acked_below(ProcessId to) const;

  /// Discard all buffered output for \p to. Called when \p to is excluded
  /// from the membership: its obligations are void, so the buffer can be
  /// safely released (paper §3.3.2). Until \p to acknowledges past them,
  /// later frames carry the first live seq as a floor, so a peer that
  /// rejoins skips the voided seqs instead of waiting on them forever.
  void forget(ProcessId to);

  /// The failure detector suspects \p to: each retransmit expiry sends it
  /// one probe instead of every due frame. Nothing is dropped.
  void suspect(ProcessId to);
  /// The suspicion of \p to was revoked: reset its backoff and resend the
  /// due frames at once, so a healed link repairs without waiting out a
  /// backed-off period.
  void restore(ProcessId to);

  /// Processes are numbered 0 .. universe_size() - 1.
  int universe_size() const { return transport_.universe_size(); }

  /// Messages queued by flow control (not yet transmitted) for \p to.
  std::size_t queued_by_flow_control(ProcessId to) const;

  /// Data datagrams actually emitted.
  std::int64_t datagrams_sent() const { return datagrams_sent_; }

  /// Standalone ack datagrams emitted; acks that ride data frames are free.
  std::int64_t acks_sent() const { return acks_sent_; }

  /// Frames that carried a SACK bitmap (0 unless a holdback gap outlived
  /// the ack hold, i.e. something was lost).
  std::int64_t sacks_sent() const { return sacks_sent_; }

  /// Frames dropped because their seq lay beyond the holdback bound.
  std::int64_t holdback_dropped() const { return holdback_dropped_; }

  /// Out-of-order frames currently held back from \p from.
  std::size_t holdback_count(ProcessId from) const;

  /// Holdback bound in seqs above next_expected when send_window is 0.
  static constexpr std::size_t kHoldbackLimit = std::size_t{1} << 14;

  /// Total work of the transmit scans in pump(), in steps: one
  /// per scan start plus one per entry visited. The first-unsent cursor
  /// makes this O(messages transmitted); the regression test bounds it
  /// against the whole-queue walk it replaced.
  std::uint64_t pump_steps() const { return pump_steps_; }

  /// Total send-queue depth across all peers: every buffered message,
  /// transmitted-but-unacked and flow-control-held alike (probe gauge).
  std::size_t total_send_queue() const {
    std::size_t n = 0;
    for (const PeerOut& peer : out_) n += peer.unacked.size();
    return n;
  }

 private:
  static constexpr TimePoint kNeverSent = -1;
  struct Outgoing {
    Tag upper;
    Payload payload;
    TimePoint first_sent;              // kNeverSent while held back by flow control
    TimePoint resent_at = kNeverSent;  // last retransmission
    bool sacked = false;               // the peer reported holding it above its ack
  };
  /// Retransmit period cap, in rtos.
  static constexpr int kMaxBackoff = 64;
  /// SACK bitmap cap: the seqs just above the cumulative ack it can cover.
  static constexpr std::size_t kMaxSackBytes = 128;
  struct PeerOut {
    std::uint64_t next_seq = 0;
    // First seq never transmitted. Transmission runs in seq order, so the
    // sent entries of `unacked` are exactly those below it, and their
    // first_sent times never decrease along the ring.
    std::uint64_t next_unsent = 0;
    // unacked[i] is seq base() + i: the dense seqs [base(), next_seq).
    Ring<Outgoing> unacked;
    std::uint64_t base() const { return next_seq - unacked.size(); }
    std::size_t in_flight = 0;                  // transmitted, unacked
    bool fc_stalled = false;                    // window full, sends held back
    TimePoint fc_since = 0;                     // when the current stall began
    int backoff = 1;                            // retransmit period, in rtos
    TimePoint resend_at = 0;                    // no retransmission before this
    bool suspected = false;                     // FD suspicion: probe only
    bool floor_pending = false;                 // frames carry `floor` (forget)
    std::uint64_t floor = 0;                    // seqs below it were voided
  };
  static constexpr TimePoint kNoAckDue = std::numeric_limits<TimePoint>::max();
  /// A holdback slot: the frame's upper tag and a pooled copy of its body.
  /// An empty body buffer marks a free slot.
  struct Held {
    Tag upper{};
    Payload body;
    bool occupied() const { return body.shared() != nullptr; }
  };
  struct PeerIn {
    std::uint64_t next_expected = 0;
    std::uint64_t ack_sent = 0;     // cumulative ack last carried to the peer
    TimePoint ack_due = kNoAckDue;  // standalone ack deadline while one is owed
    // Out-of-order frames: holdback[i] is seq next_expected + i. The back
    // slot is always occupied, so the ring is empty exactly when nothing
    // is held, and its size spans to the highest held seq.
    Ring<Held> holdback;
    // Since when next_expected has been missing with holdback non-empty
    // (kNoAckDue: no gap); once older than the hold, acks carry a SACK.
    TimePoint gap_since = kNoAckDue;
    bool sack_reported = false;  // the aged gap's standalone SACK went out
  };
  using Batch = std::vector<std::pair<std::uint64_t, const Outgoing*>>;

  void on_datagram(ProcessId from, BytesView payload);
  // Per-peer state, grown on demand (sized to the universe up front).
  PeerOut& out(ProcessId to);
  PeerIn& in(ProcessId from);
  // Hold a copy of \p body at slot \p off of \p peer's holdback; false if
  // the slot is occupied.
  bool hold(PeerIn& peer, std::uint64_t off, Tag upper, BytesView body);
  // Cumulative ack plus the peer's SACK bitmap (empty when none).
  void on_ack(ProcessId from, std::uint64_t cumulative, BytesView sack);
  void on_sack(ProcessId from, PeerOut& peer, std::uint64_t cumulative, BytesView sack);
  void deliver(ProcessId from, Tag upper, BytesView payload);
  // The cumulative ack for the peer of \p in, which the caller is about to
  // put on the wire: the peer is then owed nothing until more arrives.
  std::uint64_t take_ack(PeerIn& in);
  // Frame header: kind | ack | [SACK bitmap] | [floor]; the flag bits in
  // the kind byte say which extensions follow. Takes the ack. \p peer is
  // the output state toward \p to (null for an ack frame: no floor).
  void put_header(Encoder& enc, std::uint8_t kind, ProcessId to, const PeerOut* peer);
  // Bytes put_header will write for a data frame to \p to.
  std::size_t header_size(ProcessId to, const PeerOut& peer) const;
  // SACK bitmap length for \p in (0: no SACK is due).
  std::size_t sack_len(const PeerIn& in) const;
  bool gap_aged(const PeerIn& in) const;
  void send_ack(ProcessId to);
  void arm_ack_timer(TimePoint due);
  void ack_tick();
  void arm_sack_timer(TimePoint due);
  void sack_tick();
  void account_upper(Tag upper, std::size_t wire_bytes);
  void transmit(ProcessId to, const PeerOut& peer, std::uint64_t seq, const Outgoing& msg);
  // Packs \p msgs into as few frames as the transport's datagram limit
  // allows; a frame holding one message goes as kData.
  void transmit_batch(ProcessId to, const PeerOut& peer, const Batch& msgs);
  void emit_batch(ProcessId to, const PeerOut& peer, Batch::const_iterator first,
                  Batch::const_iterator last);
  bool window_open(const PeerOut& peer) const {
    return config_.send_window == 0 || peer.in_flight < config_.send_window;
  }
  void pump(ProcessId to, PeerOut& peer);  // flow control: fill the window
  // Flow-control stall edge detection: opens/closes the channel.fc_stall
  // span and feeds the stall-duration histogram.
  void update_fc_stall(ProcessId to, PeerOut& peer);
  void arm_retransmit_timer();
  void retransmit_tick();
  // Resend \p peer's due frames (one probe while suspected) and back off.
  void resend_due(ProcessId to, PeerOut& peer);
  void count_retransmit(ProcessId to, const Outgoing& msg);

  sim::Context& ctx_;
  Transport& transport_;
  Config config_;
  // Metric ids interned once at construction; the send/deliver hot paths
  // stay free of string lookups.
  MetricId m_sent_;
  MetricId m_batches_;
  MetricId m_delivered_;
  MetricId m_retransmits_;
  MetricId h_residence_;  ///< first transmit -> cumulative ack (time-in-channel)
  MetricId h_fc_stall_;   ///< send-window stall duration per peer
  // Per-upper-tag wire accounting ("<upper>.wire_bytes" / "<upper>.wire_msgs"):
  // bytes this component put on the wire through the channel, counted at
  // (re)transmit time so retransmissions are included.
  std::array<MetricId, static_cast<std::size_t>(Tag::kMax)> m_up_wire_bytes_;
  std::array<MetricId, static_cast<std::size_t>(Tag::kMax)> m_up_wire_msgs_;
  std::vector<PeerOut> out_;  // by ProcessId
  std::vector<PeerIn> in_;    // by ProcessId
  std::vector<Handler> handlers_;
  bool timer_armed_ = false;
  bool ack_timer_armed_ = false;
  bool sack_timer_armed_ = false;
  std::int64_t datagrams_sent_ = 0;
  std::int64_t acks_sent_ = 0;
  std::int64_t sacks_sent_ = 0;
  std::int64_t holdback_dropped_ = 0;
  std::uint64_t pump_steps_ = 0;
  Bytes scratch_;  ///< reusable datagram framing buffer (capacity persists)
};

}  // namespace gcs
