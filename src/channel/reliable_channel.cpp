#include "channel/reliable_channel.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/codec.hpp"

namespace gcs {

namespace {
// Frame layouts (varints per util/codec.hpp); every frame carries the
// sender's cumulative ack for the receiver right after the kind byte:
//   kData:  kind | ack | ext | seq | upper | body
//   kAck:   kind | ack | ext
//   kBatch: kind | ack | ext | count | count x (seq | upper | body)
// ext is empty unless flag bits of the kind byte announce extensions:
//   kSackFlag:  bitmap blob, bit i set = the sender holds seq ack + 1 + i
//   kFloorFlag: floor (data frames only); the receiver skips seqs below it
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;
constexpr std::uint8_t kBatch = 2;
constexpr std::uint8_t kKindMask = 0x0f;
constexpr std::uint8_t kSackFlag = 0x10;
constexpr std::uint8_t kFloorFlag = 0x20;

// Per-peer state of \p p in \p peers (indexed by ProcessId), or null.
template <typename Peers>
auto* find_peer(Peers& peers, ProcessId p) {
  const auto idx = static_cast<std::size_t>(p);
  return idx < peers.size() ? &peers[idx] : nullptr;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

ReliableChannel::ReliableChannel(sim::Context& ctx, Transport& transport)
    : ReliableChannel(ctx, transport, Config{}) {}

ReliableChannel::ReliableChannel(sim::Context& ctx, Transport& transport, Config config)
    : ctx_(ctx), transport_(transport), config_(config),
      m_sent_(metric_id("channel.sent")), m_batches_(metric_id("channel.batches")),
      m_delivered_(metric_id("channel.delivered")),
      m_retransmits_(metric_id("channel.retransmits")),
      h_residence_(metric_id("channel.residence_us")),
      h_fc_stall_(metric_id("channel.fc_stall_us")),
      out_(static_cast<std::size_t>(std::max(transport.universe_size(), 0))),
      in_(out_.size()), handlers_(static_cast<std::size_t>(Tag::kMax)) {
  for (std::size_t t = 0; t < static_cast<std::size_t>(Tag::kMax); ++t) {
    const std::string base = tag_name(static_cast<Tag>(t));
    m_up_wire_bytes_[t] = metric_id(base + ".wire_bytes");
    m_up_wire_msgs_[t] = metric_id(base + ".wire_msgs");
  }
  transport_.subscribe(Tag::kChannel,
                       [this](ProcessId from, BytesView b) { on_datagram(from, b); });
}

ReliableChannel::PeerOut& ReliableChannel::out(ProcessId to) {
  const auto idx = static_cast<std::size_t>(to);
  if (idx >= out_.size()) out_.resize(idx + 1);
  return out_[idx];
}

ReliableChannel::PeerIn& ReliableChannel::in(ProcessId from) {
  const auto idx = static_cast<std::size_t>(from);
  if (idx >= in_.size()) in_.resize(idx + 1);
  return in_[idx];
}

void ReliableChannel::account_upper(Tag upper, std::size_t wire_bytes) {
  const auto idx = static_cast<std::size_t>(upper);
  if (idx >= m_up_wire_bytes_.size()) return;
  ctx_.metrics().inc(m_up_wire_msgs_[idx]);
  ctx_.metrics().inc(m_up_wire_bytes_[idx], static_cast<std::int64_t>(wire_bytes));
}

std::uint64_t ReliableChannel::send(ProcessId to, Tag upper, Payload payload) {
  PeerOut& peer = out(to);
  const std::uint64_t seq = peer.next_seq++;
  peer.unacked.push_back(Outgoing{upper, std::move(payload), kNeverSent});
  ctx_.metrics().inc(m_sent_);
  pump(to, peer);
  arm_retransmit_timer();
  return seq;
}

void ReliableChannel::pump(ProcessId to, PeerOut& peer) {
  // Transmit queued messages while the flow-control window has room.
  // (With send_window == 0 everything goes immediately.)
  ++pump_steps_;
  for (; peer.next_unsent < peer.next_seq && window_open(peer); ++peer.next_unsent) {
    ++pump_steps_;
    Outgoing& msg = peer.unacked[peer.next_unsent - peer.base()];
    msg.first_sent = ctx_.now();
    ++peer.in_flight;
    transmit(to, peer, peer.next_unsent, msg);
  }
  update_fc_stall(to, peer);
}

void ReliableChannel::update_fc_stall(ProcessId to, PeerOut& peer) {
  if (config_.send_window == 0) return;
  // Stalled = the window is full AND at least one message is held back.
  const bool stalled =
      peer.in_flight >= config_.send_window && peer.unacked.size() > peer.in_flight;
  if (stalled == peer.fc_stalled) return;
  peer.fc_stalled = stalled;
  if (stalled) {
    peer.fc_since = ctx_.now();
    ctx_.trace_begin(obs::Names::get().channel_fc_stall,
                     MsgId{obs::kPeerKey, static_cast<std::uint64_t>(to)},
                     static_cast<std::int64_t>(peer.unacked.size() - peer.in_flight));
  } else {
    ctx_.metrics().observe(h_fc_stall_, ctx_.now() - peer.fc_since);
    ctx_.trace_end(obs::Names::get().channel_fc_stall,
                   MsgId{obs::kPeerKey, static_cast<std::uint64_t>(to)});
  }
}

void ReliableChannel::transmit_batch(ProcessId to, const PeerOut& peer, const Batch& msgs) {
  // Split at the transport's datagram limit (less its tag byte). The count
  // header is sized for the whole batch, an upper bound for every chunk.
  const std::size_t limit = transport_.max_datagram() - 1;
  const std::size_t header = header_size(to, peer) + varint_size(msgs.size());
  for (auto first = msgs.begin(); first != msgs.end();) {
    auto last = first;
    std::size_t bytes = header;
    for (; last != msgs.end(); ++last) {
      const std::size_t size = last->second->payload.size();
      const std::size_t entry = varint_size(last->first) + 1 + varint_size(size) + size;
      // An entry too big for any datagram still goes, alone.
      if (last != first && bytes + entry > limit) break;
      bytes += entry;
    }
    if (last - first == 1) {
      transmit(to, peer, first->first, *first->second);
    } else {
      emit_batch(to, peer, first, last);
    }
    first = last;
  }
}

void ReliableChannel::emit_batch(ProcessId to, const PeerOut& peer, Batch::const_iterator first,
                                 Batch::const_iterator last) {
  // Frame into the reusable scratch buffer; u_send copies it into the
  // outgoing datagram synchronously, so reuse per call is safe.
  scratch_.clear();
  Encoder enc(scratch_);
  put_header(enc, kBatch, to, &peer);
  enc.put_u64(static_cast<std::uint64_t>(last - first));
  for (; first != last; ++first) {
    const auto& [seq, msg] = *first;
    const std::size_t before = enc.size();
    enc.put_u64(seq);
    enc.put_byte(static_cast<std::uint8_t>(msg->upper));
    enc.put_bytes(msg->payload.bytes());
    account_upper(msg->upper, enc.size() - before);
    ctx_.trace_instant(obs::Names::get().channel_tx, MsgId{},
                       obs::pack_channel_arg(to, static_cast<std::uint8_t>(msg->upper),
                                             msg->payload.size()));
  }
  ++datagrams_sent_;
  ctx_.metrics().inc(m_batches_);
  transport_.u_send(to, Tag::kChannel, scratch_);
}

ReliableChannel::Handler ReliableChannel::subscribe(Tag upper, Handler handler) {
  return std::exchange(handlers_[static_cast<std::size_t>(upper)], std::move(handler));
}

Duration ReliableChannel::oldest_unacked_age(ProcessId to) const {
  const PeerOut* peer = find_peer(out_, to);
  if (peer == nullptr || peer->unacked.empty()) return 0;
  // Sent entries form the prefix, so the oldest one is the first.
  const Outgoing& first = peer->unacked.front();
  return first.first_sent == kNeverSent ? 0 : ctx_.now() - first.first_sent;
}

std::size_t ReliableChannel::unacked_count(ProcessId to) const {
  const PeerOut* peer = find_peer(out_, to);
  return peer == nullptr ? 0 : peer->unacked.size();
}

std::uint64_t ReliableChannel::acked_below(ProcessId to) const {
  const PeerOut* peer = find_peer(out_, to);
  return peer == nullptr ? 0 : peer->base();
}

std::size_t ReliableChannel::holdback_count(ProcessId from) const {
  const PeerIn* peer = find_peer(in_, from);
  if (peer == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < peer->holdback.size(); ++i) n += peer->holdback[i].occupied() ? 1 : 0;
  return n;
}

void ReliableChannel::forget(ProcessId to) {
  PeerOut* found = find_peer(out_, to);
  if (found == nullptr) return;
  PeerOut& peer = *found;
  if (!peer.unacked.empty()) {
    // Seqs below next_seq are void from now on; tell the peer to skip
    // them, or a member that rejoins would wait on the first forever.
    peer.floor = peer.next_seq;
    peer.floor_pending = true;
  }
  peer.unacked.clear();
  peer.in_flight = 0;
  peer.next_unsent = peer.next_seq;
  peer.backoff = 1;
  peer.resend_at = 0;
  if (peer.fc_stalled) {
    // The peer was excluded while its window was full; close the stall
    // span so the flight recorder stays balanced.
    peer.fc_stalled = false;
    ctx_.metrics().observe(h_fc_stall_, ctx_.now() - peer.fc_since);
    ctx_.trace_end(obs::Names::get().channel_fc_stall,
                   MsgId{obs::kPeerKey, static_cast<std::uint64_t>(to)});
  }
}

void ReliableChannel::suspect(ProcessId to) { out(to).suspected = true; }

void ReliableChannel::restore(ProcessId to) {
  PeerOut* found = find_peer(out_, to);
  if (found == nullptr) return;
  PeerOut& peer = *found;
  peer.suspected = false;
  peer.backoff = 1;
  peer.resend_at = 0;
  resend_due(to, peer);
}

std::size_t ReliableChannel::queued_by_flow_control(ProcessId to) const {
  const PeerOut* peer = find_peer(out_, to);
  return peer == nullptr ? 0 : peer->next_seq - peer->next_unsent;
}

void ReliableChannel::transmit(ProcessId to, const PeerOut& peer, std::uint64_t seq,
                               const Outgoing& msg) {
  ++datagrams_sent_;
  ctx_.trace_instant(obs::Names::get().channel_tx, MsgId{},
                     obs::pack_channel_arg(to, static_cast<std::uint8_t>(msg.upper),
                                           msg.payload.size()));
  scratch_.clear();
  Encoder enc(scratch_);
  put_header(enc, kData, to, &peer);
  const std::size_t before = enc.size();
  enc.put_u64(seq);
  enc.put_byte(static_cast<std::uint8_t>(msg.upper));
  enc.put_bytes(msg.payload.bytes());
  account_upper(msg.upper, enc.size() - before);
  transport_.u_send(to, Tag::kChannel, scratch_);
}

std::uint64_t ReliableChannel::take_ack(PeerIn& in) {
  in.ack_sent = in.next_expected;
  in.ack_due = kNoAckDue;
  return in.next_expected;
}

bool ReliableChannel::gap_aged(const PeerIn& in) const {
  return !in.holdback.empty() && in.gap_since != kNoAckDue &&
         ctx_.now() - in.gap_since >= config_.rto / 8;
}

std::size_t ReliableChannel::sack_len(const PeerIn& in) const {
  if (!gap_aged(in)) return 0;
  // Held seqs all lie at or above next_expected; the bitmap starts one
  // above it (next_expected itself is the gap) and ends at the highest.
  const std::uint64_t span = in.holdback.size() - 1;
  return static_cast<std::size_t>(std::min<std::uint64_t>((span + 7) / 8, kMaxSackBytes));
}

std::size_t ReliableChannel::header_size(ProcessId to, const PeerOut& peer) const {
  std::size_t n = 2;  // kind, and the ack of a peer we never heard from
  if (const PeerIn* in = find_peer(in_, to)) {
    n = 1 + varint_size(in->next_expected);
    if (const std::size_t sack = sack_len(*in); sack > 0) n += varint_size(sack) + sack;
  }
  if (peer.floor_pending) n += varint_size(peer.floor);
  return n;
}

void ReliableChannel::put_header(Encoder& enc, std::uint8_t kind, ProcessId to,
                                 const PeerOut* peer) {
  PeerIn* rx = find_peer(in_, to);
  const std::uint64_t ack = rx == nullptr ? 0 : take_ack(*rx);
  const std::size_t sack = rx == nullptr ? 0 : sack_len(*rx);
  const bool floor = peer != nullptr && peer->floor_pending;
  enc.put_byte(static_cast<std::uint8_t>(kind | (sack > 0 ? kSackFlag : 0) |
                                         (floor ? kFloorFlag : 0)));
  enc.put_u64(ack);
  if (sack > 0) {
    // Slot 0 (next_expected) is the gap or mid-delivery, not SACK news.
    std::array<std::uint8_t, kMaxSackBytes> bits{};
    const std::size_t span = std::min<std::size_t>(rx->holdback.size(), 8 * sack + 1);
    for (std::size_t slot = 1; slot < span; ++slot) {
      if (!rx->holdback[slot].occupied()) continue;
      const std::size_t off = slot - 1;
      bits[off / 8] = static_cast<std::uint8_t>(bits[off / 8] | (1u << (off % 8)));
    }
    enc.put_bytes(BytesView(bits.data(), sack));
    ++sacks_sent_;
  }
  if (floor) enc.put_u64(peer->floor);
}

void ReliableChannel::send_ack(ProcessId to) {
  ++acks_sent_;
  scratch_.clear();
  Encoder enc(scratch_);
  put_header(enc, kAck, to, nullptr);
  transport_.u_send(to, Tag::kChannel, scratch_);
}

void ReliableChannel::arm_ack_timer(TimePoint due) {
  // Deadlines are set at now + hold, so a pending timer is never later
  // than a new deadline; the tick re-arms for the ones it finds not due.
  if (ack_timer_armed_) return;
  ack_timer_armed_ = true;
  ctx_.at(due, [this] { ack_tick(); });
}

void ReliableChannel::ack_tick() {
  ack_timer_armed_ = false;
  TimePoint next = kNoAckDue;
  for (std::size_t from = 0; from < in_.size(); ++from) {
    const PeerIn& in = in_[from];
    if (in.ack_due == kNoAckDue) continue;
    if (in.ack_due <= ctx_.now()) {
      send_ack(static_cast<ProcessId>(from));
    } else {
      next = std::min(next, in.ack_due);
    }
  }
  if (next != kNoAckDue) arm_ack_timer(next);
}

void ReliableChannel::arm_sack_timer(TimePoint due) {
  // Same invariant as the ack timer: gap deadlines are set at now + hold.
  if (sack_timer_armed_) return;
  sack_timer_armed_ = true;
  ctx_.at(due, [this] { sack_tick(); });
}

void ReliableChannel::sack_tick() {
  sack_timer_armed_ = false;
  TimePoint next = kNoAckDue;
  for (std::size_t from = 0; from < in_.size(); ++from) {
    PeerIn& in = in_[from];
    if (in.gap_since == kNoAckDue || in.sack_reported) continue;
    if (gap_aged(in)) {
      // The gap outlived the hold: it is a loss, not a reordering. Report
      // what we hold so the sender resends only the missing seqs.
      in.sack_reported = true;
      send_ack(static_cast<ProcessId>(from));
    } else {
      next = std::min(next, in.gap_since + config_.rto / 8);
    }
  }
  if (next != kNoAckDue) arm_sack_timer(next);
}

void ReliableChannel::on_ack(ProcessId from, std::uint64_t cumulative, BytesView sack) {
  // Cumulative ack: everything strictly below `cumulative` is received.
  PeerOut* found = find_peer(out_, from);
  if (found == nullptr) return;
  PeerOut& peer = *found;
  if (peer.floor_pending && cumulative >= peer.floor) peer.floor_pending = false;
  if (!sack.empty()) on_sack(from, peer, cumulative, sack);
  const std::uint64_t base = peer.base();
  if (cumulative <= base || peer.unacked.empty()) return;  // nothing new
  const std::uint64_t acked = std::min<std::uint64_t>(cumulative - base, peer.unacked.size());
  // Progress: the peer is alive and the path works; back off no more.
  peer.backoff = 1;
  peer.resend_at = 0;
  for (std::uint64_t i = 0; i < acked; ++i) {
    const Outgoing& msg = peer.unacked.front();
    if (msg.first_sent != kNeverSent) {
      if (peer.in_flight > 0) --peer.in_flight;
      // Time-in-channel: first transmit until the cumulative ack covers
      // the message (the sender-side view of channel residence).
      ctx_.metrics().observe(h_residence_, ctx_.now() - msg.first_sent);
    }
    peer.unacked.pop_front();
  }
  // The ack comes off the wire: should it cover unsent seqs (a receiver
  // whose state predates ours, or a corrupt frame), move the cursor past
  // them so queued_by_flow_control() stays exact.
  peer.next_unsent = std::max(peer.next_unsent, std::min(cumulative, peer.next_seq));
  pump(from, peer);
}

void ReliableChannel::on_sack(ProcessId from, PeerOut& peer, std::uint64_t cumulative,
                              BytesView sack) {
  // The peer holds the marked seqs above its ack; resends skip them. Newly
  // held seqs prove the peer alive and the path working, like ack progress.
  // A seq below the highest one held that went out at least a hold ago is
  // lost (jitter reorders by less): resend it at once, unless it already
  // went again within the last rto.
  const std::uint64_t base = peer.base();
  std::uint64_t highest = cumulative;
  const std::uint64_t above = cumulative < peer.next_seq ? cumulative + 1 : peer.next_seq;
  for (std::uint64_t seq = std::max(above, base); seq < peer.next_seq; ++seq) {
    const std::uint64_t off = seq - cumulative - 1;
    if (off >= 8 * sack.size()) break;
    if ((sack[off / 8] >> (off % 8)) & 1u) {
      Outgoing& msg = peer.unacked[seq - base];
      if (!msg.sacked) {
        msg.sacked = true;
        peer.backoff = 1;
        peer.resend_at = 0;
      }
      highest = seq;
    }
  }
  Batch lost;
  for (std::uint64_t seq = std::max(cumulative, base); seq < peer.next_seq && seq < highest;
       ++seq) {
    Outgoing& msg = peer.unacked[seq - base];
    if (msg.sacked || seq >= peer.next_unsent ||
        ctx_.now() - msg.first_sent < config_.rto / 8 ||
        (msg.resent_at != kNeverSent && ctx_.now() - msg.resent_at < config_.rto)) {
      continue;
    }
    msg.resent_at = ctx_.now();
    count_retransmit(from, msg);
    lost.emplace_back(seq, &msg);
  }
  if (!lost.empty()) transmit_batch(from, peer, lost);
}

bool ReliableChannel::hold(PeerIn& peer, std::uint64_t off, Tag upper, BytesView body) {
  if (off < peer.holdback.size() && peer.holdback[off].occupied()) return false;
  peer.holdback.extend(static_cast<std::size_t>(off) + 1);
  Held& slot = peer.holdback[static_cast<std::size_t>(off)];
  slot.upper = upper;
  // The view dies with the datagram: keep a copy in a pooled buffer.
  std::shared_ptr<Bytes> copy = ctx_.pool().acquire();
  copy->assign(body.begin(), body.end());
  slot.body = Payload(std::shared_ptr<const Bytes>(std::move(copy)));
  return true;
}

void ReliableChannel::on_datagram(ProcessId from, BytesView payload) {
  Decoder dec(payload);
  const std::uint8_t head = dec.get_byte();
  const std::uint8_t kind = head & kKindMask;
  const std::uint64_t cumulative = dec.get_u64();
  const BytesView sack = (head & kSackFlag) != 0 ? dec.get_view() : BytesView{};
  const bool has_floor = (head & kFloorFlag) != 0;
  const std::uint64_t floor = has_floor ? dec.get_u64() : 0;
  std::uint64_t entries = 0;
  if (kind == kBatch) {
    entries = dec.get_u64();
  } else if (kind == kData) {
    entries = 1;
  } else if (kind != kAck || has_floor) {
    return;
  }
  if (sack.size() > kMaxSackBytes || (head & ~(kKindMask | kSackFlag | kFloorFlag)) != 0) {
    return;
  }
  // Validate the whole frame before acting on any of it, so a truncated or
  // corrupt frame is dropped entirely, its ack included.
  Decoder check = dec;
  for (std::uint64_t i = 0; i < entries && check.ok(); ++i) {
    (void)check.get_u64();
    if (check.get_byte() >= handlers_.size()) check.invalidate();
    (void)check.get_view();
  }
  if (!check.ok()) return;
  if (entries == 0) {
    on_ack(from, cumulative, sack);
    return;
  }
  PeerIn& peer = in(from);
  const std::uint64_t expected_before = peer.next_expected;
  if (has_floor && floor > peer.next_expected) {
    // The sender voided the seqs below the floor when it excluded us.
    const std::uint64_t skipped = floor - peer.next_expected;
    peer.next_expected = floor;
    for (std::uint64_t i = 0; i < skipped && !peer.holdback.empty(); ++i) {
      peer.holdback.pop_front();
    }
  }
  const std::size_t bound =
      config_.send_window > 0 ? config_.send_window : kHoldbackLimit;
  bool duplicate = false;
  bool held = false;
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::uint64_t seq = dec.get_u64();
    const Tag upper = static_cast<Tag>(dec.get_byte());
    const BytesView body = dec.get_view();
    if (seq < peer.next_expected) {
      duplicate = true;
      continue;
    }
    // Zero-copy fast path: the common case (in order, nothing held back)
    // delivers the view straight out of the datagram buffer. Out-of-order
    // arrivals are the only ones that pay a copy into the holdback.
    const std::uint64_t off = seq - peer.next_expected;
    if (off == 0 && peer.holdback.empty()) {
      ++peer.next_expected;
      deliver(from, upper, body);
    } else if (off >= bound) {
      ++holdback_dropped_;  // unacked: the sender resends it
    } else if (hold(peer, off, upper, body)) {
      held = true;
    } else {
      duplicate = true;
    }
  }
  // Deliver the in-order prefix of the holdback. The slot leaves the ring
  // first: a delivery upcall may send, and framing reads the holdback.
  while (!peer.holdback.empty() && peer.holdback.front().occupied()) {
    const Held slot = std::move(peer.holdback.front());
    peer.holdback.pop_front();
    ++peer.next_expected;
    deliver(from, slot.upper, slot.body.bytes());
  }
  if (peer.holdback.empty()) {
    peer.gap_since = kNoAckDue;
  } else if (peer.gap_since == kNoAckDue || peer.next_expected != expected_before) {
    // A gap opened at next_expected. Jitter closes it within the hold; if
    // it outlives the hold, the SACK timer reports it.
    peer.gap_since = ctx_.now();
    peer.sack_reported = false;
    arm_sack_timer(ctx_.now() + config_.rto / 8);
  }
  // The peer's ack may release queued sends, which carry ours.
  on_ack(from, cumulative, sack);
  const std::uint64_t owed = peer.next_expected - peer.ack_sent;
  // Frames held behind an aged gap are SACK news: owe an ack for them.
  const bool sack_owed = held && gap_aged(peer);
  if (duplicate || (config_.send_window > 0 && 2 * owed >= config_.send_window)) {
    send_ack(from);
  } else if ((owed > 0 || sack_owed) && peer.ack_due == kNoAckDue) {
    peer.ack_due = ctx_.now() + config_.rto / 8;
    arm_ack_timer(peer.ack_due);
  }
}

void ReliableChannel::deliver(ProcessId from, Tag upper, BytesView payload) {
  ctx_.metrics().inc(m_delivered_);
  ctx_.trace_instant(obs::Names::get().channel_rx, MsgId{},
                     obs::pack_channel_arg(from, static_cast<std::uint8_t>(upper),
                                           payload.size()));
  auto& handler = handlers_[static_cast<std::size_t>(upper)];
  if (handler) handler(from, payload);
}

void ReliableChannel::arm_retransmit_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  ctx_.after(config_.rto, [this] { retransmit_tick(); });
}

void ReliableChannel::retransmit_tick() {
  timer_armed_ = false;
  bool outstanding = false;
  for (std::size_t to = 0; to < out_.size(); ++to) {
    PeerOut& peer = out_[to];
    if (peer.unacked.empty()) continue;
    outstanding = true;
    if (ctx_.now() >= peer.resend_at) resend_due(static_cast<ProcessId>(to), peer);
  }
  if (outstanding) arm_retransmit_timer();
}

void ReliableChannel::count_retransmit(ProcessId to, const Outgoing& msg) {
  ctx_.metrics().inc(m_retransmits_);
  ctx_.trace_instant(obs::Names::get().channel_retransmit, MsgId{},
                     obs::pack_channel_arg(to, static_cast<std::uint8_t>(msg.upper),
                                           msg.payload.size()));
}

void ReliableChannel::resend_due(ProcessId to, PeerOut& peer) {
  Batch due;
  const std::uint64_t base = peer.base();
  for (std::uint64_t seq = base; seq < peer.next_seq; ++seq) {
    Outgoing& msg = peer.unacked[seq - base];
    // Only retransmit messages that have been in flight at least one rto;
    // fresh sends get their first chance and flow-control-queued ones
    // have never been transmitted at all. first_sent never decreases
    // along the sent prefix, so the first fresh or unsent entry ends it.
    if (seq >= peer.next_unsent || ctx_.now() - msg.first_sent < config_.rto) break;
    if (msg.sacked) continue;  // the peer holds it; only the gaps go again
    msg.resent_at = ctx_.now();
    count_retransmit(to, msg);
    due.emplace_back(seq, &msg);
    if (peer.suspected) break;  // one probe: the oldest unacked frame
  }
  if (due.empty()) return;
  transmit_batch(to, peer, due);
  peer.backoff = std::min(2 * peer.backoff, kMaxBackoff);
  peer.resend_at = ctx_.now() + peer.backoff * config_.rto;
}

}  // namespace gcs
