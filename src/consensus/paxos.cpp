#include "consensus/paxos.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/codec.hpp"

namespace gcs {

namespace {
// Kinds 0 and 1 (per-instance PREPARE/PROMISE) are retired; the remaining
// kinds keep their numbers so their bytes on the wire stay the same.
// DECIDE (5) and ANNOUNCE (6) are the shell's kinds.
constexpr std::uint8_t kAccept = 2;
constexpr std::uint8_t kAccepted = 3;
constexpr std::uint8_t kNack = 4;
// The epoch (ranged phase-1) messages, from the shell's first ranged kind
// on: the u64 after the kind byte carries the range floor, not an instance.
constexpr std::uint8_t kRangedPrepare = 7;
constexpr std::uint8_t kRangedPromise = 8;
constexpr std::uint8_t kRangedNack = 9;

/// Takeover backoff: delay before a ranged prepare is kBackoffMin plus a
/// seeded-Rng draw from a window that doubles per consecutive NACK, capped
/// at kBackoffMax - kBackoffMin (bounded, deterministic for a fixed seed).
constexpr Duration kBackoffMin = msec(1);
constexpr Duration kBackoffMax = msec(16);
/// Backoff window doubling is capped here; with kBackoffMax also clamping
/// the draw, churn between dueling takeover candidates stays bounded.
constexpr int kMaxBackoffShift = 6;
}  // namespace

PaxosConsensus::PaxosConsensus(sim::Context& ctx, ReliableChannel& channel,
                               FailureDetector& fd, FailureDetector::ClassId fd_class)
    : ConsensusShell(ctx, channel, fd, fd_class),
      m_prepares_(metric_id("paxos.prepares_sent")),
      m_noop_fills_(metric_id("paxos.noop_fills")) {}

ProcessId PaxosConsensus::stable_leader() const {
  // Before we adopt a member set, name the owner of the highest ballot seen
  // in the current view, as adopting the view's set would (ballot 0's owner
  // in a new group).
  if (epoch_members_.empty()) {
    const std::vector<ProcessId>& view = view_members();
    if (view.empty()) return kNoProcess;
    return view[static_cast<std::size_t>(epoch_seen_ballot_) % view.size()];
  }
  return epoch_owner(std::max(epoch_seen_ballot_, epoch_.ballot));
}

std::int64_t PaxosConsensus::effective_promised(std::uint64_t k,
                                                const Instance& inst) const {
  std::int64_t eff = inst.promised;
  if (epoch_promised_ballot_ >= 0 && k >= epoch_promised_floor_) {
    eff = std::max(eff, epoch_promised_ballot_);
  }
  return eff;
}

void PaxosConsensus::adopt_epoch_members(std::uint64_t k,
                                         const std::vector<ProcessId>& members) {
  if (members.empty()) return;
  if (epoch_members_.empty()) {
    epoch_members_ = members;
    // Ballot 0 is implicitly established for its owner: no other process
    // may ever use ballot 0, so the owner needs no phase 1 at all.
    epoch_.ballot = 0;
    epoch_.floor = 0;
    epoch_.mine = epoch_owner(0) == ctx_.self();
    return;
  }
  // A changed member set is a view change: instances >= k run under the new
  // configuration. The highest ballot seen is kept, so it names the same
  // leader under the new set at every member that saw it; that member
  // prepares it anew (leaderless()). Only while no ballot above 0 was seen
  // is ballot 0 again implicitly owned. Stale ranged promises from the old
  // configuration stay in force (over-promising is safe); if they block
  // the new ballot-0 owner it recovers via NACK -> ranged takeover at a
  // higher ballot.
  if (members != epoch_members_ && k >= epoch_adopted_at_) {
    const ProcessId before = stable_leader();
    epoch_members_ = members;
    epoch_adopted_at_ = k;
    epoch_ = Epoch{};
    epoch_.floor = k;
    epoch_.mine = epoch_seen_ballot_ == 0 && epoch_owner(0) == ctx_.self();
    consecutive_nacks_ = 0;
    if (stable_leader() != before) reannounce(stable_leader());
  }
}

void PaxosConsensus::propose(std::uint64_t k, Bytes value, std::vector<ProcessId> members) {
  if (redeliver(k)) return;
  adopt_epoch_members(k, members);
  Instance* inst = start(k, members);
  if (!inst) return;
  inst->my_value = std::move(value);
  inst->proposed = true;
  if (epoch_.mine && k >= epoch_.floor) {
    drive_accept(k, epoch_.ballot, inst->my_value);
    return;
  }
  // The leader drives the value; the other members join from its ACCEPT.
  announce_to(stable_leader(), k, *inst);
  if (!epoch_.mine && !epoch_.preparing && leaderless(stable_leader())) {
    maybe_take_over_epoch(/*force=*/false);
  }
}

void PaxosConsensus::announce_to(ProcessId leader, std::uint64_t k, Instance& inst) {
  if (leader == ctx_.self() || leader == kNoProcess || inst.announced_to == leader) return;
  inst.announced_to = leader;
  announce(k, inst, inst.my_value, leader);
}

void PaxosConsensus::reannounce(ProcessId leader) {
  for (auto& [k, inst] : instances_) {
    if (inst.proposed && !inst.decided) announce_to(leader, k, inst);
  }
}

bool PaxosConsensus::has_undecided() const {
  // Our own proposals, and decrees we accepted: if the leader that sent
  // them proposed alone and crashed, nobody else may know of them.
  for (const auto& [k, inst] : instances_) {
    (void)k;
    if ((inst.started || inst.accepted_ballot >= 0) && !inst.decided) return true;
  }
  return false;
}

// -- epochs -------------------------------------------------------------------

void PaxosConsensus::drive_accept(std::uint64_t k, std::int64_t ballot, Bytes value) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, &epoch_members_);
  if (inst.decided) return;
  auto& attempt = inst.attempts[ballot];
  if (attempt.accepting) return;  // already driving this decree at this ballot
  attempt.accepting = true;
  attempt.value = std::move(value);
  inst.started = true;
  if (inst.started_at < 0) inst.started_at = ctx_.now();
  inst.round = std::max(inst.round, ballot);
  inst.accept_sent_at = ctx_.now();
  ctx_.trace_instant(obs::Names::get().consensus_propose, MsgId{obs::kConsensusKey, k},
                     ballot);
  // Pipelined instances overlap: one accept_wait span per in-flight decree.
  ctx_.trace_begin(obs::Names::get().consensus_accept_wait, MsgId{obs::kConsensusKey, k},
                   ballot);
  Encoder enc;
  enc.put_byte(kAccept);
  enc.put_u64(k);
  enc.put_i64(ballot);
  enc.put_bytes(attempt.value);
  channel_.send_group(inst.members, Tag::kConsensus, enc.take());
}

void PaxosConsensus::maybe_take_over_epoch(bool force) {
  if (epoch_members_.empty() || epoch_.preparing || takeover_pending_) return;
  const std::int64_t cur = std::max(epoch_seen_ballot_, epoch_.ballot);
  if (epoch_.mine && cur <= epoch_.ballot) return;  // we already lead
  if (!force && !leaderless(epoch_owner(cur))) return;
  if (!has_undecided()) return;  // nothing to lead for
  takeover_pending_ = true;
  // Bounded deterministic backoff: a seeded-Rng draw from a window that
  // doubles per consecutive NACK, so dueling candidates de-synchronize
  // without unbounded ballot churn. Deterministic for a fixed seed.
  const int shift = std::min(consecutive_nacks_, kMaxBackoffShift);
  const Duration span =
      std::min(kBackoffMin << shift, kBackoffMax - kBackoffMin);
  const Duration delay = kBackoffMin + ctx_.rng().next_range(0, span);
  ctx_.after(delay, [this, force] {
    takeover_pending_ = false;
    if (epoch_.preparing || epoch_members_.empty()) return;
    const std::int64_t now_cur = std::max(epoch_seen_ballot_, epoch_.ballot);
    if (epoch_.mine && now_cur <= epoch_.ballot) return;
    if (!has_undecided()) return;  // the contested decrees landed meanwhile
    if (!force && !leaderless(epoch_owner(now_cur))) return;
    // Smallest ballot above everything seen that we own.
    std::int64_t b = now_cur + 1;
    while (epoch_owner(b) != ctx_.self()) ++b;
    start_epoch(b);
  });
}

void PaxosConsensus::start_epoch(std::int64_t ballot) {
  epoch_.ballot = ballot;
  epoch_.mine = false;
  epoch_.preparing = true;
  epoch_.promises = 0;
  epoch_.recovered.clear();
  epoch_.floor = forgotten_below_;
  epoch_.prepare_at = ctx_.now();
  epoch_seen_ballot_ = std::max(epoch_seen_ballot_, ballot);
  ctx_.metrics().inc(m_prepares_);
  ctx_.trace_instant(obs::Names::get().paxos_prepare,
                     MsgId{obs::kConsensusKey, epoch_.floor}, ballot);
  Encoder enc;
  enc.put_byte(kRangedPrepare);
  enc.put_u64(epoch_.floor);
  enc.put_i64(ballot);
  channel_.send_group(epoch_members_, Tag::kConsensus, enc.take());
}

void PaxosConsensus::handle_ranged_prepare(ProcessId from, std::uint64_t floor,
                                           std::int64_t b) {
  if (b < epoch_promised_ballot_) {
    Encoder nack;
    nack.put_byte(kRangedNack);
    nack.put_u64(0);
    nack.put_i64(epoch_promised_ballot_);
    channel_.send(from, Tag::kConsensus, nack.take());
    return;
  }
  // Promise the whole range: no ballot < b will be accepted at any k >=
  // floor from now on. Ballot max / floor min is monotone — over-promising
  // is always safe.
  if (epoch_promised_ballot_ < 0) {
    epoch_promised_floor_ = floor;
  } else {
    epoch_promised_floor_ = std::min(epoch_promised_floor_, floor);
  }
  epoch_promised_ballot_ = b;
  note_epoch_ballot(b);
  Encoder enc;
  enc.put_byte(kRangedPromise);
  enc.put_u64(floor);
  enc.put_i64(b);
  // Report every decree accepted at instances >= floor (the recovery set)…
  std::vector<std::pair<std::uint64_t, const Instance*>> accepted;
  for (const auto& [k, inst] : instances_) {
    if (k >= floor && inst.accepted_ballot >= 0 && !decisions_.count(k)) {
      accepted.emplace_back(k, &inst);
    }
  }
  enc.put_u64(accepted.size());
  for (const auto& [k, inst] : accepted) {
    enc.put_u64(k);
    enc.put_i64(inst->accepted_ballot);
    enc.put_bytes(inst->accepted_value);
  }
  // …and every decision still held: decided instances drop their acceptor
  // state (learn() erases it), so without these entries a new leader
  // could re-propose a different value for an already-chosen instance.
  std::vector<std::uint64_t> decided;
  for (const auto& [k, held] : decisions_) {
    (void)held;
    if (k >= floor) decided.push_back(k);
  }
  enc.put_u64(decided.size());
  for (std::uint64_t k : decided) {
    enc.put_u64(k);
    enc.put_bytes(decisions_[k].value);
  }
  channel_.send(from, Tag::kConsensus, enc.take());
}

void PaxosConsensus::handle_ranged_promise(ProcessId /*from*/, std::uint64_t /*floor*/,
                                           std::int64_t b, Decoder& dec) {
  // Each entry takes at least one byte: a count beyond the bytes left is
  // hostile, and reserving it would throw.
  const std::uint64_t n_accepted = dec.get_u64();
  if (n_accepted > dec.remaining()) return;
  std::vector<std::tuple<std::uint64_t, std::int64_t, Bytes>> accepted;
  accepted.reserve(n_accepted);
  for (std::uint64_t i = 0; i < n_accepted && dec.ok(); ++i) {
    const std::uint64_t k = dec.get_u64();
    const std::int64_t ab = dec.get_i64();
    Bytes av = dec.get_bytes();
    accepted.emplace_back(k, ab, std::move(av));
  }
  const std::uint64_t n_decided = dec.get_u64();
  if (n_decided > dec.remaining()) return;
  std::vector<std::pair<std::uint64_t, Bytes>> decided;
  decided.reserve(n_decided);
  for (std::uint64_t i = 0; i < n_decided && dec.ok(); ++i) {
    const std::uint64_t k = dec.get_u64();
    Bytes v = dec.get_bytes();
    decided.emplace_back(k, std::move(v));
  }
  if (!dec.ok()) return;
  // Decisions are final regardless of our candidacy's fate. Their holder
  // answers for them, so we learn them as our own (we relay none).
  for (auto& [k, v] : decided) learn(k, std::move(v), ctx_.self(), 0);
  if (!epoch_.preparing || b != epoch_.ballot) return;
  for (auto& [k, ab, av] : accepted) {
    auto it = epoch_.recovered.find(k);
    if (it == epoch_.recovered.end() || ab > it->second.first) {
      epoch_.recovered[k] = {ab, std::move(av)};
    }
  }
  if (++epoch_.promises >= epoch_majority()) establish_epoch();
}

void PaxosConsensus::handle_ranged_nack(std::int64_t b_high) {
  if (!epoch_.preparing || b_high <= epoch_.ballot) {
    note_epoch_ballot(b_high);
    return;
  }
  epoch_.preparing = false;
  note_epoch_ballot(b_high);
  ++consecutive_nacks_;
  // Our decrees still need a leader; retry above the nacker's ballot after
  // a (widened) backoff. The FD gate is skipped: the promise we ran into
  // may belong to a long-gone candidate.
  maybe_take_over_epoch(/*force=*/true);
}

void PaxosConsensus::note_epoch_ballot(std::int64_t b) {
  if (b > epoch_.ballot) {
    // A higher epoch exists: we are deposed (if leading) and any candidacy
    // at the lower ballot is stale.
    epoch_.mine = false;
    epoch_.preparing = false;
  }
  if (b > epoch_seen_ballot_) {
    const ProcessId before = stable_leader();
    epoch_seen_ballot_ = b;
    // A new leader: hand it our undecided proposals.
    if (stable_leader() != before) reannounce(stable_leader());
  }
  // A ballot that names us while we neither lead nor prepare it was
  // prepared under another member set (members adopt a new set at
  // different times, and a ballot's owner depends on the set): nobody
  // drives it, so we contest it.
  if (stable_leader() == ctx_.self()) maybe_take_over_epoch(/*force=*/false);
}

void PaxosConsensus::establish_epoch() {
  epoch_.preparing = false;
  epoch_.mine = true;
  consecutive_nacks_ = 0;
  if (epoch_.prepare_at >= 0) {
    ctx_.metrics().observe(h_propose_wait_, ctx_.now() - epoch_.prepare_at);
    epoch_.prepare_at = -1;
  }
  drive_epoch_instances();
}

void PaxosConsensus::drive_epoch_instances() {
  // Value per instance the new epoch must drive, by priority: recovered
  // (possibly-chosen) decrees, then locally known proposals, then no-op
  // fills for gaps below the decided frontier (a gap can never deliver —
  // an empty decree keeps the log contiguous without inventing payloads).
  std::map<std::uint64_t, Bytes> drive;
  for (auto& [k, rec] : epoch_.recovered) {
    if (!decisions_.count(k)) drive[k] = rec.second;
  }
  for (auto& [k, inst] : instances_) {
    if (k >= epoch_.floor && inst.started && !inst.decided && !drive.count(k)) {
      drive[k] = admissible(inst.my_value);
    }
  }
  for (std::uint64_t k = epoch_.floor; k < decided_frontier_; ++k) {
    if (!decisions_.count(k) && !drive.count(k)) {
      drive[k] = Bytes{};
      ctx_.metrics().inc(m_noop_fills_);
    }
  }
  epoch_.recovered.clear();
  for (auto& [k, v] : drive) drive_accept(k, epoch_.ballot, std::move(v));
}

// -- instance messages --------------------------------------------------------

void PaxosConsensus::on_fd_suspect(ProcessId q) {
  if (epoch_members_.empty() || q != stable_leader()) return;
  // Hand our undecided proposals to the owner of the next ballot, the
  // likely successor, and contest the epoch ourselves if we have any.
  reannounce(epoch_owner(std::max(epoch_seen_ballot_, epoch_.ballot) + 1));
  maybe_take_over_epoch(/*force=*/false);
}

void PaxosConsensus::handle(ProcessId from, std::uint8_t kind, std::uint64_t k,
                            Decoder& dec) {
  switch (kind) {
    case kAccept: {
      const std::int64_t b = dec.get_i64();
      Bytes v = dec.get_bytes();
      if (dec.ok()) handle_accept(from, k, b, std::move(v));
      break;
    }
    case kAccepted: {
      const std::int64_t b = dec.get_i64();
      if (dec.ok()) handle_accepted(from, k, b);
      break;
    }
    case kNack: {
      const std::int64_t b_high = dec.get_i64();
      if (dec.ok()) handle_nack(k, b_high);
      break;
    }
    case kRangedPrepare: {
      const std::int64_t b = dec.get_i64();
      if (dec.ok()) handle_ranged_prepare(from, k, b);
      break;
    }
    case kRangedPromise: {
      const std::int64_t b = dec.get_i64();
      if (dec.ok()) handle_ranged_promise(from, k, b, dec);
      break;
    }
    case kRangedNack: {
      const std::int64_t b_high = dec.get_i64();
      if (dec.ok()) handle_ranged_nack(b_high);
      break;
    }
    default:
      break;
  }
}

void PaxosConsensus::handle_accept(ProcessId from, std::uint64_t k, std::int64_t b, Bytes v) {
  if (decisions_.count(k)) return;
  // A member no ANNOUNCE reached joins here, with the epoch's member set
  // if the sender owns this ballot under it.
  const bool epoch_known = !epoch_members_.empty() && epoch_owner(b) == from;
  Instance& inst = get_instance(k, epoch_known ? &epoch_members_ : nullptr);
  if (inst.decided) return;
  inst.round = std::max(inst.round, b);
  note_epoch_ballot(b);
  // Gate on the effective promise: a stale ballot-0 ACCEPT arriving after a
  // ranged promise at a higher ballot must be refused, or the promise is
  // violated.
  const std::int64_t eff = effective_promised(k, inst);
  if (b >= eff && !admitted(v)) {
    // Admission gate: vote only once the value passes (retry_deferred()).
    park_vote(k, from, b, std::move(v));
    return;
  }
  if (auto dit = deferred_.find(k); dit != deferred_.end() && dit->second.round <= b) {
    deferred_.erase(dit);
  }
  Encoder enc;
  if (b >= eff) {
    inst.promised = std::max(inst.promised, b);
    inst.accepted_ballot = b;
    inst.accepted_value = std::move(v);
    enc.put_byte(kAccepted);
    enc.put_u64(k);
    enc.put_i64(b);
  } else {
    enc.put_byte(kNack);
    enc.put_u64(k);
    enc.put_i64(eff);
  }
  channel_.send(from, Tag::kConsensus, enc.take());
}

void PaxosConsensus::handle_accepted(ProcessId /*from*/, std::uint64_t k, std::int64_t b) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided || inst.members.empty()) return;
  auto ait = inst.attempts.find(b);
  if (ait == inst.attempts.end() || !ait->second.accepting) return;
  if (++ait->second.accepteds < inst.majority) return;
  // The accepted value of this ballot is what we sent in ACCEPT.
  decide(k, inst, ait->second.value);
}

void PaxosConsensus::handle_nack(std::uint64_t k, std::int64_t b_high) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided) return;
  inst.round = std::max(inst.round, b_high);
  bool was_driving = false;
  for (auto& [ballot, attempt] : inst.attempts) {
    if (ballot < b_high) {
      was_driving = was_driving || attempt.accepting;
      attempt.accepting = false;
    }
  }
  // A higher ballot covers this instance; if we were driving it as epoch
  // owner we lost the lease — re-contest above the nacker after backoff.
  note_epoch_ballot(b_high);
  if (was_driving) {
    ++consecutive_nacks_;
    maybe_take_over_epoch(/*force=*/true);
  }
}

void PaxosConsensus::on_deferral_timeout(std::uint64_t k, std::int64_t ballot) {
  auto dit = deferred_.find(k);
  if (dit == deferred_.end() || dit->second.round != ballot) return;
  auto it = instances_.find(k);
  if (it == instances_.end() || it->second.decided) return;
  // A plain acceptor keeps waiting: the payload, or a new ballot, comes.
  // Our own decree is stuck only if no holder of the payload can vote:
  // recovery at a higher ballot re-drives whatever a majority may have
  // chosen, and turns the rest we cannot admit into no-ops.
  if (!epoch_.mine || epoch_.ballot != ballot) return;
  std::int64_t next = std::max(epoch_seen_ballot_, epoch_.ballot) + 1;
  while (epoch_owner(next) != ctx_.self()) ++next;
  start_epoch(next);
}

}  // namespace gcs
