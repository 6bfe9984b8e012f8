#include "consensus/consensus.hpp"

#include <algorithm>

namespace gcs {

namespace {
// DECIDE (5) and ANNOUNCE (6) are the shell's kinds.
constexpr std::uint8_t kEstimate = 0;
constexpr std::uint8_t kPropose = 1;
constexpr std::uint8_t kAck = 2;
constexpr std::uint8_t kNack = 3;
}  // namespace

Consensus::Consensus(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
                     FailureDetector::ClassId fd_class)
    : ConsensusShell(ctx, channel, fd, fd_class), m_rounds_(metric_id("consensus.rounds")) {}

void Consensus::propose(std::uint64_t k, Bytes value, std::vector<ProcessId> members) {
  if (redeliver(k)) return;
  Instance* inst = start(k, members);
  if (!inst) return;
  // Do not clobber an estimate adopted while participating passively: it may
  // be locked by a majority (CT safety argument relies on keeping it).
  if (inst->estimate_ts < 0) {
    inst->estimate = std::move(value);
    inst->estimate_ts = 0;
  }
  // CT assumes every correct member proposes; ANNOUNCE makes the others do.
  announce(k, *inst, inst->estimate);
  // After a passive ACK, start at the next round: the ACK was sent before
  // we knew the member set, so a NACK of that round could have passed us.
  enter_round(k, *inst, inst->responded ? inst->round + 1 : inst->round);
}

void Consensus::enter_round(std::uint64_t k, Instance& inst, std::int64_t r) {
  if (inst.decided) return;
  inst.round = r;
  inst.responded = false;
  ctx_.metrics().inc(m_rounds_);
  const ProcessId c = inst.coordinator(r);
  ctx_.trace_instant(obs::Names::get().consensus_estimate, MsgId{obs::kConsensusKey, k},
                     r);
  // Phase 1: send estimate to the coordinator.
  Encoder enc;
  enc.put_byte(kEstimate);
  enc.put_u64(k);
  enc.put_i64(r);
  enc.put_i64(inst.estimate_ts);
  enc.put_bytes(inst.estimate);
  channel_.send(c, Tag::kConsensus, enc.take());
  // Phase 3 shortcut: if the coordinator is already suspected, NACK soon.
  // The small delay bounds round churn when many coordinators are suspected
  // at once (e.g. during a partition) and lets heartbeats revoke mistakes.
  if (fd_.suspects(fd_class_, c)) {
    ctx_.after(msec(1), [this, k, r] {
      auto it = instances_.find(k);
      if (it == instances_.end()) return;
      Instance& i = it->second;
      if (i.decided || i.round != r) return;
      if (fd_.suspects(fd_class_, i.coordinator(r))) leave_round(k, i);
    });
  }
}

void Consensus::nack_round(std::uint64_t k, Instance& inst) {
  if (inst.decided || inst.responded) return;
  inst.responded = true;
  const std::int64_t r = inst.round;
  ctx_.trace_instant(obs::Names::get().consensus_nack, MsgId{obs::kConsensusKey, k}, r);
  send_nack(k, r, {inst.coordinator(r)});
  next_round(k, inst);
}

void Consensus::next_round(std::uint64_t k, Instance& inst) {
  if (inst.started) {
    enter_round(k, inst, inst.round + 1);
  } else {
    // Passive participant: advance the round marker so a later propose()
    // resumes at the right round instead of regressing.
    ++inst.round;
    inst.responded = false;
  }
}

void Consensus::send_nack(std::uint64_t k, std::int64_t r, const std::vector<ProcessId>& to) {
  Encoder enc;
  enc.put_byte(kNack);
  enc.put_u64(k);
  enc.put_i64(r);
  channel_.send_group(to, Tag::kConsensus, enc.take());
}

void Consensus::on_fd_suspect(ProcessId q) {
  // A suspicion unblocks every started instance whose current round q
  // coordinates. Collect the ids first: leave_round() mutates instances_.
  std::vector<std::uint64_t> waiting;
  for (auto& [k, inst] : instances_) {
    if (inst.started && !inst.decided && !inst.members.empty() &&
        inst.coordinator(inst.round) == q) {
      waiting.push_back(k);
    }
  }
  for (std::uint64_t k : waiting) {
    auto it = instances_.find(k);
    if (it != instances_.end()) leave_round(k, it->second);
  }
}

void Consensus::leave_round(std::uint64_t k, Instance& inst) {
  if (inst.responded) {
    enter_round(k, inst, inst.round + 1);  // ACKed: stop waiting for DECIDE
  } else {
    nack_round(k, inst);
  }
}

void Consensus::handle(ProcessId from, std::uint8_t kind, std::uint64_t k, Decoder& dec) {
  switch (kind) {
    case kEstimate: {
      const std::int64_t r = dec.get_i64();
      const std::int64_t ts = dec.get_i64();
      Bytes value = dec.get_bytes();
      if (dec.ok()) handle_estimate(from, k, r, ts, std::move(value));
      break;
    }
    case kPropose: {
      const std::int64_t r = dec.get_i64();
      Bytes value = dec.get_bytes();
      if (dec.ok()) handle_propose(from, k, r, std::move(value));
      break;
    }
    case kAck: {
      const std::int64_t r = dec.get_i64();
      if (dec.ok()) handle_ack(k, r);
      break;
    }
    case kNack: {
      const std::int64_t r = dec.get_i64();
      if (dec.ok()) handle_nack(from, k, r);
      break;
    }
    default:
      break;
  }
}

void Consensus::handle_estimate(ProcessId from, std::uint64_t k, std::int64_t r,
                                std::int64_t ts, Bytes value) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided) return;
  auto& round = inst.rounds[r];
  if (round.failed) {
    // A latecomer to a round we dropped: our NACK to the members may have
    // reached it before it entered the round. Repeat it.
    send_nack(k, r, {from});
    return;
  }
  round.estimates.emplace_back(ts, std::move(value));
  maybe_propose_round(k, inst, r);
}

void Consensus::maybe_propose_round(std::uint64_t k, Instance& inst, std::int64_t r) {
  // Coordinator phase 2: needs to know the member set to count a majority.
  // Estimates may arrive before propose() told us the members; they are kept
  // in rounds[] and re-examined when propose() runs (via enter_round ->
  // the coordinator receives its own estimate through the loopback channel).
  if (inst.members.empty()) return;
  if (inst.coordinator(r) != ctx_.self()) return;
  auto& round = inst.rounds[r];
  if (!round.proposed && round.first_estimate_at < 0 && !round.estimates.empty()) {
    // Quorum assembly starts at the first estimate we see for the round.
    round.first_estimate_at = ctx_.now();
    ctx_.trace_begin(obs::Names::get().consensus_propose_wait,
                     MsgId{obs::kConsensusKey, k}, r);
  }
  if (round.proposed || round.failed ||
      static_cast<int>(round.estimates.size()) < inst.majority) {
    return;
  }
  // Adopt the estimate with the highest timestamp (most recently locked).
  const auto best = std::max_element(
      round.estimates.begin(), round.estimates.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  round.proposed = true;
  round.proposal = best->second;
  if (round.first_estimate_at >= 0) {
    ctx_.metrics().observe(h_propose_wait_, ctx_.now() - round.first_estimate_at);
    ctx_.trace_end(obs::Names::get().consensus_propose_wait,
                   MsgId{obs::kConsensusKey, k}, r);
  }
  inst.accept_sent_at = ctx_.now();
  ctx_.trace_instant(obs::Names::get().consensus_propose, MsgId{obs::kConsensusKey, k}, r);
  ctx_.trace_begin(obs::Names::get().consensus_accept_wait, MsgId{obs::kConsensusKey, k},
                   r);
  Encoder enc;
  enc.put_byte(kPropose);
  enc.put_u64(k);
  enc.put_i64(r);
  enc.put_bytes(round.proposal);
  channel_.send_group(inst.members, Tag::kConsensus, enc.take());
}

void Consensus::handle_propose(ProcessId from, std::uint64_t k, std::int64_t r, Bytes value) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided) return;
  // Round monotonicity is a SAFETY requirement for everyone, passive
  // participants included: once a process has ACKed round r it must never
  // ACK a round < r, or two coordinators could both assemble majorities
  // with different values.
  if (r < inst.round) return;  // stale round
  if (r > inst.round) {
    // Fast-forward: we lagged behind; join the newer round.
    inst.round = r;
    inst.responded = false;
  }
  if (inst.responded) return;
  if (!admitted(value)) {
    // Admission gate: ACK only once the value passes (retry_deferred()).
    park_vote(k, from, r, std::move(value));
    return;
  }
  deferred_.erase(k);
  inst.responded = true;
  inst.estimate = std::move(value);
  // Lock with ts = r + 1 so a round-0 lock (ts 1) outranks initial
  // proposals (ts 0): the coordinator's max-ts selection must always prefer
  // a possibly-decided value over a fresh one.
  inst.estimate_ts = r + 1;
  ctx_.trace_instant(obs::Names::get().consensus_ack, MsgId{obs::kConsensusKey, k}, r);
  Encoder enc;
  enc.put_byte(kAck);
  enc.put_u64(k);
  enc.put_i64(r);
  channel_.send(from, Tag::kConsensus, enc.take());
  // Having ACKed, wait in round r for its DECIDE: on_fd_suspect() or the
  // coordinator's NACK moves us on if the round fails.
}

void Consensus::handle_ack(std::uint64_t k, std::int64_t r) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided || inst.members.empty()) return;
  auto& round = inst.rounds[r];
  if (!round.proposed) return;  // not our round / never proposed
  if (++round.acks >= inst.majority) decide(k, inst, round.proposal);
}

void Consensus::handle_nack(ProcessId from, std::uint64_t k, std::int64_t r) {
  if (decisions_.count(k)) return;
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided || inst.members.empty()) return;
  if (inst.coordinator(r) == ctx_.self()) {
    // A member gave up on our round: it may no longer reach a majority of
    // ACKs (or of estimates), and those who ACKed wait for its DECIDE. Tell
    // them once; a round we have not proposed yet is dropped.
    auto& round = inst.rounds[r];
    if (!round.failed) {
      round.failed = true;
      send_nack(k, r, inst.members);
    }
  }
  // The coordinator's NACK: its round failed, so leave it (an ACKer stops
  // waiting for its DECIDE).
  if (from == inst.coordinator(r) && inst.round == r) next_round(k, inst);
}

void Consensus::on_deferral_timeout(std::uint64_t k, std::int64_t r) {
  auto dit = deferred_.find(k);
  if (dit == deferred_.end() || dit->second.round != r) return;
  deferred_.erase(dit);
  auto it = instances_.find(k);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (inst.decided || inst.round != r || inst.responded) return;
  // NACKing is always safe; it is what a suspicion of the coordinator
  // would do. An unlocked estimate is still free to change, and one the
  // gate refuses would only be picked again: make it a no-op.
  if (inst.estimate_ts <= 0 && !admitted(inst.estimate)) inst.estimate.clear();
  if (inst.members.empty()) {
    ++inst.round;  // passive, member set unknown: no coordinator to NACK
    return;
  }
  nack_round(k, inst);
}

}  // namespace gcs
