/// \file consensus_protocol.hpp
/// The consensus abstraction the rest of the stack builds on.
///
/// The paper observes (§2.3) that every historical architecture was shaped
/// by its ordering algorithm. The new architecture inverts that: anything
/// satisfying this interface — uniform multi-instance consensus over an
/// explicit member set, tolerating false suspicions — can sit at the
/// bottom of the stack. Two implementations are provided, both under one
/// multi-instance shell (consensus_shell.hpp: decision log, ANNOUNCE,
/// DECIDE, forget watermark):
///   - Consensus        Chandra–Toueg ◇S rotating coordinator (consensus.hpp)
///   - PaxosConsensus   leader-stable multi-Paxos (paxos.hpp)
/// Both run unchanged under the same atomic broadcast, membership, generic
/// broadcast and replication layers (the PaxosStack tests run the full
/// stack on Paxos).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "util/types.hpp"

namespace gcs {

class ConsensusProtocol {
 public:
  using DecideFn = std::function<void(std::uint64_t instance, const Bytes& value)>;

  virtual ~ConsensusProtocol() = default;

  /// Propose \p value for instance \p k among \p members (self included).
  virtual void propose(std::uint64_t k, Bytes value, std::vector<ProcessId> members) = 0;

  /// Decision callback; fired exactly once per instance per subscriber.
  virtual void on_decide(DecideFn fn) = 0;

  /// True if instance \p k has decided locally.
  virtual bool decided(std::uint64_t k) const = 0;

  /// Number of instances decided locally (ordering-work metric).
  virtual std::int64_t instances_decided() const = 0;

  /// Instances currently tracked locally and not yet decided (probe gauge:
  /// open = in-flight ordering work).
  virtual std::int64_t open_instances() const = 0;

  /// Garbage-collect decision values for instances < \p k.
  virtual void forget_below(std::uint64_t k) = 0;

  /// The members of the current view; the stack calls it on every view
  /// change. What the implementation keeps per member (an acknowledgement
  /// it waits for) ends for members outside it.
  virtual void set_view_members(const std::vector<ProcessId>& members) { (void)members; }

  /// -- admission gate (DESIGN.md §12) -------------------------------------
  ///
  /// An acceptor votes for a value (Paxos ACCEPTED, CT phase-3 ACK) only
  /// once \p fn returns true for it; until then the vote waits, so every
  /// decided value passed the predicate at a majority. Atomic broadcast
  /// sets it to "I hold every payload this batch names". Unset, everything
  /// is admitted. DECIDE is never gated.
  using AdmitFn = std::function<bool(const Bytes& value)>;
  void set_admission(AdmitFn fn) { admit_ = std::move(fn); }

  /// Re-offer the votes the gate holds back; the owner of the predicate
  /// calls it when the predicate may have turned true. A vote held back
  /// for longer than the ◇S suspicion timeout gives up on its value the
  /// way a suspicion would, so a value that no correct process can ever
  /// admit does not block its instance.
  void retry_deferred() {
    std::vector<std::uint64_t> ready;
    for (const auto& [k, vote] : deferred_) {
      if (admitted(vote.value)) ready.push_back(k);
    }
    for (const std::uint64_t k : ready) {
      auto it = deferred_.find(k);
      if (it == deferred_.end()) continue;
      DeferredVote vote = std::move(it->second);
      deferred_.erase(it);
      cast_deferred(k, std::move(vote));
    }
  }

  /// Votes the gate currently holds back (tests, probe gauge).
  std::size_t deferred_votes() const { return deferred_.size(); }

  /// The process this implementation expects to drive the next decrees, or
  /// kNoProcess when the algorithm has no stable-leader notion (CT's
  /// coordinator rotates per round). It picks the proposer (proposer()
  /// below), and fault injection aims leader-targeted steps at it; it is
  /// never consulted for safety: any member may propose any instance.
  virtual ProcessId stable_leader() const { return kNoProcess; }

  /// Who proposes (DESIGN.md §15). \c leader is the stable leader while
  /// it is in the view and this process does not suspect it, and \c hold
  /// how long another member may leave its pending values to it before
  /// proposing them itself. With \c leader == kNoProcess every member
  /// proposes what it has.
  struct Proposer {
    ProcessId leader = kNoProcess;
    Duration hold = 0;
  };
  virtual Proposer proposer() const { return {}; }

 protected:
  /// A vote the gate holds back: the message that asked for it (CT
  /// PROPOSE of a round, Paxos ACCEPT of a ballot) and the value.
  struct DeferredVote {
    ProcessId from;
    std::int64_t round;
    Bytes value;
  };

  bool admitted(const Bytes& value) const { return !admit_ || admit_(value); }
  /// Handle again the message behind a vote the gate now admits.
  virtual void cast_deferred(std::uint64_t k, DeferredVote vote) = 0;

  /// Instance -> its held-back vote (one per instance: the latest).
  std::map<std::uint64_t, DeferredVote> deferred_;

 private:
  AdmitFn admit_;
};

}  // namespace gcs
