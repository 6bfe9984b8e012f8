/// \file fault_plan.hpp
/// FaultPlan: the schedule explorer's scenario DSL.
///
/// A fault plan is a deterministic scenario program: a sorted list of
/// timestamped steps (traffic, crashes, partitions and heals, joins, false
/// suspicions, failure-detector timeout perturbations, network duplication
/// and reorder bursts) plus the world parameters the scenario runs under
/// (universe size, link model, consensus algorithm). Every field of every
/// step is fixed at *generation* time from a single 64-bit seed, using one
/// independent RNG stream per concern (Rng::stream): the world stream
/// shapes the link model, the timing stream places the steps on the
/// virtual-time axis and the op stream picks their kinds and arguments.
///
/// Because a step carries its full parameters, a plan with steps REMOVED is
/// still a valid plan and every surviving step behaves identically — the
/// property the delta-debugging shrinker (explore/shrink.hpp) relies on:
/// "drop this crash" never reshuffles the randomness of the partition two
/// steps later.
///
/// Grammar (one step per line in the textual rendering):
///
///   plan      := header step*
///   header    := seed n link(base,jitter,drop) paxos? settle
///   step      := '@' time op
///   op        := 'abcast' proc
///              | 'gbcast' proc cls            ; cls 0 = rbcast-class, 1 = abcast-class
///              | 'race' proc proc             ; two conflicting gbcasts, same instant
///              | 'crash' proc
///              | 'partition' memberset 'for' duration
///              | 'heal'
///              | 'join' proc
///              | 'suspect' proc proc          ; false consensus-class suspicion
///              | 'fd_timeout' proc duration   ; perturb ◇S suspicion timeout
///              | 'dup_burst' pct 'for' duration
///              | 'reorder_burst' pct 'for' duration
///              | 'leader_crash'                ; crash the current stable leader
///              | 'leader_suspect'              ; false suspicion of the stable leader
///              | 'partial_crash' proc memberset ; abcast reaching only memberset, then crash
///              | 'partial_gb_crash' proc memberset ; gbcast reaching only memberset, then crash
///
/// Plans serialize to the util::codec wire format (digest + artifact
/// payloads, round-trip tested) and render to JSON for humans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace gcs::sim {

/// Step kinds. Values are wire-stable (artifacts store them).
enum class FaultOp : std::uint8_t {
  kAbcast = 0,        ///< proc abcasts a payload
  kGbcast,            ///< proc gbcasts a payload with class cls
  kConflictRace,      ///< proc and target gbcast conflicting messages at the same instant
  kCrash,             ///< proc crashes permanently
  kPartition,         ///< split the universe: arg = bitmask of component A; auto-heal after duration
  kHeal,              ///< explicit heal
  kJoin,              ///< excluded-but-alive proc rejoins via an alive member
  kFalseSuspicion,    ///< proc falsely suspects target (consensus class)
  kFdTimeout,         ///< proc sets its ◇S suspicion timeout to arg microseconds
  kDupBurst,          ///< network duplicates arg% of datagrams for duration
  kReorderBurst,      ///< network holds back arg% of datagrams for duration
  kLeaderCrash,       ///< crash whoever is the stable consensus leader at fire time
  kLeaderSuspicion,   ///< non-leaders falsely suspect the stable leader (consensus class)
  kPartialCrash,      ///< proc abcasts, only the members in bitmask arg receive it, proc crashes
  kPartialGbCrash,    ///< as kPartialCrash, with an rbcast-class gbcast
  kCount_,            // sentinel
};

std::string_view fault_op_name(FaultOp op);

/// One timestamped scenario step. Unused fields are zero.
struct FaultStep {
  Duration at = 0;                ///< virtual time the step fires
  FaultOp op = FaultOp::kAbcast;
  ProcessId proc = kNoProcess;    ///< acting process
  ProcessId target = kNoProcess;  ///< suspicion target / race partner / join contact hint
  std::uint8_t cls = 0;           ///< gbcast message class
  std::uint64_t arg = 0;          ///< partition or receiver bitmask / timeout us / burst percent
  Duration duration = 0;          ///< partition / burst length

  friend bool operator==(const FaultStep&, const FaultStep&) = default;

  void encode(Encoder& enc) const;
  static FaultStep decode(Decoder& dec);
  /// One-line human rendering per the DSL grammar above.
  std::string to_string() const;
};

/// Generation knobs. Everything else derives from the seed.
struct FaultPlanOptions {
  int n = 5;           ///< universe size (3..16; partitions use a bitmask)
  int steps = 60;      ///< scenario length before the settle phase
  int max_crashes = 1; ///< keep a solid majority alive (n=5 -> 1, like chaos_test)

  friend bool operator==(const FaultPlanOptions&, const FaultPlanOptions&) = default;
};

/// A full scenario program: world parameters + step list.
struct FaultPlan {
  std::uint64_t seed = 0;
  FaultPlanOptions options;
  LinkModel link;           ///< all non-loopback links
  bool use_paxos = false;   ///< consensus algorithm for this schedule
  Duration settle = sec(5); ///< quiet time after the last step before checks
  std::vector<FaultStep> steps;

  /// Generate the deterministic plan for (seed, options). Same inputs,
  /// same plan — on any platform (Rng is pinned).
  static FaultPlan generate(std::uint64_t seed, FaultPlanOptions options = {});

  /// Wire round-trip (artifact payloads, digesting, tests).
  void encode(Encoder& enc) const;
  static FaultPlan decode(Decoder& dec);

  /// FNV-1a over the wire encoding; artifacts store it so replay can prove
  /// it regenerated the plan the violation was found on.
  std::uint64_t digest() const;

  /// JSON array of step renderings for the repro artifact (human-oriented;
  /// replay reconstructs the plan from seed+options, not from this).
  std::string steps_json(const std::vector<std::uint32_t>& keep) const;
};

}  // namespace gcs::sim
