/// \file monitoring.hpp
/// The monitoring component (paper §3.3.2): decides *exclusions*.
///
/// The architectural point: failure suspicion (the failure detector, fast
/// timeouts, freely wrong) is decoupled from process exclusion (this
/// component, slow timeouts, deliberate). Consensus keeps running through
/// false suspicions; only monitoring may call membership.remove().
///
/// Supported policies, combinable:
///   - long-timeout FD suspicion: its own FD timeout class, typically one
///     or two orders of magnitude above the consensus class;
///   - suspicion threshold: members gossip their long-class suspicions and
///     a process is excluded only when >= threshold distinct members
///     suspect it;
///   - output-triggered suspicion: if the reliable channel has buffered a
///     message for q longer than a bound, the only way to ever release the
///     buffer is to exclude q (paper cites [Charron-Bost et al. 2002]).
#pragma once

#include <functional>
#include <map>
#include <set>

#include "channel/reliable_channel.hpp"
#include "core/membership.hpp"
#include "fd/failure_detector.hpp"
#include "sim/context.hpp"

namespace gcs {

class Monitoring {
 public:
  struct Config {
    /// Timeout of the exclusion (long) FD class.
    Duration exclusion_timeout = sec(2);
    /// Distinct suspecting members required before removal. 1 = any member
    /// that suspects long enough proposes removal directly.
    int suspicion_threshold = 1;
    /// Output-triggered suspicion bound; 0 disables the policy.
    Duration output_age_limit = 0;
    /// How often the output buffers are inspected.
    Duration output_check_interval = msec(500);
  };

  Monitoring(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
             GroupMembership& membership, Config config);
  Monitoring(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
             GroupMembership& membership);

  /// Begin monitoring the current view (call after init_view / join).
  void start();

  FailureDetector::ClassId fd_class() const { return fd_class_; }
  const Config& config() const { return config_; }

  /// Members currently suspected (long class) by anyone we know of — the
  /// open vote count (probe gauge).
  std::size_t open_votes() const { return votes_.size(); }

  /// Oracle tap: this process decided to exclude \p target, backed by
  /// \p votes distinct long-class suspicions (0 for the output-triggered
  /// policy, which needs no vote).
  using ExclusionObserver = std::function<void(ProcessId target, int votes)>;
  void set_observer(ExclusionObserver on_exclusion) {
    observe_exclusion_ = std::move(on_exclusion);
  }

 private:
  void on_long_suspect(ProcessId q);
  void on_long_restore(ProcessId q);
  void on_gossip(ProcessId from, BytesView payload);
  void on_view(const View& v);
  void add_vote(ProcessId voter, ProcessId q);
  void drop_vote(ProcessId voter, ProcessId q);
  void check_output_buffers();

  sim::Context& ctx_;
  ReliableChannel& channel_;
  FailureDetector& fd_;
  GroupMembership& membership_;
  Config config_;
  FailureDetector::ClassId fd_class_;
  bool started_ = false;
  // votes_[q] = members currently suspecting q (long class).
  std::map<ProcessId, std::set<ProcessId>> votes_;
  // Members monitored as of the last view, to unmonitor the removed ones.
  std::vector<ProcessId> monitored_;
  ExclusionObserver observe_exclusion_;
};

}  // namespace gcs
