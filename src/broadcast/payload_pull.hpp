/// \file payload_pull.hpp
/// The payload-pull fallback (DESIGN.md §12) of atomic and generic
/// broadcast, whose orderings carry ids only. A process that must deliver
/// an id whose payload it lacks stalls and pulls the payload over the
/// reliable channel from one group member at a time, rotating every
/// `retry`, until a push or the owner's own dissemination brings it.
///
/// Frames, on the owner's channel tag (kinds from 2 up are the owner's):
///   pull: 0 | count | count x id
///   push: 1 | count | bytes(count x (id | tag | bytes(body)))
/// where tag is the owner's one-byte label (abcast subtag, GB class). A
/// frame whose count exceeds its remaining bytes is dropped, as is a pull
/// cut short; a push cut short keeps the entries before the cut.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "sim/context.hpp"

namespace gcs {

class PayloadPull {
 public:
  struct Held {
    std::uint8_t tag;
    BytesView body;  // may view the owner's storage: copied out at once
  };
  /// Serves a pull: the payload of an id, if held.
  using FindFn = std::function<std::optional<Held>(const MsgId&)>;
  /// Takes one pushed entry.
  using StoreFn = std::function<void(const MsgId&, std::uint8_t tag, BytesView body)>;
  /// After a push's entries; \p drained: it resolved the last missing id.
  using PushedFn = std::function<void(bool drained)>;

  /// Counts `<metric_prefix>.{pull_requests,pull_served,pushes,pull_wait_us}`
  /// and traces each stall as a \p stall_span. Pulls go to members of
  /// \p group, the owner's member list.
  PayloadPull(sim::Context& ctx, ReliableChannel& channel, Tag tag,
              const std::vector<ProcessId>& group, std::string_view metric_prefix,
              obs::NameId stall_span, Duration retry, FindFn find, StoreFn store,
              PushedFn pushed);
  // Its retry timer holds this object's address.
  PayloadPull(const PayloadPull&) = delete;
  PayloadPull& operator=(const PayloadPull&) = delete;

  /// Recompute the missing set: clear(), then need() each missing id.
  void clear() { missing_.clear(); }
  void need(const MsgId& id) { missing_.insert(id); }
  /// Ids missing: stall under \p key (unless stalled) and pull; true.
  /// Else end any stall; false.
  bool wait(const MsgId& key);
  /// \p id arrived by the owner's own path; true if it was the last missing.
  bool resolve(const MsgId& id) { return missing_.erase(id) != 0 && missing_.empty(); }
  /// Forget the missing ids and end any stall (a restore superseded it),
  /// under the key the stall began with.
  void reset();
  bool stalled() const { return stalled_; }

  /// Pull \p ids from \p target once.
  void send(ProcessId target, const std::set<MsgId>& ids);
  /// A frame on the owner's tag; kinds other than pull and push are ignored.
  void on_message(ProcessId from, BytesView wire);

 private:
  void request();

  sim::Context& ctx_;
  ReliableChannel& channel_;
  Tag tag_;
  const std::vector<ProcessId>& group_;
  obs::NameId stall_span_;
  Duration retry_;
  FindFn find_;
  StoreFn store_;
  PushedFn pushed_;
  MetricId m_requests_;
  MetricId m_served_;
  MetricId m_pushes_;
  MetricId h_wait_;
  std::set<MsgId> missing_;
  std::size_t next_target_ = 0;  // rotating index into the group
  bool timer_armed_ = false;
  bool stalled_ = false;
  MsgId stall_key_{};
  TimePoint stall_since_ = 0;
};

}  // namespace gcs
