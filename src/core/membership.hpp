/// \file membership.hpp
/// Primary-partition group membership built ON TOP of atomic broadcast —
/// the paper's key architectural inversion (§3.1.1).
///
/// A view change (join or remove) is nothing but an atomically broadcast
/// message: the total order of the abcast component below directly yields
/// the totally ordered sequence of views, with no second ordering protocol.
/// Because every view change is ordered against every application message
/// in the same total order, the membership gets "same view delivery"
/// (§4.4) for free and never blocks senders.
///
/// Join protocol:
///   1. the joiner sends a JOIN request over the reliable channel to any
///      current member (its "contact");
///   2. the contact abcasts a view-change message (deduplicated);
///   3. on adelivery every member installs the new view and sends the
///      joiner a STATE snapshot: the view, the abcast/generic-broadcast
///      positions at the adelivery point, and the application snapshot.
///      The joiner installs the first snapshot and ignores the rest.
///
/// Remove: any member (in practice: the monitoring component, §3.3.2) calls
/// remove(q); a view-change message is abcast; q itself — if alive and
/// merely falsely suspected — also adelivers it, learns of its exclusion,
/// and may later rejoin with a fresh state transfer.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "broadcast/atomic_broadcast.hpp"
#include "channel/reliable_channel.hpp"
#include "core/generic_broadcast.hpp"
#include "sim/context.hpp"

namespace gcs {

/// A group view: totally ordered list of members (paper, footnote 10: views
/// are lists; the head of the list acts as the primary for passive
/// replication).
struct View {
  std::uint64_t id = 0;
  std::vector<ProcessId> members;

  bool contains(ProcessId p) const;
  ProcessId primary() const { return members.empty() ? kNoProcess : members.front(); }
};

class GroupMembership {
 public:
  using ViewFn = std::function<void(const View&)>;
  using SnapshotProvider = std::function<Bytes()>;
  using SnapshotInstaller = std::function<void(const Bytes&)>;
  using ExcludedFn = std::function<void()>;

  GroupMembership(sim::Context& ctx, ReliableChannel& channel, AtomicBroadcast& abcast,
                  GenericBroadcast* gbcast /* may be null in reduced stacks */);

  /// Install the initial view (Fig 9: init_view); identical at all initial
  /// members. Non-members (future joiners) do not call this.
  void init_view(std::vector<ProcessId> members);

  /// Called by a process that wants in: asks \p contact to sponsor it.
  /// Also valid for a member excluded while cut off that has not yet
  /// learned its exclusion (its view is stale): it retries every 500 ms
  /// until a sponsor that has excluded it sends the STATE snapshot, which
  /// replaces that view.
  void join(ProcessId contact);

  /// Propose removal of member \p q (Fig 9: remove). Normally invoked by
  /// the monitoring component; remove(self) implements leave.
  void remove(ProcessId q);
  void leave() { remove(ctx_self()); }

  const View& view() const { return view_; }
  bool is_member() const { return view_.contains(ctx_self()); }

  /// View installation callback (Fig 9: new_view). Fired for every view,
  /// including the initial one and the one a joiner learns by state
  /// transfer.
  void on_view(ViewFn fn) { view_fns_.push_back(std::move(fn)); }

  /// Fired at a process that adelivers its own removal (false suspicion or
  /// voluntary leave). The application decides whether to rejoin.
  void on_excluded(ExcludedFn fn) { excluded_fns_.push_back(std::move(fn)); }

  /// Application state hooks for the join-time state transfer.
  void set_snapshot_provider(SnapshotProvider fn) { snapshot_provider_ = std::move(fn); }
  void set_snapshot_installer(SnapshotInstaller fn) { snapshot_installer_ = std::move(fn); }

  /// Number of view changes installed (metric for E4/E5/E6).
  std::uint64_t views_installed() const { return views_installed_; }

  /// Oracle taps: every locally installed view (flagging the ones learned
  /// by state transfer, which have no previous-view baseline to diff), and
  /// every locally issued removal proposal (voluntary == leave()).
  using ViewObserver = std::function<void(std::uint64_t view_id,
                                          const std::vector<ProcessId>& members,
                                          bool via_state_transfer)>;
  using RemoveObserver = std::function<void(ProcessId target, bool voluntary)>;
  void set_observer(ViewObserver on_view, RemoveObserver on_remove) {
    observe_view_ = std::move(on_view);
    observe_remove_ = std::move(on_remove);
  }

 private:
  ProcessId ctx_self() const;
  void on_channel_message(ProcessId from, BytesView payload);
  void on_view_change(const MsgId& id, const Bytes& payload);
  void install_view(View v);
  void send_state(ProcessId joiner);
  void install_state(BytesView payload);

  sim::Context& ctx_;
  ReliableChannel& channel_;
  AtomicBroadcast& abcast_;
  GenericBroadcast* gbcast_;
  View view_;
  bool initialized_ = false;      // are we (or were we) an active member?
  bool awaiting_state_ = false;   // joiner waiting for a snapshot
  std::set<ProcessId> pending_joins_;    // dedup of sponsored join abcasts
  std::set<ProcessId> pending_removes_;  // dedup of remove abcasts
  std::vector<ViewFn> view_fns_;
  std::vector<ExcludedFn> excluded_fns_;
  ViewObserver observe_view_;
  RemoveObserver observe_remove_;
  SnapshotProvider snapshot_provider_;
  SnapshotInstaller snapshot_installer_;
  std::uint64_t views_installed_ = 0;
};

}  // namespace gcs
