#include "core/membership.hpp"

#include <algorithm>
#include <cassert>

#include "util/codec.hpp"

namespace gcs {

namespace {
// Channel message kinds (Tag::kMembership).
constexpr std::uint8_t kJoinReq = 0;
constexpr std::uint8_t kState = 1;
// View-change operations (ride the abcast, SubTag kViewChange).
constexpr std::uint8_t kOpJoin = 0;
constexpr std::uint8_t kOpRemove = 1;
}  // namespace

bool View::contains(ProcessId p) const {
  return std::find(members.begin(), members.end(), p) != members.end();
}

GroupMembership::GroupMembership(sim::Context& ctx, ReliableChannel& channel,
                                 AtomicBroadcast& abcast, GenericBroadcast* gbcast)
    : ctx_(ctx), channel_(channel), abcast_(abcast), gbcast_(gbcast) {
  channel_.subscribe(Tag::kMembership,
                     [this](ProcessId from, BytesView b) { on_channel_message(from, b); });
  abcast_.subscribe(AtomicBroadcast::kViewChange,
                    [this](const MsgId& id, const Bytes& b) { on_view_change(id, b); });
}

ProcessId GroupMembership::ctx_self() const { return ctx_.self(); }

void GroupMembership::init_view(std::vector<ProcessId> members) {
  assert(!members.empty());
  view_.id = 0;
  view_.members = std::move(members);
  initialized_ = true;
  abcast_.init(view_.members);
  if (gbcast_) gbcast_->set_group(view_.members);
  ++views_installed_;
  if (observe_view_) observe_view_(view_.id, view_.members, /*via_state_transfer=*/false);
  for (const auto& fn : view_fns_) fn(view_);
}

void GroupMembership::join(ProcessId contact) {
  // No assert(!is_member()): a member excluded while cut off (a partition)
  // still lists itself in its last view until it learns the removal, and
  // it may ask to rejoin before it does. A sponsor that still lists it
  // ignores the request, so the retry below keeps asking until a STATE
  // snapshot arrives; that snapshot replaces the stale view and ordering
  // state wholesale, exactly as for a fresh joiner. (A process that was
  // never excluded keeps asking, and every request is ignored.)
  awaiting_state_ = true;
  Encoder enc;
  enc.put_byte(kJoinReq);
  channel_.send(contact, Tag::kMembership, enc.take());
  // Retry while waiting: the JOIN request or its sponsorship may have been
  // dropped (contact mid-flush, contact excluded moments later, ...). The
  // channel is reliable, so re-sending to the same contact is enough when
  // it is alive; callers pick a different contact if it crashed.
  ctx_.after(msec(500), [this, contact] {
    if (awaiting_state_) join(contact);
  });
}

void GroupMembership::remove(ProcessId q) {
  if (!is_member() || !view_.contains(q)) return;
  if (!pending_removes_.insert(q).second) return;  // already proposed
  ctx_.metrics().inc("membership.removes_proposed");
  if (observe_remove_) observe_remove_(q, /*voluntary=*/q == ctx_self());
  Encoder enc;
  enc.put_byte(kOpRemove);
  enc.put_i32(q);
  enc.put_u64(view_.id);  // valid only in the view it was proposed in
  abcast_.abcast(AtomicBroadcast::kViewChange, enc.take());
}

void GroupMembership::on_channel_message(ProcessId from, BytesView payload) {
  Decoder dec(payload);
  const std::uint8_t kind = dec.get_byte();
  if (kind == kJoinReq) {
    if (!is_member()) return;  // we cannot sponsor; the joiner will retry
    if (view_.contains(from) || !pending_joins_.insert(from).second) return;
    ctx_.metrics().inc("membership.joins_sponsored");
    ctx_.trace_instant(obs::Names::get().membership_join_req, MsgId{}, from);
    Encoder enc;
    enc.put_byte(kOpJoin);
    enc.put_i32(from);
    enc.put_u64(view_.id);
    abcast_.abcast(AtomicBroadcast::kViewChange, enc.take());
  } else if (kind == kState) {
    if (!awaiting_state_) return;  // duplicate snapshot; first one won
    install_state(payload);
  }
}

void GroupMembership::on_view_change(const MsgId& id, const Bytes& payload) {
  Decoder dec(payload);
  const std::uint8_t op = dec.get_byte();
  const ProcessId subject = dec.get_i32();
  const std::uint64_t proposed_in = dec.get_u64();
  if (!dec.ok()) return;
  if (proposed_in != view_.id) {
    // Stale: proposed under an older view (e.g. by a member that has since
    // been excluded, or concurrently with another change that won the
    // race). Without this guard, removals queued by a cut-off minority
    // would dismantle the primary partition after a heal. If WE proposed
    // it and it is still warranted, re-propose under the current view.
    ctx_.metrics().inc("membership.stale_view_changes");
    if (id.sender == ctx_self() && is_member()) {
      if (op == kOpRemove && pending_removes_.erase(subject) > 0 && view_.contains(subject)) {
        remove(subject);
      } else if (op == kOpJoin && pending_joins_.erase(subject) > 0 &&
                 !view_.contains(subject)) {
        Encoder enc;
        enc.put_byte(kOpJoin);
        enc.put_i32(subject);
        enc.put_u64(view_.id);
        pending_joins_.insert(subject);
        abcast_.abcast(AtomicBroadcast::kViewChange, enc.take());
      }
    }
    return;
  }
  View next = view_;
  if (op == kOpJoin) {
    if (next.contains(subject)) return;  // duplicate sponsor
    next.members.push_back(subject);     // joiners go to the tail of the list
  } else if (op == kOpRemove) {
    if (!next.contains(subject)) return;  // already removed
    next.members.erase(std::remove(next.members.begin(), next.members.end(), subject),
                       next.members.end());
  } else {
    return;
  }
  next.id = view_.id + 1;
  pending_joins_.erase(subject);
  pending_removes_.erase(subject);
  install_view(std::move(next));
  if (op == kOpJoin && view_.contains(ctx_self()) && subject != ctx_self()) {
    send_state(subject);
  }
  if (op == kOpRemove) {
    // The excluded process's channel obligations are void (paper §3.3.2).
    channel_.forget(subject);
    if (subject == ctx_self()) {
      ctx_.metrics().inc("membership.self_excluded");
      for (const auto& fn : excluded_fns_) fn();
    }
  }
}

void GroupMembership::install_view(View v) {
  view_ = std::move(v);
  ++views_installed_;
  ctx_.metrics().inc("membership.views_installed");
  ctx_.trace_instant(obs::Names::get().view_install,
                     MsgId{obs::kViewKey, view_.id},
                     static_cast<std::int64_t>(view_.members.size()));
  if (ctx_.log().enabled(LogLevel::kInfo)) {
    ctx_.log().info("view " + std::to_string(view_.id) + " installed (" +
                    std::to_string(view_.members.size()) + " members)");
  }
  // Reconfigure the ordering components below. Effective from the next
  // consensus instance — every member applies this at the same point of
  // the total order, so instance member sets agree everywhere.
  abcast_.set_members(view_.members);
  if (gbcast_) gbcast_->set_group(view_.members);
  if (observe_view_) observe_view_(view_.id, view_.members, /*via_state_transfer=*/false);
  for (const auto& fn : view_fns_) fn(view_);
}

void GroupMembership::send_state(ProcessId joiner) {
  Encoder enc;
  enc.put_byte(kState);
  enc.put_u64(view_.id);
  enc.put_vector(view_.members, [](Encoder& e, ProcessId p) { e.put_i32(p); });
  enc.put_bytes(abcast_.snapshot());
  enc.put_bool(gbcast_ != nullptr);
  if (gbcast_) enc.put_bytes(gbcast_->snapshot());
  enc.put_bytes(snapshot_provider_ ? snapshot_provider_() : Bytes{});
  ctx_.metrics().inc("membership.state_transfers_sent");
  ctx_.trace_instant(obs::Names::get().membership_state_txf, MsgId{}, joiner);
  channel_.send(joiner, Tag::kMembership, enc.take());
}

void GroupMembership::install_state(BytesView payload) {
  Decoder dec(payload);
  dec.get_byte();  // kind, already checked
  View v;
  v.id = dec.get_u64();
  v.members = dec.get_vector<ProcessId>([](Decoder& d) { return d.get_i32(); });
  // Snapshot sections are decoded as views straight out of the datagram;
  // the restore calls below copy what they keep.
  const BytesView ab_snapshot = dec.get_view();
  const bool has_gb = dec.get_bool();
  const BytesView gb_snapshot = has_gb ? dec.get_view() : BytesView{};
  const Bytes app_snapshot = dec.get_bytes();
  if (!dec.ok() || !v.contains(ctx_self())) return;
  awaiting_state_ = false;
  initialized_ = true;
  ctx_.metrics().inc("membership.state_transfers_installed");
  abcast_.restore(ab_snapshot);
  if (gbcast_ && has_gb) gbcast_->restore(gb_snapshot);
  if (snapshot_installer_) snapshot_installer_(app_snapshot);
  view_ = std::move(v);
  ++views_installed_;
  ctx_.trace_instant(obs::Names::get().view_install,
                     MsgId{obs::kViewKey, view_.id},
                     static_cast<std::int64_t>(view_.members.size()));
  if (gbcast_) gbcast_->set_group(view_.members);
  if (observe_view_) observe_view_(view_.id, view_.members, /*via_state_transfer=*/true);
  for (const auto& fn : view_fns_) fn(view_);
}

}  // namespace gcs
