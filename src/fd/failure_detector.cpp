#include "fd/failure_detector.hpp"

#include <cassert>

namespace gcs {

FailureDetector::FailureDetector(sim::Context& ctx, Transport& transport)
    : FailureDetector(ctx, transport, Config{}) {}

FailureDetector::FailureDetector(sim::Context& ctx, Transport& transport, Config config)
    : ctx_(ctx), transport_(transport), config_(config),
      last_heard_(static_cast<std::size_t>(transport.universe_size()), 0),
      m_false_suspicions_(metric_id("fd.false_suspicions")) {
  transport_.subscribe(Tag::kFd,
                       [this](ProcessId from, BytesView) { on_heartbeat(from); });
}

void FailureDetector::start() {
  if (running_) return;
  running_ = true;
  // Grace period: everyone counts as freshly heard at start time.
  for (auto& t : last_heard_) t = ctx_.now();
  heartbeat_tick();
  check_tick();
}

void FailureDetector::stop() { running_ = false; }

FailureDetector::ClassId FailureDetector::add_class(Duration timeout) {
  classes_.push_back(TimeoutClass{timeout, {}, {}, {}, {}});
  return static_cast<ClassId>(classes_.size() - 1);
}

void FailureDetector::set_timeout(ClassId cls, Duration timeout) {
  classes_[static_cast<std::size_t>(cls)].timeout = timeout;
}

void FailureDetector::monitor(ClassId cls, ProcessId q) {
  if (q == ctx_.self()) return;  // never monitor self
  classes_[static_cast<std::size_t>(cls)].monitored.insert(q);
}

void FailureDetector::unmonitor(ClassId cls, ProcessId q) {
  auto& c = classes_[static_cast<std::size_t>(cls)];
  c.monitored.erase(q);
  c.suspected.erase(q);
}

void FailureDetector::monitor_group(ClassId cls, const std::vector<ProcessId>& group) {
  for (ProcessId q : group) monitor(cls, q);
}

bool FailureDetector::suspects(ClassId cls, ProcessId q) const {
  const auto& c = classes_[static_cast<std::size_t>(cls)];
  return c.suspected.count(q) != 0;
}

std::vector<ProcessId> FailureDetector::suspected(ClassId cls) const {
  const auto& c = classes_[static_cast<std::size_t>(cls)];
  return {c.suspected.begin(), c.suspected.end()};
}

void FailureDetector::on_suspect(ClassId cls, SuspectFn fn) {
  classes_[static_cast<std::size_t>(cls)].suspect_fns.push_back(std::move(fn));
}

void FailureDetector::on_restore(ClassId cls, SuspectFn fn) {
  classes_[static_cast<std::size_t>(cls)].restore_fns.push_back(std::move(fn));
}

void FailureDetector::inject_suspicion(ClassId cls, ProcessId q) {
  mark_suspected(cls, q);
}

void FailureDetector::on_heartbeat(ProcessId from) {
  last_heard_[static_cast<std::size_t>(from)] = ctx_.now();
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    auto& c = classes_[i];
    if (c.suspected.erase(from) > 0) {
      // The process was alive after all: the suspicion was false.
      ctx_.metrics().inc(m_false_suspicions_);
      ctx_.trace_instant(obs::Names::get().fd_restore, MsgId{}, from);
      for (const auto& fn : c.restore_fns) fn(from);
    }
  }
}

void FailureDetector::heartbeat_tick() {
  if (!running_) return;
  const int n = transport_.universe_size();
  for (ProcessId q = 0; q < n; ++q) {
    if (q != ctx_.self()) transport_.u_send(q, Tag::kFd, {});
  }
  ctx_.after(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void FailureDetector::check_tick() {
  if (!running_) return;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    auto& c = classes_[i];
    for (ProcessId q : c.monitored) {
      if (c.suspected.count(q)) continue;
      if (ctx_.now() - last_heard_[static_cast<std::size_t>(q)] > c.timeout) {
        mark_suspected(static_cast<ClassId>(i), q);
      }
    }
  }
  ctx_.after(config_.heartbeat_interval, [this] { check_tick(); });
}

void FailureDetector::mark_suspected(ClassId cls, ProcessId q) {
  auto& c = classes_[static_cast<std::size_t>(cls)];
  if (!c.monitored.count(q) || c.suspected.count(q)) return;
  c.suspected.insert(q);
  ctx_.metrics().inc("fd.suspicions");
  ctx_.trace_instant(obs::Names::get().fd_suspect, MsgId{}, q);
  if (ctx_.log().enabled(LogLevel::kDebug)) {
    ctx_.log().debug("suspect p" + std::to_string(q) + " (class " +
                     std::to_string(cls) + ")");
  }
  for (const auto& fn : c.suspect_fns) fn(q);
}

}  // namespace gcs
