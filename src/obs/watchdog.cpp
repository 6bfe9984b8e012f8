#include "obs/watchdog.hpp"

#include <cstdarg>
#include <cstdio>

#include "obs/report.hpp"

namespace gcs::obs {

// Counter names are the stable interned metric names (DESIGN.md §9).
std::int64_t submits_of(const Snapshot& s) {
  return s.counter("abcast.broadcasts") + s.counter("gbcast.broadcasts");
}
std::int64_t deliveries_of(const Snapshot& s) {
  return s.counter("abcast.delivered") + s.counter("gbcast.fast_delivered") +
         s.counter("gbcast.resolved_delivered");
}
std::int64_t pulls_of(const Snapshot& s) {
  return s.counter("abcast.pull_requests") + s.counter("gbcast.pull_requests");
}

namespace {

/// Flow-control stall time accumulated up to this frame, from the
/// channel.fc_stall_us histogram's running statistics (mean * count).
double fc_stall_us_of(const Snapshot& s) {
  const Snapshot::Hist* h = s.histogram("channel.fc_stall_us");
  return h ? h->mean * static_cast<double>(h->count) : 0.0;
}

std::string fmt(const char* format, ...) {
  char buf[192];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string_view watchdog_rule_name(WatchdogRule rule) {
  switch (rule) {
    case WatchdogRule::kDeliveryStall: return "delivery_stall";
    case WatchdogRule::kPullStorm: return "pull_storm";
    case WatchdogRule::kFcSaturation: return "fc_saturation";
    case WatchdogRule::kViewFlap: return "view_flap";
    case WatchdogRule::kQueueGrowth: return "queue_growth";
  }
  return "unknown";
}

Watchdog::ProcState& Watchdog::state_of(ProcessId p) {
  for (ProcState& st : procs_) {
    if (st.id == p) return st;
  }
  procs_.push_back(ProcState{});
  ProcState& st = procs_.back();
  st.id = p;
  st.tracked.reserve(config_.growth_gauges.size());
  for (const std::string& g : config_.growth_gauges) {
    GaugeTrack t;
    t.name = g;
    st.tracked.push_back(std::move(t));
  }
  return st;
}

void Watchdog::raise(WatchdogRule rule, const Snapshot& frame, std::string detail) {
  ++raised_;
  Alert a;
  a.rule = rule;
  a.proc = frame.proc;
  a.frame = frame.seq;
  a.ts = frame.ts;
  a.detail = std::move(detail);
  if (alert_fn_) alert_fn_(a);
  if (alerts_.size() < config_.max_alerts) {
    alerts_.push_back(std::move(a));
  } else {
    ++truncated_;
  }
}

void Watchdog::fire_once(ProcState& st, WatchdogRule rule, const Snapshot& frame,
                         std::string detail) {
  auto& armed = st.armed[static_cast<std::size_t>(rule)];
  if (!armed) return;
  armed = false;
  raise(rule, frame, std::move(detail));
}

void Watchdog::observe(const Snapshot& frame) {
  ++frames_;
  ProcState& st = state_of(frame.proc);

  // Queue-growth tracking needs no previous frame (gauges are levels, not
  // cumulative counters), but seed the trackers on first sight.
  if (!st.has_prev) {
    for (GaugeTrack& t : st.tracked) t.start = t.last = frame.gauge(t.name);
    st.prev = frame;
    st.has_prev = true;
    return;
  }

  const Snapshot& prev = st.prev;
  auto rearm = [&st](WatchdogRule rule) {
    st.armed[static_cast<std::size_t>(rule)] = true;
  };

  // -- delivery stall -------------------------------------------------------
  const std::int64_t d_submit = submits_of(frame) - submits_of(prev);
  const std::int64_t d_deliver = deliveries_of(frame) - deliveries_of(prev);
  if (d_submit > 0 && d_deliver == 0) {
    ++st.stall_streak;
    if (st.stall_streak >= config_.stall_windows) {
      fire_once(st, WatchdogRule::kDeliveryStall, frame,
                fmt("submits +%lld, deliveries +0 for %d consecutive windows",
                    static_cast<long long>(d_submit), st.stall_streak));
    }
  } else {
    st.stall_streak = 0;
    rearm(WatchdogRule::kDeliveryStall);
  }

  // -- pull storm -----------------------------------------------------------
  const std::int64_t d_pulls = pulls_of(frame) - pulls_of(prev);
  if (d_pulls >= config_.pull_min &&
      static_cast<double>(d_pulls) >
          config_.pull_ratio * static_cast<double>(d_deliver < 0 ? 0 : d_deliver)) {
    fire_once(st, WatchdogRule::kPullStorm, frame,
              fmt("pull fallback +%lld vs deliveries +%lld in one window",
                  static_cast<long long>(d_pulls), static_cast<long long>(d_deliver)));
  } else {
    rearm(WatchdogRule::kPullStorm);
  }

  // -- flow-control saturation ----------------------------------------------
  const double window_us = static_cast<double>(frame.ts - prev.ts);
  const double d_stall_us = fc_stall_us_of(frame) - fc_stall_us_of(prev);
  if (window_us > 0 && d_stall_us >= config_.fc_fraction * window_us) {
    fire_once(st, WatchdogRule::kFcSaturation, frame,
              fmt("fc stalls %.0fus of a %.0fus window", d_stall_us, window_us));
  } else {
    rearm(WatchdogRule::kFcSaturation);
  }

  // -- view flap ------------------------------------------------------------
  const std::int64_t d_views =
      frame.counter("membership.views_installed") - prev.counter("membership.views_installed");
  if (d_views >= config_.flap_views) {
    fire_once(st, WatchdogRule::kViewFlap, frame,
              fmt("%lld views installed in one window", static_cast<long long>(d_views)));
  } else {
    rearm(WatchdogRule::kViewFlap);
  }

  // -- unbounded queue growth -----------------------------------------------
  bool any_growth = false;
  for (GaugeTrack& t : st.tracked) {
    const double v = frame.gauge(t.name);
    if (v > t.last) {
      ++t.streak;
    } else {
      t.streak = 0;
      t.start = v;
    }
    t.last = v;
    if (t.streak >= config_.growth_windows && v - t.start >= config_.growth_min) {
      any_growth = true;
      fire_once(st, WatchdogRule::kQueueGrowth, frame,
                fmt("%s grew %.1f over %d consecutive windows", t.name.c_str(),
                    v - t.start, t.streak));
    }
  }
  if (!any_growth) rearm(WatchdogRule::kQueueGrowth);

  st.prev = frame;
}

std::string render_alerts_json(const Watchdog& watchdog) {
  std::string out = "[";
  bool first = true;
  for (const Alert& a : watchdog.alerts()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"rule\":\"" + std::string(watchdog_rule_name(a.rule)) + "\"";
    out += ",\"proc\":" + std::to_string(a.proc);
    out += ",\"frame\":" + std::to_string(a.frame);
    out += ",\"ts_us\":" + std::to_string(a.ts);
    out += ",\"detail\":\"" + json_escape_string(a.detail) + "\"}";
  }
  out += "\n]";
  return out;
}

}  // namespace gcs::obs
