#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/report.hpp"
#include "util/metrics.hpp"

namespace gcs::obs {

namespace {

constexpr TimePoint kAbsent = -1;

/// (observer process, correlation id) keys for per-process anchors.
using ProcMsgKey = std::pair<ProcessId, MsgId>;
using ProcSeqKey = std::pair<ProcessId, std::uint64_t>;

/// Closed [begin, end] stall spans per (process, instance/round).
using SpanMap = std::map<ProcSeqKey, std::vector<std::pair<TimePoint, TimePoint>>>;

/// Everything the attribution pass needs, built in one scan of the trace.
struct TraceIndex {
  std::map<MsgId, TimePoint> abcast_submit;  // first submit, any process
  std::map<MsgId, TimePoint> gb_submit;
  std::map<ProcMsgKey, TimePoint> pending_begin;     // abcast.pending kBegin
  std::map<ProcMsgKey, TimePoint> batch_wait_end;    // abcast.batch_wait kEnd, proposed
  std::map<ProcSeqKey, TimePoint> instance_begin;    // consensus.instance kBegin
  std::map<std::uint64_t, ProcessId> opener;         // first instance kBegin, any proc
  std::map<std::uint64_t, TimePoint> first_propose;  // consensus.propose, any proc
  std::map<ProcSeqKey, TimePoint> decide_at;         // consensus.decide instant
  SpanMap abcast_pulls;                              // abcast.pull_wait spans
  std::map<ProcSeqKey, TimePoint> gap_begin;         // abcast.gap_wait kBegin
  SpanMap abcast_gaps;                               // abcast.gap_wait spans
  std::map<ProcMsgKey, TimePoint> gb_pending_begin;  // gb.fast_pending kBegin
  std::map<ProcSeqKey, TimePoint> gb_resolve_begin;  // gb.resolve kBegin
  SpanMap gb_pulls;                                  // gb.pull_wait spans

  struct Delivery {
    Record record;
    PathBreakdown::Kind kind;
  };
  std::vector<Delivery> deliveries;
};

/// First-occurrence insert: later duplicates (re-begins after restore, echo
/// decides) never move an anchor.
template <typename Map, typename Key>
void keep_first(Map& map, const Key& key, TimePoint ts) {
  map.emplace(key, ts);
}

void close_span(SpanMap& spans, std::map<ProcSeqKey, TimePoint>& open,
                const ProcSeqKey& key, TimePoint end_ts) {
  const auto it = open.find(key);
  if (it == open.end()) return;  // end without begin (pre-window): drop
  spans[key].emplace_back(it->second, end_ts);
  open.erase(it);
}

TraceIndex build_index(const std::vector<Record>& records) {
  const Names& names = Names::get();
  TraceIndex idx;
  std::map<ProcSeqKey, TimePoint> open_abcast_pull;
  std::map<ProcSeqKey, TimePoint> open_abcast_gap;
  std::map<ProcSeqKey, TimePoint> open_gb_pull;

  for (const Record& r : records) {
    if (r.name == names.abcast_submit) {
      keep_first(idx.abcast_submit, r.msg, r.ts);
    } else if (r.name == names.gb_submit) {
      keep_first(idx.gb_submit, r.msg, r.ts);
    } else if (r.name == names.abcast_pending && r.phase == Phase::kBegin) {
      keep_first(idx.pending_begin, ProcMsgKey{r.proc, r.msg}, r.ts);
    } else if (r.name == names.abcast_batch_wait && r.phase == Phase::kEnd) {
      // arg < 0: delivered without this process ever proposing it.
      if (r.arg >= 0) keep_first(idx.batch_wait_end, ProcMsgKey{r.proc, r.msg}, r.ts);
    } else if (r.name == names.consensus_instance && r.phase == Phase::kBegin) {
      keep_first(idx.instance_begin, ProcSeqKey{r.proc, r.msg.seq}, r.ts);
      idx.opener.emplace(r.msg.seq, r.proc);
    } else if (r.name == names.consensus_propose) {
      keep_first(idx.first_propose, r.msg.seq, r.ts);
    } else if (r.name == names.consensus_decide) {
      keep_first(idx.decide_at, ProcSeqKey{r.proc, r.msg.seq}, r.ts);
    } else if (r.name == names.abcast_pull_wait) {
      const ProcSeqKey key{r.proc, r.msg.seq};
      if (r.phase == Phase::kBegin) {
        open_abcast_pull.emplace(key, r.ts);
      } else if (r.phase == Phase::kEnd) {
        close_span(idx.abcast_pulls, open_abcast_pull, key, r.ts);
      }
    } else if (r.name == names.abcast_gap_wait) {
      const ProcSeqKey key{r.proc, r.msg.seq};
      if (r.phase == Phase::kBegin) {
        keep_first(idx.gap_begin, key, r.ts);
        open_abcast_gap.emplace(key, r.ts);
      } else if (r.phase == Phase::kEnd) {
        close_span(idx.abcast_gaps, open_abcast_gap, key, r.ts);
      }
    } else if (r.name == names.gb_fast_pending && r.phase == Phase::kBegin) {
      keep_first(idx.gb_pending_begin, ProcMsgKey{r.proc, r.msg}, r.ts);
    } else if (r.name == names.gb_resolve && r.phase == Phase::kBegin) {
      keep_first(idx.gb_resolve_begin, ProcSeqKey{r.proc, r.msg.seq}, r.ts);
    } else if (r.name == names.gb_pull_wait) {
      const ProcSeqKey key{r.proc, r.msg.seq};
      if (r.phase == Phase::kBegin) {
        open_gb_pull.emplace(key, r.ts);
      } else if (r.phase == Phase::kEnd) {
        close_span(idx.gb_pulls, open_gb_pull, key, r.ts);
      }
    } else if (r.name == names.abcast_ordered) {
      idx.deliveries.push_back({r, PathBreakdown::Kind::kAbcast});
    } else if (r.name == names.gb_deliver_fast) {
      idx.deliveries.push_back({r, PathBreakdown::Kind::kGbFast});
    } else if (r.name == names.gb_deliver_slow) {
      idx.deliveries.push_back({r, PathBreakdown::Kind::kGbSlow});
    }
  }
  return idx;
}

template <typename Map, typename Key>
TimePoint lookup(const Map& map, const Key& key) {
  const auto it = map.find(key);
  return it == map.end() ? kAbsent : it->second;
}

/// Time the closed spans at \p key overlap with [lo, hi].
Duration overlap(const SpanMap& spans, const ProcSeqKey& key, TimePoint lo, TimePoint hi) {
  const auto it = spans.find(key);
  if (it == spans.end()) return 0;
  Duration sum = 0;
  for (const auto& [b, e] : it->second) {
    const TimePoint s = std::max(b, lo);
    const TimePoint t = std::min(e, hi);
    if (t > s) sum += t - s;
  }
  return sum;
}

/// Attribute the anchored segments of one delivery.
///
/// \p anchors holds the full chain, anchors.front() == submit and
/// anchors.back() == delivery (both always present); interior anchors may
/// be kAbsent. \p gap_phase[i] is the phase of the segment between
/// anchors[i] and anchors[i+1]; kNumPathPhases as a gap label marks the
/// final segment for the caller's tail split (returned, not attributed).
/// Segments whose bounding anchors are not adjacent in the chain go to
/// `residual` — the honest "we cannot tell which phase" bucket.
Duration attribute_chain(PathBreakdown& out, std::vector<TimePoint> anchors,
                         const std::vector<std::size_t>& gap_phase) {
  // Clamp present anchors into [submit, deliver] and force them monotone;
  // clock order is already monotone in a single run, but clamping keeps
  // attribution well-defined even on adversarial (test-built) traces.
  TimePoint cursor = anchors.front();
  const TimePoint deliver = anchors.back();
  for (std::size_t i = 1; i + 1 < anchors.size(); ++i) {
    if (anchors[i] == kAbsent) continue;
    anchors[i] = std::min(std::max(anchors[i], cursor), deliver);
    cursor = anchors[i];
  }

  Duration tail = 0;
  std::size_t prev = 0;
  for (std::size_t i = 1; i < anchors.size(); ++i) {
    if (anchors[i] == kAbsent) continue;
    const Duration d = anchors[i] - anchors[prev];
    if (i == prev + 1) {
      if (gap_phase[prev] == kNumPathPhases) {
        tail = d;  // caller splits (pull overlap vs. remainder)
      } else {
        out.phase[gap_phase[prev]] += d;
      }
    } else {
      out.residual += d;
    }
    prev = i;
  }
  return tail;
}

void finish_breakdown(PathBreakdown& b) {
  Duration best = 0;
  b.dominant = -1;
  for (std::size_t i = 0; i < kNumPathPhases; ++i) {
    if (b.phase[i] > best) {
      best = b.phase[i];
      b.dominant = static_cast<int>(i);
    }
  }
  if (b.residual > best) b.dominant = -1;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  std::string s(buf);
  // Trim trailing zeros (and a trailing dot) for compact, stable output.
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Summary block shared by end_to_end / phases / residual sections.
void append_hist(std::string& out, const Histogram& h, Duration sum,
                 Duration grand_total, bool with_share) {
  out += "{\"count\": " + std::to_string(h.count());
  out += ", \"sum_us\": " + std::to_string(sum);
  out += ", \"mean_us\": " + json_num(h.mean());
  out += ", \"p50_us\": " + std::to_string(h.percentile(50));
  out += ", \"p99_us\": " + std::to_string(h.percentile(99));
  out += ", \"max_us\": " + std::to_string(h.max());
  if (with_share) {
    const double share =
        grand_total == 0 ? 0.0
                         : static_cast<double>(sum) / static_cast<double>(grand_total);
    out += ", \"share\": " + json_num(share);
  }
  out += "}";
}

}  // namespace

std::string_view path_phase_name(PathPhase phase) {
  switch (phase) {
    case PathPhase::kFlood: return "flood";
    case PathPhase::kBatchWait: return "batch_wait";
    case PathPhase::kProposeWait: return "propose_wait";
    case PathPhase::kAcceptWait: return "accept_wait";
    case PathPhase::kPullWait: return "pull_wait";
    case PathPhase::kReorderWait: return "reorder_wait";
    case PathPhase::kGbAckWait: return "gb_ack_wait";
    case PathPhase::kGbConflictWait: return "gb_conflict_wait";
    case PathPhase::kGbResolve: return "gb_resolve";
  }
  return "?";
}

Duration CriticalPathStats::total_latency() const {
  Duration sum = 0;
  for (const PathBreakdown& p : paths) sum += p.total;
  return sum;
}

double CriticalPathStats::coverage() const {
  const Duration total = total_latency();
  if (total == 0) return 1.0;
  Duration residual = 0;
  for (const PathBreakdown& p : paths) residual += p.residual;
  return 1.0 - static_cast<double>(residual) / static_cast<double>(total);
}

double CriticalPathStats::residual_share() const { return 1.0 - coverage(); }

CriticalPathStats analyze_critical_path(const std::vector<Record>& records) {
  constexpr std::size_t P = kNumPathPhases;  // tail-split marker in gap labels
  const TraceIndex idx = build_index(records);
  CriticalPathStats stats;
  stats.paths.reserve(idx.deliveries.size());

  for (const auto& d : idx.deliveries) {
    const Record& r = d.record;
    PathBreakdown b;
    b.msg = r.msg;
    b.proc = r.proc;
    b.kind = d.kind;
    b.deliver_ts = r.ts;

    if (d.kind == PathBreakdown::Kind::kAbcast) {
      const TimePoint t0 = lookup(idx.abcast_submit, r.msg);
      if (t0 == kAbsent) {
        ++stats.unmatched;
        continue;
      }
      b.submit_ts = t0;
      b.total = b.deliver_ts - t0;
      const auto k = static_cast<std::uint64_t>(r.arg);  // deciding instance
      // Batch residence ends at this process's first proposal carrying the
      // message; fall back to the instance span opening when the message
      // rode a proposal this process never built (it decided passively).
      // A process that neither proposed the message nor started instance k
      // left it to another proposer (a Paxos follower): flood and batch
      // residence are then anchored at the member whose proposal opened k.
      ProcessId anchor = r.proc;
      TimePoint proposed = lookup(idx.batch_wait_end, ProcMsgKey{r.proc, r.msg});
      if (proposed == kAbsent) proposed = lookup(idx.instance_begin, ProcSeqKey{r.proc, k});
      if (proposed == kAbsent) {
        if (const auto it = idx.opener.find(k); it != idx.opener.end()) {
          anchor = it->second;
          proposed = lookup(idx.batch_wait_end, ProcMsgKey{anchor, r.msg});
          if (proposed == kAbsent) proposed = lookup(idx.instance_begin, ProcSeqKey{anchor, k});
        }
      }
      // Under deep pipelining the decide instant can age out of the ring
      // while the decision sits behind a gap; the gap span's opening is the
      // moment the decision reached this process — an equivalent anchor.
      TimePoint decided = lookup(idx.decide_at, ProcSeqKey{r.proc, k});
      if (decided == kAbsent) decided = lookup(idx.gap_begin, ProcSeqKey{r.proc, k});
      const Duration tail = attribute_chain(
          b,
          {t0, lookup(idx.pending_begin, ProcMsgKey{anchor, r.msg}), proposed,
           lookup(idx.first_propose, k), decided, b.deliver_ts},
          {static_cast<std::size_t>(PathPhase::kFlood),
           static_cast<std::size_t>(PathPhase::kBatchWait),
           static_cast<std::size_t>(PathPhase::kProposeWait),
           static_cast<std::size_t>(PathPhase::kAcceptWait), P});
      // Tail = DECIDE .. adelivery: pull stalls are traced, the rest is
      // in-order buffering behind earlier instances.
      const Duration pull = std::min(
          tail, overlap(idx.abcast_pulls, ProcSeqKey{r.proc, k}, b.deliver_ts - tail,
                        b.deliver_ts));
      b.phase[static_cast<std::size_t>(PathPhase::kPullWait)] += pull;
      b.phase[static_cast<std::size_t>(PathPhase::kReorderWait)] += tail - pull;
    } else {
      const TimePoint t0 = lookup(idx.gb_submit, r.msg);
      if (t0 == kAbsent) {
        ++stats.unmatched;
        continue;
      }
      b.submit_ts = t0;
      b.total = b.deliver_ts - t0;
      const TimePoint seen = lookup(idx.gb_pending_begin, ProcMsgKey{r.proc, r.msg});
      if (d.kind == PathBreakdown::Kind::kGbFast) {
        attribute_chain(b, {t0, seen, b.deliver_ts},
                        {static_cast<std::size_t>(PathPhase::kFlood),
                         static_cast<std::size_t>(PathPhase::kGbAckWait)});
      } else {
        const auto round = static_cast<std::uint64_t>(r.arg);
        const Duration tail = attribute_chain(
            b,
            {t0, seen, lookup(idx.gb_resolve_begin, ProcSeqKey{r.proc, round}),
             b.deliver_ts},
            {static_cast<std::size_t>(PathPhase::kFlood),
             static_cast<std::size_t>(PathPhase::kGbConflictWait), P});
        const Duration pull = std::min(
            tail, overlap(idx.gb_pulls, ProcSeqKey{r.proc, round}, b.deliver_ts - tail,
                          b.deliver_ts));
        b.phase[static_cast<std::size_t>(PathPhase::kPullWait)] += pull;
        b.phase[static_cast<std::size_t>(PathPhase::kGbResolve)] += tail - pull;
      }
    }
    finish_breakdown(b);
    stats.paths.push_back(std::move(b));
  }
  return stats;
}

CriticalPathStats analyze_critical_path(const Recorder& recorder) {
  CriticalPathStats stats = analyze_critical_path(recorder.records());
  stats.dropped = recorder.dropped();
  stats.truncated = recorder.dropped() > 0;
  return stats;
}

std::string render_latency_scenarios(const std::vector<LatencyScenario>& scenarios) {
  std::string out = "  \"scenarios\": [\n";
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const LatencyScenario& sc = scenarios[si];
    const CriticalPathStats& st = sc.stats;

    Histogram e2e;
    std::array<Histogram, kNumPathPhases> phase_hist;
    std::array<Duration, kNumPathPhases> phase_sum{};
    Histogram residual_hist;
    Duration residual_sum = 0;
    std::array<std::uint64_t, kNumPathPhases + 1> dominant{};  // last = residual
    Duration grand_total = 0;
    for (const PathBreakdown& p : st.paths) {
      e2e.add(p.total);
      grand_total += p.total;
      for (std::size_t i = 0; i < kNumPathPhases; ++i) {
        if (p.phase[i] > 0) {
          phase_hist[i].add(p.phase[i]);
          phase_sum[i] += p.phase[i];
        }
      }
      if (p.residual > 0) {
        residual_hist.add(p.residual);
        residual_sum += p.residual;
      }
      ++dominant[p.dominant < 0 ? kNumPathPhases : static_cast<std::size_t>(p.dominant)];
    }

    out += "    {\"name\": \"" + json_escape_string(sc.name) + "\",\n";
    out += "     \"params\": " + sc.params_json + ",\n";
    out += "     \"deliveries\": " + std::to_string(st.paths.size()) + ",\n";
    out += "     \"unmatched\": " + std::to_string(st.unmatched) + ",\n";
    out += std::string("     \"truncated\": ") + (st.truncated ? "true" : "false") + ",\n";
    out += "     \"trace_dropped\": " + std::to_string(st.dropped) + ",\n";
    out += "     \"coverage\": " + json_num(st.coverage()) + ",\n";
    out += "     \"residual_share\": " + json_num(st.residual_share()) + ",\n";
    out += "     \"end_to_end\": ";
    append_hist(out, e2e, grand_total, grand_total, /*with_share=*/false);
    out += ",\n     \"phases\": {\n";
    for (std::size_t i = 0; i < kNumPathPhases; ++i) {
      out += "       \"" + std::string(path_phase_name(static_cast<PathPhase>(i))) +
             "\": ";
      append_hist(out, phase_hist[i], phase_sum[i], grand_total, /*with_share=*/true);
      out += i + 1 < kNumPathPhases ? ",\n" : "\n";
    }
    out += "     },\n     \"residual\": ";
    append_hist(out, residual_hist, residual_sum, grand_total, /*with_share=*/true);
    out += ",\n     \"dominant\": {";
    for (std::size_t i = 0; i <= kNumPathPhases; ++i) {
      const std::string name = i < kNumPathPhases
                                   ? std::string(path_phase_name(static_cast<PathPhase>(i)))
                                   : std::string("residual");
      out += "\"" + name + "\": " + std::to_string(dominant[i]);
      if (i < kNumPathPhases) out += ", ";
    }
    out += "}}";
    out += si + 1 < scenarios.size() ? ",\n" : "\n";
  }
  out += "  ]";
  return out;
}

}  // namespace gcs::obs
