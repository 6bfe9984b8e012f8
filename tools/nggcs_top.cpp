/// \file nggcs_top.cpp
/// Live telemetry viewer: consumes the snapshot-frame stream a running
/// nggcs harness publishes (UDP stats socket, or a recorded stream file)
/// and renders per-process health — delivery/submit/pull rates, queue
/// gauges, socket-edge counters, runner loop health — plus any watchdog
/// alerts evaluated over the same frames.
///
///   nggcs_top [--port P] [--host H] [--once] [--timeout-ms MS]
///             [--duration-ms MS] [--file FILE]
///
///   --once       receive a single frame, dump it fully, exit 0 (1 on
///                timeout or a frame that fails to decode)
///   --file FILE  read a varint length-prefixed frame stream (as written
///                by nggcs_rtrun --stream-out) instead of listening
///   default      listen for --duration-ms (0 = forever), printing a
///                rate table on every refresh and alerts as they fire
///
/// Frames are self-contained, so attaching mid-run just works: the first
/// frame of each process seeds its rate window.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "runtime/stats_socket.hpp"
#include "util/codec.hpp"

using namespace gcs;

namespace {

struct Options {
  int port = 38990;
  std::string host = "127.0.0.1";
  bool once = false;
  int timeout_ms = 3000;
  int duration_ms = 0;  ///< live mode: 0 = run until killed
  std::string file;
};

void usage() {
  std::fprintf(stderr,
               "usage: nggcs_top [--port P] [--host H] [--once] [--timeout-ms MS]\n"
               "                 [--duration-ms MS] [--file FILE]\n");
}

bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--port") {
      const char* v = next();
      if (!v || !parse_int(v, opt.port)) return false;
    } else if (arg == "--host") {
      const char* v = next();
      if (!v) return false;
      opt.host = v;
    } else if (arg == "--once") {
      opt.once = true;
    } else if (arg == "--timeout-ms") {
      const char* v = next();
      if (!v || !parse_int(v, opt.timeout_ms) || opt.timeout_ms < 0) return false;
    } else if (arg == "--duration-ms") {
      const char* v = next();
      if (!v || !parse_int(v, opt.duration_ms) || opt.duration_ms < 0) return false;
    } else if (arg == "--file") {
      const char* v = next();
      if (!v) return false;
      opt.file = v;
    } else {
      std::fprintf(stderr, "nggcs_top: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Full dump of one frame (the --once view).
void dump_frame(const obs::Snapshot& s) {
  std::printf("frame proc=p%d seq=%llu ts=%lldus\n", s.proc,
              static_cast<unsigned long long>(s.seq), static_cast<long long>(s.ts));
  std::printf("  trace: enabled=%d capacity=%llu records=%llu dropped=%llu\n",
              s.trace_enabled ? 1 : 0,
              static_cast<unsigned long long>(s.trace_capacity),
              static_cast<unsigned long long>(s.trace_records),
              static_cast<unsigned long long>(s.trace_dropped));
  std::printf("  counters (%zu):\n", s.counters.size());
  for (const auto& c : s.counters) {
    std::printf("    %-32s %lld\n", c.name.c_str(), static_cast<long long>(c.value));
  }
  std::printf("  gauges (%zu):\n", s.gauges.size());
  for (const auto& g : s.gauges) {
    std::printf("    %-32s %.3f\n", g.name.c_str(), g.value);
  }
  std::printf("  histograms (%zu):\n", s.histograms.size());
  for (const auto& h : s.histograms) {
    std::printf("    %-32s n=%llu mean=%.1fus p50=%lld p90=%lld p99=%lld\n",
                h.name.c_str(), static_cast<unsigned long long>(h.count), h.mean,
                static_cast<long long>(h.p50), static_cast<long long>(h.p90),
                static_cast<long long>(h.p99));
  }
}

/// One live-view row: rate window between two frames of the same process.
struct Row {
  bool seeded = false;  ///< has at least one frame
  bool has_prev = false;
  obs::Snapshot prev;
  obs::Snapshot last;

  void feed(obs::Snapshot s) {
    if (seeded) {
      has_prev = true;
      prev = std::move(last);
    }
    seeded = true;
    last = std::move(s);
  }
};

void print_table(const std::map<ProcessId, Row>& rows, const obs::Watchdog& wd) {
  std::printf("%-5s %-10s %8s %8s %8s %8s %9s %9s %8s\n", "proc", "ts(ms)",
              "subm/s", "dlvr/s", "pull/s", "rtx/s", "sendq", "pending", "udp-rx/s");
  for (const auto& [proc, row] : rows) {
    const obs::Snapshot& s = row.last;
    double window_s = 0;
    if (row.has_prev && s.ts > row.prev.ts) {
      window_s = static_cast<double>(s.ts - row.prev.ts) / 1e6;
    }
    auto rate = [&](std::int64_t cur, std::int64_t prev) {
      return window_s > 0 ? static_cast<double>(cur - prev) / window_s : 0.0;
    };
    const obs::Snapshot& p = row.has_prev ? row.prev : s;
    std::printf("p%-4d %-10lld %8.1f %8.1f %8.1f %8.1f %9.0f %9.0f %8.1f\n",
                proc, static_cast<long long>(s.ts / 1000),
                rate(submits_of(s), submits_of(p)),
                rate(deliveries_of(s), deliveries_of(p)),
                rate(pulls_of(s), pulls_of(p)),
                rate(s.counter("channel.retransmits"), p.counter("channel.retransmits")),
                s.gauge("probe.channel.send_queue"), s.gauge("probe.abcast.pending"),
                rate(s.counter("udp.rx_datagrams"), p.counter("udp.rx_datagrams")));
  }
  // Runner loop health rides on whichever process the harness pinned it to.
  for (const auto& [proc, row] : rows) {
    const double iters = row.last.gauge("rt.loop_iterations", -1);
    if (iters >= 0) {
      std::printf("loop@p%d: iterations=%.0f idle_sleeps=%.0f max_timer_lag=%.0fus\n",
                  proc, iters, row.last.gauge("rt.idle_sleeps"),
                  row.last.gauge("rt.max_timer_lag_us"));
      break;
    }
  }
  std::printf("alerts=%llu frames=%llu\n\n",
              static_cast<unsigned long long>(wd.alerts_raised()),
              static_cast<unsigned long long>(wd.frames_observed()));
}

int run_file(const Options& opt) {
  std::FILE* f = std::fopen(opt.file.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "nggcs_top: cannot open %s\n", opt.file.c_str());
    return 1;
  }
  Bytes blob;
  {
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    blob.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    if (!blob.empty() && std::fread(blob.data(), 1, blob.size(), f) != blob.size()) {
      std::fclose(f);
      std::fprintf(stderr, "nggcs_top: short read on %s\n", opt.file.c_str());
      return 1;
    }
  }
  std::fclose(f);

  obs::Watchdog wd;
  std::map<ProcessId, Row> rows;
  std::size_t frames = 0, bad = 0;
  Decoder dec(blob);
  while (dec.ok() && !dec.at_end()) {
    const BytesView wire = dec.get_view();
    if (!dec.ok()) break;
    auto s = obs::decode_snapshot(wire);
    if (!s) {
      ++bad;
      continue;
    }
    ++frames;
    wd.observe(*s);
    rows[s->proc].feed(std::move(*s));
  }
  if (!dec.ok()) {
    std::fprintf(stderr, "nggcs_top: stream framing error after %zu frames\n", frames);
    return 1;
  }
  std::printf("stream %s: %zu frames (%zu undecodable), %zu processes\n\n",
              opt.file.c_str(), frames, bad, rows.size());
  if (!rows.empty()) print_table(rows, wd);
  for (const obs::Alert& a : wd.alerts()) {
    std::printf("alert %s p%d frame=%llu ts=%lldus: %s\n",
                std::string(obs::watchdog_rule_name(a.rule)).c_str(), a.proc,
                static_cast<unsigned long long>(a.frame),
                static_cast<long long>(a.ts), a.detail.c_str());
  }
  return frames > 0 ? 0 : 1;
}

int run_once(const Options& opt) {
  rt::StatsReceiver rx(opt.host, static_cast<std::uint16_t>(opt.port));
  Bytes datagram;
  if (!rx.recv(datagram, opt.timeout_ms)) {
    std::fprintf(stderr, "nggcs_top: no frame within %dms on %s:%d\n", opt.timeout_ms,
                 opt.host.c_str(), opt.port);
    return 1;
  }
  const auto s = obs::decode_snapshot(BytesView(datagram.data(), datagram.size()));
  if (!s) {
    std::fprintf(stderr, "nggcs_top: datagram (%zu bytes) failed to decode\n",
                 datagram.size());
    return 1;
  }
  dump_frame(*s);
  return 0;
}

int run_live(const Options& opt) {
  rt::StatsReceiver rx(opt.host, static_cast<std::uint16_t>(opt.port));
  obs::Watchdog wd;
  wd.on_alert([](const obs::Alert& a) {
    std::fprintf(stderr, "[watchdog] %s p%d frame=%llu ts=%lldus: %s\n",
                 std::string(obs::watchdog_rule_name(a.rule)).c_str(), a.proc,
                 static_cast<unsigned long long>(a.frame),
                 static_cast<long long>(a.ts), a.detail.c_str());
  });
  std::map<ProcessId, Row> rows;
  std::printf("nggcs_top: listening on %s:%d%s\n", opt.host.c_str(), opt.port,
              opt.duration_ms > 0 ? "" : " (ctrl-c to quit)");

  int waited_ms = 0;
  int since_refresh_ms = 0;
  const int kPollMs = 50;
  const int kRefreshMs = 1000;
  bool saw_frame = false;
  while (opt.duration_ms == 0 || waited_ms < opt.duration_ms) {
    Bytes datagram;
    if (rx.recv(datagram, kPollMs)) {
      auto s = obs::decode_snapshot(BytesView(datagram.data(), datagram.size()));
      if (s) {
        saw_frame = true;
        wd.observe(*s);
        rows[s->proc].feed(std::move(*s));
      }
    } else {
      waited_ms += kPollMs;
      since_refresh_ms += kPollMs;
    }
    if (since_refresh_ms >= kRefreshMs) {
      since_refresh_ms = 0;
      if (!rows.empty()) print_table(rows, wd);
    }
  }
  if (!rows.empty()) print_table(rows, wd);
  return saw_frame ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (!opt.file.empty()) return run_file(opt);
  if (opt.once) return run_once(opt);
  return run_live(opt);
}
