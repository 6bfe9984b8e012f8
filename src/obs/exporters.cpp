#include "obs/exporters.hpp"

#include <algorithm>
#include <set>

#include "obs/report.hpp"
#include "transport/transport.hpp"

namespace gcs::obs {

namespace {

/// Human name of a wire-level component tag (channel frames carry one).
const char* tag_name(std::uint8_t tag) {
  switch (static_cast<Tag>(tag)) {
    case Tag::kChannel: return "channel";
    case Tag::kFd: return "fd.heartbeat";
    case Tag::kConsensus: return "consensus";
    case Tag::kRbcast: return "rbcast";
    case Tag::kAbcast: return "abcast";
    case Tag::kGbcast: return "gb.ack";
    case Tag::kMembership: return "membership";
    case Tag::kMonitoring: return "monitoring";
    case Tag::kVs: return "vs";
    case Tag::kSeqOrder: return "seq";
    case Tag::kToken: return "token";
    case Tag::kGbData: return "gb.data";
    case Tag::kApp: return "app";
    default: return "?";
  }
}

/// Correlation key of a record as a short string ("m3:17" message, "c:5"
/// consensus instance, "r:2" GB round, "v:1" view, "p:3" peer channel);
/// empty if uncorrelated.
std::string key_of(const Record& r) {
  if (r.msg.sender == kNoProcess && r.msg.seq == 0) return {};
  switch (r.msg.sender) {
    case kConsensusKey: return "c:" + std::to_string(r.msg.seq);
    case kGbRoundKey: return "r:" + std::to_string(r.msg.seq);
    case kViewKey: return "v:" + std::to_string(r.msg.seq);
    case kPeerKey: return "p:" + std::to_string(r.msg.seq);
    default:
      return "m" + std::to_string(r.msg.sender) + ":" + std::to_string(r.msg.seq);
  }
}

/// Category = the subsystem prefix of the name ("consensus.ack" ->
/// "consensus"), which makes Perfetto's category filter useful.
std::string category_of(std::string_view name) {
  const auto dot = name.find('.');
  return std::string(dot == std::string_view::npos ? name : name.substr(0, dot));
}

bool is_channel_name(const Names& names, NameId id) {
  return id == names.channel_tx || id == names.channel_rx || id == names.channel_retransmit;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Record>& records) {
  const Names& names = Names::get();
  std::string out = "{\n\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  // Process-name metadata so Perfetto labels tracks "p0", "p1", ...
  std::set<ProcessId> procs;
  for (const Record& r : records) {
    if (r.proc != kNoProcess) procs.insert(r.proc);
  }
  for (ProcessId p : procs) {
    emit("{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " + std::to_string(p) +
         ", \"tid\": 0, \"args\": {\"name\": \"p" + std::to_string(p) + "\"}}");
  }

  for (const Record& r : records) {
    const std::string name(name_of(r.name));
    const std::string key = key_of(r);
    std::string ev = "{\"name\": \"" + json_escape_string(name) + "\", \"cat\": \"" +
                     json_escape_string(category_of(name)) + "\", \"pid\": " +
                     std::to_string(r.proc) + ", \"tid\": 0, \"ts\": " +
                     std::to_string(r.ts);
    std::string args = "\"arg\": " + std::to_string(r.arg);
    if (is_channel_name(names, r.name)) {
      args += ", \"peer\": " + std::to_string(channel_arg_peer(r.arg)) +
              ", \"tag\": \"" + tag_name(channel_arg_tag(r.arg)) + "\", \"size\": " +
              std::to_string(channel_arg_size(r.arg));
    }
    if (key.empty()) {
      // Uncorrelated point event: a plain thread-scoped instant.
      ev += ", \"ph\": \"i\", \"s\": \"t\"";
    } else {
      // Correlated: async events grouped by id — Perfetto renders each key
      // as one track, which is the "span tree keyed by message id".
      const char* ph = r.phase == Phase::kBegin ? "b" : r.phase == Phase::kEnd ? "e" : "n";
      ev += std::string(", \"ph\": \"") + ph + "\", \"id\": \"" + json_escape_string(key) +
            "\"";
      args += ", \"key\": \"" + json_escape_string(key) + "\"";
    }
    ev += ", \"args\": {" + args + "}}";
    emit(ev);
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

bool write_chrome_trace(const Recorder& recorder, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = chrome_trace_json(recorder.records());
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::string render_sequence(const std::vector<Record>& records,
                            const SequenceOptions& options) {
  const Names& names = Names::get();
  int n = options.num_processes;
  if (n == 0) {
    for (const Record& r : records) n = std::max(n, r.proc + 1);
  }
  if (n <= 0) return {};

  const auto col = [](ProcessId p) { return 6 + 9 * static_cast<std::size_t>(p); };
  std::string out = "    ";
  for (ProcessId p = 0; p < n; ++p) {
    out += "  p" + std::to_string(p) + "      ";
  }
  out += "\n";

  std::size_t lines = 0;
  for (const Record& r : records) {
    if (r.name != names.channel_tx || r.ts < options.since) continue;
    if (lines >= options.max_lines) break;
    const ProcessId to = channel_arg_peer(r.arg);
    const std::uint8_t tag = channel_arg_tag(r.arg);
    if (static_cast<Tag>(tag) == Tag::kFd) continue;  // heartbeat noise
    ++lines;
    std::string cols(col(static_cast<ProcessId>(n - 1)) + 2, ' ');
    for (ProcessId p = 0; p < n; ++p) cols[col(p)] = '.';
    cols[col(r.proc)] = 'o';
    cols[col(to)] = '>';
    char line[160];
    std::snprintf(line, sizeof(line), "[%9.3fms] %s  p%d -> p%d  channel[%s] (%zu B)\n",
                  static_cast<double>(r.ts) / 1000.0, cols.c_str(), r.proc, to,
                  tag_name(tag), channel_arg_size(r.arg));
    out += line;
  }
  return out;
}

std::string format_record(const Record& r) {
  const char* phase = r.phase == Phase::kBegin ? "B" : r.phase == Phase::kEnd ? "E" : ".";
  const std::string key = key_of(r);
  char buf[192];
  std::snprintf(buf, sizeof(buf), "[%10.3fms] p%-2d %s %-22s %-8s arg=%lld",
                static_cast<double>(r.ts) / 1000.0, r.proc, phase,
                std::string(name_of(r.name)).c_str(), key.c_str(),
                static_cast<long long>(r.arg));
  return buf;
}

}  // namespace gcs::obs
