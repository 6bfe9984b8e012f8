#include "obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/watchdog.hpp"

namespace gcs::obs {

std::string json_escape_string(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Fixed-format doubles so identical runs serialize identically.
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v, bool comma = true) {
  out += "\"";
  out += key;
  out += "\":" + std::to_string(v);
  if (comma) out += ",";
}

// One violation object; shared by the scenario report and the standalone
// violation export so the two never drift apart.
void append_violation(std::string& out, const Violation& v) {
  out += "{\"property\":\"" + std::string(property_name(v.property)) + "\"";
  out += ",\"proc\":" + std::to_string(v.proc);
  out += ",\"msg\":\"" + (v.msg.sender == kNoProcess ? std::string() : to_string(v.msg)) + "\"";
  out += ",\"other\":\"" +
         (v.other.sender == kNoProcess ? std::string() : to_string(v.other)) + "\"";
  out += ",\"a\":" + std::to_string(v.a);
  out += ",\"b\":" + std::to_string(v.b);
  out += ",\"detail\":\"" + json_escape_string(v.detail) + "\"}";
}

}  // namespace

std::string render_scenario_report(const std::string& scenario, std::uint64_t seed,
                                   const Oracle& oracle, const Probes* probes,
                                   const Metrics* metrics, const Recorder* recorder,
                                   const Watchdog* watchdog) {
  std::string out;
  out.reserve(4096);
  out += "{\n";
  out += "\"schema\":\"nggcs.scenario_report.v1\",\n";
  out += "\"scenario\":\"" + json_escape_string(scenario) + "\",\n";
  out += "\"seed\":" + std::to_string(seed) + ",\n";

  // -- oracle ---------------------------------------------------------------
  out += "\"oracle\":{\n";
  out += std::string("\"passed\":") + (oracle.passed() ? "true" : "false") + ",\n";
  out += std::string("\"finalized\":") + (oracle.finalized() ? "true" : "false") + ",\n";
  out += "\"truncated_violations\":" + std::to_string(oracle.truncated_violations()) + ",\n";

  out += "\"properties\":[";
  for (std::size_t i = 0; i < kPropertyCount; ++i) {
    const auto p = static_cast<Property>(i);
    if (i) out += ",";
    out += "\n{\"name\":\"" + std::string(property_name(p)) + "\",\"verdict\":\"" +
           std::string(verdict_name(oracle.verdict(p))) +
           "\",\"violations\":" + std::to_string(oracle.violation_count(p)) + "}";
  }
  out += "\n],\n";

  out += "\"violations\":[";
  bool first = true;
  for (const Violation& v : oracle.violations()) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    append_violation(out, v);
  }
  out += "\n],\n";

  const Oracle::Stats& st = oracle.stats();
  out += "\"stats\":{";
  append_kv(out, "abcast_submits", st.abcast_submits);
  append_kv(out, "adeliveries", st.adeliveries);
  append_kv(out, "rb_broadcasts", st.rb_broadcasts);
  append_kv(out, "rb_deliveries", st.rb_deliveries);
  append_kv(out, "gb_submits", st.gb_submits);
  append_kv(out, "gdeliveries", st.gdeliveries);
  append_kv(out, "gb_fast_deliveries", st.gb_fast_deliveries);
  append_kv(out, "view_installs", st.view_installs);
  append_kv(out, "remove_proposals", st.remove_proposals);
  append_kv(out, "exclusion_decisions", st.exclusion_decisions);
  append_kv(out, "suspicions", st.suspicions);
  append_kv(out, "long_suspicions", st.long_suspicions);
  append_kv(out, "crashes", st.crashes, /*comma=*/false);
  out += "}\n";
  out += "},\n";

  // -- probes ---------------------------------------------------------------
  out += "\"probes\":{";
  if (probes) {
    out += "\n";
    append_kv(out, "samples_taken", probes->samples_taken());
    append_kv(out, "stride", probes->stride());
    out += "\"timestamps_us\":[";
    for (std::size_t i = 0; i < probes->timestamps().size(); ++i) {
      if (i) out += ",";
      out += std::to_string(probes->timestamps()[i]);
    }
    out += "],\n\"series\":[";
    for (std::size_t i = 0; i < probes->series().size(); ++i) {
      const Probes::Series& s = probes->series()[i];
      if (i) out += ",";
      out += "\n{\"proc\":" + std::to_string(s.proc) + ",\"metric\":\"" +
             json_escape_string(s.name) + "\",\"values\":[";
      for (std::size_t j = 0; j < s.values.size(); ++j) {
        if (j) out += ",";
        out += json_double(s.values[j]);
      }
      out += "]}";
    }
    out += "\n]\n";
  }
  out += "},\n";

  // -- metrics --------------------------------------------------------------
  out += "\"metrics\":{";
  if (metrics) {
    out += "\n\"counters\":{";
    first = true;
    for (const auto& [name, value] : metrics->counters()) {
      if (!first) out += ",";
      first = false;
      out += "\n\"" + json_escape_string(name) + "\":" + std::to_string(value);
    }
    out += "\n},\n\"histograms\":{";
    first = true;
    for (const auto& [name, h] : metrics->histograms()) {
      if (!first) out += ",";
      first = false;
      out += "\n\"" + json_escape_string(name) + "\":{";
      out += "\"count\":" + std::to_string(h->count());
      out += ",\"min_us\":" + std::to_string(h->min());
      out += ",\"max_us\":" + std::to_string(h->max());
      out += ",\"mean_us\":" + json_double(h->mean());
      out += ",\"p50_us\":" + std::to_string(h->percentile(50));
      out += ",\"p99_us\":" + std::to_string(h->percentile(99));
      out += "}";
    }
    out += "\n}\n";
  }
  out += "},\n";

  // -- trace (flight-recorder health) ---------------------------------------
  out += "\"trace\":{";
  if (recorder) {
    out += "\n";
    out += std::string("\"enabled\":") + (recorder->enabled() ? "true" : "false") + ",\n";
    append_kv(out, "capacity", recorder->capacity());
    append_kv(out, "records", recorder->size());
    append_kv(out, "dropped", recorder->dropped());
    out += std::string("\"truncated\":") + (recorder->dropped() > 0 ? "true" : "false") +
           "\n";
  }
  out += "},\n";

  // -- watchdog alerts (live-telemetry anomaly records) ----------------------
  out += "\"alerts\":";
  out += watchdog ? render_alerts_json(*watchdog) : "[]";
  out += "\n";
  out += "}\n";
  return out;
}

std::string render_violations_json(const Oracle& oracle) {
  std::string out = "[";
  bool first = true;
  for (const Violation& v : oracle.violations()) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    append_violation(out, v);
  }
  out += "\n]";
  return out;
}

std::string render_scenario_summary(const std::string& scenario, const Oracle& oracle) {
  std::string out = "scenario " + scenario + ": " +
                    (oracle.passed() ? "ORACLE PASS" : "ORACLE VIOLATIONS") + "\n";
  out += oracle.summary();
  return out;
}

std::optional<std::string> write_scenario_report(const std::string& scenario,
                                                 const std::string& json) {
  const char* dir = std::getenv("NGGCS_REPORT_DIR");
  if (!dir || !*dir) return std::nullopt;

  std::string file;
  file.reserve(scenario.size());
  for (char c : scenario) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    file += ok ? c : '_';
  }
  std::string path = std::string(dir) + "/scenario_report_" + file + ".json";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return std::nullopt;
  os << json;
  os.flush();
  if (!os) return std::nullopt;
  return path;
}

}  // namespace gcs::obs
