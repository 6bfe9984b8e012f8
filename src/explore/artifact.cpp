#include "explore/artifact.hpp"

#include <cctype>
#include <cstdio>
#include <limits>

#include "obs/report.hpp"

namespace gcs::explore {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- minimal extraction parser ------------------------------------------
//
// Not a general JSON parser: it locates top-level fields by their (unique)
// quoted key names and parses just the value shapes this schema uses.
// Searching for `"key":` cannot false-match inside an embedded escaped
// string, because there every quote is preceded by a backslash.

std::size_t find_key(const std::string& json, const char* key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = json.find(needle);
  return pos == std::string::npos ? std::string::npos : pos + needle.size();
}

/// Parse the unsigned decimal at \p pos (advanced past it). False when
/// there is no digit or the value exceeds \p max: an out-of-range field
/// rejects the artifact instead of wrapping into a different run.
bool parse_uint(const std::string& s, std::size_t& pos, std::uint64_t max, std::uint64_t* out) {
  if (pos >= s.size() || !std::isdigit(static_cast<unsigned char>(s[pos]))) return false;
  std::uint64_t v = 0;
  while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
    const auto d = static_cast<std::uint64_t>(s[pos] - '0');
    if (v > (max - d) / 10) return false;
    v = v * 10 + d;
    ++pos;
  }
  *out = v;
  return true;
}

bool get_uint(const std::string& json, const char* key, std::uint64_t max, std::uint64_t* out) {
  std::size_t pos = find_key(json, key);
  if (pos == std::string::npos) return false;
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos]))) ++pos;
  return parse_uint(json, pos, max, out);
}

bool get_int(const std::string& json, const char* key, int* out) {
  std::uint64_t v = 0;
  if (!get_uint(json, key, std::numeric_limits<int>::max(), &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool unescape(const std::string& s, std::size_t pos, std::string* out, std::size_t* end) {
  // pos points at the opening quote.
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  out->clear();
  while (pos < s.size()) {
    const char c = s[pos];
    if (c == '"') {
      *end = pos + 1;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      ++pos;
      continue;
    }
    if (pos + 1 >= s.size()) return false;
    const char esc = s[pos + 1];
    pos += 2;
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (pos + 4 > s.size()) return false;
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = s[pos + static_cast<std::size_t>(i)];
          v <<= 4;
          if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        // The writer only \u-escapes control bytes (< 0x20).
        out->push_back(static_cast<char>(v));
        pos += 4;
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

bool get_string(const std::string& json, const char* key, std::string* out) {
  std::size_t pos = find_key(json, key);
  if (pos == std::string::npos) return false;
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos]))) ++pos;
  std::size_t end = 0;
  return unescape(json, pos, out, &end);
}

bool get_u32_array(const std::string& json, const char* key, std::vector<std::uint32_t>* out) {
  std::size_t pos = find_key(json, key);
  if (pos == std::string::npos) return false;
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos]))) ++pos;
  if (pos >= json.size() || json[pos] != '[') return false;
  ++pos;
  out->clear();
  while (pos < json.size()) {
    while (pos < json.size() &&
           (std::isspace(static_cast<unsigned char>(json[pos])) || json[pos] == ',')) {
      ++pos;
    }
    if (pos < json.size() && json[pos] == ']') return true;
    std::uint64_t v = 0;
    if (!parse_uint(json, pos, std::numeric_limits<std::uint32_t>::max(), &v)) return false;
    out->push_back(static_cast<std::uint32_t>(v));
  }
  return false;  // unterminated
}

bool parse_hex64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char h : s) {
    v <<= 4;
    if (h >= '0' && h <= '9') v |= static_cast<std::uint64_t>(h - '0');
    else if (h >= 'a' && h <= 'f') v |= static_cast<std::uint64_t>(h - 'a' + 10);
    else return false;
  }
  *out = v;
  return true;
}

}  // namespace

Artifact make_artifact(const sim::FaultPlan& plan, const std::vector<std::uint32_t>& keep,
                       const RunOptions& options, const RunResult& result) {
  Artifact a;
  a.plan_seed = plan.seed;
  a.plan_options = plan.options;
  a.plan_digest = plan.digest();
  a.fast_quorum_override = options.fast_quorum_override;
  a.keep = keep;
  a.outcome = std::string(outcome_name(result.outcome));
  a.first_violation = result.first_violation;
  a.violations_json = result.violations_json;
  a.report_json = result.report_json;
  a.trace_tail = result.trace_tail;
  return a;
}

std::string render_artifact(const Artifact& a) {
  // Scalar fields first, embedded documents last: the extractor can then
  // find every key on its first occurrence.
  std::string out;
  out.reserve(a.report_json.size() + a.trace_tail.size() + 1024);
  out += "{\n";
  out += "\"schema\":\"nggcs.repro.v1\",\n";
  out += "\"plan_seed\":" + std::to_string(a.plan_seed) + ",\n";
  out += "\"plan_n\":" + std::to_string(a.plan_options.n) + ",\n";
  out += "\"plan_steps\":" + std::to_string(a.plan_options.steps) + ",\n";
  out += "\"plan_max_crashes\":" + std::to_string(a.plan_options.max_crashes) + ",\n";
  out += "\"plan_digest\":\"" + hex64(a.plan_digest) + "\",\n";
  out += "\"fast_quorum_override\":" + std::to_string(a.fast_quorum_override) + ",\n";
  out += "\"outcome\":\"" + a.outcome + "\",\n";
  out += "\"first_violation\":\"" + obs::json_escape_string(a.first_violation) + "\",\n";
  out += "\"keep_steps\":[";
  for (std::size_t i = 0; i < a.keep.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(a.keep[i]);
  }
  out += "],\n";
  // Human-oriented sections (ignored by replay).
  const sim::FaultPlan plan = sim::FaultPlan::generate(a.plan_seed, a.plan_options);
  out += "\"steps\":" + plan.steps_json(a.keep) + ",\n";
  out += "\"violations\":" + (a.violations_json.empty() ? "[]" : a.violations_json) + ",\n";
  out += "\"report_json\":\"" + obs::json_escape_string(a.report_json) + "\",\n";
  out += "\"trace_tail\":\"" + obs::json_escape_string(a.trace_tail) + "\"\n";
  out += "}\n";
  return out;
}

std::optional<Artifact> parse_artifact(const std::string& json) {
  std::string schema;
  if (!get_string(json, "schema", &schema) || schema != "nggcs.repro.v1") return std::nullopt;
  Artifact a;
  std::string digest_hex;
  if (!get_uint(json, "plan_seed", std::numeric_limits<std::uint64_t>::max(), &a.plan_seed)) {
    return std::nullopt;
  }
  if (!get_int(json, "plan_n", &a.plan_options.n)) return std::nullopt;
  if (!get_int(json, "plan_steps", &a.plan_options.steps)) return std::nullopt;
  if (!get_int(json, "plan_max_crashes", &a.plan_options.max_crashes)) return std::nullopt;
  if (!get_string(json, "plan_digest", &digest_hex) || !parse_hex64(digest_hex, &a.plan_digest)) {
    return std::nullopt;
  }
  if (!get_int(json, "fast_quorum_override", &a.fast_quorum_override)) return std::nullopt;
  if (!get_string(json, "outcome", &a.outcome)) return std::nullopt;
  if (!get_string(json, "first_violation", &a.first_violation)) return std::nullopt;
  if (!get_u32_array(json, "keep_steps", &a.keep)) return std::nullopt;
  if (!get_string(json, "report_json", &a.report_json)) return std::nullopt;
  get_string(json, "trace_tail", &a.trace_tail);  // optional
  return a;
}

std::optional<sim::FaultPlan> regenerate_plan(const Artifact& a) {
  sim::FaultPlan plan = sim::FaultPlan::generate(a.plan_seed, a.plan_options);
  if (plan.digest() != a.plan_digest) return std::nullopt;
  return plan;
}

}  // namespace gcs::explore
