#include "explore/artifact.hpp"

#include <cstdio>
#include <limits>

#include "obs/perf_ledger.hpp"
#include "obs/report.hpp"

namespace gcs::explore {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
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
  // Scalar fields first, embedded documents last, so the head of the file
  // reads as a summary.
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
  obs::JsonValue doc;
  if (!obs::parse_json(json, doc) || doc.type != obs::JsonValue::Type::kObject) {
    return std::nullopt;
  }
  // Top-level members only: a key inside an embedded document never stands
  // in for a missing field.
  const auto str = [&doc](const char* key, std::string* out) {
    const obs::JsonValue* v = doc.find(key);
    if (v == nullptr || v->type != obs::JsonValue::Type::kString) return false;
    *out = v->str;
    return true;
  };
  // An out-of-range integer rejects the artifact instead of wrapping into a
  // different run.
  const auto uint_field = [&doc](const char* key, std::uint64_t max, std::uint64_t* out) {
    const obs::JsonValue* v = doc.find(key);
    const std::optional<std::uint64_t> u = v ? v->as_uint(max) : std::nullopt;
    if (u) *out = *u;
    return u.has_value();
  };
  const auto int_field = [&uint_field](const char* key, int* out) {
    std::uint64_t v = 0;
    if (!uint_field(key, std::numeric_limits<int>::max(), &v)) return false;
    *out = static_cast<int>(v);
    return true;
  };

  Artifact a;
  std::string schema;
  std::string digest_hex;
  if (!str("schema", &schema) || schema != "nggcs.repro.v1") return std::nullopt;
  if (!uint_field("plan_seed", std::numeric_limits<std::uint64_t>::max(), &a.plan_seed) ||
      !int_field("plan_n", &a.plan_options.n) ||
      !int_field("plan_steps", &a.plan_options.steps) ||
      !int_field("plan_max_crashes", &a.plan_options.max_crashes) ||
      !str("plan_digest", &digest_hex) || !parse_hex64(digest_hex, &a.plan_digest) ||
      !int_field("fast_quorum_override", &a.fast_quorum_override) ||
      !str("outcome", &a.outcome) || !str("first_violation", &a.first_violation) ||
      !str("report_json", &a.report_json)) {
    return std::nullopt;
  }
  const obs::JsonValue* keep = doc.find("keep_steps");
  if (keep == nullptr || keep->type != obs::JsonValue::Type::kArray) return std::nullopt;
  for (const obs::JsonValue& step : keep->array) {
    const auto v = step.as_uint(std::numeric_limits<std::uint32_t>::max());
    if (!v) return std::nullopt;
    a.keep.push_back(static_cast<std::uint32_t>(*v));
  }
  str("trace_tail", &a.trace_tail);  // optional
  return a;
}

std::optional<sim::FaultPlan> regenerate_plan(const Artifact& a) {
  sim::FaultPlan plan = sim::FaultPlan::generate(a.plan_seed, a.plan_options);
  if (plan.digest() != a.plan_digest) return std::nullopt;
  return plan;
}

}  // namespace gcs::explore
