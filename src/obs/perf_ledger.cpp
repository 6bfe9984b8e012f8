#include "obs/perf_ledger.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "obs/report.hpp"

namespace gcs::obs {

namespace {

// -- JSON parser -------------------------------------------------------------

/// Containers nest at most this deep; deeper input is rejected before the
/// recursive descent can exhaust the stack.
constexpr int kMaxDepth = 256;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    out = JsonValue{};
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_) *error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) return fail("nesting deeper than " + std::to_string(kMaxDepth));
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    switch (c) {
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.str);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Benches only escape control characters; keep non-ASCII simple.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += '?';
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue& out) {
    out.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    out.type = JsonValue::Type::kNull;
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  /// Skip a run of digits; false when there is none.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      return fail(negative ? "bad number" : "expected value");
    }
    if (!consume('0')) digits();
    const std::size_t int_end = pos_;
    if (consume('.') && !digits()) return fail("bad number");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return fail("bad number");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    out.type = JsonValue::Type::kNumber;
    try {
      out.number = std::stod(std::string(token));
    } catch (...) {
      return fail("bad number");
    }
    // A plain non-negative integer also keeps its exact value, which a
    // double loses above 2^53; one that overflows 64 bits keeps none.
    std::uint64_t v = 0;
    if (!negative && int_end == pos_ &&
        std::from_chars(token.data(), token.data() + token.size(), v).ec == std::errc()) {
      out.exact_uint = v;
    }
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// -- flattening --------------------------------------------------------------

/// Turn an arbitrary string into a metric-path segment: dots would split
/// the path, spaces hurt the tolerance-file format.
std::string sanitize_segment(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    out += (c == '.' || c == ' ' || c == '\t') ? '_' : c;
  }
  return out;
}

std::string number_segment(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return sanitize_segment(std::to_string(v));
}

/// Stable label for an array element: its "name", its identifying members
/// (layer / scenario / n / payload_bytes; layer + n + payload_bytes is the
/// wire-suite cell key), or the index as a last resort.
std::string element_label(const JsonValue& v, std::size_t index) {
  if (v.type == JsonValue::Type::kObject) {
    if (const JsonValue* name = v.find("name");
        name != nullptr && name->type == JsonValue::Type::kString) {
      return sanitize_segment(name->str);
    }
    std::string label;
    for (const auto& [key, member] : v.object) {
      std::string part;
      if (key == "layer" || key == "scenario") {
        if (member.type == JsonValue::Type::kString) part = sanitize_segment(member.str);
      } else if (key == "n" && member.type == JsonValue::Type::kNumber) {
        part = "n" + number_segment(member.number);
      } else if (key == "payload_bytes" && member.type == JsonValue::Type::kNumber) {
        part = "b" + number_segment(member.number);
      }
      if (!part.empty()) {
        if (!label.empty()) label += '_';
        label += part;
      }
    }
    if (!label.empty()) return label;
  }
  return std::to_string(index);
}

void flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, double>& out) {
  switch (v.type) {
    case JsonValue::Type::kNumber:
      out[path] = v.number;
      break;
    case JsonValue::Type::kBool:
      out[path] = v.boolean ? 1.0 : 0.0;
      break;
    case JsonValue::Type::kObject:
      for (const auto& [key, member] : v.object) {
        flatten(member, path + "." + sanitize_segment(key), out);
      }
      break;
    case JsonValue::Type::kArray: {
      // Disambiguate duplicate labels by index so colliding elements never
      // silently overwrite each other (the first keeps its plain label).
      std::set<std::string> used;
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        std::string label = element_label(v.array[i], i);
        if (!used.insert(label).second) label += "_" + std::to_string(i);
        flatten(v.array[i], path + "." + label, out);
      }
      break;
    }
    case JsonValue::Type::kString:
    case JsonValue::Type::kNull:
      break;  // identity / absent, not data
  }
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* dir_name(ToleranceDir d) {
  switch (d) {
    case ToleranceDir::kUp: return "up";
    case ToleranceDir::kDown: return "down";
    case ToleranceDir::kBoth: return "both";
    case ToleranceDir::kInfo: return "info";
  }
  return "?";
}

const char* kind_name(DeltaKind k) {
  switch (k) {
    case DeltaKind::kOk: return "ok";
    case DeltaKind::kRegression: return "REGRESSION";
    case DeltaKind::kImproved: return "improved";
    case DeltaKind::kNew: return "NEW";
    case DeltaKind::kMissing: return "MISSING";
  }
  return "?";
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::as_uint(std::uint64_t max) const {
  if (!exact_uint || *exact_uint > max) return std::nullopt;
  return exact_uint;
}

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  return Parser(text, error).parse(out);
}

bool load_ledger(std::string_view json_text, Ledger& out, std::string* error) {
  JsonValue root;
  if (!parse_json(json_text, root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    if (error) *error = "top level is not an object";
    return false;
  }
  const JsonValue* suite = root.find("suite");
  if (suite == nullptr || suite->type != JsonValue::Type::kString) {
    if (error) *error = "missing \"suite\" string";
    return false;
  }
  out.suite = suite->str;
  out.schema = 0;
  if (const JsonValue* schema = root.find("schema");
      schema != nullptr && schema->type == JsonValue::Type::kNumber) {
    out.schema = static_cast<std::int64_t>(schema->number);
  }
  out.metrics.clear();
  for (const auto& [key, member] : root.object) {
    if (key == "suite" || key == "schema") continue;
    flatten(member, sanitize_segment(out.suite) + "." + sanitize_segment(key),
            out.metrics);
  }
  return true;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative glob with single-star backtracking (the classic algorithm).
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool parse_tolerance_file(std::string_view text, std::vector<ToleranceRule>& out,
                          std::string* error) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream iss{std::string(line)};
    std::string pattern, dir_word;
    double rel = 0.0, abs = 0.0;
    if (!(iss >> pattern)) continue;  // blank / comment-only line
    if (!(iss >> dir_word >> rel)) {
      if (error) {
        *error = "line " + std::to_string(line_no) +
                 ": expected `<pattern> <up|down|both|info> <rel_tol> [abs_tol]`";
      }
      return false;
    }
    iss >> abs;  // optional
    ToleranceRule rule;
    rule.pattern = std::move(pattern);
    rule.rel_tol = rel;
    rule.abs_tol = abs;
    if (dir_word == "up") rule.dir = ToleranceDir::kUp;
    else if (dir_word == "down") rule.dir = ToleranceDir::kDown;
    else if (dir_word == "both") rule.dir = ToleranceDir::kBoth;
    else if (dir_word == "info") rule.dir = ToleranceDir::kInfo;
    else {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": bad direction `" + dir_word + "`";
      }
      return false;
    }
    out.push_back(std::move(rule));
  }
  return true;
}

LedgerDiff diff_ledgers(const std::map<std::string, double>& baseline,
                        const std::map<std::string, double>& fresh,
                        const std::vector<ToleranceRule>& rules,
                        const DiffOptions& options) {
  const auto match = [&rules](const std::string& metric) -> const ToleranceRule* {
    for (const ToleranceRule& r : rules) {
      if (glob_match(r.pattern, metric)) return &r;
    }
    return nullptr;
  };

  LedgerDiff diff;
  auto bit = baseline.begin();
  auto fit = fresh.begin();
  while (bit != baseline.end() || fit != fresh.end()) {
    MetricDelta d;
    if (fit == fresh.end() || (bit != baseline.end() && bit->first < fit->first)) {
      // Baseline-only: the fresh run silently lost a metric.
      d.metric = bit->first;
      d.baseline = bit->second;
      d.kind = DeltaKind::kMissing;
      const ToleranceRule* rule = match(d.metric);
      d.dir = rule ? rule->dir : ToleranceDir::kInfo;
      d.gated = rule != nullptr && rule->dir != ToleranceDir::kInfo;
      if (!options.allow_missing) {
        ++diff.regressions;
      }
      ++diff.missing;
      ++bit;
    } else if (bit == baseline.end() || fit->first < bit->first) {
      d.metric = fit->first;
      d.fresh = fit->second;
      d.kind = DeltaKind::kNew;
      ++diff.added;
      ++fit;
    } else {
      d.metric = bit->first;
      d.baseline = bit->second;
      d.fresh = fit->second;
      d.delta = d.fresh - d.baseline;
      d.rel_delta =
          d.baseline == 0.0 ? 0.0 : d.delta / std::abs(d.baseline);
      const ToleranceRule* rule = match(d.metric);
      d.dir = rule ? rule->dir : ToleranceDir::kInfo;
      d.gated = rule != nullptr && rule->dir != ToleranceDir::kInfo;
      ++diff.checked;
      if (d.gated) {
        const double allowed =
            rule->abs_tol + rule->rel_tol * std::abs(d.baseline);
        const bool out_of_band = std::abs(d.delta) > allowed;
        if (out_of_band) {
          const bool worse =
              rule->dir == ToleranceDir::kBoth ||
              (rule->dir == ToleranceDir::kUp && d.delta > 0) ||
              (rule->dir == ToleranceDir::kDown && d.delta < 0);
          d.kind = worse ? DeltaKind::kRegression : DeltaKind::kImproved;
          if (worse) ++diff.regressions;
          else ++diff.improved;
        }
      }
      ++bit;
      ++fit;
    }
    diff.deltas.push_back(std::move(d));
  }
  return diff;
}

std::string render_diff_table(const LedgerDiff& diff, bool show_ok) {
  // Regressions, missing and new first, then improved, then (optionally) ok.
  const auto rank = [](const MetricDelta& d) {
    switch (d.kind) {
      case DeltaKind::kRegression: return 0;
      case DeltaKind::kMissing: return 1;
      case DeltaKind::kNew: return 2;
      case DeltaKind::kImproved: return 3;
      case DeltaKind::kOk: return 4;
    }
    return 5;
  };
  std::vector<const MetricDelta*> rows;
  rows.reserve(diff.deltas.size());
  for (const MetricDelta& d : diff.deltas) {
    if (d.kind == DeltaKind::kOk && !show_ok) continue;
    rows.push_back(&d);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&rank](const MetricDelta* a, const MetricDelta* b) {
                     return rank(*a) < rank(*b);
                   });

  std::size_t name_w = 6;
  for (const MetricDelta* d : rows) name_w = std::max(name_w, d->metric.size());

  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-*s %12s %12s %10s %8s %5s %s\n",
                static_cast<int>(name_w), "metric", "baseline", "fresh", "delta",
                "rel", "dir", "verdict");
  out += buf;
  for (const MetricDelta* d : rows) {
    std::snprintf(buf, sizeof(buf), "  %-*s %12s %12s %10s %7.2f%% %5s %s\n",
                  static_cast<int>(name_w), d->metric.c_str(),
                  d->kind == DeltaKind::kNew ? "-" : json_num(d->baseline).c_str(),
                  d->kind == DeltaKind::kMissing ? "-" : json_num(d->fresh).c_str(),
                  json_num(d->delta).c_str(), d->rel_delta * 100.0, dir_name(d->dir),
                  kind_name(d->kind));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\n  %zu checked, %zu regression(s), %zu improved, %zu new, %zu "
                "missing -> %s\n",
                diff.checked, diff.regressions, diff.improved, diff.added, diff.missing,
                diff.ok() ? "OK" : "FAIL");
  out += buf;
  return out;
}

std::string render_diff_json(const LedgerDiff& diff) {
  std::string out = "{\n  \"suite\": \"perf_delta\",\n  \"schema\": 1,\n";
  out += "  \"ok\": " + std::string(diff.ok() ? "true" : "false") + ",\n";
  out += "  \"checked\": " + std::to_string(diff.checked) + ",\n";
  out += "  \"regressions\": " + std::to_string(diff.regressions) + ",\n";
  out += "  \"improved\": " + std::to_string(diff.improved) + ",\n";
  out += "  \"added\": " + std::to_string(diff.added) + ",\n";
  out += "  \"missing\": " + std::to_string(diff.missing) + ",\n";
  out += "  \"deltas\": [\n";
  bool first = true;
  for (const MetricDelta& d : diff.deltas) {
    if (d.kind == DeltaKind::kOk && !d.gated) continue;  // keep artifacts small
    if (!first) out += ",\n";
    first = false;
    out += "    {\"metric\": \"" + json_escape_string(d.metric) + "\", \"baseline\": " +
           json_num(d.baseline) + ", \"fresh\": " + json_num(d.fresh) +
           ", \"delta\": " + json_num(d.delta) + ", \"rel_delta\": " +
           json_num(d.rel_delta) + ", \"dir\": \"" + dir_name(d.dir) +
           "\", \"verdict\": \"" + kind_name(d.kind) + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace gcs::obs
