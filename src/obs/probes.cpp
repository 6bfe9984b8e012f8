#include "obs/probes.hpp"

#include <algorithm>

namespace gcs::obs {
namespace {

/// Keep the even-indexed points of \p v.
template <typename T>
void thin(std::vector<T>& v) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < v.size(); r += 2, ++w) v[w] = v[r];
  v.resize(w);
}

}  // namespace

void Probes::fold(const Snapshot& frame) {
  if (samples_taken_ == 0 || frame.ts != sample_ts_) {
    if (timestamps_.size() >= kMaxPoints) {
      // Keep every other retained point and double the stride: memory stays
      // O(kMaxPoints) while the series still span the whole run.
      thin(timestamps_);
      for (Series& s : series_) thin(s.values);
      stride_ *= 2;
    }
    sample_ts_ = frame.ts;
    keep_ = samples_taken_++ % stride_ == 0;
    if (keep_) timestamps_.push_back(frame.ts);
  }
  if (!keep_) return;
  for (const Snapshot::Gauge& g : frame.gauges) {
    series_for(frame.proc, g.name).values.push_back(g.value);
  }
}

Probes::Series& Probes::series_for(ProcessId p, const std::string& name) {
  const auto it = std::find_if(series_.begin(), series_.end(), [&](const Series& s) {
    return s.proc == p && s.name == name;
  });
  if (it != series_.end()) return *it;
  series_.push_back({p, name, {}});
  return series_.back();
}

}  // namespace gcs::obs
