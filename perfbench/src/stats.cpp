#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - index - 1 < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::optional<double> grouped_percentile(const std::vector<std::vector<double>>& groups,
                                         double q) {
  std::vector<double> per_group;
  for (const std::vector<double>& g : groups) {
    if (const auto v = percentile(g, q)) per_group.push_back(*v);
  }
  if (per_group.empty() || per_group.size() * 2 <= groups.size()) return std::nullopt;
  return median(per_group);
}

}  // namespace perfbench
