/// \file stats.hpp
/// Order statistics for the benchmark report.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported percentile. A percentile with
/// fewer samples past it is an extreme of a handful of points, not a tail.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank \p q-quantile (0 < q < 1) of \p samples, or nullopt when
/// fewer than kMinBeyond samples lie strictly beyond its rank.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of \p values (mean of the middle pair for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// The \p q-quantile of each group, then the median across the groups
/// that have one; nullopt unless more than half of the groups do.
std::optional<double> grouped_percentile(const std::vector<std::vector<double>>& groups,
                                         double q);

}  // namespace perfbench
