#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dpn {

/// Median of the q-th quarter (0..3) of `values`, taken in insertion
/// order.  `values` must not be empty.
inline double quarter_median(const std::vector<double>& values,
                             std::size_t q) {
  const std::size_t begin = values.size() * q / 4;
  const std::size_t end = std::max(begin + 1, values.size() * (q + 1) / 4);
  std::vector<double> part(values.begin() + static_cast<long>(begin),
                           values.begin() + static_cast<long>(end));
  const auto mid = part.begin() + static_cast<long>(part.size() / 2);
  std::nth_element(part.begin(), mid, part.end());
  return *mid;
}

/// Median of the last quarter of `values` over that of the first: about
/// 1 when every step of a sequence costs the same, and rising with its
/// length when each step costs more than the one before it.
inline double quarter_growth(const std::vector<double>& values) {
  return quarter_median(values, 3) / quarter_median(values, 0);
}

}  // namespace dpn
