// Per-feature standardization (zero mean, unit variance).
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace rush::ml {

class StandardScaler {
 public:
  void fit(const Dataset& data);

  [[nodiscard]] bool is_fitted() const noexcept { return !means_.empty(); }
  [[nodiscard]] std::size_t num_features() const noexcept { return means_.size(); }

  /// Scaled copy of one feature vector. Constant features map to 0.
  [[nodiscard]] std::vector<double> transform(std::span<const double> x) const;

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;  // 1.0 substituted for constant features
};

}  // namespace rush::ml
