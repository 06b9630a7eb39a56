#include "ml/scaler.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace rush::ml {

void StandardScaler::fit(const Dataset& data) {
  RUSH_EXPECTS(!data.empty());
  const std::size_t d = data.cols();
  means_.assign(d, 0.0);
  stddevs_.assign(d, 0.0);
  const double n = static_cast<double>(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < d; ++f) means_[f] += row[f];
  }
  for (double& m : means_) m /= n;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < d; ++f) {
      const double delta = row[f] - means_[f];
      stddevs_[f] += delta * delta;
    }
  }
  for (double& s : stddevs_) {
    s = std::sqrt(s / n);
    if (s <= 0.0) s = 1.0;
  }
}

std::vector<double> StandardScaler::transform(std::span<const double> x) const {
  std::vector<double> out(x.size());
  transform_into(x, out);
  return out;
}

void StandardScaler::transform_into(std::span<const double> x, std::span<double> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == means_.size());
  RUSH_EXPECTS(out.size() == x.size());
  for (std::size_t f = 0; f < x.size(); ++f) out[f] = (x[f] - means_[f]) / stddevs_[f];
}

Dataset StandardScaler::transform(const Dataset& data) const {
  RUSH_EXPECTS(data.cols() == means_.size());
  Dataset out(data.feature_names());
  for (std::size_t i = 0; i < data.rows(); ++i)
    out.add_row(transform(data.row(i)), data.label(i), data.group(i));
  return out;
}

void StandardScaler::save(std::ostream& os) const {
  RUSH_EXPECTS(is_fitted());
  os << "scaler " << means_.size() << "\n";
  os.precision(17);
  for (std::size_t f = 0; f < means_.size(); ++f)
    os << means_[f] << " " << stddevs_[f] << "\n";
}

void StandardScaler::load(std::istream& is) {
  std::string tag;
  std::size_t d = 0;
  is >> tag >> d;
  if (tag != "scaler" || d == 0) throw ParseError("scaler: bad header");
  means_.clear();
  stddevs_.clear();
  for (std::size_t f = 0; f < d; ++f) {
    double mean = 0.0;
    double stddev = 0.0;
    if (!(is >> mean >> stddev)) throw ParseError("scaler: malformed body");
    means_.push_back(mean);
    stddevs_.push_back(stddev);
  }
}

}  // namespace rush::ml
