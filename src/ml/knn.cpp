#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace rush::ml {

Knn::Knn(KnnConfig config) : config_(config) { RUSH_EXPECTS(config_.k > 0); }

void Knn::fit(const Dataset& data, std::span<const double> sample_weights) {
  (void)sample_weights;  // KNN has no natural use for boosting weights
  RUSH_EXPECTS(!data.empty());
  num_classes_ = std::max(2, data.num_classes());
  num_features_ = data.cols();
  scaler_.fit(data);

  x_.clear();
  x_.reserve(data.rows() * data.cols());
  labels_.clear();
  labels_.reserve(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto scaled = scaler_.transform(data.row(i));
    x_.insert(x_.end(), scaled.begin(), scaled.end());
    labels_.push_back(data.label(i));
  }
}

void Knn::votes_into(std::span<const double> q, std::span<double> votes,
                     std::vector<std::pair<double, std::size_t>>& dist) const {
  const std::size_t n = labels_.size();
  const std::size_t k = std::min(config_.k, n);

  // Partial selection of the k smallest squared distances.
  dist.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = x_.data() + i * num_features_;
    double d2 = 0.0;
    for (std::size_t f = 0; f < num_features_; ++f) {
      const double delta = q[f] - row[f];
      d2 += delta * delta;
    }
    dist[i] = {d2, i};
  }
  std::nth_element(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k - 1), dist.end());

  std::fill(votes.begin(), votes.end(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto [d2, idx] = dist[i];
    const double w = config_.distance_weighted ? 1.0 / (std::sqrt(d2) + 1e-9) : 1.0;
    votes[static_cast<std::size_t>(labels_[idx])] += w;
    total += w;
  }
  if (total > 0.0)
    for (double& v : votes) v /= total;
}

void Knn::predict_proba_into(std::span<const double> x, std::span<double> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == num_features_);
  RUSH_EXPECTS(out.size() == static_cast<std::size_t>(num_classes_));
  const auto q = scaler_.transform(x);
  std::vector<std::pair<double, std::size_t>> dist;
  votes_into(q, out, dist);
}

int Knn::predict(std::span<const double> x) const {
  std::vector<double> votes(static_cast<std::size_t>(num_classes_));
  return predict_into(x, votes);
}

void Knn::predict_many(const Dataset& data, std::span<int> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(data.cols() == num_features_);
  RUSH_EXPECTS(out.size() == data.rows());
  std::vector<double> q(num_features_);
  std::vector<double> votes(static_cast<std::size_t>(num_classes_));
  std::vector<std::pair<double, std::size_t>> dist;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    scaler_.transform_into(data.row(i), q);
    votes_into(q, votes, dist);
    out[i] = static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
  }
}

std::unique_ptr<Classifier> Knn::clone_config() const { return std::make_unique<Knn>(config_); }

void Knn::save_body(std::ostream& os) const {
  RUSH_EXPECTS(is_fitted());
  os << "k " << config_.k << " " << (config_.distance_weighted ? 1 : 0) << "\n";
  os << "classes " << num_classes_ << "\n";
  os << "features " << num_features_ << "\n";
  os << "rows " << labels_.size() << "\n";
  scaler_.save(os);
  os.precision(17);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    os << labels_[i];
    const double* row = x_.data() + i * num_features_;
    for (std::size_t f = 0; f < num_features_; ++f) os << " " << row[f];
    os << "\n";
  }
}

void Knn::load_body(std::istream& is) {
  std::string tag;
  int weighted = 0;
  std::size_t rows = 0;
  is >> tag >> config_.k >> weighted;
  if (tag != "k" || config_.k == 0) throw ParseError("knn: bad k header");
  config_.distance_weighted = weighted != 0;
  is >> tag >> num_classes_;
  if (tag != "classes" || num_classes_ < 2) throw ParseError("knn: bad classes header");
  is >> tag >> num_features_;
  if (tag != "features" || num_features_ == 0) throw ParseError("knn: bad features header");
  is >> tag >> rows;
  if (tag != "rows" || rows == 0) throw ParseError("knn: bad rows header");
  scaler_.load(is);
  if (scaler_.num_features() != num_features_)
    throw ParseError("knn: scaler width differs from features");
  labels_.clear();
  x_.clear();
  for (std::size_t i = 0; i < rows; ++i) {
    int label = -1;
    is >> label;
    if (!is || label < 0 || label >= num_classes_) throw ParseError("knn: bad row label");
    labels_.push_back(label);
    for (std::size_t f = 0; f < num_features_; ++f) {
      double v = 0.0;
      if (!(is >> v)) throw ParseError("knn: malformed body");
      x_.push_back(v);
    }
  }
}

}  // namespace rush::ml
