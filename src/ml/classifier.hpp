// Abstract classifier interface shared by every model in the pipeline.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace rush::ml {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on the dataset. `sample_weights` (if non-empty) must have one
  /// entry per row; models that cannot honor weights ignore them.
  virtual void fit(const Dataset& data, std::span<const double> sample_weights = {}) = 0;

  /// Predicted class label for one feature vector.
  [[nodiscard]] virtual int predict(std::span<const double> x) const = 0;

  /// Per-class scores summing to 1 (vote fractions / weighted votes)
  /// written into `out` (size num_classes()). The compiled-tree models
  /// walk their flat arrays without allocating.
  virtual void predict_proba_into(std::span<const double> x, std::span<double> out) const = 0;

  /// Scores into `out` plus the argmax label in one call — the zero-alloc
  /// steady-state entry point (given a zero-alloc predict_proba_into).
  int predict_into(std::span<const double> x, std::span<double> out) const {
    predict_proba_into(x, out);
    int best = 0;
    for (std::size_t c = 1; c < out.size(); ++c) {
      if (out[c] > out[static_cast<std::size_t>(best)]) best = static_cast<int>(c);
    }
    return best;
  }

  /// Batched labels for every row of `data` into `out` (size
  /// data.rows()). Overrides reuse one scratch buffer across all rows.
  virtual void predict_many(const Dataset& data, std::span<int> out) const;

  [[nodiscard]] virtual int num_classes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t num_features() const noexcept = 0;
  [[nodiscard]] virtual bool is_fitted() const noexcept = 0;

  /// Model type tag used by the serialization registry ("extra_trees"...).
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Per-feature importance scores summing to 1; empty if the model has
  /// no native notion of importance (e.g., KNN).
  [[nodiscard]] virtual std::vector<double> feature_importances() const { return {}; }

  /// Unfitted copy with the same hyperparameters (for cross-validation).
  [[nodiscard]] virtual std::unique_ptr<Classifier> clone_config() const = 0;

  /// Serialize the fitted model (type-specific body; see serialize.hpp for
  /// the framed container format).
  virtual void save_body(std::ostream& os) const = 0;
  virtual void load_body(std::istream& is) = 0;
};

}  // namespace rush::ml
