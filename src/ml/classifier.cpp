#include "ml/classifier.hpp"

#include "common/error.hpp"

namespace rush::ml {

void Classifier::predict_many(const Dataset& data, std::span<int> out) const {
  RUSH_EXPECTS(out.size() == data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) out[i] = predict(data.row(i));
}

}  // namespace rush::ml
