#include "ml/scaler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rush::ml {
namespace {

Dataset make_data() {
  Dataset d(3);
  d.add_row(std::vector<double>{1.0, 100.0, 5.0}, 0);
  d.add_row(std::vector<double>{2.0, 200.0, 5.0}, 1);
  d.add_row(std::vector<double>{3.0, 300.0, 5.0}, 0);
  return d;
}

/// Feature `f` of every row of `d`, scaled row by row.
std::vector<double> scaled_column(const StandardScaler& scaler, const Dataset& d,
                                  std::size_t f) {
  std::vector<double> col;
  for (std::size_t i = 0; i < d.rows(); ++i) col.push_back(scaler.transform(d.row(i))[f]);
  return col;
}

TEST(Scaler, TransformedColumnsHaveZeroMeanUnitVariance) {
  const Dataset d = make_data();
  StandardScaler scaler;
  scaler.fit(d);
  for (std::size_t f = 0; f < 2; ++f) {
    const auto col = scaled_column(scaler, d, f);
    EXPECT_NEAR(stats::mean(col), 0.0, 1e-12);
    double squares = 0.0;  // population variance about the zero mean
    for (double x : col) squares += x * x;
    EXPECT_NEAR(squares / static_cast<double>(col.size()), 1.0, 1e-9);
  }
}

TEST(Scaler, ConstantFeatureMapsToZero) {
  const Dataset d = make_data();
  StandardScaler scaler;
  scaler.fit(d);
  for (double v : scaled_column(scaler, d, 2)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Scaler, SaveLoadRoundTrip) {
  const Dataset d = make_data();
  StandardScaler scaler;
  scaler.fit(d);
  std::stringstream ss;
  scaler.save(ss);
  StandardScaler loaded;
  loaded.load(ss);
  // The text keeps 17 digits, so every scaled value comes back bit for bit.
  for (std::size_t i = 0; i < d.rows(); ++i)
    EXPECT_EQ(loaded.transform(d.row(i)), scaler.transform(d.row(i))) << "row " << i;
}

TEST(Scaler, PreconditionViolations) {
  StandardScaler scaler;
  EXPECT_FALSE(scaler.is_fitted());
  EXPECT_THROW((void)scaler.transform(std::vector<double>{1.0}), PreconditionError);
  scaler.fit(make_data());
  EXPECT_THROW((void)scaler.transform(std::vector<double>{1.0}), PreconditionError);
  std::stringstream bad("not-a-scaler");
  StandardScaler loaded;
  EXPECT_THROW(loaded.load(bad), ParseError);
}

}  // namespace
}  // namespace rush::ml
