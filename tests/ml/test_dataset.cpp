#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rush::ml {
namespace {

Dataset make_small() {
  Dataset d(3);
  d.add_row(std::vector<double>{1, 2, 3}, 0, 10);
  d.add_row(std::vector<double>{4, 5, 6}, 1, 20);
  d.add_row(std::vector<double>{7, 8, 9}, 0, 10);
  return d;
}

TEST(Dataset, BasicAccessors) {
  const Dataset d = make_small();
  EXPECT_EQ(d.rows(), 3u);
  EXPECT_EQ(d.cols(), 3u);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.label(1), 1);
  EXPECT_EQ(d.groups()[1], 20);
  EXPECT_DOUBLE_EQ(d.row(2)[1], 8.0);
  EXPECT_EQ(d.num_classes(), 2);
}

TEST(Dataset, DefaultConstructedInfersWidth) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  d.add_row(std::vector<double>{1, 2}, 0);
  EXPECT_EQ(d.cols(), 2u);
  EXPECT_THROW(d.add_row(std::vector<double>{1, 2, 3}, 0), PreconditionError);
}

TEST(Dataset, ClassCounts) {
  const Dataset d = make_small();
  const auto counts = d.class_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(Dataset, SubsetAllowsRepeats) {
  const Dataset d = make_small();
  const std::vector<std::size_t> rows{2, 2, 0};
  const Dataset s = d.subset(rows);
  ASSERT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 7.0);
  EXPECT_DOUBLE_EQ(s.row(1)[0], 7.0);
  EXPECT_DOUBLE_EQ(s.row(2)[0], 1.0);
  EXPECT_EQ(s.label(2), 0);
}

TEST(Dataset, SelectFeaturesReordersColumns) {
  const Dataset d = make_small();
  const std::vector<std::size_t> cols{2, 0};
  const Dataset s = d.select_features(cols);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(s.row(0)[1], 1.0);
}

TEST(Dataset, ColumnExtraction) {
  const Dataset d = make_small();
  EXPECT_EQ(d.column(1), (std::vector<double>{2, 5, 8}));
}

TEST(Dataset, PreconditionViolations) {
  const Dataset d = make_small();
  EXPECT_THROW((void)d.row(3), PreconditionError);
  EXPECT_THROW((void)d.label(3), PreconditionError);
  EXPECT_THROW((void)d.column(9), PreconditionError);
  EXPECT_THROW((void)d.select_features(std::vector<std::size_t>{}), PreconditionError);
  EXPECT_THROW((void)d.select_features(std::vector<std::size_t>{7}), PreconditionError);
  const std::vector<std::size_t> bad_row{5};
  EXPECT_THROW((void)d.subset(bad_row), PreconditionError);
  EXPECT_THROW((void)Dataset(0), PreconditionError);
  Dataset one_wide(1);
  EXPECT_THROW(one_wide.add_row(std::vector<double>{1.0}, -1), PreconditionError);
}

}  // namespace
}  // namespace rush::ml
