#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "ml/random_forest.h"

namespace smartflux::ml {
namespace {

Dataset make_blobs(std::size_t n_per_class, double separation, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(3);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    d.add(std::vector<double>{rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)}, 0);
    d.add(std::vector<double>{rng.normal(separation, 1), rng.normal(separation, 1),
                              rng.normal(separation, 1)},
          1);
  }
  return d;
}

TEST(TreePersistence, RoundTripPredictionsIdentical) {
  const Dataset data = make_blobs(150, 2.0, 1);
  DecisionTree tree;
  tree.fit(data);

  std::stringstream ss;
  tree.save(ss);
  const DecisionTree loaded = DecisionTree::load(ss);

  EXPECT_EQ(loaded.node_count(), tree.node_count());
  EXPECT_EQ(loaded.depth(), tree.depth());
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> x{rng.uniform(-3, 5), rng.uniform(-3, 5), rng.uniform(-3, 5)};
    ASSERT_EQ(loaded.predict(x), tree.predict(x));
    ASSERT_EQ(loaded.predict_score(x), tree.predict_score(x));
    ASSERT_EQ(loaded.leaf_distribution(x), tree.leaf_distribution(x));
  }
}

TEST(TreePersistence, SaveUnfittedThrows) {
  DecisionTree tree;
  std::stringstream ss;
  EXPECT_THROW(tree.save(ss), smartflux::StateError);
}

TEST(TreePersistence, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(DecisionTree::load(empty), smartflux::InvalidArgument);
  std::stringstream wrong_magic("bush 2 2 1 1\n");
  EXPECT_THROW(DecisionTree::load(wrong_magic), smartflux::InvalidArgument);
  std::stringstream truncated("tree 2 2 1 3\n-1 0 -1 -1 0 2 0.5 0.5\n");
  EXPECT_THROW(DecisionTree::load(truncated), smartflux::InvalidArgument);
  std::stringstream bad_child("tree 2 2 1 1\n0 0.5 5 6 0 2 0.5 0.5\n");
  EXPECT_THROW(DecisionTree::load(bad_child), smartflux::InvalidArgument);
}

TEST(ForestPersistence, RoundTripPredictionsIdentical) {
  const Dataset data = make_blobs(120, 2.0, 3);
  RandomForest forest(ForestOptions{.num_trees = 12, .decision_threshold = 0.3}, 7);
  forest.fit(data);

  std::stringstream ss;
  forest.save(ss);
  const RandomForest loaded = RandomForest::load(ss);

  EXPECT_EQ(loaded.num_trees(), 12u);
  EXPECT_EQ(loaded.options().decision_threshold, 0.3);
  EXPECT_EQ(loaded.oob_accuracy(), forest.oob_accuracy());
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> x{rng.uniform(-3, 5), rng.uniform(-3, 5), rng.uniform(-3, 5)};
    ASSERT_EQ(loaded.predict(x), forest.predict(x));
    ASSERT_EQ(loaded.predict_score(x), forest.predict_score(x));
  }
}

TEST(ForestPersistence, MulticlassRoundTrip) {
  Rng rng(5);
  Dataset d(1);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 60; ++i) d.add(std::vector<double>{rng.normal(c * 4.0, 0.5)}, c);
  }
  RandomForest forest(ForestOptions{.num_trees = 8}, 6);
  forest.fit(d);
  std::stringstream ss;
  forest.save(ss);
  const RandomForest loaded = RandomForest::load(ss);
  for (double x = -1.0; x <= 9.0; x += 0.25) {
    ASSERT_EQ(loaded.predict(std::vector<double>{x}), forest.predict(std::vector<double>{x}));
  }
}

TEST(ForestPersistence, SaveUnfittedThrows) {
  RandomForest forest;
  std::stringstream ss;
  EXPECT_THROW(forest.save(ss), smartflux::StateError);
}

TEST(ForestPersistence, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(RandomForest::load(empty), smartflux::InvalidArgument);
  std::stringstream zero_trees("forest2 0 2 0.5 0.9 1 12 1 2 0 1\n");
  EXPECT_THROW(RandomForest::load(zero_trees), smartflux::InvalidArgument);
  std::stringstream missing_trees("forest2 2 2 0.5 0.9 1 12 1 2 0 1\n");
  EXPECT_THROW(RandomForest::load(missing_trees), smartflux::InvalidArgument);
  std::stringstream short_header("forest2 2 2 0.5 0.9\n");
  EXPECT_THROW(RandomForest::load(short_header), smartflux::InvalidArgument);

  // Unknown magic throws even when the rest of the stream is well formed —
  // including the retired v1 "forest" header.
  RandomForest forest(ForestOptions{.num_trees = 2}, 3);
  forest.fit(make_blobs(40, 2.0, 4));
  std::stringstream saved;
  forest.save(saved);
  const std::string text = saved.str();
  ASSERT_EQ(text.rfind("forest2 ", 0), 0u);
  for (const char* magic : {"forest", "forest3", "tree"}) {
    std::stringstream renamed(magic + text.substr(text.find(' ')));
    EXPECT_THROW(RandomForest::load(renamed), smartflux::InvalidArgument) << magic;
  }
  std::stringstream intact(text);
  EXPECT_EQ(RandomForest::load(intact).num_trees(), 2u);
}

}  // namespace
}  // namespace smartflux::ml
