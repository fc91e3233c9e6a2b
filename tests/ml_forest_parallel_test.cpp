// Determinism of threaded forest training (save() bytes must not depend on
// train_threads), equivalence of the flattened SoA tree representation with a
// plain node-walk over the persisted model, batched-vs-scalar prediction
// equality, and full ForestOptions persistence.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/multilabel.h"
#include "ml/random_forest.h"

namespace smartflux::ml {
namespace {

Dataset make_noisy_blobs(std::size_t n, std::size_t features, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(features);
  std::vector<double> x(features);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    for (auto& v : x) v = rng.normal(label == 1 ? 1.0 : 0.0, 1.0);
    d.add(x, rng.bernoulli(0.1) ? 1 - label : label);
  }
  return d;
}

std::string save_bytes(const RandomForest& forest) {
  std::ostringstream os;
  forest.save(os);
  return os.str();
}

TEST(ParallelForest, ThreadedFitSaveBytesIdenticalToSerial) {
  const Dataset data = make_noisy_blobs(600, 6, 1);
  RandomForest serial(ForestOptions{.num_trees = 24, .train_threads = 0}, 42);
  RandomForest threaded(ForestOptions{.num_trees = 24, .train_threads = 4}, 42);
  serial.fit(data);
  threaded.fit(data);
  EXPECT_EQ(save_bytes(serial), save_bytes(threaded));
  // OOB votes are merged in tree order after the barrier, so the accuracy
  // estimate is bit-identical too.
  EXPECT_EQ(serial.oob_accuracy(), threaded.oob_accuracy());
}

TEST(ParallelForest, ThreadCountDoesNotChangePredictions) {
  const Dataset data = make_noisy_blobs(400, 4, 2);
  RandomForest two(ForestOptions{.num_trees = 16, .train_threads = 2}, 7);
  RandomForest eight(ForestOptions{.num_trees = 16, .train_threads = 8}, 7);
  two.fit(data);
  eight.fit(data);
  Rng rng(3);
  std::vector<double> x(4);
  for (int i = 0; i < 200; ++i) {
    for (auto& v : x) v = rng.uniform(-2.0, 3.0);
    ASSERT_EQ(two.predict_score(x), eight.predict_score(x));
  }
}

/// Minimal independent reader for the persisted tree format, used as a
/// reference node-walk the flattened arrays must agree with.
struct WalkNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  int majority = 0;
  std::vector<double> distribution;
};

struct WalkTree {
  std::size_t num_features = 0;
  std::vector<WalkNode> nodes;

  static WalkTree parse(std::istream& is) {
    WalkTree t;
    std::string magic;
    std::size_t num_classes = 0, depth = 0, count = 0;
    EXPECT_TRUE(static_cast<bool>(is >> magic >> t.num_features >> num_classes >> depth >> count));
    EXPECT_EQ(magic, "tree");
    t.nodes.resize(count);
    for (auto& node : t.nodes) {
      std::size_t dist_size = 0;
      EXPECT_TRUE(static_cast<bool>(is >> node.feature >> node.threshold >> node.left >>
                                    node.right >> node.majority >> dist_size));
      node.distribution.resize(dist_size);
      for (auto& p : node.distribution) EXPECT_TRUE(static_cast<bool>(is >> p));
    }
    return t;
  }

  const WalkNode& walk(std::span<const double> x) const {
    const WalkNode* node = &nodes.front();
    while (node->left != -1) {
      node = &nodes[static_cast<std::size_t>(
          x[static_cast<std::size_t>(node->feature)] <= node->threshold ? node->left
                                                                        : node->right)];
    }
    return *node;
  }
};

TEST(FlattenedTree, MatchesReferenceNodeWalkOverRandomInputs) {
  const Dataset data = make_noisy_blobs(500, 3, 4);
  DecisionTree tree(TreeOptions{.max_depth = 10, .min_samples_leaf = 2});
  tree.fit(data);

  std::stringstream ss;
  tree.save(ss);
  const WalkTree reference = WalkTree::parse(ss);
  ASSERT_EQ(reference.nodes.size(), tree.node_count());

  Rng rng(5);
  std::vector<double> x(3);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : x) v = rng.uniform(-3.0, 4.0);
    const WalkNode& leaf = reference.walk(x);
    ASSERT_EQ(tree.predict(x), leaf.majority);
    const double ref_score = leaf.distribution.size() > 1 ? leaf.distribution[1] : 0.0;
    ASSERT_EQ(tree.predict_score(x), ref_score);
    ASSERT_EQ(tree.leaf_distribution(x), leaf.distribution);
  }
}

TEST(FlattenedTree, BatchedScoresBitIdenticalToScalar) {
  const Dataset data = make_noisy_blobs(500, 5, 6);
  RandomForest forest(ForestOptions{.num_trees = 20}, 9);
  forest.fit(data);

  Rng rng(7);
  const std::size_t rows = 300;
  std::vector<double> matrix(rows * 5);
  for (auto& v : matrix) v = rng.uniform(-2.0, 3.0);

  std::vector<double> batched(rows);
  forest.predict_scores(matrix, rows, batched);
  std::vector<int> batched_pred(rows);
  forest.predict_batch(matrix, rows, batched_pred);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::span<const double> row{matrix.data() + i * 5, 5};
    ASSERT_EQ(batched[i], forest.predict_score(row));
    ASSERT_EQ(batched_pred[i], forest.predict(row));
  }
}

TEST(ForestPersistence2, FullOptionsRoundTrip) {
  const Dataset data = make_noisy_blobs(300, 4, 8);
  ForestOptions opts;
  opts.num_trees = 10;
  opts.bootstrap_fraction = 0.7;
  opts.decision_threshold = 0.35;
  opts.tree.max_depth = 6;
  opts.tree.min_samples_leaf = 3;
  opts.tree.min_samples_split = 7;
  opts.tree.max_features = 2;
  opts.tree.positive_class_weight = 4.0;
  RandomForest forest(opts, 11);
  forest.fit(data);

  std::stringstream ss;
  forest.save(ss);
  const RandomForest loaded = RandomForest::load(ss);
  const ForestOptions& got = loaded.options();
  EXPECT_EQ(got.num_trees, opts.num_trees);
  EXPECT_EQ(got.bootstrap_fraction, opts.bootstrap_fraction);
  EXPECT_EQ(got.decision_threshold, opts.decision_threshold);
  EXPECT_EQ(got.tree.max_depth, opts.tree.max_depth);
  EXPECT_EQ(got.tree.min_samples_leaf, opts.tree.min_samples_leaf);
  EXPECT_EQ(got.tree.min_samples_split, opts.tree.min_samples_split);
  EXPECT_EQ(got.tree.max_features, opts.tree.max_features);
  EXPECT_EQ(got.tree.positive_class_weight, opts.tree.positive_class_weight);

  // A re-fit of the loaded forest now uses the same options as the original
  // (previously bootstrap_fraction and the tree options silently reset).
  RandomForest refit_original(opts, 13);
  RandomForest refit_loaded(loaded.options(), 13);
  refit_original.fit(data);
  refit_loaded.fit(data);
  EXPECT_EQ(save_bytes(refit_original), save_bytes(refit_loaded));
}

TEST(BinaryRelevanceBatch, MatchesScalarPredictions) {
  Rng rng(11);
  MultiLabelDataset data(3, 3);
  std::vector<double> x(3);
  std::vector<int> labels(3);
  for (int i = 0; i < 250; ++i) {
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    labels[0] = x[0] > 0.5 ? 1 : 0;
    labels[1] = x[1] + x[2] > 1.0 ? 1 : 0;
    labels[2] = 1;  // constant label exercises the constant-model path
    data.add(x, labels);
  }
  BinaryRelevance model([] {
    return std::make_unique<RandomForest>(ForestOptions{.num_trees = 12}, 5);
  });
  model.fit(data);

  const auto batch_pred = model.predict_batch(data.feature_matrix(), data.size());
  const auto batch_scores = model.predict_scores_batch(data.feature_matrix(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto pred = model.predict(data.features(i));
    const auto scores = model.predict_scores(data.features(i));
    for (std::size_t l = 0; l < 3; ++l) {
      ASSERT_EQ(batch_pred[i * 3 + l], pred[l]);
      ASSERT_EQ(batch_scores[i * 3 + l], scores[l]);
    }
  }
}

}  // namespace
}  // namespace smartflux::ml
