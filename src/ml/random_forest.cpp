#include "ml/random_forest.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartflux::ml {

RandomForest::RandomForest(ForestOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  SF_CHECK(options_.num_trees >= 1, "a forest needs at least one tree");
  SF_CHECK(options_.bootstrap_fraction > 0.0, "bootstrap_fraction must be positive");
  SF_CHECK(options_.decision_threshold > 0.0 && options_.decision_threshold < 1.0,
           "decision_threshold must be in (0, 1)");
  if (options_.metrics != nullptr) {
    auto& reg = *options_.metrics;
    const obs::Labels labels{{"model", "random_forest"}};
    train_duration_ = &reg.histogram("sf_ml_train_duration_seconds", obs::duration_buckets(),
                                     labels, "Classifier fit duration");
    predict_duration_ = &reg.histogram("sf_ml_predict_duration_seconds", obs::duration_buckets(),
                                       labels, "Batched scoring pass duration");
    trees_gauge_ = &reg.gauge("sf_ml_forest_trees", labels, "Trees in the last fitted forest");
  }
}

void RandomForest::fit(const Dataset& data) {
  SF_CHECK(!data.empty(), "cannot fit a forest on an empty dataset");
  obs::Span fit_span = obs::start_span(options_.tracer, "forest_fit", "ml");
  const auto fit_start = std::chrono::steady_clock::now();
  trees_.clear();
  num_classes_ = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    num_classes_ = std::max(num_classes_, static_cast<std::size_t>(data.label(i)) + 1);
  }

  TreeOptions tree_opts = options_.tree;
  if (tree_opts.max_features == 0) {
    // WEKA-style default: log2(F) + 1 candidate features per split. For the
    // low-dimensional feature vectors SmartFlux produces this examines more
    // features than sqrt(F) would, which matters when one feature (the
    // step's own impact) carries most of the signal.
    tree_opts.max_features = static_cast<std::size_t>(
        std::max(1.0, std::floor(std::log2(static_cast<double>(data.num_features()))) + 1.0));
  }

  const auto sample_size = static_cast<std::size_t>(
      std::max(1.0, options_.bootstrap_fraction * static_cast<double>(data.size())));

  // Draw every per-tree bootstrap sample and seed from the forest RNG up
  // front, in the order the serial loop consumed it. Tree fitting then has no
  // shared mutable state, so it can run on any number of threads and still
  // produce a bit-identical forest.
  const std::size_t num_trees = options_.num_trees;
  std::vector<std::vector<std::size_t>> bootstraps(num_trees);
  std::vector<std::uint64_t> seeds(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    bootstraps[t].resize(sample_size);
    for (auto& idx : bootstraps[t]) idx = rng_.uniform_index(data.size());
    seeds[t] = rng_();
  }

  // Out-of-bag predictions per tree (-1 = in bag), merged after the barrier.
  trees_.resize(num_trees);
  std::vector<std::vector<std::int32_t>> oob_pred(num_trees);

  auto fit_one = [&](std::size_t t) {
    DecisionTree tree(tree_opts, seeds[t]);
    tree.fit_indices(data, bootstraps[t]);
    std::vector<char> in_bag(data.size(), 0);
    for (std::size_t idx : bootstraps[t]) in_bag[idx] = 1;
    auto& pred = oob_pred[t];
    pred.assign(data.size(), -1);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!in_bag[i]) pred[i] = tree.predict(data.features(i));
    }
    trees_[t] = std::move(tree);
  };

  if (options_.train_threads > 1) {
    ThreadPool pool(options_.train_threads);
    pool.parallel_for(num_trees, fit_one);
  } else {
    for (std::size_t t = 0; t < num_trees; ++t) fit_one(t);
  }

  // Merge OOB votes in tree order — the same accumulation the serial
  // tree-at-a-time loop performed.
  std::vector<std::vector<double>> oob_votes(data.size(), std::vector<double>(num_classes_, 0.0));
  for (std::size_t t = 0; t < num_trees; ++t) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::int32_t c = oob_pred[t][i];
      if (c >= 0 && static_cast<std::size_t>(c) < num_classes_) {
        oob_votes[i][static_cast<std::size_t>(c)] += 1.0;
      }
    }
  }

  std::size_t evaluated = 0, correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& votes = oob_votes[i];
    double total = 0.0;
    for (double v : votes) total += v;
    if (total == 0.0) continue;
    const auto best =
        static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
    ++evaluated;
    if (best == data.label(i)) ++correct;
  }
  oob_accuracy_ = evaluated == 0
                      ? std::nan("")
                      : static_cast<double>(correct) / static_cast<double>(evaluated);

  if (train_duration_ != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - fit_start;
    train_duration_->observe(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) *
        1e-9);
    trees_gauge_->set(static_cast<double>(trees_.size()));
  }
}

double RandomForest::predict_score(std::span<const double> x) const {
  if (trees_.empty()) throw StateError("RandomForest::predict called before fit");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict_score(x);
  return sum / static_cast<double>(trees_.size());
}

void RandomForest::predict_scores(std::span<const double> rows, std::size_t num_rows,
                                  std::span<double> out) const {
  if (num_rows == 0) return;
  if (trees_.empty()) throw StateError("RandomForest::predict called before fit");
  std::chrono::steady_clock::time_point t0;
  if (predict_duration_ != nullptr) t0 = std::chrono::steady_clock::now();
  SF_CHECK(rows.size() % num_rows == 0, "row matrix width mismatch");
  SF_CHECK(out.size() >= num_rows, "output span too small");
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(num_rows), 0.0);
  std::vector<double> tree_scores(num_rows);
  for (const auto& tree : trees_) {
    // Accumulate in tree order so the sum is bitwise the same as the scalar
    // predict_score loop over trees_.
    tree.predict_scores(rows, num_rows, tree_scores);
    for (std::size_t i = 0; i < num_rows; ++i) out[i] += tree_scores[i];
  }
  for (std::size_t i = 0; i < num_rows; ++i) out[i] /= static_cast<double>(trees_.size());
  if (predict_duration_ != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    predict_duration_->observe(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) *
        1e-9);
  }
}

void RandomForest::predict_batch(std::span<const double> rows, std::size_t num_rows,
                                 std::span<int> out) const {
  if (num_rows == 0) return;
  if (trees_.empty()) throw StateError("RandomForest::predict called before fit");
  if (num_classes_ <= 2) {
    std::vector<double> scores(num_rows);
    predict_scores(rows, num_rows, scores);
    for (std::size_t i = 0; i < num_rows; ++i) {
      out[i] = scores[i] >= options_.decision_threshold ? 1 : 0;
    }
    return;
  }
  Classifier::predict_batch(rows, num_rows, out);  // multiclass: per-row vote
}

void RandomForest::save(std::ostream& os) const {
  if (trees_.empty()) throw StateError("cannot save an unfitted RandomForest");
  os.precision(17);
  os << "forest2 " << trees_.size() << ' ' << num_classes_ << ' '
     << options_.decision_threshold << ' ' << oob_accuracy_ << ' '
     << options_.bootstrap_fraction << ' ' << options_.tree.max_depth << ' '
     << options_.tree.min_samples_leaf << ' ' << options_.tree.min_samples_split << ' '
     << options_.tree.max_features << ' ' << options_.tree.positive_class_weight << '\n';
  for (const auto& tree : trees_) tree.save(os);
}

RandomForest RandomForest::load(std::istream& is) {
  std::string magic;
  std::size_t num_trees = 0;
  std::size_t num_classes = 0;
  ForestOptions options;
  double oob = 0.0;
  if (!(is >> magic) || magic != "forest2" ||
      !(is >> num_trees >> num_classes >> options.decision_threshold >> oob >>
        options.bootstrap_fraction >> options.tree.max_depth >> options.tree.min_samples_leaf >>
        options.tree.min_samples_split >> options.tree.max_features >>
        options.tree.positive_class_weight)) {
    throw InvalidArgument("malformed RandomForest stream (bad header)");
  }
  SF_CHECK(num_trees >= 1, "RandomForest stream declares no trees");
  options.num_trees = num_trees;
  RandomForest forest(options);
  forest.num_classes_ = num_classes;
  forest.oob_accuracy_ = oob;
  forest.trees_.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) forest.trees_.push_back(DecisionTree::load(is));
  return forest;
}

int RandomForest::predict(std::span<const double> x) const {
  if (trees_.empty()) throw StateError("RandomForest::predict called before fit");
  if (num_classes_ <= 2) {
    return predict_score(x) >= options_.decision_threshold ? 1 : 0;
  }
  std::vector<double> votes(num_classes_, 0.0);
  for (const auto& tree : trees_) {
    const auto dist = tree.leaf_distribution(x);
    for (std::size_t c = 0; c < dist.size() && c < num_classes_; ++c) votes[c] += dist[c];
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace smartflux::ml
