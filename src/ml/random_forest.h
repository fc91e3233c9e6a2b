#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "ml/decision_tree.h"

namespace smartflux::obs {
class MetricsRegistry;
class Tracer;
class Gauge;
class Histogram;
}  // namespace smartflux::obs

namespace smartflux::ml {

struct ForestOptions {
  std::size_t num_trees = 64;
  TreeOptions tree{};
  /// Fraction of the training set drawn (with replacement) per tree.
  double bootstrap_fraction = 1.0;
  /// Score threshold above which class 1 is predicted; lowering it below 0.5
  /// trades precision for recall (paper §3.2 / §5.2: the LRB classifier is
  /// optimized for recall).
  double decision_threshold = 0.5;
  /// Worker threads fit() uses to train trees concurrently; 0 or 1 = serial.
  /// Training is deterministic either way: every per-tree seed and bootstrap
  /// sample is drawn from the forest RNG up front in serial order, so the
  /// fitted forest — including its save() bytes — is identical at any thread
  /// count. Execution policy only: not serialized by save()/load().
  std::size_t train_threads = 0;
  /// Observability sinks (neither owned; null = no instrumentation). Fit and
  /// batched scoring report durations and tree counts under sf_ml_* metrics;
  /// fits also record "forest_fit" spans. Like train_threads, execution
  /// policy only: not serialized by save()/load().
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Random Forest (Breiman 2001): bagged CART trees with per-split feature
/// subsampling. The default classifier of SmartFlux (paper §3.2: best mean
/// ROC area, 0.86, across both benchmark workloads).
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestOptions options = {}, std::uint64_t seed = 1);

  void fit(const Dataset& data) override;
  int predict(std::span<const double> x) const override;
  /// Fraction of trees voting for class 1 (binary); mean posterior otherwise.
  double predict_score(std::span<const double> x) const override;
  /// Batched scoring, tree-major: each flattened tree makes one pass over the
  /// whole batch while its arrays stay in cache. Bit-identical to per-row
  /// predict_score (same tree summation order).
  void predict_scores(std::span<const double> rows, std::size_t num_rows,
                      std::span<double> out) const override;
  /// Batched decisions; binary forests reuse the batched scoring pass.
  void predict_batch(std::span<const double> rows, std::size_t num_rows,
                     std::span<int> out) const override;
  bool is_fitted() const noexcept override { return !trees_.empty(); }
  std::string name() const override { return "RandomForest"; }

  std::size_t num_trees() const noexcept { return trees_.size(); }
  const ForestOptions& options() const noexcept { return options_; }

  /// Out-of-bag accuracy estimate from the last fit (NaN if bootstrap
  /// produced no OOB samples, e.g. bootstrap_fraction heavily > 1).
  double oob_accuracy() const noexcept { return oob_accuracy_; }

  /// Persists the fitted forest (trees + the full ForestOptions except
  /// train_threads, which is an execution policy, not part of the model);
  /// load() restores a forest making identical predictions and whose
  /// options() — and therefore any re-fit — match the saved forest. Any
  /// header other than "forest2" throws InvalidArgument.
  void save(std::ostream& os) const;
  static RandomForest load(std::istream& is);

 private:
  ForestOptions options_;
  Rng rng_;
  std::vector<DecisionTree> trees_;
  std::size_t num_classes_ = 0;
  double oob_accuracy_ = 0.0;
  // Metric handles resolved once at construction when options_.metrics is set.
  obs::Histogram* train_duration_ = nullptr;
  obs::Histogram* predict_duration_ = nullptr;
  obs::Gauge* trees_gauge_ = nullptr;
};

}  // namespace smartflux::ml
