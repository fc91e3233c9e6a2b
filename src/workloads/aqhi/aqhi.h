#pragma once

#include <cstdint>
#include <memory>

#include "datastore/types.h"
#include "wms/engine.h"
#include "wms/workflow_spec.h"

namespace smartflux::workloads {

/// Parameters of the Air Quality Health Index workload (paper §5.1, Fig. 6):
/// a grid of detectors, each with three sensors (O₃, PM2.5, NO₂) whose
/// generating functions return 0–100 with smooth variation across space and
/// time; one wave corresponds to one hour of the day.
struct AqhiParams {
  std::size_t grid = 14;            ///< detectors per side (14×14 = 196 ≈ paper's θ:200)
  std::size_t zone = 2;             ///< zone side length in detectors (σ zones)
  double hotspot_threshold = 55.0;  ///< concentration above which a zone is a hotspot
  /// Uniform max_ε for all error-tolerant steps (the paper sweeps 5/10/20%).
  double max_error = 0.10;
  std::uint64_t seed = 2018;
};

/// Builder for the 6-step AQHI workflow:
///
///   1_feed (sync) → 2_concentration → 3a_zones → 4_hotspots → 5_index
///                                   ↘ 3b_interzones
///
/// Steps 2..5 are error-tolerant with the configured bound. The sensor field
/// is a pure function of (seed, wave, detector): two runs over the same waves
/// produce identical data, which the Experiment harness relies on.
class AqhiWorkload {
 public:
  explicit AqhiWorkload(AqhiParams params);

  wms::WorkflowSpec make_workflow() const;

  /// Compute-only variant for pipelined execution: steps 2..5 with no 1_feed
  /// — the sensor batch arrives out-of-band via make_ingest() before each
  /// wave (WorkflowEngine::run_waves_pipelined), so wave w+1's feed overlaps
  /// wave w's compute. Both variants write identical data for the same waves.
  wms::WorkflowSpec make_compute_workflow() const;

  /// The 1_feed body as a pipeline ingest callback: writes wave w's full
  /// sensor grid as a single batch through the bound client.
  wms::WaveIngest make_ingest() const;

  /// Raw sensor values (0–100). pollutant: 0 = O₃, 1 = PM2.5, 2 = NO₂.
  double sensor(std::size_t pollutant, std::size_t x, std::size_t y,
                ds::Timestamp wave) const;
  /// The multiplicative combined concentration of one detector (step 2).
  double concentration(std::size_t x, std::size_t y, ds::Timestamp wave) const;

  const AqhiParams& params() const noexcept { return *params_; }
  std::size_t num_detectors() const noexcept;
  std::size_t zones_per_side() const noexcept;

 private:
  wms::WorkflowSpec make_workflow_impl(bool with_feed) const;

  std::shared_ptr<const AqhiParams> params_;  // shared with the step closures
};

}  // namespace smartflux::workloads
