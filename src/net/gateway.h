#pragma once

#include <functional>
#include <string>

#include "net/bridge.h"
#include "net/router.h"

namespace smartflux::ds {
class DataStore;
}
namespace smartflux::obs {
class MetricsRegistry;
}
namespace smartflux::core {
class SmartFluxEngine;
}
namespace smartflux::wms {
class StepRegistry;
class WorkflowSpec;
}  // namespace smartflux::wms

namespace smartflux::net {

/// What the HTTP gateway exposes, all optional — unset surfaces simply
/// don't register their routes. Every pointer is borrowed and must outlive
/// the server.
struct GatewayOptions {
  /// GET /get?table=&row=&col= and GET /scan?table=[&column=][&prefix=]
  /// (DataStore is internally thread-safe, so reads run on the server loop
  /// thread concurrently with engine waves without blocking ingest).
  ds::DataStore* store = nullptr;
  /// POST /ingest/<table> — newline-delimited `row,col,value` records,
  /// parsed in place as spans over the request body; the body itself is
  /// moved into the bridge as the backing arena, so no row text is copied
  /// between socket buffer and store.
  IngestBridge* ingest = nullptr;
  /// GET /metrics — Prometheus text exposition of the registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// GET /status — the phase field (otherwise reported as "unknown").
  const core::SmartFluxEngine* smartflux = nullptr;
  /// POST /workflow — XML workflow definitions (the paper's §4.2 schema)
  /// validated against this step registry (not owned). Null = route absent.
  const wms::StepRegistry* workflow_steps = nullptr;
  /// Called after a POSTed workflow parses, with the validated spec; returns
  /// extra JSON fields ("\"installed\":true") appended into the 200 body.
  /// Runs on a server loop thread — hand the spec off, don't execute it.
  /// Null = the route only validates and reports the spec's shape.
  std::function<std::string(wms::WorkflowSpec&&)> install_workflow;
  /// POST /wave/run — app-provided wave submission. The hook is called on
  /// the server loop thread with the requested wave count and must return
  /// quickly (enqueue, don't compute); it reports back a JSON object body.
  /// Null = the route returns 503 "no wave driver attached".
  std::function<std::string(std::size_t count)> run_waves;
  /// Extra JSON fields appended verbatim into the /status object, e.g.
  /// "\"waves_run\":12" — must be thread-safe against the loop thread.
  std::function<std::string()> status_extra;
};

/// Builds the standard SmartFlux route table:
///
///   POST /ingest/<table>  batched cell ingest (503 + Retry-After under
///                         backpressure — see IngestBridge)
///   GET  /get             point read as JSON
///   GET  /scan            container dump: text lines `row,col,value`, or
///                         NDJSON with ?format=ndjson; add ?stream=1 for a
///                         chunked response that walks the snapshot as the
///                         socket drains (bounded memory per connection)
///   POST /workflow        XML workflow upload (400 + diagnostics on bad XML)
///   GET  /status          engine/bridge introspection JSON
///   POST /wave/run        workflow submission (?count=N, default 1)
///   GET  /metrics         Prometheus text exposition
Router make_gateway_router(GatewayOptions options);

}  // namespace smartflux::net
