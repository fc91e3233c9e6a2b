#include "net/gateway.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "common/format.h"
#include "core/smartflux.h"
#include "datastore/datastore.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "wms/xml_loader.h"

namespace smartflux::net {

namespace {

/// Target size of one streamed scan chunk — big enough to amortize the
/// chunked framing and syscalls, far enough under any sane max_write_buffer
/// that the producer contract ("stay well under the bound") holds.
constexpr std::size_t kScanChunkBytes = 32 * 1024;

Response missing_param(const char* name) {
  return json_response(400, std::string("{\"error\":\"missing query parameter '") + name +
                                "'\"}\n");
}

Response make_refusal_response(const IngestRefusal& refusal) {
  Response r = json_response(503, "{\"error\":\"overloaded\",\"reason\":\"" +
                                      obs::json_escape(refusal.reason) + "\"}\n");
  r.headers.emplace_back("Retry-After", std::to_string(refusal.retry_after_seconds));
  return r;
}

/// Refusals arrive in bursts with the same reason (a gated queue refuses
/// every request until it drains); cache the last formatted response per
/// loop thread instead of reformatting JSON per refused request.
const Response& refusal_response(const IngestRefusal& refusal) {
  thread_local std::string cached_reason;
  thread_local int cached_retry = -1;
  thread_local Response cached;
  if (refusal.reason != cached_reason || refusal.retry_after_seconds != cached_retry) {
    cached = make_refusal_response(refusal);
    cached_reason = refusal.reason;
    cached_retry = refusal.retry_after_seconds;
  }
  return cached;
}

/// The hot 202 — snprintf into a stack buffer instead of four temporary
/// strings of operator+.
Response accepted_response(std::size_t count, std::size_t pending) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof buf, "{\"staged\":%zu,\"pending\":%zu}\n", count,
                              pending);
  return json_response(202, std::string(buf, static_cast<std::size_t>(n)));
}

/// The retry answer: the rows are already staged (or durable), so the ack
/// repeats without re-staging. Same 202 as the original — a client cannot
/// tell (and must not care) whether its first attempt got through.
Response duplicate_response() {
  return json_response(202, "{\"staged\":0,\"duplicate\":true}\n");
}

/// Idempotency key for an ingest request: the Idempotency-Key header
/// verbatim, else a per-source sequence number from ?seq= (scoped by
/// ?source= so independent senders don't collide), else empty (unkeyed).
std::string idempotency_key(const Request& request) {
  if (const std::string* header = request.header("Idempotency-Key")) return *header;
  if (const auto seq = request.query_param("seq")) {
    return "seq:" + request.query_param("source").value_or("") + ":" + *seq;
  }
  return {};
}

void install_ingest(Router& router, IngestBridge* bridge) {
  router.add("POST", "/ingest/<table>",
             [bridge](Request& request, const std::vector<std::string>& params) {
               // A retry of already-accepted work is re-acked *before*
               // admission control: the rows are staged (or durable), so
               // bouncing the retry off a 503 would just make the client
               // hammer an overloaded server for work it already did.
               const std::string key = idempotency_key(request);
               if (!key.empty() && bridge->is_duplicate(params[0], key)) {
                 bridge->report_duplicate();
                 return duplicate_response();
               }
               if (const auto refusal = bridge->admission()) {
                 bridge->report_refusal();
                 return refusal_response(*refusal);
               }
               // Cut spans over the body in place, then move the body itself
               // into the bridge as the batch's arena — one staging call,
               // zero per-row copies.
               std::string error;
               auto spans = parse_ingest_spans(request.body, &error);
               if (!spans) {
                 return json_response(400, "{\"error\":\"" + obs::json_escape(error) + "\"}\n");
               }
               const std::size_t count = spans->size();
               const IngestBridge::StageOutcome outcome = bridge->stage_spans_keyed(
                   params[0], key, std::move(request.body), std::move(*spans));
               if (outcome.duplicate) return duplicate_response();
               return accepted_response(count, bridge->staged_rows());
             });
}

/// One scan line in either output shape. Byte-identical between buffered
/// and streamed responses by construction — both call exactly this.
void append_scan_entry(std::string& out, const ds::FlatEntry& entry, bool ndjson) {
  if (ndjson) {
    out += "{\"row\":\"";
    out += obs::json_escape(*entry.row);
    out += "\",\"col\":\"";
    out += obs::json_escape(*entry.col);
    out += "\",\"value\":";
    append_double(out, entry.value);
    out += "}\n";
  } else {
    out += *entry.row;
    out += ',';
    out += *entry.col;
    out += ',';
    append_double(out, entry.value);
    out += '\n';
  }
}

void install_reads(Router& router, ds::DataStore* store) {
  router.add("GET", "/get",
             [store](const Request& request, const std::vector<std::string>&) {
               const auto table = request.query_param("table");
               const auto row = request.query_param("row");
               const auto col = request.query_param("col");
               if (!table) return missing_param("table");
               if (!row) return missing_param("row");
               if (!col) return missing_param("col");
               const auto value = store->get(*table, *row, *col);
               if (!value) return json_response(404, "{\"error\":\"no such cell\"}\n");
               return json_response(200, "{\"value\":" + format_double(*value) + "}\n");
             });

  // Scans are served from a FlatSnapshot: the container is copied out under
  // the table's shared lock and the response is produced after the lock is
  // gone, so a slow scan never blocks ingest writers. Two delivery modes:
  // buffered (the whole body materializes up front — bounded by the
  // server's write-buffer limit) and ?stream=1, which walks the snapshot in
  // ~32KB chunked slices as the socket drains, so a container of millions
  // of cells streams in constant per-connection memory.
  router.add("GET", "/scan",
             [store](const Request& request, const std::vector<std::string>&) {
               const auto table = request.query_param("table");
               if (!table) return missing_param("table");
               const auto format = request.query_param("format");
               const bool ndjson = format && *format == "ndjson";
               if (format && !ndjson && *format != "csv") {
                 return json_response(400, "{\"error\":\"format must be csv or ndjson\"}\n");
               }
               const auto stream_param = request.query_param("stream");
               const bool stream = stream_param && *stream_param != "0" && *stream_param != "false";
               if (!store->has_table(*table)) {
                 return json_response(404, "{\"error\":\"no such table\"}\n");
               }
               ds::ContainerRef container(*table, request.query_param("column").value_or(""),
                                          request.query_param("prefix").value_or(""));
               const char* content_type =
                   ndjson ? "application/x-ndjson" : "text/plain; charset=utf-8";
               if (!stream) {
                 const ds::FlatSnapshot snapshot = store->snapshot_flat(container);
                 std::string body;
                 body.reserve(snapshot.size() * 32);
                 for (const ds::FlatEntry& entry : snapshot) {
                   append_scan_entry(body, entry, ndjson);
                 }
                 Response r = text_response(200, std::move(body));
                 r.content_type = content_type;
                 return r;
               }
               // Streaming: the snapshot (which pins the interned key
               // strings its entries point into) rides inside the producer
               // and lives exactly as long as the stream.
               auto snapshot = std::make_shared<const ds::FlatSnapshot>(
                   store->snapshot_flat(container));
               Response r;
               r.status = 200;
               r.content_type = content_type;
               r.stream = [snapshot, ndjson, i = std::size_t{0}](std::string& chunk) mutable {
                 const auto& entries = snapshot->entries();
                 while (i < entries.size() && chunk.size() < kScanChunkBytes) {
                   append_scan_entry(chunk, entries[i], ndjson);
                   ++i;
                 }
                 return i < entries.size();
               };
               return r;
             });
}

void install_workflow_route(Router& router, const wms::StepRegistry* steps,
                            std::function<std::string(wms::WorkflowSpec&&)> install) {
  router.add("POST", "/workflow",
             [steps, install = std::move(install)](Request& request,
                                                   const std::vector<std::string>&) {
               std::optional<wms::WorkflowSpec> spec;
               try {
                 spec.emplace(wms::load_workflow_xml(request.body, *steps));
               } catch (const std::exception& e) {
                 // Parse/validation diagnostics (unknown impl, cycles, bad
                 // bounds) go back verbatim — the client wrote the XML.
                 return json_response(
                     400, "{\"error\":\"workflow rejected\",\"detail\":\"" +
                              obs::json_escape(e.what()) + "\"}\n");
               }
               std::string body = "{\"workflow\":\"" + obs::json_escape(spec->name()) +
                                  "\",\"steps\":" + std::to_string(spec->size());
               if (install) {
                 const std::string extra = install(std::move(*spec));
                 if (!extra.empty()) {
                   body += ',';
                   body += extra;
                 }
               }
               body += "}\n";
               return json_response(200, std::move(body));
             });
}

void install_status(Router& router, GatewayOptions options) {
  router.add("GET", "/status",
             [options](const Request&, const std::vector<std::string>&) {
               std::string body = "{";
               body += "\"phase\":\"";
               body += options.smartflux != nullptr ? core::phase_name(options.smartflux->phase())
                                                    : "unknown";
               body += '"';
               if (options.ingest != nullptr) {
                 const IngestBridge::Stats stats = options.ingest->stats();
                 body += ",\"ingest\":{\"staged_rows\":" +
                         std::to_string(options.ingest->staged_rows()) +
                         ",\"rows_staged\":" + std::to_string(stats.rows_staged) +
                         ",\"rows_ingested\":" + std::to_string(stats.rows_ingested) +
                         ",\"waves_ingested\":" + std::to_string(stats.waves_ingested) +
                         ",\"refusals\":" + std::to_string(stats.refusals) +
                         ",\"duplicates\":" + std::to_string(stats.duplicates);
                 if (const auto refusal = options.ingest->admission()) {
                   body += ",\"admission\":\"refusing: " + obs::json_escape(refusal->reason) +
                           "\"}";
                 } else {
                   body += ",\"admission\":\"open\"}";
                 }
               }
               if (options.status_extra) {
                 const std::string extra = options.status_extra();
                 if (!extra.empty()) {
                   body += ',';
                   body += extra;
                 }
               }
               body += "}\n";
               return json_response(200, std::move(body));
             });
}

void install_wave_run(Router& router, std::function<std::string(std::size_t)> run_waves) {
  router.add("POST", "/wave/run",
             [run_waves = std::move(run_waves)](const Request& request,
                                                const std::vector<std::string>&) {
               if (!run_waves) {
                 return json_response(503, "{\"error\":\"no wave driver attached\"}\n");
               }
               std::size_t count = 1;
               if (const auto param = request.query_param("count")) {
                 char* end = nullptr;
                 const unsigned long long parsed = std::strtoull(param->c_str(), &end, 10);
                 if (param->empty() || end != param->c_str() + param->size() || parsed == 0 ||
                     parsed > 1'000'000) {
                   return json_response(400, "{\"error\":\"count must be in [1, 1000000]\"}\n");
                 }
                 count = static_cast<std::size_t>(parsed);
               }
               return json_response(200, run_waves(count));
             });
}

void install_metrics(Router& router, obs::MetricsRegistry* registry) {
  router.add("GET", "/metrics",
             [registry](const Request&, const std::vector<std::string>&) {
               Response r;
               r.status = 200;
               r.content_type = "text/plain; version=0.0.4; charset=utf-8";
               r.body = obs::to_prometheus(registry->snapshot());
               return r;
             });
}

}  // namespace

Router make_gateway_router(GatewayOptions options) {
  Router router;
  if (options.ingest != nullptr) {
    install_ingest(router, options.ingest);
  }
  if (options.store != nullptr) install_reads(router, options.store);
  if (options.workflow_steps != nullptr) {
    install_workflow_route(router, options.workflow_steps, std::move(options.install_workflow));
  }
  install_status(router, options);
  install_wave_run(router, options.run_waves);
  if (options.metrics != nullptr) install_metrics(router, options.metrics);
  return router;
}

}  // namespace smartflux::net
