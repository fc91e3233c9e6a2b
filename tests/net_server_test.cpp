#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datastore/client.h"
#include "datastore/datastore.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "obs/metrics.h"
#include "wms/backpressure.h"
#include "wms/engine.h"

namespace smartflux::net {
namespace {

using testing::Client;
using testing::ClientResponse;

/// DataStore + bridge + gateway router behind a live loopback server — the
/// full front-end stack minus a wave engine (tests drain the bridge by
/// invoking its WaveIngest directly, or through a real engine where noted).
class GatewayServerTest : public ::testing::Test {
 protected:
  void SetUp() override { start_server({}); }

  void start_server(ServerOptions options) {
    GatewayOptions gateway;
    gateway.store = &store_;
    gateway.ingest = &bridge_;
    gateway.metrics = &metrics_;
    gateway.run_waves = [this](std::size_t count) {
      waves_requested_ += count;
      return "{\"submitted\":" + std::to_string(count) + "}";
    };
    options.metrics = &metrics_;
    server_ = std::make_unique<Server>(make_gateway_router(gateway), options);
    server_->start();
  }

  Client connect() { return Client(server_->port()); }

  /// Runs one bridge drain as wave `wave` would.
  void drain_wave(ds::Timestamp wave) {
    ds::Client client(store_, wave);
    bridge_.make_ingest()(client, wave);
  }

  ds::DataStore store_{4};
  obs::MetricsRegistry metrics_;
  wms::BoundedWaveQueue queue_;
  IngestBridge bridge_{[this] {
    IngestBridge::Options options;
    options.queue = &queue_;
    options.metrics = &metrics_;
    return options;
  }()};
  std::size_t waves_requested_ = 0;
  std::unique_ptr<Server> server_;
};

TEST_F(GatewayServerTest, IngestDrainRead) {
  Client client = connect();
  const ClientResponse staged =
      client.request("POST", "/ingest/sensors", "r1,o3,3.5\nr1,pm25,12\nr2,o3,4.25\n");
  ASSERT_EQ(staged.status, 202);
  EXPECT_NE(staged.body.find("\"staged\":3"), std::string::npos);
  EXPECT_EQ(bridge_.staged_rows(), 3u);

  drain_wave(1);
  EXPECT_EQ(bridge_.staged_rows(), 0u);

  const ClientResponse got = client.request("GET", "/get?table=sensors&row=r1&col=o3");
  ASSERT_EQ(got.status, 200);
  EXPECT_EQ(got.body, "{\"value\":3.5}\n");

  const ClientResponse missing = client.request("GET", "/get?table=sensors&row=r9&col=o3");
  EXPECT_EQ(missing.status, 404);

  const ClientResponse scan = client.request("GET", "/scan?table=sensors&column=o3");
  ASSERT_EQ(scan.status, 200);
  EXPECT_EQ(scan.body, "r1,o3,3.5\nr2,o3,4.25\n");
}

TEST_F(GatewayServerTest, MalformedIngestBodyIs400) {
  Client client = connect();
  const ClientResponse response = client.request("POST", "/ingest/sensors", "r1,o3\n");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("line 1"), std::string::npos);
  EXPECT_EQ(bridge_.staged_rows(), 0u);
}

TEST_F(GatewayServerTest, ClosedQueueRefusesWith503RetryAfter) {
  queue_.close();
  Client client = connect();
  const ClientResponse response = client.request("POST", "/ingest/sensors", "r1,o3,1\n");
  ASSERT_EQ(response.status, 503);
  ASSERT_NE(response.header("Retry-After"), nullptr);
  // A closed queue is a hard refusal: the dynamic Retry-After advertises
  // the configured ceiling, not the floor.
  EXPECT_EQ(*response.header("Retry-After"),
            std::to_string(IngestBridge::Options{}.retry_after_max_seconds));
  EXPECT_NE(response.body.find("queue-closed"), std::string::npos);
  EXPECT_EQ(bridge_.staged_rows(), 0u);
  EXPECT_EQ(bridge_.stats().refusals, 1u);

  // The connection survives the refusal: a read on it still works.
  EXPECT_EQ(client.request("GET", "/status").status, 200);
}

TEST_F(GatewayServerTest, StagingCeilingRefuses) {
  IngestBridge::Options options;
  options.max_staged_rows = 2;
  IngestBridge bounded(options);
  std::string body = "r1,c,1\nr2,c,2\n";
  auto spans = parse_ingest_spans(body, nullptr);
  ASSERT_TRUE(spans.has_value());
  bounded.stage_spans("t", std::move(body), std::move(*spans));
  const auto refusal = bounded.admission();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->reason, "staging-full");
}

TEST_F(GatewayServerTest, StatusReportsBridgeAndAdmission) {
  Client client = connect();
  ClientResponse response = client.request("GET", "/status");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"phase\":\"unknown\""), std::string::npos);
  EXPECT_EQ(response.body.find("\"health\""), std::string::npos);
  EXPECT_NE(response.body.find("\"admission\":\"open\""), std::string::npos);

  queue_.close();
  response = client.request("GET", "/status");
  EXPECT_NE(response.body.find("refusing: queue-closed"), std::string::npos);
}

TEST_F(GatewayServerTest, WaveRunHookAndValidation) {
  Client client = connect();
  ClientResponse response = client.request("POST", "/wave/run?count=3");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"submitted\":3}");
  EXPECT_EQ(waves_requested_, 3u);

  EXPECT_EQ(client.request("POST", "/wave/run?count=0").status, 400);
  EXPECT_EQ(client.request("POST", "/wave/run?count=zap").status, 400);
  EXPECT_EQ(client.request("POST", "/wave/run").status, 200);
  EXPECT_EQ(waves_requested_, 4u);
}

TEST_F(GatewayServerTest, MetricsExposesNetFamilies) {
  Client client = connect();
  (void)client.request("POST", "/ingest/sensors", "r1,o3,1\n");
  const ClientResponse response = client.request("GET", "/metrics");
  ASSERT_EQ(response.status, 200);
  ASSERT_NE(response.header("Content-Type"), nullptr);
  EXPECT_NE(response.header("Content-Type")->find("version=0.0.4"), std::string::npos);
  EXPECT_NE(response.body.find("sf_net_ingest_rows_total"), std::string::npos);
  EXPECT_NE(response.body.find("sf_net_requests_total"), std::string::npos);
}

TEST_F(GatewayServerTest, KeepAliveReusesOneConnection) {
  Client client = connect();
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(client.request("GET", "/status").status, 200);
  }
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 5u);
}

TEST_F(GatewayServerTest, PipelinedRequestsAnswerInOrder) {
  Client client = connect();
  client.send_request("GET", "/status");
  client.send_request("POST", "/ingest/sensors", "r1,o3,1\n");
  client.send_request("GET", "/get?table=missing&row=r&col=c");
  EXPECT_EQ(client.read_response().status, 200);
  EXPECT_EQ(client.read_response().status, 202);
  EXPECT_EQ(client.read_response().status, 404);
}

TEST_F(GatewayServerTest, ParseErrorGets400ThenClose) {
  Client client = connect();
  client.send_raw("NOT A REQUEST\r\n\r\n");
  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 400);
  EXPECT_TRUE(client.at_eof());
  EXPECT_GE(server_->stats().parse_errors, 1u);
}

TEST_F(GatewayServerTest, OversizedHeaderGets431) {
  server_->stop();
  ServerOptions options;
  options.limits.max_header_bytes = 256;
  start_server(options);

  Client client = connect();
  client.send_raw("GET /status HTTP/1.1\r\nX-Pad: " + std::string(512, 'a') + "\r\n\r\n");
  EXPECT_EQ(client.read_response().status, 431);
  EXPECT_TRUE(client.at_eof());
}

TEST_F(GatewayServerTest, ConnectionCloseHonored) {
  Client client = connect();
  const ClientResponse response =
      client.request("GET", "/status", {}, {{"Connection", "close"}});
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(client.at_eof());
}

TEST_F(GatewayServerTest, UnknownRouteAndMethod) {
  Client client = connect();
  EXPECT_EQ(client.request("GET", "/nope").status, 404);
  EXPECT_EQ(client.request("DELETE", "/status").status, 405);
}

TEST(NetServer, PollBackendServes) {
  Router router;
  router.add("GET", "/ping", [](const Request&, const std::vector<std::string>&) {
    return text_response(200, "pong");
  });
  ServerOptions options;
  options.backend = PollerBackend::kPoll;
  Server server(std::move(router), options);
  server.start();
  EXPECT_STREQ(server.backend_name(), "poll");

  Client client(server.port());
  EXPECT_EQ(client.request("GET", "/ping").body, "pong");
  server.stop();
}

TEST(NetServer, SlowReaderIsDisconnected) {
  // 8 MB body against a 64 KB pending-write bound: the client never reads,
  // so once the kernel buffers fill the server's pending buffer crosses the
  // bound and the connection is dropped instead of growing without limit.
  Router router;
  router.add("GET", "/big", [](const Request&, const std::vector<std::string>&) {
    return text_response(200, std::string(8 * 1024 * 1024, 'x'));
  });
  ServerOptions options;
  options.max_write_buffer = 64 * 1024;
  Server server(std::move(router), options);
  server.start();

  Client client(server.port());
  client.send_request("GET", "/big");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().slow_disconnects == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().slow_disconnects, 1u);
  // The connection really is gone: draining it hits EOF well short of 8 MB.
  EXPECT_LT(client.read_until_closed().size(), 8u * 1024 * 1024);
  server.stop();
}

TEST(NetServer, OverMaxConnectionsRefused) {
  Router router;
  router.add("GET", "/ping", [](const Request&, const std::vector<std::string>&) {
    return text_response(200, "pong");
  });
  ServerOptions options;
  options.max_connections = 1;
  Server server(std::move(router), options);
  server.start();

  Client first(server.port());
  ASSERT_EQ(first.request("GET", "/ping").status, 200);
  Client second(server.port());
  EXPECT_TRUE(second.at_eof());  // accepted, counted, immediately closed
  EXPECT_GE(server.stats().connections_refused, 1u);
  server.stop();
}

TEST(NetServer, StopIsIdempotentAndImmediateAfterStart) {
  Router router;
  Server server(std::move(router), {});
  server.start();
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
}

/// Full path: HTTP ingest -> real pipelined wave engine -> HTTP read.
TEST(NetServer, EngineRoundTrip) {
  ds::DataStore store(4);
  IngestBridge bridge;

  // One step that doubles every ingested o3 reading into column "o3x2".
  wms::StepSpec step;
  step.id = "double";
  step.fn = [](wms::StepContext& ctx) {
    for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef("sensors", "o3"))) {
      ctx.client.put("derived", *e.row, "o3x2", e.value * 2.0);
    }
  };
  wms::WorkflowSpec spec("net-roundtrip", {step});
  wms::WorkflowEngine engine(spec, store);

  GatewayOptions gateway;
  gateway.store = &store;
  gateway.ingest = &bridge;
  Server server(make_gateway_router(gateway), {});
  server.start();

  Client client(server.port());
  ASSERT_EQ(client.request("POST", "/ingest/sensors", "r1,o3,2.5\nr2,o3,4\n").status, 202);

  wms::SyncController sync;
  engine.run_waves_pipelined(1, 2, sync, bridge.make_ingest());

  EXPECT_EQ(client.request("GET", "/get?table=derived&row=r1&col=o3x2").body,
            "{\"value\":5}\n");
  EXPECT_EQ(client.request("GET", "/get?table=derived&row=r2&col=o3x2").body,
            "{\"value\":8}\n");
  EXPECT_EQ(bridge.stats().rows_ingested, 2u);
  server.stop();
}

}  // namespace
}  // namespace smartflux::net
