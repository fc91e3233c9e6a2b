#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/format.h"
#include "common/fsync.h"

namespace smartflux::obs {

namespace {

std::string label_block(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += prometheus_escape(value);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += prometheus_escape(extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  }
  out += '}';
}

}  // namespace

std::string prometheus_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string json_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.name != last_family) {
      last_family = m.name;
      const auto help = snapshot.help.find(m.name);
      if (help != snapshot.help.end()) {
        out += "# HELP " + m.name + " " + help->second + "\n";
      }
      out += "# TYPE " + m.name + " ";
      out += metric_kind_name(m.kind);
      out += '\n';
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        out += m.name + label_block(m.labels) + " " + std::to_string(m.counter_value) + "\n";
        break;
      case MetricKind::kGauge:
        out += m.name + label_block(m.labels) + " " + format_double(m.gauge_value) + "\n";
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.histogram.counts.size(); ++i) {
          cumulative += m.histogram.counts[i];
          const std::string le =
              i < m.histogram.bounds.size() ? format_double(m.histogram.bounds[i]) : "+Inf";
          out += m.name + "_bucket" + label_block(m.labels, "le", le) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += m.name + "_sum" + label_block(m.labels) + " " + format_double(m.histogram.sum) +
               "\n";
        out += m.name + "_count" + label_block(m.labels) + " " +
               std::to_string(m.histogram.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(m.name) + "\",\"kind\":\"";
    out += metric_kind_name(m.kind);
    out += "\",";
    append_json_labels(out, m.labels);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + std::to_string(m.counter_value);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + format_double(m.gauge_value);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":" + std::to_string(m.histogram.count);
        out += ",\"sum\":" + format_double(m.histogram.sum);
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < m.histogram.counts.size(); ++i) {
          if (i > 0) out += ',';
          out += "{\"le\":";
          if (i < m.histogram.bounds.size()) {
            out += format_double(m.histogram.bounds[i]);
          } else {
            out += "\"+Inf\"";
          }
          out += ",\"count\":" + std::to_string(m.histogram.counts[i]) + "}";
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string to_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}",
                  static_cast<double>(span.start.count()) / 1e3,
                  static_cast<double>(span.duration.count()) / 1e3, span.thread, span.id,
                  span.parent);
    out += "{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
           json_escape(span.category) + "\",";
    out += buf;
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void write_text_file(const std::string& path, std::string_view content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return;
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) throw Error("cannot open '" + path + "' for writing");
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
    // flush + close-check before fsync: a full disk surfaces here, not as a
    // silently truncated export.
    os.flush();
    if (!os) throw Error("failed writing '" + path + "'");
    os.close();
    if (os.fail()) throw Error("failed closing '" + path + "'");
  }
  // Exports feed dashboards and committed bench artifacts; make them durable
  // with the same primitive (and failure contract) as the WAL.
  fsync_path(path);
}

}  // namespace smartflux::obs
