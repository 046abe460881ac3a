#include "obs/sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/error.hpp"
#include "util/table.hpp"

namespace gddr::obs {

namespace {

// Labels are slash-paths we mint ourselves, but escape defensively so a
// surprising name can never produce an invalid line.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // inf/NaN are not JSON
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

void append_json_number(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

template <typename Pairs, typename AppendValue>
void append_json_object(std::string& out, const Pairs& pairs,
                        AppendValue&& append_value) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : pairs) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_value(out, value);
  }
  out += '}';
}

}  // namespace

std::string make_record(int iter, const Snapshot& snapshot) {
  std::string out;
  out.reserve(1024);
  out += "{\"schema\":\"gddr.metrics.v1\",\"iter\":";
  out += std::to_string(iter);
  out += ",\"counters\":";
  append_json_object(out, snapshot.counters,
                     [](std::string& o, std::uint64_t v) {
                       append_json_number(o, v);
                     });
  out += ",\"gauges\":";
  append_json_object(out, snapshot.gauges, [](std::string& o, double v) {
    append_json_number(o, v);
  });
  out += ",\"timers\":";
  append_json_object(out, snapshot.timers,
                     [](std::string& o, const TimerSnapshot& t) {
                       o += "{\"count\":";
                       append_json_number(o, t.count);
                       o += ",\"total_s\":";
                       append_json_number(o, t.total_s);
                       o += ",\"min_s\":";
                       append_json_number(o, t.min_s);
                       o += ",\"max_s\":";
                       append_json_number(o, t.max_s);
                       o += '}';
                     });
  out += ",\"histograms\":";
  append_json_object(out, snapshot.histograms,
                     [](std::string& o, const HistogramSnapshot& h) {
                       o += "{\"upper_bounds\":[";
                       for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
                         if (i > 0) o += ',';
                         append_json_number(o, h.upper_bounds[i]);
                       }
                       o += "],\"counts\":[";
                       for (std::size_t i = 0; i < h.counts.size(); ++i) {
                         if (i > 0) o += ',';
                         append_json_number(o, h.counts[i]);
                       }
                       o += "],\"count\":";
                       append_json_number(o, h.count);
                       o += ",\"sum\":";
                       append_json_number(o, h.sum);
                       o += '}';
                     });
  out += '}';
  return out;
}

void JsonlSink::append(const std::string& line) {
  const auto mode = lines_written_ == 0 ? std::ios::out | std::ios::trunc
                                        : std::ios::out | std::ios::app;
  std::ofstream out(path_, mode);
  if (!out) throw util::IoError("JsonlSink: cannot open " + path_);
  out << line << '\n';
  out.flush();
  if (!out) throw util::IoError("JsonlSink: write to " + path_ + " failed");
  lines_written_++;
}

std::string render_summary(const Snapshot& snapshot) {
  std::string out;
  if (!snapshot.timers.empty()) {
    auto timers = snapshot.timers;
    std::sort(timers.begin(), timers.end(), [](const auto& a, const auto& b) {
      return a.second.total_s > b.second.total_s;
    });
    util::Table table({"timer", "count", "total_s", "mean_s", "min_s",
                       "max_s"});
    for (const auto& [name, t] : timers) {
      const double mean = t.count > 0 ? t.total_s / static_cast<double>(t.count)
                                      : 0.0;
      table.add_row({name, std::to_string(t.count), util::fmt(t.total_s),
                     util::fmt(mean), util::fmt(t.min_s), util::fmt(t.max_s)});
    }
    out += "metrics: timers\n";
    out += table.to_string();
  }
  if (!snapshot.counters.empty()) {
    util::Table table({"counter", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      table.add_row({name, std::to_string(value)});
    }
    if (!out.empty()) out += '\n';
    out += "metrics: counters\n";
    out += table.to_string();
  }
  if (!snapshot.gauges.empty()) {
    util::Table table({"gauge", "value"});
    for (const auto& [name, value] : snapshot.gauges) {
      table.add_row({name, util::fmt(value)});
    }
    if (!out.empty()) out += '\n';
    out += "metrics: gauges\n";
    out += table.to_string();
  }
  if (!snapshot.histograms.empty()) {
    util::Table table({"histogram", "count", "sum", "mean"});
    for (const auto& [name, h] : snapshot.histograms) {
      const double mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      table.add_row({name, std::to_string(h.count), util::fmt(h.sum),
                     util::fmt(mean)});
    }
    if (!out.empty()) out += '\n';
    out += "metrics: histograms\n";
    out += table.to_string();
  }
  return out;
}

MetricsOptions consume_metrics_flag(int& argc, char** argv) {
  MetricsOptions options;
  options.path = Registry::env_metrics_path();

  // Two passes (path then cadence) keep the removal logic identical to
  // consume_workers_flag for each flag.
  const auto consume = [&](const char* flag, const char* with_eq,
                           std::string& out_value) {
    const std::size_t eq_len = std::string_view(with_eq).size();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      int consumed = 0;
      if (arg == flag) {
        if (i + 1 >= argc) {
          throw std::invalid_argument(std::string(flag) + " expects a value");
        }
        value = argv[i + 1];
        consumed = 2;
      } else if (arg.rfind(with_eq, 0) == 0) {
        value = arg.substr(eq_len);
        consumed = 1;
      } else {
        continue;
      }
      out_value = value;
      for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
      argc -= consumed;
      return true;
    }
    return false;
  };

  std::string path_value;
  if (consume("--metrics", "--metrics=", path_value)) {
    if (path_value.empty()) {
      throw std::invalid_argument("--metrics expects a file path");
    }
    options.path = path_value;
  }
  std::string every_value;
  if (consume("--metrics-every", "--metrics-every=", every_value)) {
    const long parsed = std::strtol(every_value.c_str(), nullptr, 10);
    if (parsed <= 0) {
      throw std::invalid_argument(
          "--metrics-every expects a positive integer");
    }
    options.every = static_cast<int>(parsed);
  }
  return options;
}

bool apply(const MetricsOptions& options) {
  if (options.path.empty()) return Registry::instance().enabled();
  Registry::instance().enable();
  return true;
}

std::string finish(const MetricsOptions& options) {
  if (!Registry::instance().enabled()) return "";
  const Snapshot snapshot = Registry::instance().snapshot();
  if (!options.path.empty()) {
    JsonlSink sink(options.path);
    sink.append(make_record(0, snapshot));
  }
  return render_summary(snapshot);
}

}  // namespace gddr::obs
