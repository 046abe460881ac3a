// Structured outputs for the metrics registry: an append-only JSONL sink,
// the per-iteration JSON record format, and the end-of-run summary table.
//
// JSONL record schema ("gddr.metrics.v1", one object per line — full
// field list in DESIGN.md §7):
//
//   {"schema":"gddr.metrics.v1","iter":3,
//    "counters":{"mcf/cache/hit":120,...},
//    "gauges":{"train/loss/total":0.41,...},
//    "timers":{"train/collect":{"count":4,"total_s":1.2,
//                               "min_s":0.28,"max_s":0.33},...},
//    "histograms":{"lp/pivots_per_solve":{"upper_bounds":[...],
//                  "counts":[...],"count":17,"sum":412.0},...}}
//
// Values are cumulative since enable() (Prometheus-style), so any record
// is self-contained and per-iteration deltas are a subtraction away.
// Non-finite doubles serialise as null to keep each line valid JSON.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace gddr::obs {

// One "gddr.metrics.v1" line (no trailing newline) for `snapshot` taken
// after training iteration `iter` (0-based).
std::string make_record(int iter, const Snapshot& snapshot);

// Append-per-iteration writer.  The first append truncates whatever file
// `path` held; every append then opens the file in append mode, writes one
// line and flushes it, so a record costs the same however long the run.
// A crash in the middle of a write can leave the last line torn: a reader
// should drop an unterminated final line.
class JsonlSink {
 public:
  explicit JsonlSink(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  // Appends `line` plus a newline and flushes it.  Throws util::IoError on
  // failure.
  void append(const std::string& line);

  std::size_t lines_written() const { return lines_written_; }

 private:
  std::string path_;
  std::size_t lines_written_ = 0;
};

// End-of-run summary: timers (sorted by total time), counters and gauges
// rendered through util::Table.  Empty string when nothing was recorded.
std::string render_summary(const Snapshot& snapshot);

// CLI plumbing shared by gddr_cli and the benches, mirroring
// util::consume_workers_flag.
struct MetricsOptions {
  std::string path;   // empty: metrics stay disabled (unless GDDR_METRICS)
  int every = 1;      // emit a JSONL record every N iterations
};

// Scans argv for "--metrics PATH" / "--metrics=PATH" and
// "--metrics-every N" / "--metrics-every=N", removing them from
// argc/argv.  Falls back to GDDR_METRICS for the path when the flag is
// absent.  Throws std::invalid_argument on malformed values.
MetricsOptions consume_metrics_flag(int& argc, char** argv);

// Enables the registry when `options` names a sink path, returning true
// if metrics are on for this run.
bool apply(const MetricsOptions& options);

// One-shot epilogue for the benches: when metrics are enabled, writes a
// single cumulative record to options.path (if non-empty) and returns
// the rendered summary table.  Empty string when metrics are off or
// nothing was recorded.
std::string finish(const MetricsOptions& options);

}  // namespace gddr::obs
