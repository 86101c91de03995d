// Shared plumbing of the end-to-end benchmark: options, the result record
// and its JSON line, percentiles, peak RSS, and trace folding.
//
// The benchmark drives the library only through its public API (runtime,
// query, store, codec, nn, synth). Every layer is measured from outside:
// by timing calls into it, from what the program already returns
// (StageStats, SessionReport, the metrics registry) and from the spans the
// runtime emits when tracing is on.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

/// Command-line options (see README.md).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for journals (inside checkout)
  /// restart_query only: hours of history per camera (0 = the default).
  double store_hours = 0.0;
  Clock::time_point process_start;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the operation ledger, the correctness verdict and
/// every metric. `metrics` is what the final JSON line carries; `detail`
/// is printed on a line of its own above it (the workload's own names,
/// sample counts, reference figures).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> detail;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail[name] = Metric{value, unit};
  }
  /// Record a failed output check; the run then reports correct: false.
  void Check(bool ok, const std::string& what);
};

/// The end-to-end metrics every workload reports with --trace 0, and the
/// per-layer metrics it reports with --trace 1 (0 where the workload does
/// not run the layer). Order is the order of the JSON line.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fill the metric set the mode reports with zeros, so a layer a workload
/// does not exercise still appears (and reads 0).
void InitMetrics(Result& result, bool trace);

/// Linear-interpolated quantile (q in [0, 1]) of raw samples; 0 if empty.
double Quantile(std::vector<double> samples, double q);

/// One timed event of a phase: when it ended (seconds from the phase's
/// start) and its value (a latency; unused where only the count matters).
struct Sample {
  double t_s = 0.0;
  double value = 0.0;
};

/// The phase cut into one-second windows (a partial last window is left
/// out). The host's speed moves by up to a third within minutes, so a run
/// reports the seconds it disturbed least: the upper quartile of the
/// per-second event rates, and the lower quartile of the per-second median
/// values (windows with fewer than `min_samples` events are skipped). Both
/// are 0 when the phase holds no whole window.
double SteadyRate(const std::vector<Sample>& samples, double span_s);
double SteadyMedian(const std::vector<Sample>& samples, double span_s,
                    std::size_t min_samples);

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb();

/// Self and total time per span name, folded over every thread's ring. A
/// span's self time is its duration minus the part covered by spans nested
/// inside it on the same thread.
struct FoldedTrace {
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t dropped = 0;
  /// Summed duration of the outermost runtime spans of each frame, keyed by
  /// (track, frame): the traced time attributable to one frame inside the
  /// program. The benchmark's own spans (named "bench/...") are summed
  /// apart, in frame_bench_us.
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> frame_top_us;
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> frame_bench_us;
};
FoldedTrace FoldTrace(const std::vector<sieve::obs::ThreadTrace>& threads);

/// Tracing overhead of a fixed piece of work: alternate untraced and traced
/// runs of `run` (which returns its wall seconds) and compare the fastest of
/// each side, as traced / untraced - 1.
double TraceOverhead(const std::function<double(bool traced)>& run, int pairs);

/// Print the detail line and the final result line to stdout. The result
/// line carries the mode's metric set only (end-to-end untraced, per-layer
/// traced); anything else a workload set is left out.
void PrintResult(const Result& result, bool trace);

/// Workload entry points.
Result RunCameraEncode(const Options& options);
Result RunFleetIngest(const Options& options);
Result RunRestartQuery(const Options& options);

}  // namespace e2e
