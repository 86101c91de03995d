#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "bench.h"

namespace e2e {

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},      {"latency_p50_ms", "ms"},
      {"bytes_per_item", "bytes"},
      {"recovery_s", "s"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        // codec: the camera-side encoder and its decisions
        {"encode.push_ms", "ms"},
        {"encode.analyze_ms", "ms"},
        {"encode.pass_ms", "ms"},
        {"encode.entropy_ms", "ms"},
        {"encode.iframes_per_kframe", "count"},
        // core seeker, dataflow, runtime
        {"stage.seeker.busy_s", "s"},
        {"stage.seeker.in", "count"},
        {"push.blocked_s", "s"},
        {"gen.lag_ms_max", "ms"},
        // codec decode + media + still
        {"stage.transcode.busy_s", "s"},
        {"stage.transcode.avg_queue", "count"},
        {"transcode.ms_per_iframe", "ms"},
        {"still.decode_us", "us"},
        {"still.resize_us", "us"},
        {"still.encode_us", "us"},
        // nn
        {"stage.edge_nn.busy_s", "s"},
        {"stage.cloud_nn.busy_s", "s"},
        {"stage.cloud_nn.avg_queue", "count"},
        {"cloud_nn.ms_per_iframe", "ms"},
    };
    for (int i = 0; i < 13; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "nn.layer%02d_us", i);
      m.emplace_back(name, "us");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        // net
        {"stage.wan.busy_s", "s"},
        {"wan.goodput_bytes", "bytes"},
        {"wan.retries", "count"},
        // store, write side
        {"journal.fsync_ms_p50", "ms"},
        {"db_insert.us", "us"},
        // store, read side
        {"store.recover_s", "s"},
        {"store.replay_s", "s"},
        {"store.records", "count"},
        {"store.journal_mb", "MB"},
        // query
        {"index.intervals", "count"},
        {"query.hits_per_query", "count"},
        {"query.whereis_us_p50", "us"},
        {"query.rebuilds", "count"},
        {"live_query.find_us_p50", "us"},
        {"live_query.find_us_p99", "us"},
        // obs
        {"obs.trace_overhead", "ratio"},
        {"obs.dropped_events", "count"},
        {"attrib.coverage", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

void InitMetrics(Result& result, bool trace) {
  for (const auto& [name, unit] : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    result.Set(name, 0.0, unit);
  }
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(samples.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - double(lo));
}

namespace {

/// The samples of each whole one-second window of the phase.
std::vector<std::vector<double>> Windows(const std::vector<Sample>& samples,
                                         double span_s) {
  std::vector<std::vector<double>> windows(std::size_t(std::max(0.0, span_s)));
  for (const Sample& s : samples) {
    if (s.t_s >= 0.0 && std::size_t(s.t_s) < windows.size()) {
      windows[std::size_t(s.t_s)].push_back(s.value);
    }
  }
  return windows;
}

}  // namespace

double SteadyRate(const std::vector<Sample>& samples, double span_s) {
  std::vector<double> rates;
  for (const auto& w : Windows(samples, span_s)) rates.push_back(double(w.size()));
  return Quantile(std::move(rates), 0.75);
}

double SteadyMedian(const std::vector<Sample>& samples, double span_s,
                    std::size_t min_samples) {
  std::vector<double> medians;
  for (auto& w : Windows(samples, span_s)) {
    if (w.size() >= min_samples) medians.push_back(Quantile(std::move(w), 0.5));
  }
  return Quantile(std::move(medians), 0.25);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

FoldedTrace FoldTrace(const std::vector<sieve::obs::ThreadTrace>& threads) {
  FoldedTrace out;
  struct Open {
    const sieve::obs::TraceEvent* event;
    std::uint64_t end;
    double self;
  };
  for (const auto& thread : threads) {
    out.dropped += thread.dropped;
    std::vector<const sieve::obs::TraceEvent*> spans;
    for (const auto& e : thread.events) {
      if (e.phase == 'X' && e.name != nullptr) spans.push_back(&e);
    }
    // Parents first: earlier start, then the longer span on ties.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<Open> stack;
    const auto close = [&out](const Open& open) {
      out.self_us[open.event->name] += std::max(0.0, open.self);
    };
    for (const auto* e : spans) {
      const std::uint64_t end = e->ts_us + e->dur_us;
      while (!stack.empty() && stack.back().end <= e->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      // A span that starts inside the open one but outlives it is not
      // nested; treat it as a sibling of everything on the stack.
      while (!stack.empty() && end > stack.back().end) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().self -= double(e->dur_us);
      } else if (e->track != 0) {
        auto& frames = std::string_view(e->name).starts_with("bench/")
                           ? out.frame_bench_us
                           : out.frame_top_us;
        frames[{e->track, e->frame}] += double(e->dur_us);
      }
      out.total_us[e->name] += double(e->dur_us);
      out.count[e->name] += 1;
      stack.push_back(Open{e, end, double(e->dur_us)});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string MetricsObject(const std::map<std::string, Metric>& metrics,
                          const std::vector<std::string>& order) {
  std::string out = "{";
  bool first = true;
  for (const auto& name : order) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + Escape(name) + "\": {\"value\": " + Number(it->second.value) +
           ", \"unit\": \"" + Escape(it->second.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

double TraceOverhead(const std::function<double(bool traced)>& run,
                     int pairs) {
  double untraced = 0.0, traced = 0.0;
  for (int i = 0; i < pairs; ++i) {
    const double u = run(false);
    const double t = run(true);
    untraced = i == 0 ? u : std::min(untraced, u);
    traced = i == 0 ? t : std::min(traced, t);
  }
  return untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
}

void PrintResult(const Result& result, bool trace) {
  for (const auto& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::vector<std::string> detail_order;
  for (const auto& [name, metric] : result.detail) detail_order.push_back(name);
  std::printf("detail %s\n",
              MetricsObject(result.detail, detail_order).c_str());
  std::vector<std::string> declared;
  for (const auto& [name, unit] : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    declared.push_back(name);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      MetricsObject(result.metrics, declared).c_str());
  std::fflush(stdout);
}

}  // namespace e2e
