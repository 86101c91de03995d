// restart_query: set-up journals many cameras x hours of label rows with
// store::JournalWriter; the timed part boots a Runtime on that store (boot
// recovery) and then runs a seeded mix of windowed FindObject and WhereIs
// calls, closed loop, from one thread.
#include <algorithm>
#include <filesystem>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "inputs.h"
#include "store/journal.h"
#include "synth/scene.h"

namespace e2e {

using namespace sieve;

namespace {

constexpr std::size_t kCameras = 16;
constexpr double kDefaultHours = 24.0;
/// A semantic encoder's heartbeat: a row at least every kGop frames.
constexpr std::size_t kGop = 250;
constexpr int kBoots = 10;
/// Share of WhereIs calls in the query mix (the rest is windowed FindObject).
constexpr double kWhereIsShare = 0.2;
/// Mix queries whose answers are kept and checked against the oracle.
constexpr std::size_t kCheckedQueries = 200;
/// Fewest queries a one-second window needs to count toward the median.
constexpr std::size_t kMinWindowSamples = 20;

constexpr synth::DatasetId kPresets[] = {
    synth::DatasetId::kJacksonSquare, synth::DatasetId::kCoralReef,
    synth::DatasetId::kVenice, synth::DatasetId::kAmsterdam};

/// One camera's journaled history and its oracle intervals per class.
struct History {
  CameraRows rows;
  std::string route;
  std::array<std::vector<std::pair<std::size_t, std::size_t>>,
             synth::kNumObjectClasses>
      intervals;
};

/// Rows where a semantic encoder puts I-frames on a label track: every
/// label change, plus a heartbeat when kGop frames pass without one.
CameraRows TrackRows(synth::DatasetId preset, std::size_t frames,
                     std::uint64_t seed) {
  synth::SceneConfig config = synth::MakeDatasetConfig(preset, frames, seed);
  const synth::SyntheticVideo track = synth::GenerateLabelTrack(config);
  CameraRows out;
  out.fps = config.fps;
  out.total_frames = frames;
  const auto& labels = track.truth.labels();
  std::size_t last = 0;
  for (std::size_t f = 0; f < labels.size(); ++f) {
    if (f == 0 || labels[f] != labels[last] || f - last >= kGop) {
      out.rows.emplace_hint(out.rows.end(), f, labels[f].bits());
      last = f;
    }
  }
  return out;
}

Status WriteJournal(const std::string& dir, const History& h) {
  store::FsyncPolicy policy;
  policy.flush_every = 4096;
  policy.fsync_every = 0;
  auto writer = store::JournalWriter::Open(
      dir + "/" + store::JournalFileName(h.route), policy);
  if (!writer.ok()) return writer.status();
  Status s = (*writer)->AppendRegister(h.route, h.rows.camera_id,
                                       h.rows.open_seconds, h.rows.fps);
  for (const auto& [frame, bits] : h.rows.rows) {
    if (!s.ok()) break;
    s = (*writer)->AppendInsert(frame, bits);
  }
  if (s.ok() && h.rows.sealed) s = (*writer)->AppendSeal(h.rows.total_frames);
  if (s.ok()) s = (*writer)->Close();
  return s;
}

struct Query {
  bool where_is = false;
  synth::ObjectClass cls = synth::ObjectClass::kCar;
  double t0 = 0.0, t1 = 0.0;
};

using HitKey = std::tuple<std::string, std::size_t, std::size_t>;

std::vector<HitKey> OracleFind(const std::vector<History>& histories,
                               const Query& q) {
  std::vector<HitKey> out;
  for (const History& h : histories) {
    for (const auto& [b, e] : h.intervals[std::size_t(q.cls)]) {
      const double begin_s = h.rows.open_seconds + double(b) / h.rows.fps;
      const double end_s = e == query::kOpenEnd
                               ? query::QueryService::kEndOfTime
                               : h.rows.open_seconds + double(e) / h.rows.fps;
      if (begin_s < q.t1 && end_s > q.t0) out.emplace_back(h.rows.camera_id, b, e);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> OracleWhereIs(const std::vector<History>& histories,
                                       synth::ObjectClass cls) {
  std::vector<std::string> out;
  const std::uint8_t bit = std::uint8_t(1u << std::uint8_t(cls));
  for (const History& h : histories) {
    if (!h.rows.sealed && !h.rows.rows.empty() &&
        (h.rows.rows.rbegin()->second & bit) != 0) {
      out.push_back(h.rows.camera_id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result RunRestartQuery(const Options& options) {
  Result result;
  InitMetrics(result, options.trace);
  const double hours = options.store_hours > 0 ? options.store_hours : kDefaultHours;
  const std::string store_dir = options.work_dir + "/store";
  std::filesystem::create_directories(store_dir);

  // --- Set-up: label tracks -> journal rows, written by 4 threads. --------
  std::vector<History> histories(kCameras);
  {
    std::vector<std::thread> workers;
    std::vector<Status> status(4, Status::Ok());
    for (std::size_t w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < kCameras; i += 4) {
          const synth::DatasetId preset = kPresets[i % std::size(kPresets)];
          const std::size_t frames = std::size_t(
              hours * 3600.0 * synth::GetDatasetSpec(preset).fps);
          History& h = histories[i];
          h.rows = TrackRows(preset, frames, options.seed * 1000 + i);
          h.rows.camera_id = "cam-" + std::to_string(i);
          h.rows.sealed = i % 2 == 0;
          h.rows.open_seconds = double(i);
          h.route = h.rows.camera_id + "#1";
          for (int c = 0; c < synth::kNumObjectClasses; ++c) {
            h.intervals[c] = OracleIntervals(h.rows, synth::ObjectClass(c));
          }
          if (Status s = WriteJournal(store_dir, h); !s.ok()) status[w] = s;
        }
      });
    }
    for (auto& t : workers) t.join();
    for (const Status& s : status) result.Check(s.ok(), "journal write failed");
    if (!result.correct) return result;
  }
  std::size_t written_records = 0;
  for (const History& h : histories) {
    written_records += 1 + h.rows.rows.size() + (h.rows.sealed ? 1 : 0);
  }
  Rng rng(options.seed * 104729 + 3);
  const double setup_s = SecondsSince(options.process_start);

  // --- Timed: boot recovery, then the query mix until the deadline. -------
  const auto start = Clock::now();
  Boot boot = BootOnStore(store_dir, nullptr, kBoots, options.trace);
  runtime::Runtime& rt = *boot.rt;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const double horizon_s = hours * 3600.0;
  std::vector<double> query_ms;
  std::vector<Sample> queries;  ///< per query: its end in the mix, its ms
  std::vector<double> whereis_us;
  std::size_t find_calls = 0, find_hits = 0;
  std::vector<std::pair<Query, std::vector<HitKey>>> checked_find;
  std::vector<std::pair<Query, std::vector<std::string>>> checked_where;
  const auto mix_start = Clock::now();
  while (Clock::now() < deadline) {
    Query q;
    q.where_is = rng.Uniform(0.0, 1.0) < kWhereIsShare;
    q.cls = synth::ObjectClass(rng.UniformInt(0, synth::kNumObjectClasses - 1));
    q.t0 = rng.Uniform(0.0, horizon_s);
    q.t1 = q.t0 + rng.Uniform(60.0, 3600.0);
    const auto t = Clock::now();
    if (q.where_is) {
      std::vector<std::string> cams;
      {
        obs::TraceSpan span("bench/where_is", obs::TraceContext{});
        cams = rt.query().WhereIs(q.cls);
      }
      const double us = SecondsSince(t) * 1e6;
      whereis_us.push_back(us);
      query_ms.push_back(us / 1e3);
      queries.push_back(Sample{SecondsSince(mix_start), us / 1e3});
      if (checked_where.size() < kCheckedQueries) {
        checked_where.emplace_back(q, std::move(cams));
      }
    } else {
      std::vector<query::QueryHit> hits;
      {
        obs::TraceSpan span("bench/find_object", obs::TraceContext{});
        hits = rt.query().FindObject(q.cls, q.t0, q.t1);
      }
      query_ms.push_back(SecondsSince(t) * 1e3);
      queries.push_back(Sample{SecondsSince(mix_start), query_ms.back()});
      ++find_calls;
      find_hits += hits.size();
      if (checked_find.size() < kCheckedQueries) {
        std::vector<HitKey> keys;
        for (const auto& hit : hits) {
          keys.emplace_back(hit.camera_id, hit.begin_frame, hit.end_frame);
        }
        std::sort(keys.begin(), keys.end());
        checked_find.emplace_back(q, std::move(keys));
      }
    }
  }
  const double mix_s = SecondsSince(mix_start);
  // --- End of the timed part. ---------------------------------------------
  FoldedTrace folded;
  if (options.trace) folded = FoldTrace(obs::SnapshotTrace());
  result.attempted = query_ms.size();

  // Checks: recovered records, full-range and windowed FindObject, WhereIs.
  std::vector<CameraRows> rows;
  for (const History& h : histories) rows.push_back(h.rows);
  CheckFindObject(result, rt.query(), rows, "recovered");
  std::size_t find_mismatches = 0, where_mismatches = 0;
  for (const auto& [q, keys] : checked_find) {
    find_mismatches += keys != OracleFind(histories, q);
  }
  for (const auto& [q, cams] : checked_where) {
    where_mismatches += cams != OracleWhereIs(histories, q.cls);
  }
  result.Check(find_mismatches == 0,
               std::to_string(find_mismatches) +
                   " windowed FindObject answers differ from the oracle");
  result.Check(where_mismatches == 0,
               std::to_string(where_mismatches) +
                   " WhereIs answers differ from the oracle");
  ReportRecovery(result, rt, written_records, store_dir,
                 options.trace ? &boot.trace : nullptr);
  const std::uint64_t store_bytes = StoreBytes(store_dir);
  boot.rt.reset();

  // --- End-to-end metrics. ------------------------------------------------
  const double recovery_s = Fastest(boot.seconds);
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", SteadyRate(queries, mix_s), "1/s");
  result.Set("latency_p50_ms", SteadyMedian(queries, mix_s, kMinWindowSamples),
             "ms");
  result.Detail("queries_per_s_all", double(query_ms.size()) / mix_s, "1/s");
  result.Detail("latency_p99_ms", Quantile(query_ms, 0.99), "ms");
  result.Set("bytes_per_item", double(store_bytes) / double(written_records),
             "bytes");
  result.Set("recovery_s", recovery_s, "s");
  result.Detail("query_p50_us", Quantile(query_ms, 0.5) * 1e3, "us");
  result.Detail("query_p99_us", Quantile(query_ms, 0.99) * 1e3, "us");
  result.Detail("queries", double(query_ms.size()), "count");
  result.Detail("records", double(written_records), "count");
  result.Detail("store_hours", hours, "h");

  // --- Per-layer metrics (traced run). ------------------------------------
  if (options.trace) {
    result.Set("query.hits_per_query",
               find_calls > 0 ? double(find_hits) / double(find_calls) : 0.0,
               "count");
    result.Set("query.whereis_us_p50", Quantile(whereis_us, 0.5), "us");
    result.Set("obs.dropped_events", double(folded.dropped), "count");
    // The boot's store spans against the constructor's wall time.
    const auto recover = boot.trace.total_us.find("store/recover");
    const double coverage =
        recover != boot.trace.total_us.end() && boot.seconds.back() > 0
            ? recover->second / 1e6 / boot.seconds.back()
            : 0.0;
    result.Set("attrib.coverage", coverage, "ratio");
    result.Check(coverage <= 1.0, "attrib.coverage above 1");
    result.Set("obs.trace_overhead",
               TraceOverhead(
                   [&](bool traced) {
                     return BootOnStore(store_dir, nullptr, 1, traced).seconds[0];
                   },
                   2),
               "ratio");
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace e2e
