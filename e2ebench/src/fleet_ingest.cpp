// fleet_ingest: many cameras replay the tuned, pre-encoded preset streams
// through SieveSession::PushEncoded from one generator thread, at staggered
// stream offsets. A paced phase (open loop, a fixed per-camera rate below
// capacity) measures push -> visible label latency; an unpaced phase
// (closed loop, as fast as backpressure allows) measures throughput. One
// reader thread polls the live index and issues FindObject/WhereIs
// throughout.
#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.h"
#include "inputs.h"

namespace e2e {

using namespace sieve;

namespace {

constexpr std::size_t kCameras = 32;
constexpr std::size_t kClipFrames = 480;
/// Paced phase: every camera pushes at this rate (frames/s), open loop.
constexpr double kPacedFps = 100.0;
/// Share of the run's seconds spent in the paced phase.
constexpr double kPacedShare = 0.4;
constexpr int kBoots = 51;
/// Fewest paced I-frames a one-second window needs to count toward the
/// median label latency.
constexpr std::size_t kMinWindowSamples = 20;
/// Reader poll interval and how often a poll also issues live queries.
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr int kQueryEveryPolls = 8;
/// Frames per camera of the fixed ingest the tracing-overhead probe runs.
constexpr std::size_t kProbeFramesPerCamera = 1500;

struct Camera {
  std::unique_ptr<runtime::SieveSession> session;
  const PresetCamera* stream = nullptr;
  std::size_t offset = 0;  ///< stream record the camera's frame 0 replays
  std::uint64_t track = 0;
  std::size_t pushed = 0;
  std::size_t failed = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t still_bytes = 0;  ///< expected WAN bytes of pushed I-frames
  /// Frame ids of the I-frames pushed in the paced phase, in push order.
  std::vector<std::size_t> paced_iframes;
  runtime::SessionReport report;

  const codec::FrameRecord& Record(std::size_t k) const {
    const auto& records = stream->encoded.records;
    return records[(offset + k) % records.size()];
  }
};

Status Push(Camera& cam, std::size_t k) {
  const codec::FrameRecord& rec = cam.Record(k);
  const auto wire = WireBytes(cam.stream->encoded, rec);
  Status status;
  {
    obs::TraceSpan span("bench/push_encoded", obs::TraceContext{cam.track, k});
    status = cam.session->PushEncoded(rec.type, k, wire);
  }
  if (status.ok()) {
    ++cam.pushed;
    cam.wire_bytes += wire.size();
    cam.still_bytes += cam.stream->still_bytes[rec.index];
  } else {
    ++cam.failed;
  }
  return status;
}

runtime::SessionConfig SessionFor(const PresetCamera& stream) {
  runtime::SessionConfig sc;
  sc.width = stream.width;
  sc.height = stream.height;
  sc.fps = stream.fps;
  sc.encoder = stream.params;
  return sc;
}

/// Unpaced ingest of a fixed frame count into a fresh, storeless runtime
/// (the fixed work of the tracing-overhead probe). Returns wall seconds.
double ProbeIngest(const CameraInputs& inputs, bool traced) {
  runtime::RuntimeConfig config;
  config.trace.enabled = traced;
  runtime::Runtime rt(config, inputs.classifier.get());
  std::vector<Camera> cams(inputs.cameras.size());
  for (std::size_t i = 0; i < cams.size(); ++i) {
    cams[i].stream = &inputs.cameras[i];
    auto session = rt.OpenSession("probe-" + std::to_string(i),
                                  SessionFor(inputs.cameras[i]));
    if (!session.ok()) return 0.0;
    cams[i].session = std::move(*session);
  }
  const auto t = Clock::now();
  for (std::size_t k = 0; k < kProbeFramesPerCamera; ++k) {
    for (Camera& cam : cams) (void)Push(cam, k);
  }
  for (Camera& cam : cams) (void)cam.session->Drain();
  return SecondsSince(t);
}

}  // namespace

Result RunFleetIngest(const Options& options) {
  Result result;
  InitMetrics(result, options.trace);
  InputSpec spec;
  spec.clip_frames = kClipFrames;
  spec.pre_encode = true;
  CameraInputs inputs = BuildCameraInputs(options.seed, spec);
  result.Check(inputs.classifier != nullptr, "classifier fit failed");
  if (!result.correct) return result;
  const std::string store_dir = options.work_dir + "/store";

  runtime::RuntimeConfig config;
  config.store.dir = store_dir;
  config.trace.enabled = options.trace;
  config.trace.events_per_thread = 1 << 18;
  Rng rng(options.seed * 7919 + 17);
  const double setup_s = SecondsSince(options.process_start);

  auto rt = std::make_unique<runtime::Runtime>(config, inputs.classifier.get());
  std::vector<Camera> cams(kCameras);
  for (std::size_t i = 0; i < kCameras; ++i) {
    Camera& cam = cams[i];
    cam.stream = &inputs.cameras[i % inputs.cameras.size()];
    cam.offset = rng.UniformU64(0, cam.stream->encoded.records.size() - 1);
    auto session = rt->OpenSession("cam-" + std::to_string(i),
                                   SessionFor(*cam.stream));
    result.Check(session.ok(), "OpenSession failed");
    if (!session.ok()) return result;
    cam.session = std::move(*session);
  }
  {
    const auto tracks = TracksByCamera(rt->query());
    for (std::size_t i = 0; i < kCameras; ++i) {
      cams[i].track = tracks.at("cam-" + std::to_string(i));
    }
  }
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < kCameras; ++i) index_of["cam-" + std::to_string(i)] = i;

  // The paced schedule: camera i's frame k is due at
  // paced_start + (k + i / kCameras) / kPacedFps.
  const double paced_s = options.seconds * kPacedShare;
  const std::size_t paced_frames = std::size_t(paced_s * kPacedFps);
  for (Camera& cam : cams) {
    for (std::size_t k = 0; k < paced_frames; ++k) {
      if (cam.Record(k).type == codec::FrameType::kIntra) {
        cam.paced_iframes.push_back(k);
      }
    }
  }
  const auto due_offset = [](std::size_t i, std::size_t k) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
        (double(k) + double(i) / double(kCameras)) / kPacedFps));
  };

  // --- The reader: label visibility and live queries. ---------------------
  std::atomic<bool> stop_reader{false};
  std::atomic<std::size_t> paced_seen{0};
  std::size_t paced_total = 0;
  for (const Camera& cam : cams) paced_total += cam.paced_iframes.size();
  std::vector<std::vector<Sample>> latency_by_cam(kCameras);
  std::vector<double> find_us;
  std::size_t live_queries = 0;
  Clock::time_point paced_start;
  std::atomic<bool> paced_started{false};
  std::thread reader([&] {
    std::vector<std::uint64_t> seen(kCameras, 0);
    Rng qrng(options.seed * 31 + 5);
    for (int poll = 0; !stop_reader.load(std::memory_order_acquire); ++poll) {
      if (paced_started.load(std::memory_order_acquire)) {
        const auto snapshot = rt->query().snapshot();
        const auto now = Clock::now();
        for (const auto& [route, record] : snapshot->cameras) {
          const std::size_t i = index_of.at(record->camera_id);
          const Camera& cam = cams[i];
          for (; seen[i] < record->inserts; ++seen[i]) {
            if (seen[i] >= cam.paced_iframes.size()) continue;
            const auto due = paced_start + due_offset(i, cam.paced_iframes[seen[i]]);
            latency_by_cam[i].push_back(Sample{SecondsBetween(paced_start, due),
                                               SecondsBetween(due, now) * 1e3});
            paced_seen.fetch_add(1, std::memory_order_release);
          }
        }
      }
      if (poll % kQueryEveryPolls == 0) {
        const auto cls = synth::ObjectClass(qrng.UniformInt(0, synth::kNumObjectClasses - 1));
        const double t0 = qrng.Uniform(0.0, 20.0);
        const auto t = Clock::now();
        {
          obs::TraceSpan span("bench/find_object", obs::TraceContext{});
          (void)rt->query().FindObject(cls, t0, t0 + 5.0);
        }
        find_us.push_back(SecondsSince(t) * 1e6);
        {
          obs::TraceSpan span("bench/where_is", obs::TraceContext{});
          (void)rt->query().WhereIs(cls);
        }
        live_queries += 2;
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  });

  // --- Timed, paced phase: open loop at kPacedFps per camera. -------------
  double lag_max_ms = 0.0;
  paced_start = Clock::now() + std::chrono::milliseconds(5);
  paced_started.store(true, std::memory_order_release);
  for (std::size_t k = 0; k < paced_frames; ++k) {
    for (std::size_t i = 0; i < kCameras; ++i) {
      const auto due = paced_start + due_offset(i, k);
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      lag_max_ms = std::max(lag_max_ms, SecondsSince(due) * 1e3);
      (void)Push(cams[i], k);
    }
  }
  // The paced phase ends when every paced I-frame is visible (bounded).
  const auto settle_deadline = Clock::now() + std::chrono::seconds(10);
  while (paced_seen.load(std::memory_order_acquire) < paced_total &&
         Clock::now() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FoldedTrace paced_trace;
  if (options.trace) paced_trace = FoldTrace(obs::SnapshotTrace());

  // --- Timed, unpaced phase: closed loop, whole rounds over the cameras. --
  const auto unpaced_start = Clock::now();
  const auto deadline =
      unpaced_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds - paced_s));
  std::size_t unpaced_frames = 0;
  std::vector<Sample> unpaced_pushes;
  double blocked_s = 0.0;
  for (std::size_t k = paced_frames; Clock::now() < deadline; ++k) {
    for (Camera& cam : cams) {
      const auto t = Clock::now();
      (void)Push(cam, k);
      blocked_s += SecondsSince(t);
      ++unpaced_frames;
      unpaced_pushes.push_back(Sample{SecondsSince(unpaced_start), 0.0});
    }
  }
  for (Camera& cam : cams) {
    obs::TraceSpan span("bench/drain", obs::TraceContext{cam.track, 0});
    cam.report = cam.session->Drain();
  }
  const double unpaced_wall_s = SecondsSince(unpaced_start);
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  // --- End of the timed part. ---------------------------------------------

  // After drain, the live index must equal the drained databases.
  std::vector<CameraRows> rows(kCameras);
  std::size_t frames = 0, iframes = 0, delivered = 0, written_records = 0;
  std::uint64_t e2c_bytes = 0, retries = 0;
  for (std::size_t i = 0; i < kCameras; ++i) {
    Camera& cam = cams[i];
    const runtime::SessionReport& r = cam.report;
    const std::string id = "cam-" + std::to_string(i);
    result.attempted += cam.pushed + cam.failed;
    result.failed += cam.failed + r.frames_dropped;
    frames += r.frames_pushed;
    iframes += r.iframes_selected;
    delivered += r.frames_delivered;
    e2c_bytes += r.edge_to_cloud_bytes;
    retries += r.wan_retries;
    written_records += 1 + r.labels_written + 1;  // register, rows, seal
    result.Check(r.frames_pushed == cam.pushed, id + ": frames_pushed differs");
    result.Check(r.frames_pushed == r.frames_stored_edge + r.frames_delivered +
                                        r.frames_dropped + r.frames_resumed,
                 id + ": frame ledger does not balance");
    result.Check(r.frames_dropped == 0 && r.frames_resumed == 0,
                 id + ": frames dropped or resumed");
    result.Check(r.camera_to_edge_bytes == cam.wire_bytes,
                 id + ": camera_to_edge_bytes != pushed wire bytes");
    result.Check(r.edge_to_cloud_bytes == cam.still_bytes,
                 id + ": edge_to_cloud_bytes != summed still sizes");
    rows[i].camera_id = id;
    rows[i].total_frames = r.frames_pushed;
    rows[i].fps = cam.stream->fps;
    std::vector<std::size_t> expected;
    for (std::size_t k = 0; k < cam.pushed; ++k) {
      if (cam.Record(k).type == codec::FrameType::kIntra) expected.push_back(k);
    }
    std::vector<std::size_t> db_frames;
    std::size_t label_mismatches = 0;
    for (const auto& [frame, labels] : cam.session->db().rows()) {
      rows[i].rows[frame] = labels.bits();
      db_frames.push_back(frame);
      label_mismatches +=
          labels.bits() != cam.stream->still_labels[cam.Record(frame).index];
    }
    result.Check(db_frames == expected,
                 id + ": db frames differ from the pushed I-frames");
    result.Check(label_mismatches == 0,
                 id + ": db labels differ from Predict on the edge stills");
  }
  const std::size_t hits = CheckFindObject(result, rt->query(), rows, "drained");
  result.Check(paced_seen.load() == paced_total,
               "reader saw " + std::to_string(paced_seen.load()) + " of " +
                   std::to_string(paced_total) + " paced I-frames");
  std::vector<Sample> latencies;
  for (const auto& v : latency_by_cam) latencies.insert(latencies.end(), v.begin(), v.end());
  std::vector<double> latency_ms;
  for (const Sample& l : latencies) latency_ms.push_back(l.value);

  // Table II accuracy of the pushed semantic I-frames vs the default
  // encoder's on the same frames (the reference NN taken to be right on
  // the frames it sees), and of the db's own labels (reported, see README).
  {
    std::size_t label_agree = 0;
    double semantic_agree = 0.0, default_agree = 0.0;
    for (std::size_t i = 0; i < kCameras; ++i) {
      const Camera& cam = cams[i];
      const auto truth_at = [&cam](std::size_t k) {
        return cam.stream->truth.label(cam.Record(k).index).bits();
      };
      const core::ResultsDatabase& db = cam.session->db();
      for (std::size_t k = 0; k < cam.pushed; ++k) {
        label_agree += db.LabelAt(k).bits() == truth_at(k);
      }
      semantic_agree +=
          double(cam.pushed) * SemanticAccuracy(rows[i].rows, cam.pushed, truth_at);
      std::map<std::size_t, std::uint8_t> default_selection;
      for (std::size_t k = 0; k < cam.pushed; ++k) {
        if (k == 0 || cam.stream->default_keyframes[cam.Record(k).index]) {
          default_selection[k] = 0;
        }
      }
      default_agree += double(cam.pushed) *
                       SemanticAccuracy(default_selection, cam.pushed, truth_at);
    }
    const double n = double(std::max<std::size_t>(frames, 1));
    result.Detail("label_accuracy", double(label_agree) / n, "ratio");
    result.Detail("semantic_accuracy", semantic_agree / n, "ratio");
    result.Detail("default_accuracy", default_agree / n, "ratio");
    result.Check(semantic_agree > default_agree,
                 "semantic I-frame selection is not more accurate than the "
                 "default encoding's");
  }

  auto stats = rt->Shutdown();
  result.Check(stats.ok(), "Shutdown failed");
  FoldedTrace folded;
  if (options.trace) folded = FoldTrace(obs::SnapshotTrace());
  const obs::MetricsSnapshot registry = rt->registry().Snapshot();
  rt.reset();

  Boot boot = BootOnStore(store_dir, inputs.classifier.get(), kBoots,
                          options.trace);
  CheckFindObject(result, boot.rt->query(), rows, "after restart");
  ReportRecovery(result, *boot.rt, written_records, store_dir,
                 options.trace ? &boot.trace : nullptr);
  boot.rt.reset();

  // --- End-to-end metrics. ------------------------------------------------
  const double ingest_fps = double(unpaced_frames) / unpaced_wall_s;
  const double wan_per_iframe =
      delivered > 0 ? double(e2c_bytes) / double(delivered) : 0.0;
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", SteadyRate(unpaced_pushes, options.seconds - paced_s),
             "1/s");
  result.Set("latency_p50_ms", SteadyMedian(latencies, paced_s, kMinWindowSamples),
             "ms");
  result.Detail("latency_p50_all_ms", Quantile(latency_ms, 0.5), "ms");
  result.Detail("latency_p99_ms", Quantile(latency_ms, 0.99), "ms");
  result.Set("bytes_per_item", wan_per_iframe, "bytes");
  result.Set("recovery_s", Fastest(boot.seconds), "s");
  result.Detail("ingest_fps", ingest_fps, "frames/s");
  result.Detail("label_latency.samples", double(latency_ms.size()), "count");
  result.Detail("wan_bytes_per_iframe", wan_per_iframe, "bytes");
  result.Detail("gen.lag_ms_max", lag_max_ms, "ms");
  // The runtime's own push -> settle p99 (power-of-two histogram buckets,
  // both phases), next to the raw due -> visible p99 of the paced phase.
  double session_p99_ms = 0.0;
  for (const Camera& cam : cams) {
    session_p99_ms = std::max(session_p99_ms, cam.report.latency_p99_ms);
  }
  result.Detail("session_latency_p99_ms_max", session_p99_ms, "ms");
  result.Detail("frames", double(frames), "count");
  result.Detail("iframes", double(iframes), "count");
  result.attempted += live_queries;

  // --- Per-layer metrics (traced run). ------------------------------------
  if (options.trace) {
    const auto self_us = [&](const char* name) {
      const auto it = folded.self_us.find(name);
      return it != folded.self_us.end() ? it->second : 0.0;
    };
    result.Set("encode.iframes_per_kframe",
               1e3 * double(iframes) / double(std::max<std::size_t>(frames, 1)),
               "count");
    result.Set("push.blocked_s", blocked_s, "s");
    result.Set("gen.lag_ms_max", lag_max_ms, "ms");
    if (stats.ok()) ReportStages(result, *stats);
    ReportStillAndLayers(result, inputs.stills, *inputs.classifier);
    result.Set("wan.goodput_bytes", double(e2c_bytes), "bytes");
    result.Set("wan.retries", double(retries), "count");
    if (const auto h = registry.histograms.find("store.journal.fsync_ms");
        h != registry.histograms.end()) {
      result.Set("journal.fsync_ms_p50", h->second.p50, "ms");
    }
    result.Set("db_insert.us",
               self_us("db/insert") / double(std::max<std::size_t>(delivered, 1)),
               "us");
    if (const auto c = registry.counters.find("query.rebuilds");
        c != registry.counters.end()) {
      result.Set("query.rebuilds", double(c->second), "count");
    }
    result.Set("query.hits_per_query", double(hits) / synth::kNumObjectClasses,
               "count");
    result.Set("live_query.find_us_p50", Quantile(find_us, 0.5), "us");
    result.Set("live_query.find_us_p99", Quantile(find_us, 0.99), "us");
    result.Set("obs.dropped_events", double(folded.dropped), "count");
    // Traced time of each paced I-frame (the benchmark's push span plus the
    // runtime's stage spans) against its due -> visible latency.
    double traced_us = 0.0;
    for (const Camera& cam : cams) {
      for (std::size_t k : cam.paced_iframes) {
        for (const auto* spans : {&paced_trace.frame_top_us, &paced_trace.frame_bench_us}) {
          const auto it = spans->find({cam.track, k});
          if (it != spans->end()) traced_us += it->second;
        }
      }
    }
    double latency_sum_ms = 0.0;
    for (double v : latency_ms) latency_sum_ms += v;
    const double coverage =
        latency_sum_ms > 0 ? traced_us / 1e3 / latency_sum_ms : 0.0;
    result.Set("attrib.coverage", coverage, "ratio");
    result.Check(coverage <= 1.0, "attrib.coverage above 1");
    result.Set("obs.trace_overhead",
               TraceOverhead([&](bool traced) { return ProbeIngest(inputs, traced); }, 2),
               "ratio");
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace e2e
