// camera_encode: live cameras push rendered raw frames through
// SieveSession::PushFrame as fast as their sessions accept them, one feeder
// thread per camera, with the full tiers and the journal behind them.
#include <algorithm>
#include <atomic>
#include <thread>

#include "codec/analysis.h"
#include "codec/decoder.h"
#include "core/seeker.h"
#include "inputs.h"
#include "media/metrics.h"

namespace e2e {

using namespace sieve;

namespace {

constexpr std::size_t kClipFrames = 360;
/// Cameras streamed (the first presets of the inputs): three inline
/// encoders and the tiers behind them (about one more core) fit four cores,
/// so the run does not measure the scheduler.
constexpr std::size_t kCameras = 3;
constexpr int kBoots = 51;
/// The re-encode's luma PSNR against the raw frames (qp 26 intra/inter).
constexpr double kMinPsnrDb = 30.0;
/// Fewest pushes a one-second window needs to count toward the median.
constexpr std::size_t kMinWindowSamples = 20;
/// Frames of the fixed piece of work the tracing-overhead probe encodes.
constexpr std::size_t kProbeFrames = 240;

/// The clip looped `n` frames long, as the camera pushed it.
const media::Frame& LoopFrame(const PresetCamera& cam, std::size_t k) {
  return cam.clip.frames[k % cam.clip.frames.size()];
}

/// Keyframes the encoder must place on the looped clip, from the analysis
/// costs of the clip (every loop after the first starts with the cost of
/// its first frame against the clip's last frame).
std::vector<std::size_t> ExpectedIFrames(const PresetCamera& cam,
                                         std::size_t n,
                                         const codec::KeyframeParams& keyframe) {
  const std::vector<codec::FrameCost> base =
      codec::AnalyzeVideo(cam.clip, cam.params.analysis);
  media::RawVideo wrap;
  wrap.width = cam.width;
  wrap.height = cam.height;
  wrap.frames = {cam.clip.frames.back(), cam.clip.frames.front()};
  const codec::FrameCost wrap_cost =
      codec::AnalyzeVideo(wrap, cam.params.analysis)[1];
  std::vector<codec::FrameCost> costs(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = k % base.size();
    costs[k] = (k >= base.size() && i == 0) ? wrap_cost : base[i];
  }
  const std::vector<bool> key = codec::PlaceKeyframes(costs, keyframe);
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < n; ++k) {
    if (key[k]) out.push_back(k);
  }
  return out;
}

struct Camera {
  std::unique_ptr<runtime::SieveSession> session;
  std::uint64_t track = 0;
  std::vector<Sample> push_ms;  ///< per frame: end of PushFrame, its ms
  std::size_t pushed = 0;
  std::size_t failed = 0;
  runtime::SessionReport report;
};

/// Encode `frames` frames of one camera through a fresh, storeless runtime
/// (the fixed work of the tracing-overhead probe). Returns wall seconds.
double ProbeEncode(const PresetCamera& cam, const nn::FrameClassifier* cls,
                   std::size_t frames, bool traced) {
  runtime::RuntimeConfig config;
  config.trace.enabled = traced;
  runtime::Runtime rt(config, cls);
  runtime::SessionConfig sc;
  sc.width = cam.width;
  sc.height = cam.height;
  sc.fps = cam.fps;
  sc.encoder = cam.params;
  auto session = rt.OpenSession("probe", sc);
  if (!session.ok()) return 0.0;
  const auto t = Clock::now();
  for (std::size_t k = 0; k < frames; ++k) {
    if (!(*session)->PushFrame(LoopFrame(cam, k)).ok()) break;
  }
  (void)(*session)->Drain();
  return SecondsSince(t);
}

}  // namespace

Result RunCameraEncode(const Options& options) {
  Result result;
  InitMetrics(result, options.trace);
  InputSpec spec;
  spec.clip_frames = kClipFrames;
  spec.keep_raw = true;
  CameraInputs inputs = BuildCameraInputs(options.seed, spec);
  result.Check(inputs.classifier != nullptr, "classifier fit failed");
  if (!result.correct) return result;
  const std::string store_dir = options.work_dir + "/store";

  runtime::RuntimeConfig config;
  config.store.dir = store_dir;
  config.trace.enabled = options.trace;
  config.trace.events_per_thread = 1 << 17;
  const double setup_s = SecondsSince(options.process_start);

  auto rt = std::make_unique<runtime::Runtime>(config, inputs.classifier.get());
  std::vector<Camera> cams(std::min(kCameras, inputs.cameras.size()));
  for (std::size_t i = 0; i < cams.size(); ++i) {
    const PresetCamera& pc = inputs.cameras[i];
    runtime::SessionConfig sc;
    sc.width = pc.width;
    sc.height = pc.height;
    sc.fps = pc.fps;
    sc.encoder = pc.params;
    auto session = rt->OpenSession("cam-" + std::to_string(i), sc);
    result.Check(session.ok(), "OpenSession failed");
    if (!session.ok()) return result;
    cams[i].session = std::move(*session);
  }
  const auto tracks = TracksByCamera(rt->query());
  for (std::size_t i = 0; i < cams.size(); ++i) {
    cams[i].track = tracks.at("cam-" + std::to_string(i));
  }

  // --- Timed: push until the deadline, then drain every session. ---------
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> feeders;
  for (std::size_t i = 0; i < cams.size(); ++i) {
    feeders.emplace_back([&, i] {
      Camera& cam = cams[i];
      const PresetCamera& pc = inputs.cameras[i];
      cam.push_ms.reserve(8192);
      for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const auto t = Clock::now();
        Status status;
        {
          obs::TraceSpan span("bench/push_frame", obs::TraceContext{cam.track, k});
          status = cam.session->PushFrame(LoopFrame(pc, k));
        }
        const auto end = Clock::now();
        cam.push_ms.push_back(
            Sample{SecondsBetween(start, end), SecondsBetween(t, end) * 1e3});
        if (!status.ok()) {
          ++cam.failed;
          break;
        }
        ++cam.pushed;
      }
    });
  }
  for (auto& f : feeders) f.join();
  for (Camera& cam : cams) {
    obs::TraceSpan span("bench/drain", obs::TraceContext{cam.track, 0});
    cam.report = cam.session->Drain();
  }
  const double wall_s = SecondsSince(start);
  // --- End of the timed part. ---------------------------------------------

  auto stats = rt->Shutdown();
  result.Check(stats.ok(), "Shutdown failed");
  FoldedTrace folded;
  if (options.trace) folded = FoldTrace(obs::SnapshotTrace());
  const obs::MetricsSnapshot registry = rt->registry().Snapshot();

  std::size_t frames = 0, iframes = 0, delivered = 0, written_records = 0;
  std::uint64_t e2c_bytes = 0;
  double latency_sum_ms = 0.0;
  std::size_t label_agree = 0;
  double semantic_agree = 0.0, default_agree = 0.0;
  std::vector<Sample> pushes;
  std::vector<CameraRows> rows(cams.size());
  for (std::size_t i = 0; i < cams.size(); ++i) {
    const Camera& cam = cams[i];
    const runtime::SessionReport& r = cam.report;
    result.attempted += cam.pushed + cam.failed;
    result.failed += cam.failed + r.frames_dropped;
    frames += r.frames_pushed;
    iframes += r.iframes_selected;
    delivered += r.frames_delivered;
    e2c_bytes += r.edge_to_cloud_bytes;
    latency_sum_ms += r.latency_avg_ms * double(r.frames_delivered);
    pushes.insert(pushes.end(), cam.push_ms.begin(), cam.push_ms.end());
    written_records += 1 + r.labels_written + 1;  // register, rows, seal
    const std::string id = "cam-" + std::to_string(i);
    result.Check(r.frames_pushed == cam.pushed, id + ": frames_pushed differs");
    result.Check(r.frames_pushed == r.frames_stored_edge + r.frames_delivered +
                                        r.frames_dropped + r.frames_resumed,
                 id + ": frame ledger does not balance");
    result.Check(r.frames_dropped == 0 && r.frames_resumed == 0,
                 id + ": frames dropped or resumed");

    const PresetCamera& pc = inputs.cameras[i];
    rows[i].camera_id = id;
    rows[i].total_frames = r.frames_pushed;
    rows[i].fps = pc.fps;
    const core::ResultsDatabase& db = cam.session->db();
    for (const auto& [frame, labels] : db.rows()) rows[i].rows[frame] = labels.bits();
    std::vector<std::size_t> db_frames;
    for (const auto& [frame, bits] : rows[i].rows) db_frames.push_back(frame);
    const std::vector<std::size_t> expected =
        ExpectedIFrames(pc, r.frames_pushed, pc.params.keyframe);
    result.Check(db_frames == expected,
                 id + ": db frames differ from PlaceKeyframes(AnalyzeVideo)");

    // Table II accuracy of the semantic vs the default encoding's I-frame
    // selection (the reference NN taken to be right on the frames it sees),
    // and the accuracy of the db's own labels (reported, see README).
    const auto truth_at = [&pc](std::size_t k) {
      return pc.truth.label(k % pc.truth.frame_count()).bits();
    };
    const double n = double(r.frames_pushed);
    for (std::size_t k = 0; k < r.frames_pushed; ++k) {
      label_agree += db.LabelAt(k).bits() == truth_at(k);
    }
    semantic_agree += n * SemanticAccuracy(rows[i].rows, r.frames_pushed, truth_at);
    std::map<std::size_t, std::uint8_t> default_selection;
    for (std::size_t f : ExpectedIFrames(
             pc, r.frames_pushed,
             codec::EncoderParams::DefaultEncoding().keyframe)) {
      default_selection[f] = 0;
    }
    default_agree +=
        n * SemanticAccuracy(default_selection, r.frames_pushed, truth_at);
  }
  const double n_frames = double(std::max<std::size_t>(frames, 1));
  result.Detail("label_accuracy", double(label_agree) / n_frames, "ratio");
  result.Detail("semantic_accuracy", semantic_agree / n_frames, "ratio");
  result.Detail("default_accuracy", default_agree / n_frames, "ratio");
  result.Check(semantic_agree > default_agree,
               "semantic I-frame selection is not more accurate than the "
               "default encoding's");

  // A standalone re-encode of camera 0: same wire bytes as its session,
  // same stills on the WAN, and a faithful decode.
  {
    const PresetCamera& pc = inputs.cameras[0];
    const runtime::SessionReport& r = cams[0].report;
    // On the shared pool, unlike the session's inline encoder: the codec
    // promises the same bitstream at any thread count, and the check ends
    // sooner.
    codec::EncoderParams pooled = pc.params;
    pooled.threads = 0;
    codec::StreamingEncoder encoder(pooled, pc.width, pc.height, pc.fps);
    std::uint64_t wire = 0;
    for (std::size_t k = 0; k < r.frames_pushed; ++k) {
      auto rec = encoder.PushFrame(LoopFrame(pc, k));
      if (!rec.ok()) break;
      wire += codec::FrameRecord::kHeaderSize + rec->payload_size;
    }
    const codec::EncodedVideo video = encoder.Finish();
    result.Check(wire == r.camera_to_edge_bytes,
                 "cam-0: re-encode wire bytes " + std::to_string(wire) +
                     " != camera_to_edge_bytes " +
                     std::to_string(r.camera_to_edge_bytes));
    StillTimings stills;
    std::uint64_t still_bytes = 0;
    std::size_t label_mismatches = 0;
    for (const auto& rec : video.records) {
      if (rec.type != codec::FrameType::kIntra) continue;
      const std::vector<std::uint8_t> still =
          TranscodeIFrame(video.bytes, rec, &stills);
      still_bytes += still.size();
      const auto row = rows[0].rows.find(rec.index);
      label_mismatches += row == rows[0].rows.end() ||
                          row->second != PredictStill(*inputs.classifier, still);
    }
    result.Check(label_mismatches == 0,
                 "cam-0: " + std::to_string(label_mismatches) +
                     " db labels differ from Predict on the edge still");
    result.Check(still_bytes == r.edge_to_cloud_bytes,
                 "cam-0: still bytes " + std::to_string(still_bytes) +
                     " != edge_to_cloud_bytes " +
                     std::to_string(r.edge_to_cloud_bytes));
    double psnr_sum = 0.0;
    std::size_t decoded = 0;
    auto decoder = codec::VideoDecoder::Open(video.bytes);
    result.Check(decoder.ok(), "cam-0: re-encode does not open");
    double full_decode_s = 0.0;
    while (decoder.ok() && !decoder->AtEnd()) {
      const auto t = Clock::now();
      auto frame = decoder->DecodeNext();
      full_decode_s += SecondsSince(t);
      if (!frame.ok()) break;
      psnr_sum += media::FramePsnr(*frame, LoopFrame(pc, decoded));
      ++decoded;
    }
    const double psnr = decoded > 0 ? psnr_sum / double(decoded) : 0.0;
    // Table III reference: frames covered per second by a full decode vs
    // by the SiEVE path (walk the frame index, decode the I-frames only).
    {
      const auto t = Clock::now();
      std::size_t covered = 0;
      if (auto seek = core::SeekIFrames(video.bytes); seek.ok()) {
        covered = seek->total_frames;
        for (const auto& rec : seek->iframes) {
          (void)codec::DecodeIntraFrameAt(video.bytes, rec);
        }
      }
      const double seek_s = SecondsSince(t);
      result.Detail("ref.full_decode_fps",
                    full_decode_s > 0 ? double(decoded) / full_decode_s : 0.0,
                    "frames/s");
      result.Detail("ref.seek_decode_fps",
                    seek_s > 0 ? double(covered) / seek_s : 0.0, "frames/s");
    }
    result.Detail("cam-0.psnr_db", psnr, "dB");
    result.Check(decoded == r.frames_pushed && psnr >= kMinPsnrDb,
                 "cam-0: decoded " + std::to_string(decoded) + " frames at " +
                     std::to_string(psnr) + " dB");
    if (options.trace) ReportStillAndLayers(result, stills, *inputs.classifier);
  }
  rt.reset();

  // Restart on the journal this run wrote: boot recovery, then the index
  // must answer exactly what the drained databases hold.
  Boot boot = BootOnStore(store_dir, inputs.classifier.get(), kBoots,
                          options.trace);
  const std::size_t hits =
      CheckFindObject(result, boot.rt->query(), rows, "after restart");
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    result.Check(boot.rt->query().WhereIs(synth::ObjectClass(c)).empty(),
                 "after restart: WhereIs on sealed cameras is not empty");
  }
  ReportRecovery(result, *boot.rt, written_records, store_dir,
                 options.trace ? &boot.trace : nullptr);
  boot.rt.reset();

  // --- End-to-end metrics. ------------------------------------------------
  const double encode_fps = wall_s > 0 ? double(frames) / wall_s : 0.0;
  // Each camera weighs the same: the cameras encode at their own rates, so
  // a share of the frames would weigh the cheaper scenes by their speed.
  double bytes_per_frame = 0.0;
  for (const Camera& cam : cams) {
    bytes_per_frame += double(cam.report.camera_to_edge_bytes) /
                       double(std::max<std::size_t>(cam.report.frames_pushed, 1)) /
                       double(cams.size());
  }
  std::vector<double> push_ms;
  for (const Sample& p : pushes) push_ms.push_back(p.value);
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", SteadyRate(pushes, options.seconds), "1/s");
  result.Set("latency_p50_ms", SteadyMedian(pushes, options.seconds, kMinWindowSamples),
             "ms");
  result.Detail("latency_p50_all_ms", Quantile(push_ms, 0.5), "ms");
  result.Detail("latency_p99_ms", Quantile(push_ms, 0.99), "ms");
  result.Set("bytes_per_item", bytes_per_frame, "bytes");
  result.Set("recovery_s", Fastest(boot.seconds), "s");
  result.Detail("encode_fps", encode_fps, "frames/s");
  result.Detail("stream_bytes_per_frame", bytes_per_frame, "bytes");
  result.Detail("push_latency.samples", double(push_ms.size()), "count");
  result.Detail("frames", double(frames), "count");
  result.Detail("iframes", double(iframes), "count");
  result.Detail("wan_bytes_per_iframe",
                delivered > 0 ? double(e2c_bytes) / double(delivered) : 0.0,
                "bytes");

  // --- Per-layer metrics (traced run). ------------------------------------
  if (options.trace) {
    const double n = double(std::max<std::size_t>(frames, 1));
    const auto self_ms = [&](const char* name) {
      const auto it = folded.self_us.find(name);
      return it != folded.self_us.end() ? it->second / 1e3 : 0.0;
    };
    const auto total_ms = [&](const char* name) {
      const auto it = folded.total_us.find(name);
      return it != folded.total_us.end() ? it->second / 1e3 : 0.0;
    };
    result.Set("encode.push_ms", total_ms("bench/push_frame") / n, "ms");
    result.Set("encode.analyze_ms", self_ms("encode/analyze") / n, "ms");
    result.Set("encode.pass_ms", self_ms("encode/pass") / n, "ms");
    result.Set("encode.entropy_ms", self_ms("encode/entropy") / n, "ms");
    result.Set("encode.iframes_per_kframe", 1e3 * double(iframes) / n, "count");
    // What PushFrame spends outside the encoder: the LAN hop and the wait
    // on the camera's full ingress queue.
    result.Set("push.blocked_s", self_ms("bench/push_frame") / 1e3, "s");
    if (stats.ok()) ReportStages(result, *stats);
    result.Set("wan.goodput_bytes", double(e2c_bytes), "bytes");
    std::uint64_t retries = 0;
    for (const Camera& cam : cams) retries += cam.report.wan_retries;
    result.Set("wan.retries", double(retries), "count");
    if (const auto h = registry.histograms.find("store.journal.fsync_ms");
        h != registry.histograms.end()) {
      result.Set("journal.fsync_ms_p50", h->second.p50, "ms");
    }
    result.Set("db_insert.us",
               self_ms("db/insert") * 1e3 / double(std::max<std::size_t>(delivered, 1)),
               "us");
    if (const auto c = registry.counters.find("query.rebuilds");
        c != registry.counters.end()) {
      result.Set("query.rebuilds", double(c->second), "count");
    }
    result.Set("query.hits_per_query", double(hits) / synth::kNumObjectClasses,
               "count");
    result.Set("obs.dropped_events", double(folded.dropped), "count");
    // Traced time of the delivered I-frames inside the program against
    // their summed push -> settle latency (the sessions' exact sums).
    double traced_us = 0.0;
    for (std::size_t i = 0; i < cams.size(); ++i) {
      for (const auto& [frame, bits] : rows[i].rows) {
        const auto it = folded.frame_top_us.find({cams[i].track, frame});
        if (it != folded.frame_top_us.end()) traced_us += it->second;
      }
    }
    const double coverage =
        latency_sum_ms > 0 ? traced_us / 1e3 / latency_sum_ms : 0.0;
    result.Set("attrib.coverage", coverage, "ratio");
    result.Check(coverage <= 1.0, "attrib.coverage above 1");
    result.Set("obs.trace_overhead",
               TraceOverhead(
                   [&](bool traced) {
                     return ProbeEncode(inputs.cameras[0], inputs.classifier.get(),
                                        kProbeFrames, traced);
                   },
                   2),
               "ratio");
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace e2e
