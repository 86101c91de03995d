#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <tuple>

#include "codec/analysis.h"
#include "codec/decoder.h"
#include "codec/still.h"
#include "common/rng.h"
#include "core/tuner.h"
#include "media/image_ops.h"
#include "synth/scene.h"

namespace e2e {

using namespace sieve;

namespace {

/// The four labelled Table I presets, scaled so every camera costs about
/// the same to encode (~83k pixels; the aspect ratio is the preset's).
struct PresetShape {
  synth::DatasetId id;
  int width;
  int height;
};
constexpr PresetShape kPresets[] = {
    {synth::DatasetId::kJacksonSquare, 360, 240},
    {synth::DatasetId::kCoralReef, 384, 216},
    {synth::DatasetId::kVenice, 384, 216},
    {synth::DatasetId::kAmsterdam, 384, 216},
};

synth::SceneConfig PresetConfig(const PresetShape& shape, std::size_t frames,
                                std::uint64_t seed) {
  synth::SceneConfig config = synth::MakeDatasetConfig(shape.id, frames, seed);
  config.width = shape.width;
  config.height = shape.height;
  // Near-regular events at a quarter of the preset's mean timing: gaps and
  // dwells sit at that floor (the exponential draw, at a tenth of the mean,
  // rarely exceeds it), so a clip of seconds holds many enter/leave events
  // and the I-frame load per frame barely moves with the seed.
  config.min_gap_seconds = 0.25 * config.mean_gap_seconds;
  config.mean_gap_seconds *= 0.1;
  config.min_dwell_seconds = 0.25 * config.mean_dwell_seconds;
  config.mean_dwell_seconds *= 0.1;
  return config;
}

/// Seed of the preset scenes (independent of the run's seed).
constexpr std::uint64_t kSceneSeed = 0x51E7E;

double MicrosSince(Clock::time_point t) { return SecondsSince(t) * 1e6; }

}  // namespace

std::span<const std::uint8_t> WireBytes(const codec::EncodedVideo& video,
                                        const codec::FrameRecord& record) {
  return std::span<const std::uint8_t>(video.bytes)
      .subspan(record.payload_offset - codec::FrameRecord::kHeaderSize,
               codec::FrameRecord::kHeaderSize + record.payload_size);
}

std::vector<std::uint8_t> TranscodeIFrame(
    std::span<const std::uint8_t> container, const codec::FrameRecord& record,
    StillTimings* timings) {
  auto t = Clock::now();
  auto frame = codec::DecodeIntraFrameAt(container, record);
  if (!frame.ok()) return {};
  const double decode_us = MicrosSince(t);
  t = Clock::now();
  media::Frame resized = media::ResizeFrame(*frame, kNnInput, kNnInput);
  const double resize_us = MicrosSince(t);
  t = Clock::now();
  std::vector<std::uint8_t> still = codec::EncodeStill(resized, kStillQp);
  if (timings != nullptr) {
    timings->encode_us.push_back(MicrosSince(t));
    timings->decode_us.push_back(decode_us);
    timings->resize_us.push_back(resize_us);
    timings->resized.push_back(std::move(resized));
  }
  return still;
}

std::uint8_t PredictStill(const nn::FrameClassifier& classifier,
                          const std::vector<std::uint8_t>& still) {
  auto frame = codec::DecodeStill(still);
  if (!frame.ok()) return 0xFF;
  auto labels = classifier.Predict(*frame);
  return labels.ok() ? labels->bits() : 0xFF;
}

double SemanticAccuracy(const std::map<std::size_t, std::uint8_t>& rows,
                        std::size_t frames,
                        const std::function<std::uint8_t(std::size_t)>& truth_at) {
  if (frames == 0) return 1.0;
  std::size_t agree = 0;
  std::uint8_t current = 0;
  auto next = rows.begin();
  for (std::size_t k = 0; k < frames; ++k) {
    const std::uint8_t truth = truth_at(k);
    if (next != rows.end() && next->first == k) {
      current = truth;
      ++next;
    }
    agree += current == truth;
  }
  return double(agree) / double(frames);
}

CameraInputs BuildCameraInputs(std::uint64_t seed, const InputSpec& spec) {
  CameraInputs inputs;
  inputs.cameras.resize(std::size(kPresets));
  std::vector<std::vector<media::Frame>> fit_frames(std::size(kPresets));
  std::vector<std::vector<synth::LabelSet>> fit_labels(std::size(kPresets));
  constexpr std::size_t kFitStride = 5;

  const std::size_t rotate_by = Rng(seed).UniformU64(0, spec.clip_frames - 1);
  std::vector<std::thread> workers;
  for (std::size_t p = 0; p < std::size(kPresets); ++p) {
    workers.emplace_back([&, p] {
      const PresetShape& shape = kPresets[p];
      PresetCamera& cam = inputs.cameras[p];
      cam.preset = shape.id;
      cam.width = shape.width;
      cam.height = shape.height;
      // Each camera watches the same place in every run: one scene per
      // preset, rendered from a fixed seed (its background, objects and
      // events). The first train_frames are the camera's labelled history:
      // they tune its encoder (core::TuneEncoder, the paper's per-camera
      // lookup table) and calibrate the shared classifier on the camera's
      // own background. The camera streams the clip_frames after the
      // history, looped; the run's seed picks the clip frame every camera's
      // stream starts on. Every run thus streams the same content (the
      // encoder's work per frame does not move with the seed), in another
      // phase, and the cameras' events line up the same way in every run.
      synth::SyntheticVideo scene = synth::GenerateScene(PresetConfig(
          shape, spec.train_frames + spec.clip_frames, kSceneSeed + p));
      const std::size_t clip_begin = spec.train_frames;
      {
        media::RawVideo history;
        history.width = scene.video.width;
        history.height = scene.video.height;
        history.fps = scene.video.fps;
        history.frames.assign(
            scene.video.frames.begin(),
            scene.video.frames.begin() + std::ptrdiff_t(spec.train_frames));
        const synth::GroundTruth history_truth(std::vector<synth::LabelSet>(
            scene.truth.labels().begin(),
            scene.truth.labels().begin() + std::ptrdiff_t(spec.train_frames)));
        const core::TuningResult tuned = core::TuneEncoder(
            history, history_truth, core::TunerGrid::Extended());
        cam.params = codec::EncoderParams::Semantic(tuned.best.gop_size,
                                                    tuned.best.scenecut);
        // Each camera encodes inline on its own thread, as a camera device
        // encodes on its own processor. With the default (the runtime's
        // shared pool) four live cameras encode half as many frames per
        // second on four cores, and the rate swings with the scheduler;
        // see README.md.
        cam.params.threads = 1;
        for (std::size_t f = 0; f < spec.train_frames; f += kFitStride) {
          fit_frames[p].push_back(history.frames[f]);
          fit_labels[p].push_back(history_truth.label(f));
        }
      }
      const auto clip_first = scene.truth.labels().begin() + std::ptrdiff_t(clip_begin);
      cam.fps = scene.video.fps;
      std::vector<synth::LabelSet> clip_labels(
          clip_first, clip_first + std::ptrdiff_t(spec.clip_frames));
      std::rotate(clip_labels.begin(),
                  clip_labels.begin() + std::ptrdiff_t(rotate_by),
                  clip_labels.end());
      cam.truth = synth::GroundTruth(std::move(clip_labels));
      auto& frames = scene.video.frames;
      frames.erase(frames.begin() + std::ptrdiff_t(clip_begin + spec.clip_frames),
                   frames.end());
      frames.erase(frames.begin(), frames.begin() + std::ptrdiff_t(clip_begin));
      std::rotate(frames.begin(), frames.begin() + std::ptrdiff_t(rotate_by),
                  frames.end());
      cam.clip = std::move(scene.video);
      if (spec.pre_encode) {
        auto encoded = codec::VideoEncoder(cam.params).Encode(cam.clip);
        if (encoded.ok()) cam.encoded = std::move(*encoded);
        const codec::EncoderParams defaults =
            codec::EncoderParams::DefaultEncoding();
        cam.default_keyframes = codec::PlaceKeyframes(
            codec::AnalyzeVideo(cam.clip, defaults.analysis), defaults.keyframe);
      }
      if (!spec.keep_raw) cam.clip.frames.clear();
    });
  }
  for (auto& w : workers) w.join();

  std::vector<media::Frame> frames;
  std::vector<synth::LabelSet> labels;
  for (std::size_t p = 0; p < std::size(kPresets); ++p) {
    for (auto& f : fit_frames[p]) frames.push_back(std::move(f));
    labels.insert(labels.end(), fit_labels[p].begin(), fit_labels[p].end());
  }
  nn::ClassifierParams cp;
  cp.input_size = kNnInput;
  cp.seed = seed;
  inputs.classifier = std::make_unique<nn::FrameClassifier>(cp);
  if (!inputs.classifier->Fit(frames, synth::GroundTruth(std::move(labels)), 1)
           .ok()) {
    inputs.classifier.reset();
  }

  if (spec.pre_encode) {
    // Still sizes of every I-frame, serially (their timings feed the
    // still.* per-layer metrics, so nothing else runs meanwhile).
    for (PresetCamera& cam : inputs.cameras) {
      cam.still_bytes.assign(cam.encoded.records.size(), 0);
      cam.still_labels.assign(cam.encoded.records.size(), 0);
      for (const auto& rec : cam.encoded.records) {
        if (rec.type != codec::FrameType::kIntra) continue;
        const std::vector<std::uint8_t> still =
            TranscodeIFrame(cam.encoded.bytes, rec, &inputs.stills);
        cam.still_bytes[rec.index] = still.size();
        if (inputs.classifier) {
          cam.still_labels[rec.index] = PredictStill(*inputs.classifier, still);
        }
      }
    }
  }
  return inputs;
}

std::vector<std::pair<std::size_t, std::size_t>> OracleIntervals(
    const CameraRows& camera, synth::ObjectClass cls) {
  const std::uint8_t bit = std::uint8_t(1u << std::uint8_t(cls));
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  bool in_run = false;
  std::size_t begin = 0;
  for (const auto& [frame, bits] : camera.rows) {
    const bool has = (bits & bit) != 0;
    if (has && !in_run) {
      in_run = true;
      begin = frame;
    } else if (!has && in_run) {
      in_run = false;
      runs.emplace_back(begin, frame);
    }
  }
  if (in_run) {
    if (!camera.sealed) {
      runs.emplace_back(begin, query::kOpenEnd);
    } else if (begin < camera.total_frames) {
      runs.emplace_back(begin, camera.total_frames);
    }
  }
  return runs;
}

std::size_t CheckFindObject(Result& result, const query::QueryService& q,
                            const std::vector<CameraRows>& cameras,
                            const std::string& what) {
  std::size_t hits = 0;
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    const auto cls = synth::ObjectClass(c);
    using Key = std::tuple<std::string, std::size_t, std::size_t>;
    std::vector<Key> expected;
    for (const CameraRows& cam : cameras) {
      for (const auto& [b, e] : OracleIntervals(cam, cls)) {
        expected.emplace_back(cam.camera_id, b, e);
      }
    }
    std::vector<Key> actual;
    for (const auto& hit : q.FindObject(cls)) {
      actual.emplace_back(hit.camera_id, hit.begin_frame, hit.end_frame);
    }
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    hits += actual.size();
    result.Check(expected == actual,
                 what + ": FindObject(" + synth::ObjectClassName(cls) +
                     ") returned " + std::to_string(actual.size()) +
                     " hits, the interval merge " +
                     std::to_string(expected.size()));
  }
  return hits;
}

const dataflow::StageStats* FindStage(
    const std::vector<dataflow::StageStats>& stats, const std::string& name) {
  for (const auto& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void ReportStages(Result& result,
                  const std::vector<dataflow::StageStats>& stats) {
  const auto per_item_ms = [](const dataflow::StageStats* s) {
    return s != nullptr && s->in > 0 ? s->busy_seconds * 1e3 / double(s->in)
                                     : 0.0;
  };
  if (const auto* s = FindStage(stats, "edge/iframe-seeker")) {
    result.Set("stage.seeker.busy_s", s->busy_seconds, "s");
    result.Set("stage.seeker.in", double(s->in), "count");
  }
  if (const auto* s = FindStage(stats, "edge/still-transcode")) {
    result.Set("stage.transcode.busy_s", s->busy_seconds, "s");
    result.Set("stage.transcode.avg_queue", s->avg_queue, "count");
    result.Set("transcode.ms_per_iframe", per_item_ms(s), "ms");
  }
  if (const auto* s = FindStage(stats, "edge/nn")) {
    result.Set("stage.edge_nn.busy_s", s->busy_seconds, "s");
  }
  if (const auto* s = FindStage(stats, "cloud/nn")) {
    result.Set("stage.cloud_nn.busy_s", s->busy_seconds, "s");
    result.Set("stage.cloud_nn.avg_queue", s->avg_queue, "count");
    result.Set("cloud_nn.ms_per_iframe", per_item_ms(s), "ms");
  }
  if (const auto* s = FindStage(stats, "wan")) {
    result.Set("stage.wan.busy_s", s->busy_seconds, "s");
  }
}

void ReportStillAndLayers(Result& result, const StillTimings& timings,
                          const nn::FrameClassifier& classifier) {
  result.Set("still.decode_us", Median(timings.decode_us), "us");
  result.Set("still.resize_us", Median(timings.resize_us), "us");
  result.Set("still.encode_us", Median(timings.encode_us), "us");
  const nn::Network& net = classifier.network();
  const std::size_t layers = std::min<std::size_t>(net.LayerCount(), 13);
  std::vector<std::vector<double>> layer_us(layers);
  const std::size_t stills = std::min<std::size_t>(timings.resized.size(), 32);
  for (std::size_t s = 0; s < stills; ++s) {
    nn::Tensor x = classifier.InputTensor(timings.resized[s]);
    if (s == 0) (void)net.Forward(x);  // warm the weight caches
    for (std::size_t i = 0; i < layers; ++i) {
      const auto t = Clock::now();
      nn::Tensor y = net.ForwardRange(x, i, i + 1);
      layer_us[i].push_back(MicrosSince(t));
      x = std::move(y);
    }
  }
  for (std::size_t i = 0; i < layers; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "nn.layer%02zu_us", i);
    result.Set(name, Median(layer_us[i]), "us");
  }
}

std::uint64_t StoreBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

void ReportRecovery(Result& result, runtime::Runtime& rt,
                    std::size_t written_records, const std::string& store_dir,
                    const FoldedTrace* recover_trace) {
  const obs::MetricsSnapshot snap = rt.registry().Snapshot();
  const auto it = snap.counters.find("store.recover.records");
  const std::uint64_t records = it != snap.counters.end() ? it->second : 0;
  result.Set("store.records", double(records), "count");
  result.Check(records == written_records,
               "recovered " + std::to_string(records) + " records, " +
                   std::to_string(written_records) + " were written");
  result.Set("store.journal_mb", double(StoreBytes(store_dir)) / 1048576.0,
             "MB");
  if (recover_trace != nullptr) {
    const auto total_s = [&](const char* name) {
      const auto t = recover_trace->total_us.find(name);
      return t != recover_trace->total_us.end() ? t->second / 1e6 : 0.0;
    };
    result.Set("store.recover_s", total_s("store/recover"), "s");
    result.Set("store.replay_s", total_s("store/replay"), "s");
  }
  std::size_t intervals = 0;
  const auto snapshot = rt.query().snapshot();
  for (const auto& [route, record] : snapshot->cameras) {
    for (const auto& chain : record->intervals) intervals += chain.size();
  }
  result.Set("index.intervals", double(intervals), "count");
  std::vector<double> whereis_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (int c = 0; c < synth::kNumObjectClasses; ++c) {
      const auto t = Clock::now();
      (void)rt.query().WhereIs(synth::ObjectClass(c));
      whereis_us.push_back(MicrosSince(t));
    }
  }
  result.Set("query.whereis_us_p50", Median(whereis_us), "us");
}

Boot BootOnStore(const std::string& store_dir,
                 const nn::FrameClassifier* classifier, int boots,
                 bool trace) {
  Boot boot;
  runtime::RuntimeConfig config;
  config.store.dir = store_dir;
  config.trace.enabled = trace;
  config.trace.events_per_thread = 1 << 17;
  for (int i = 0; i < boots; ++i) {
    boot.rt.reset();
    const auto t = Clock::now();
    boot.rt = std::make_unique<runtime::Runtime>(config, classifier);
    boot.seconds.push_back(SecondsSince(t));
  }
  if (trace) boot.trace = FoldTrace(obs::SnapshotTrace());
  return boot;
}

std::map<std::string, std::uint64_t> TracksByCamera(
    const query::QueryService& q) {
  std::map<std::string, std::uint64_t> tracks;
  const auto snapshot = q.snapshot();
  for (const auto& [route, record] : snapshot->cameras) {
    tracks[record->camera_id] = obs::HashTrack(route);
  }
  return tracks;
}

}  // namespace e2e
