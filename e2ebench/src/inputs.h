// Inputs shared by the live-pipeline workloads (camera_encode,
// fleet_ingest): Table I preset cameras with tuned encoders, a fitted
// classifier, and helpers that restart a Runtime on a store and check query
// answers against the benchmark's own interval merge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "codec/encoder.h"
#include "dataflow/pipeline.h"
#include "media/frame.h"
#include "nn/classifier.h"
#include "query/service.h"
#include "runtime/runtime.h"
#include "synth/datasets.h"
#include "synth/ground_truth.h"

namespace e2e {

/// Classifier input side and still quantizer: the runtime defaults.
inline constexpr int kNnInput = 96;
inline constexpr int kStillQp = 26;

/// One Table I preset camera, scaled to the workload resolution.
struct PresetCamera {
  sieve::synth::DatasetId preset;
  int width = 0;
  int height = 0;
  double fps = 30.0;
  /// (GOP, scenecut) from core::TuneEncoder on the preset's history (a
  /// scene that is the same in every run: the deployment's lookup table).
  sieve::codec::EncoderParams params;
  sieve::media::RawVideo clip;       ///< raw frames (when requested)
  sieve::synth::GroundTruth truth;   ///< per-frame labels of the clip
  sieve::codec::EncodedVideo encoded;  ///< the clip, pre-encoded (when requested)
  /// Per record of `encoded`: the edge's still size for an I-frame, 0 for a
  /// P-frame (EncodeStill(ResizeFrame(DecodeIntraFrameAt(...)))), and the
  /// classifier's label bits for that still.
  std::vector<std::size_t> still_bytes;
  std::vector<std::uint8_t> still_labels;
  /// Per clip frame: whether the default encoding (GOP 250, scenecut 40)
  /// puts an I-frame there (when pre-encoded).
  std::vector<bool> default_keyframes;
};

/// Timings of the edge transcode steps, called directly (microseconds).
struct StillTimings {
  std::vector<double> decode_us, resize_us, encode_us;
  std::vector<sieve::media::Frame> resized;  ///< NN inputs, for layer probes
};

struct CameraInputs {
  std::vector<PresetCamera> cameras;
  std::unique_ptr<sieve::nn::FrameClassifier> classifier;
  StillTimings stills;  ///< filled when the clips are pre-encoded
};

struct InputSpec {
  std::size_t train_frames = 480;  ///< history frames per preset (tune, fit)
  std::size_t clip_frames = 360;   ///< streamed frames per preset (looped)
  bool keep_raw = false;    ///< keep the clip's raw frames (camera_encode)
  bool pre_encode = false;  ///< encode the clip + still sizes (fleet_ingest)
};

/// Render, tune, fit and (optionally) pre-encode, one thread per preset.
CameraInputs BuildCameraInputs(std::uint64_t seed, const InputSpec& spec);

/// The edge's still for one I-frame of a container, by direct calls,
/// timing each step into `timings` when non-null.
std::vector<std::uint8_t> TranscodeIFrame(std::span<const std::uint8_t> container,
                            const sieve::codec::FrameRecord& record,
                            StillTimings* timings);

/// Wire bytes (frame header + payload) of one record of a container.
std::span<const std::uint8_t> WireBytes(const sieve::codec::EncodedVideo& video,
                                        const sieve::codec::FrameRecord& record);

/// Label bits the classifier gives an edge still, by direct calls
/// (DecodeStill + Predict); 0xFF when the still does not decode.
std::uint8_t PredictStill(const sieve::nn::FrameClassifier& classifier,
                          const std::vector<std::uint8_t>& still);

/// The Table II accuracy of a frame selection: every frame takes the
/// ground-truth label of the latest selected frame at or before it (the
/// reference NN is taken to be right on the frames it sees), scored against
/// the frame's own ground truth. `truth_at(k)` gives frame k's label bits.
double SemanticAccuracy(const std::map<std::size_t, std::uint8_t>& rows,
                        std::size_t frames,
                        const std::function<std::uint8_t(std::size_t)>& truth_at);

/// One camera's drained rows, as the oracle sees them.
struct CameraRows {
  std::string camera_id;
  std::map<std::size_t, std::uint8_t> rows;  ///< frame -> label bits
  bool sealed = true;
  std::size_t total_frames = 0;
  double open_seconds = 0.0;
  double fps = 30.0;
};

/// The benchmark's own interval merge: maximal runs of rows containing
/// `cls`, closed at total_frames when sealed (an empty run at the end is
/// dropped), left open (end = query::kOpenEnd) otherwise.
std::vector<std::pair<std::size_t, std::size_t>> OracleIntervals(
    const CameraRows& camera, sieve::synth::ObjectClass cls);

/// Compare FindObject(cls, t0, t1) for every class against the oracle over
/// `cameras`. Returns the number of hits compared.
std::size_t CheckFindObject(Result& result, const sieve::query::QueryService& q,
                            const std::vector<CameraRows>& cameras,
                            const std::string& what);

/// StageStats lookup by stage name (nullptr if absent).
const sieve::dataflow::StageStats* FindStage(
    const std::vector<sieve::dataflow::StageStats>& stats,
    const std::string& name);

/// Per-layer metrics that come from StageStats.
void ReportStages(Result& result,
                  const std::vector<sieve::dataflow::StageStats>& stats);

/// Per-layer metrics of the edge transcode steps and each NN layer, from
/// direct calls on the workload's stills.
void ReportStillAndLayers(Result& result, const StillTimings& timings,
                          const sieve::nn::FrameClassifier& classifier);

/// Store-read and query per-layer metrics of one recovered runtime, plus
/// the recovered-record check. `written_records` is what the workload
/// journaled; `recover_trace` is the folded trace of that runtime's boot.
void ReportRecovery(Result& result, sieve::runtime::Runtime& rt,
                    std::size_t written_records, const std::string& store_dir,
                    const FoldedTrace* recover_trace);

/// Summed size of the journals in a store directory, in bytes.
std::uint64_t StoreBytes(const std::string& dir);

/// Session route -> obs track, from the live index (routes are assigned by
/// the runtime; the display id is what the benchmark chose).
std::map<std::string, std::uint64_t> TracksByCamera(
    const sieve::query::QueryService& q);

/// A Runtime booted on an existing store: the constructor's wall time per
/// boot (each boot recovers the whole store), and the last boot kept for
/// checks. In trace mode every boot is traced and the last one folded.
struct Boot {
  std::vector<double> seconds;
  std::unique_ptr<sieve::runtime::Runtime> rt;
  FoldedTrace trace;
};
Boot BootOnStore(const std::string& store_dir,
                 const sieve::nn::FrameClassifier* classifier, int boots,
                 bool trace);

/// Median of a sample vector.
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Smallest of a sample vector (the boot time least disturbed by the rest
/// of the machine); 0 if empty.
inline double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

}  // namespace e2e
