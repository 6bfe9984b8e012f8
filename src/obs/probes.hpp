/// \file probes.hpp
/// State probes: the gauges of published telemetry frames folded into
/// bounded time series.
///
/// The oracle answers "did anything illegal happen"; the probes answer
/// "what did the run look like while it happened". Gauges are registered
/// once, with obs::Telemetry (GcsStack::attach_telemetry registers channel
/// send-queue depth, rbcast dedup set size, open consensus instances, GB
/// fast-path ratio, FD suspicion count, ...). Probes is a Telemetry sink:
/// every publish() hands it one frame per process, and the frames of one
/// publish (one timestamp) form one sample. Each retained sample appends
/// one point per gauge, so all series share one timestamp axis.
///
/// Series are bounded: once kMaxPoints samples are retained, the next
/// sample first decimates uniformly (drops every other retained point and
/// doubles the sampling stride), so arbitrarily long chaos runs keep
/// O(kMaxPoints) memory while still covering the whole run. Decimation is
/// a pure function of the frame sequence — identical runs produce
/// identical series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace gcs::obs {

class Probes {
 public:
  /// Retained samples per series before decimation.
  static constexpr std::size_t kMaxPoints = 512;

  Probes() = default;
  // sink() hands out this object's address.
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  /// Fold the gauges of one published frame. A frame whose timestamp
  /// differs from the previous frame's starts a new sample. Register every
  /// gauge before the first publish; a late series would have fewer
  /// points than the shared timestamp axis.
  void fold(const Snapshot& frame);

  /// This probe set as a Telemetry sink; it must outlive the publisher.
  Telemetry::Sink sink() {
    return [this](const Snapshot& frame, BytesView) { fold(frame); };
  }

  /// One sampled series (values parallel to timestamps()). Series are
  /// ordered by process (publish order), then by gauge name.
  struct Series {
    ProcessId proc = kNoProcess;
    std::string name;
    std::vector<double> values;
  };

  const std::vector<TimePoint>& timestamps() const { return timestamps_; }
  const std::vector<Series>& series() const { return series_; }
  std::uint64_t samples_taken() const { return samples_taken_; }
  /// Current decimation stride (1 = every sample retained).
  std::uint64_t stride() const { return stride_; }

 private:
  Series& series_for(ProcessId p, const std::string& name);

  std::vector<Series> series_;
  std::vector<TimePoint> timestamps_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t stride_ = 1;
  TimePoint sample_ts_ = 0;  ///< timestamp of the current sample
  bool keep_ = false;        ///< the current sample is retained
};

}  // namespace gcs::obs
