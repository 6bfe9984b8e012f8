/// \file harness.hpp
/// Measurement pieces the workloads share: the host-time ledger, the timing
/// transport decorator, the heap-allocation counter and the delivery
/// tracker that checks what the stack delivered.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "transport/transport.hpp"
#include "util/types.hpp"

namespace perfbench {

using gcs::Bytes;
using gcs::BytesView;
using gcs::MsgId;
using gcs::ProcessId;
using gcs::TimePoint;

/// Heap allocations made by this process so far. The measured binary
/// counts them in a replaced operator new; the plain twin returns 0.
std::uint64_t alloc_count();

/// Exclusive wall-time accounting by host activity. Time is charged to the
/// innermost open scope, so nested sends are not counted again in the
/// upcall or submit that issued them, and the categories plus the time
/// outside every scope sum to the wall time exactly. Disabled ledgers read
/// no clock.
class HostLedger {
 public:
  enum Cat : std::uint8_t {
    kOutside = 0,  ///< harness work between engine steps (the residual)
    kTimer,        ///< engine work outside upcalls and submits
    kUpcall,       ///< transport upcalls into the stack, minus nested work
    kSend,         ///< Transport::u_send / u_send_group, including the inner transport
    kSubmit,       ///< abcast / gbcast calls, minus nested sends
    kPoll,         ///< socket polling, minus the upcalls it dispatches
    kIdle,         ///< the real-time runner's idle sleep
    kNumCats,
  };

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void reset();

  void enter(Cat cat) {
    if (!enabled_) return;
    const std::int64_t t = now_ns();
    ns_[stack_[depth_]] += t - last_;
    stack_[++depth_] = cat;
    last_ = t;
  }
  void leave() {
    if (!enabled_) return;
    const std::int64_t t = now_ns();
    ns_[stack_[depth_]] += t - last_;
    --depth_;
    last_ = t;
  }
  /// Close scopes down to depth 0, charging the open time.
  void unwind() {
    while (enabled_ && depth_ > 0) leave();
  }
  Cat current() const { return static_cast<Cat>(stack_[depth_]); }
  std::int64_t ns(Cat cat) const { return ns_[cat]; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_ = false;
  std::array<std::int64_t, kNumCats> ns_{};
  std::array<std::uint8_t, 64> stack_{};
  std::size_t depth_ = 0;
  std::int64_t last_ = 0;
};

/// RAII scope on a ledger.
class Scope {
 public:
  Scope(HostLedger& ledger, HostLedger::Cat cat) : ledger_(ledger) { ledger_.enter(cat); }
  ~Scope() { ledger_.leave(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  HostLedger& ledger_;
};

/// Host speed, measured with fixed reference work that does not depend on
/// the code under test: ordered-map churn over 1 KiB values, the access
/// pattern of the stack's own hot path, and for the UDP workload also 1 KiB
/// datagrams over loopback, where that workload spends most of its time.
/// Shared hosts change speed by tens of percent within a minute; wall
/// metrics divided by factor() compare across such drift. factor() is 1 on
/// a host that needs the kind's reference ns per round, above 1 on a
/// faster one.
///
/// The work runs in a child process forked by the constructor, on the CPU
/// the caller last ran on, while the caller waits. The child has its own
/// heap, and its map is larger than a core's L2 cache, so the heap size,
/// fragmentation and cache footprint of the stack under test do not change
/// the reading.
class HostSpeed {
 public:
  /// What a burst exercises.
  enum class Kind {
    kMemory,    ///< map churn: the simulated workloads
    kLoopback,  ///< map churn, and a datagram sent to itself every
                ///< kRoundsPerDatagram rounds: the UDP workload
  };
  static constexpr int kBurstRounds = 40000;
  static constexpr int kRoundsPerDatagram = 10;
  /// Reference ns per round: a burst takes about 24 ms (kMemory) or 34 ms
  /// (kLoopback) at the reference speed.
  static constexpr double kMemoryRefNs = 600.0;
  static constexpr double kLoopbackRefNs = 850.0;

  explicit HostSpeed(Kind kind);
  /// Stops the child and waits for it.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Run one burst; returns the caller's wall time spent waiting for it.
  std::int64_t burst();
  double factor() const;
  /// factor() over the bursts run since rounds() and ns() read \p rounds
  /// and \p ns.
  double factor_since(std::uint64_t rounds, std::int64_t ns) const;
  std::uint64_t rounds() const { return rounds_; }
  std::int64_t ns() const { return ns_; }

 private:
  int request_fd_ = -1;  ///< parent -> child: the CPU to run the next burst on
  int reply_fd_ = -1;    ///< child -> parent: the burst's wall time in ns
  int child_ = -1;
  double ref_ns_per_round_;
  std::uint64_t rounds_ = 0;
  std::int64_t ns_ = 0;
};

/// Wall time of a timed phase at reference speed. The phase is cut into
/// stretches by host-speed bursts; each stretch is scaled by the mean
/// factor of the bursts at its two ends, so drift within a phase is
/// followed, not averaged over the phase. Burst time is left out.
class ScaledClock {
 public:
  /// Runs the opening burst; the first stretch starts when it ends.
  explicit ScaledClock(HostSpeed& speed);
  /// Ends the current stretch with a burst and starts the next one.
  void split();
  /// Totals over the stretches ended so far: raw and scaled wall time.
  std::int64_t wall_ns() const { return wall_ns_; }
  double scaled_ns() const { return scaled_ns_; }

 private:
  double burst_factor();

  HostSpeed& speed_;
  double last_factor_ = 1;
  std::int64_t start_ = 0;
  std::int64_t wall_ns_ = 0;
  double scaled_ns_ = 0;
};

/// Transport decorator: forwards every call to an inner transport, counts
/// datagrams and bytes, and charges sends and upcalls to the ledger. The
/// inner transport may be bound after the stack is built, so a SimTransport
/// can share the stack's own context (and buffer pool) exactly as GcsStack's
/// simulation constructor wires it.
class TimedTransport final : public gcs::Transport {
 public:
  TimedTransport(ProcessId self, int universe_size, HostLedger& ledger)
      : self_(self), universe_size_(universe_size), ledger_(ledger) {}

  /// Install the inner transport; handlers subscribed so far are forwarded.
  /// \p on_kill runs after the inner transport's kill().
  void bind(std::unique_ptr<gcs::Transport> inner, std::function<void()> on_kill = {});

  ProcessId self() const override { return self_; }
  int universe_size() const override { return universe_size_; }
  void u_send(ProcessId to, gcs::Tag tag, const Bytes& payload) override;
  void u_send_group(const std::vector<ProcessId>& group, gcs::Tag tag,
                    const Bytes& payload) override;
  void subscribe(gcs::Tag tag, Handler handler) override;
  void kill() override;

  std::uint64_t datagrams() const { return datagrams_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  Handler wrap(gcs::Tag tag);

  ProcessId self_;
  int universe_size_;
  HostLedger& ledger_;
  std::unique_ptr<gcs::Transport> inner_;
  std::function<void()> on_kill_;
  std::array<Handler, static_cast<std::size_t>(gcs::Tag::kMax)> handlers_;
  std::uint64_t datagrams_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Bookkeeping of every application message the harness submits: submit
/// time, which members delivered it, each member's delivery order, and the
/// latency at the submitter. check() verifies order, agreement, integrity
/// and completeness from these records.
class Tracker {
 public:
  /// How deliveries must be ordered across members.
  enum class Order {
    kTotal,          ///< atomic broadcast: one sequence, prefixes of each other
    kConflictClass,  ///< generic broadcast, rbcast/abcast relation: class-1
                     ///< messages totally ordered, class-0 ordered against them
  };

  Tracker(int n, Order order) : order_(order), seqs_(static_cast<std::size_t>(n)),
                                delivered_(static_cast<std::size_t>(n), 0) {}

  /// A message was submitted at time \p at (clock of the caller's choice).
  void on_submit(const MsgId& id, std::uint8_t cls, std::int64_t at);
  /// Member \p p delivered \p id at \p at. Returns true when \p p is the
  /// message's sender. Unknown ids and duplicates are recorded as errors.
  bool on_deliver(ProcessId p, const MsgId& id, std::int64_t at);

  std::size_t submitted() const { return msgs_.size(); }
  std::uint64_t delivered_at(ProcessId p) const {
    return delivered_[static_cast<std::size_t>(p)];
  }
  /// Messages delivered at every member of \p correct (bitmask).
  std::uint64_t complete(std::uint32_t correct) const;

  /// Verify integrity and order across every member, crashed ones
  /// included: their sequences must be consistent prefixes of the others'.
  /// Returns an empty string when clean, else the first problem found.
  std::string check() const;

  /// Latency at the submitter for every message, in submission order, in
  /// the clock's unit times \p unit_scale. Undelivered messages count as
  /// censored at \p end - submit.
  std::vector<double> latencies(std::int64_t end, double unit_scale) const;
  /// Submit time of every message, in submission order.
  std::vector<std::int64_t> submit_times() const;

  /// Hash of every member's delivery sequence (determinism fingerprint).
  std::uint64_t digest() const;

  /// One integer per message id, for sets and maps of ids.
  static std::uint64_t key(const MsgId& id) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.sender)) << 48) ^ id.seq;
  }

 private:
  struct Msg {
    MsgId id;
    std::int64_t submit = 0;
    std::int64_t own_delivery = -1;  ///< at the sender; -1 until then
    std::uint32_t mask = 0;          ///< members that delivered it
    std::uint8_t cls = 0;
  };
  Order order_;
  std::vector<Msg> msgs_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::vector<std::vector<std::uint32_t>> seqs_;  ///< per member: message indexes
  std::vector<std::uint64_t> delivered_;
  std::string error_;
};

}  // namespace perfbench
