#include "sim/fault_plan.hpp"

#include <array>
#include <bit>

namespace gcs::sim {

namespace {

// Stream keys for Rng::stream — one independent stream per concern so the
// generated plan decomposes: world shaping, step timing and step contents
// never share draws.
constexpr std::uint64_t kWorldKey = 0x776f726c64ULL;     // "world"
constexpr std::uint64_t kTimingKey = 0x74696d696e67ULL;  // "timing"
constexpr std::uint64_t kOpsKey = 0x6f7073ULL;           // "ops"

constexpr std::array<std::string_view, static_cast<std::size_t>(FaultOp::kCount_)>
    kOpNames = {"abcast",     "gbcast",       "race",         "crash",
                "partition",  "heal",         "join",         "suspect",
                "fd_timeout", "dup_burst",    "reorder_burst", "leader_crash",
                "leader_suspect", "partial_crash"};

}  // namespace

std::string_view fault_op_name(FaultOp op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kOpNames.size() ? kOpNames[i] : "?";
}

void FaultStep::encode(Encoder& enc) const {
  enc.put_i64(at);
  enc.put_byte(static_cast<std::uint8_t>(op));
  enc.put_i32(proc);
  enc.put_i32(target);
  enc.put_byte(cls);
  enc.put_u64(arg);
  enc.put_i64(duration);
}

FaultStep FaultStep::decode(Decoder& dec) {
  FaultStep s;
  s.at = dec.get_i64();
  s.op = static_cast<FaultOp>(dec.get_byte());
  s.proc = dec.get_i32();
  s.target = dec.get_i32();
  s.cls = dec.get_byte();
  s.arg = dec.get_u64();
  s.duration = dec.get_i64();
  return s;
}

std::string FaultStep::to_string() const {
  std::string out = "@" + std::to_string(at) + " " + std::string(fault_op_name(op));
  switch (op) {
    case FaultOp::kAbcast:
    case FaultOp::kCrash:
    case FaultOp::kJoin:
      out += " p" + std::to_string(proc);
      break;
    case FaultOp::kGbcast:
      out += " p" + std::to_string(proc) + " cls=" + std::to_string(cls);
      break;
    case FaultOp::kConflictRace:
    case FaultOp::kFalseSuspicion:
      out += " p" + std::to_string(proc) + " p" + std::to_string(target);
      break;
    case FaultOp::kPartialCrash:
      out += " p" + std::to_string(proc);
      [[fallthrough]];
    case FaultOp::kPartition: {
      out += " {";
      bool first = true;
      for (int p = 0; p < 64; ++p) {
        if (arg & (1ULL << p)) {
          if (!first) out += ",";
          out += std::to_string(p);
          first = false;
        }
      }
      out += "}";
      if (op == FaultOp::kPartition) out += " for " + std::to_string(duration) + "us";
      break;
    }
    case FaultOp::kHeal:
    case FaultOp::kLeaderCrash:
    case FaultOp::kLeaderSuspicion:
      // Leader-targeted steps resolve their victim at fire time (the runner
      // asks the stack who the stable leader is), so they carry no proc.
      break;
    case FaultOp::kFdTimeout:
      out += " p" + std::to_string(proc) + " " + std::to_string(arg) + "us";
      break;
    case FaultOp::kDupBurst:
    case FaultOp::kReorderBurst:
      out += " " + std::to_string(arg) + "% for " + std::to_string(duration) + "us";
      break;
    case FaultOp::kCount_:
      break;
  }
  return out;
}

FaultPlan FaultPlan::generate(std::uint64_t seed, FaultPlanOptions options) {
  FaultPlan plan;
  plan.seed = seed;
  plan.options = options;
  const int n = options.n;

  // World shaping: same envelope as the chaos suite, which 20 seeded runs
  // already prove live — base delay 100..400us, jitter 0..400us, up to 8%
  // loss, Paxos on even seeds.
  Rng world = Rng::stream(seed, kWorldKey);
  plan.link.base_delay = usec(100 + world.next_range(0, 300));
  plan.link.jitter = usec(world.next_range(0, 400));
  plan.link.drop_probability = world.next_double() * 0.08;
  plan.use_paxos = seed % 2 == 0;
  plan.settle = sec(5);

  // Step timing: 1..10ms gaps along the virtual-time axis.
  Rng timing = Rng::stream(seed, kTimingKey);
  // Step contents.
  Rng ops = Rng::stream(seed, kOpsKey);

  int crashes_left = options.max_crashes;
  Duration at = 0;
  plan.steps.reserve(static_cast<std::size_t>(options.steps));
  for (int i = 0; i < options.steps; ++i) {
    at += timing.next_range(msec(1), msec(10));
    FaultStep step;
    step.at = at;
    const auto dice = ops.next_below(100);
    const auto p = static_cast<ProcessId>(ops.next_below(static_cast<std::uint64_t>(n)));
    step.proc = p;
    if (dice < 40) {
      step.op = FaultOp::kAbcast;
    } else if (dice < 42) {
      // The origin's datagrams reach a random subset of the others, then it
      // crashes: the schedule that separates quorum-held dissemination
      // from an unsafe lazy one. Gated like kCrash.
      if (crashes_left > 0) {
        step.op = FaultOp::kPartialCrash;
        step.arg = ops.next_below(1ULL << n) & ~(1ULL << p);
        --crashes_left;
      } else {
        step.op = FaultOp::kAbcast;
      }
    } else if (dice < 44) {
      // Crash the stable leader mid-pipeline (victim resolved at fire
      // time). Gated like kCrash so a solid majority always survives;
      // degrades to plain traffic once the crash budget is spent.
      if (crashes_left > 0) {
        step.op = FaultOp::kLeaderCrash;
        --crashes_left;
      } else {
        step.op = FaultOp::kAbcast;
      }
    } else if (dice < 46) {
      step.op = FaultOp::kLeaderSuspicion;
    } else if (dice < 64) {
      step.op = FaultOp::kGbcast;
      step.cls = ops.chance(0.3) ? 1 : 0;
    } else if (dice < 70) {
      // Two conflicting gbcasts submitted at the same instant: the
      // stressor that separates a safe fast-path quorum from a broken one.
      step.op = FaultOp::kConflictRace;
      step.target = static_cast<ProcessId>((p + 1 + ops.next_below(static_cast<std::uint64_t>(n - 1))) % n);
    } else if (dice < 78) {
      step.op = FaultOp::kFalseSuspicion;
      step.target = static_cast<ProcessId>((p + 1 + ops.next_below(static_cast<std::uint64_t>(n - 1))) % n);
    } else if (dice < 83 && crashes_left > 0) {
      step.op = FaultOp::kCrash;
      --crashes_left;
    } else if (dice < 86) {
      // Partition a minority pair away; the runner heals it after
      // `duration` even if a later heal step was shrunk out.
      step.op = FaultOp::kPartition;
      const auto a = static_cast<ProcessId>(ops.next_below(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<ProcessId>((a + 1) % n);
      step.arg = (1ULL << a) | (1ULL << b);
      step.duration = ops.next_range(msec(5), msec(60));
    } else if (dice < 89) {
      step.op = FaultOp::kFdTimeout;
      step.arg = static_cast<std::uint64_t>(ops.next_range(msec(30), msec(150)));
    } else if (dice < 92) {
      step.op = FaultOp::kDupBurst;
      step.arg = static_cast<std::uint64_t>(ops.next_range(5, 25));
      step.duration = ops.next_range(msec(10), msec(50));
    } else if (dice < 95) {
      step.op = FaultOp::kReorderBurst;
      step.arg = static_cast<std::uint64_t>(ops.next_range(5, 25));
      step.duration = ops.next_range(msec(10), msec(50));
    } else {
      step.op = FaultOp::kJoin;
    }
    plan.steps.push_back(step);
  }
  return plan;
}

void FaultPlan::encode(Encoder& enc) const {
  enc.put_u64(seed);
  enc.put_i32(options.n);
  enc.put_i32(options.steps);
  enc.put_i32(options.max_crashes);
  enc.put_i64(link.base_delay);
  enc.put_i64(link.jitter);
  enc.put_u64(std::bit_cast<std::uint64_t>(link.drop_probability));
  enc.put_bool(use_paxos);
  enc.put_i64(settle);
  enc.put_vector(steps, [](Encoder& e, const FaultStep& s) { s.encode(e); });
}

FaultPlan FaultPlan::decode(Decoder& dec) {
  FaultPlan plan;
  plan.seed = dec.get_u64();
  plan.options.n = dec.get_i32();
  plan.options.steps = dec.get_i32();
  plan.options.max_crashes = dec.get_i32();
  plan.link.base_delay = dec.get_i64();
  plan.link.jitter = dec.get_i64();
  plan.link.drop_probability = std::bit_cast<double>(dec.get_u64());
  plan.use_paxos = dec.get_bool();
  plan.settle = dec.get_i64();
  plan.steps = dec.get_vector<FaultStep>([](Decoder& d) { return FaultStep::decode(d); });
  return plan;
}

std::uint64_t FaultPlan::digest() const {
  Encoder enc;
  encode(enc);
  // FNV-1a.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : enc.bytes()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string FaultPlan::steps_json(const std::vector<std::uint32_t>& keep) const {
  std::string out = "[";
  bool first = true;
  for (std::uint32_t i : keep) {
    if (i >= steps.size()) continue;
    if (!first) out += ", ";
    // Step renderings use only JSON-safe characters (see to_string).
    out += "\"" + steps[i].to_string() + "\"";
    first = false;
  }
  out += "]";
  return out;
}

}  // namespace gcs::sim
