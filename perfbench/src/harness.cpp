#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

void HostLedger::reset() {
  ns_.fill(0);
  depth_ = 0;
  stack_[0] = kOutside;
  last_ = now_ns();
}

// -- HostSpeed ----------------------------------------------------------------

namespace {

/// Keeps the reference work observable, so the compiler cannot drop it.
volatile std::uint64_t g_sink = 0;

bool read_full(int fd, void* buf, std::size_t size) {
  auto* p = static_cast<char*>(buf);
  while (size > 0) {
    const ssize_t got = ::read(fd, p, size);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Keys of the reference map. Half of them are present at a time, so the
/// map holds about 32 MB: more than a core's L2 cache, so a burst does not
/// depend on what the caller left there, and like the stack it works out
/// of the shared L3 cache.
constexpr std::uint64_t kRefKeys = 1u << 16;

/// The child's loop: for each request, pin to the CPU it names, time
/// kBurstRounds of the reference work and reply with the ns they took. Ends
/// when the parent closes the request pipe (or dies).
[[noreturn]] void serve_bursts(int request_fd, int reply_fd, HostSpeed::Kind kind) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> map;
  std::vector<std::uint8_t> value(1024, 7);
  std::uint64_t state = 88172645463325252ull;
  std::uint64_t sink = 0;
  // kLoopback: a UDP socket on 127.0.0.1 that sends to itself.
  int sock = -1;
  sockaddr_in self{};
  if (kind == HostSpeed::Kind::kLoopback) {
    sock = ::socket(AF_INET, SOCK_DGRAM, 0);
    self.sin_family = AF_INET;
    self.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof self;
    if (sock < 0 || ::bind(sock, reinterpret_cast<sockaddr*>(&self), sizeof self) != 0 ||
        ::getsockname(sock, reinterpret_cast<sockaddr*>(&self), &len) != 0) {
      ::_exit(1);  // the parent's next burst() reports the stop
    }
  }
  const auto churn = [&](std::uint64_t rounds, bool datagrams) {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      if (datagrams && i % HostSpeed::kRoundsPerDatagram == 0 &&
          (::sendto(sock, value.data(), value.size(), 0, reinterpret_cast<sockaddr*>(&self),
                    sizeof self) < 0 ||
           ::recv(sock, value.data(), value.size(), 0) < 0)) {
        ::_exit(1);
      }
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      const std::uint64_t k = state & (kRefKeys - 1);
      const auto it = map.find(k);
      if (it == map.end()) {
        map.emplace(k, value);
      } else {
        sink += it->second[k & 1023];
        map.erase(it);
      }
    }
    g_sink = sink;
  };
  churn(4 * kRefKeys, false);  // fill to the steady half occupancy before timing
  int cpu = 0;
  while (read_full(request_fd, &cpu, sizeof cpu)) {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    const std::int64_t t0 = HostLedger::now_ns();
    churn(HostSpeed::kBurstRounds, sock >= 0);
    const std::int64_t took = HostLedger::now_ns() - t0;
    if (::write(reply_fd, &took, sizeof took) != sizeof took) break;
  }
  ::_exit(0);
}

}  // namespace

HostSpeed::HostSpeed(Kind kind)
    : ref_ns_per_round_(kind == Kind::kLoopback ? kLoopbackRefNs : kMemoryRefNs) {
  int request[2];
  int reply[2];
  if (::pipe(request) != 0 || ::pipe(reply) != 0) {
    throw std::runtime_error("host speed: pipe failed");
  }
  std::fflush(nullptr);  // the child must not inherit unwritten output
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("host speed: fork failed");
  if (pid == 0) {
    // Keep only the two pipe ends: sockets and the parent's stdout stay
    // with the parent, and the request pipe sees EOF when the parent ends.
    for (int fd = 0; fd < 1024; ++fd) {
      if (fd != request[0] && fd != reply[1]) ::close(fd);
    }
    serve_bursts(request[0], reply[1], kind);
  }
  ::close(request[0]);
  ::close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
  child_ = pid;
}

HostSpeed::~HostSpeed() {
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

std::int64_t HostSpeed::burst() {
  const std::int64_t t0 = HostLedger::now_ns();
  const int cpu = ::sched_getcpu();
  std::int64_t took = 0;
  if (::write(request_fd_, &cpu, sizeof cpu) != sizeof cpu ||
      !read_full(reply_fd_, &took, sizeof took)) {
    throw std::runtime_error("host speed: the reference process stopped");
  }
  rounds_ += kBurstRounds;
  ns_ += took;
  return HostLedger::now_ns() - t0;
}

double HostSpeed::factor() const { return factor_since(0, 0); }

double HostSpeed::factor_since(std::uint64_t rounds, std::int64_t ns) const {
  const double r = static_cast<double>(rounds_ - rounds);
  const double t = static_cast<double>(ns_ - ns);
  return t <= 0 ? 1.0 : ref_ns_per_round_ * r / t;
}

// -- ScaledClock --------------------------------------------------------------

ScaledClock::ScaledClock(HostSpeed& speed) : speed_(speed) {
  last_factor_ = burst_factor();
  start_ = HostLedger::now_ns();
}

double ScaledClock::burst_factor() {
  const std::uint64_t rounds = speed_.rounds();
  const std::int64_t ns = speed_.ns();
  speed_.burst();
  return speed_.factor_since(rounds, ns);
}

void ScaledClock::split() {
  const std::int64_t stretch = HostLedger::now_ns() - start_;
  const double factor = burst_factor();
  wall_ns_ += stretch;
  scaled_ns_ += static_cast<double>(stretch) * 0.5 * (last_factor_ + factor);
  last_factor_ = factor;
  start_ = HostLedger::now_ns();
}

// -- TimedTransport -----------------------------------------------------------

void TimedTransport::bind(std::unique_ptr<gcs::Transport> inner, std::function<void()> on_kill) {
  inner_ = std::move(inner);
  on_kill_ = std::move(on_kill);
  for (std::size_t t = 0; t < handlers_.size(); ++t) {
    if (handlers_[t]) inner_->subscribe(static_cast<gcs::Tag>(t), wrap(static_cast<gcs::Tag>(t)));
  }
}

TimedTransport::Handler TimedTransport::wrap(gcs::Tag tag) {
  return [this, idx = static_cast<std::size_t>(tag)](ProcessId from, BytesView payload) {
    Scope scope(ledger_, HostLedger::kUpcall);
    handlers_[idx](from, payload);
  };
}

void TimedTransport::u_send(ProcessId to, gcs::Tag tag, const Bytes& payload) {
  Scope scope(ledger_, HostLedger::kSend);
  ++datagrams_;
  bytes_ += payload.size() + 1;  // the tag byte rides in every datagram
  inner_->u_send(to, tag, payload);
}

void TimedTransport::u_send_group(const std::vector<ProcessId>& group, gcs::Tag tag,
                                  const Bytes& payload) {
  Scope scope(ledger_, HostLedger::kSend);
  datagrams_ += group.size();
  bytes_ += group.size() * (payload.size() + 1);
  inner_->u_send_group(group, tag, payload);
}

void TimedTransport::subscribe(gcs::Tag tag, Handler handler) {
  handlers_[static_cast<std::size_t>(tag)] = std::move(handler);
  if (inner_) inner_->subscribe(tag, wrap(tag));
}

void TimedTransport::kill() {
  if (inner_) inner_->kill();
  if (on_kill_) on_kill_();
}

// -- Tracker ------------------------------------------------------------------

void Tracker::on_submit(const MsgId& id, std::uint8_t cls, std::int64_t at) {
  const auto [it, fresh] = index_.emplace(key(id), static_cast<std::uint32_t>(msgs_.size()));
  if (!fresh) {
    if (error_.empty()) error_ = "submit returned a duplicate id " + gcs::to_string(id);
    return;
  }
  msgs_.push_back(Msg{id, at, -1, 0, cls});
}

bool Tracker::on_deliver(ProcessId p, const MsgId& id, std::int64_t at) {
  const auto it = index_.find(key(id));
  if (it == index_.end()) {
    if (error_.empty()) {
      error_ = "p" + std::to_string(p) + " delivered " + gcs::to_string(id) +
               ", which was never submitted";
    }
    return false;
  }
  Msg& m = msgs_[it->second];
  const std::uint32_t bit = 1u << p;
  if (m.mask & bit) {
    if (error_.empty()) {
      error_ = "p" + std::to_string(p) + " delivered " + gcs::to_string(id) + " twice";
    }
    return false;
  }
  m.mask |= bit;
  seqs_[static_cast<std::size_t>(p)].push_back(it->second);
  ++delivered_[static_cast<std::size_t>(p)];
  if (id.sender != p) return false;
  m.own_delivery = at;
  return true;
}

std::uint64_t Tracker::complete(std::uint32_t correct) const {
  std::uint64_t done = 0;
  for (const Msg& m : msgs_) done += (m.mask & correct) == correct ? 1 : 0;
  return done;
}

namespace {

/// Every sequence must be a prefix of the longest one: total order plus
/// agreement on what each member got, whatever its length.
std::string check_prefixes(const std::vector<std::vector<std::uint32_t>>& seqs,
                           const char* what) {
  std::size_t longest = 0;
  for (std::size_t p = 1; p < seqs.size(); ++p) {
    if (seqs[p].size() > seqs[longest].size()) longest = p;
  }
  const auto& ref = seqs[longest];
  for (std::size_t p = 0; p < seqs.size(); ++p) {
    const auto mismatch = std::mismatch(seqs[p].begin(), seqs[p].end(), ref.begin());
    if (mismatch.first != seqs[p].end()) {
      return std::string(what) + " order differs between p" + std::to_string(p) + " and p" +
             std::to_string(longest) + " at position " +
             std::to_string(mismatch.first - seqs[p].begin());
    }
  }
  return {};
}

}  // namespace

std::string Tracker::check() const {
  if (!error_.empty()) return error_;
  if (order_ == Order::kTotal) return check_prefixes(seqs_, "total");

  // Generic broadcast: class-1 messages conflict with everything, class-0
  // ones only with class 1. So the class-1 sequences are prefixes of each
  // other, and each class-0 message follows the same number of class-1
  // messages wherever both members got that far.
  std::vector<std::vector<std::uint32_t>> conflicting(seqs_.size());
  std::vector<std::int32_t> before(msgs_.size() * seqs_.size(), -1);
  for (std::size_t p = 0; p < seqs_.size(); ++p) {
    for (std::uint32_t idx : seqs_[p]) {
      if (msgs_[idx].cls == 1) {
        conflicting[p].push_back(idx);
      } else {
        before[idx * seqs_.size() + p] = static_cast<std::int32_t>(conflicting[p].size());
      }
    }
  }
  std::string err = check_prefixes(conflicting, "conflicting-class");
  if (!err.empty()) return err;
  for (std::size_t idx = 0; idx < msgs_.size(); ++idx) {
    std::int32_t seen = -1;
    std::size_t seen_at = 0;
    for (std::size_t p = 0; p < seqs_.size(); ++p) {
      const std::int32_t b = before[idx * seqs_.size() + p];
      if (b < 0) continue;
      if (seen < 0) {
        seen = b;
        seen_at = p;
        continue;
      }
      const std::int32_t lo = std::min(seen, b);
      if (seen != b && conflicting[p].size() > static_cast<std::size_t>(lo) &&
          conflicting[seen_at].size() > static_cast<std::size_t>(lo)) {
        return "commuting message " + gcs::to_string(msgs_[idx].id) +
               " ordered differently against the conflicting class at p" +
               std::to_string(seen_at) + " and p" + std::to_string(p);
      }
    }
  }
  return {};
}

std::vector<double> Tracker::latencies(std::int64_t end, double unit_scale) const {
  std::vector<double> out;
  out.reserve(msgs_.size());
  for (const Msg& m : msgs_) {
    const std::int64_t done = m.own_delivery >= 0 ? m.own_delivery : end;
    out.push_back(static_cast<double>(done - m.submit) * unit_scale);
  }
  return out;
}

std::vector<std::int64_t> Tracker::submit_times() const {
  std::vector<std::int64_t> out;
  out.reserve(msgs_.size());
  for (const Msg& m : msgs_) out.push_back(m.submit);
  return out;
}

std::uint64_t Tracker::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& seq : seqs_) {
    for (std::uint32_t idx : seq) mix(key(msgs_[idx].id));
    mix(~0ull);
  }
  return h;
}

}  // namespace perfbench
