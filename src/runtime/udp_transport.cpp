#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace gcs::rt {

namespace {
sockaddr_in addr_of(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("UdpTransport: bad host " + host);
  }
  return addr;
}

/// Append one frame (tag byte, then payload) to a buffer of frames.
void append_frame(Bytes& frames, Tag tag, const Bytes& payload) {
  frames.push_back(static_cast<std::uint8_t>(tag));
  frames.insert(frames.end(), payload.begin(), payload.end());
}
}  // namespace

UdpTransport::UdpTransport(sim::Context& ctx, int universe_size, Config config)
    : ctx_(ctx), self_(ctx.self()), universe_size_(universe_size),
      config_(std::move(config)),
      handlers_(static_cast<std::size_t>(Tag::kMax)), alive_(ctx.alive_flag()),
      m_tx_datagrams_(metric_id("udp.tx_datagrams")),
      m_tx_bytes_(metric_id("udp.tx_bytes")),
      m_tx_backoffs_(metric_id("udp.tx_backoffs")),
      m_tx_oversized_(metric_id("udp.tx_oversized_drops")),
      m_rx_datagrams_(metric_id("udp.rx_datagrams")),
      m_rx_bytes_(metric_id("udp.rx_bytes")),
      m_rx_truncated_(metric_id("udp.rx_truncated_drops")),
      m_rx_unknown_peer_(metric_id("udp.rx_unknown_peer")),
      m_rx_unknown_tag_(metric_id("udp.rx_unknown_tag")) {
  rx_buf_.resize(config_.recv_buffer < 2 ? 2 : config_.recv_buffer);
  for (ProcessId p = 0; p < universe_size_; ++p) {
    peers_.push_back(
        addr_of(config_.host, static_cast<std::uint16_t>(config_.base_port + p)));
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    msghdr& hdr = tx_msgs_[i].msg_hdr;
    hdr.msg_iov = &tx_iov_[i];
    hdr.msg_iovlen = 1;
    hdr.msg_namelen = sizeof(sockaddr_in);
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpTransport: socket() failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const sockaddr_in addr =
      addr_of(config_.host, static_cast<std::uint16_t>(config_.base_port + self_));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("UdpTransport: bind failed for process " +
                             std::to_string(self_) + ": " + std::strerror(errno));
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::u_send(ProcessId to, Tag tag, const Bytes& payload) {
  if (silent() || to < 0 || to >= universe_size_) return;
  Metrics& metrics = ctx_.metrics();
  const std::size_t size = payload.size() + 1;
  if (size > config_.max_datagram) {
    // The kernel would fail the send with EMSGSIZE; count it here so an
    // oversized producer shows up in telemetry instead of vanishing.
    metrics.inc(m_tx_oversized_);
    return;
  }
  if (to == self_) {
    metrics.inc(m_tx_datagrams_);
    metrics.inc(m_tx_bytes_, static_cast<std::int64_t>(size));
    if (size > rx_buf_.size()) {
      metrics.inc(m_rx_truncated_);  // the socket would have cut it short
      return;
    }
    append_frame(local_frames_, tag, payload);
    local_sizes_.push_back(size);
    return;
  }
  // flush() points the iovecs at the frames once tx_frames_ stops moving.
  append_frame(tx_frames_, tag, payload);
  tx_iov_[tx_count_].iov_len = size;
  tx_msgs_[tx_count_].msg_hdr.msg_name = &peers_[static_cast<std::size_t>(to)];
  ++tx_count_;
  if (!in_poll_ || tx_count_ == kBatch) flush();
}

void UdpTransport::flush() {
  const std::size_t count = std::exchange(tx_count_, 0);
  std::uint8_t* frame = tx_frames_.data();
  for (std::size_t i = 0; i < count; ++i) {
    tx_iov_[i].iov_base = frame;
    frame += tx_iov_[i].iov_len;
  }
  Metrics& metrics = ctx_.metrics();
  // A silent transport discards the batch: a crashed process sends nothing.
  std::size_t next = silent() ? count : 0;
  while (next < count) {
    const int sent =
        ::sendmmsg(fd_, &tx_msgs_[next], static_cast<unsigned>(count - next), 0);
    if (sent <= 0) {
      // The kernel refused tx_msgs_[next]. UDP send failures are
      // indistinguishable from loss and the reliable channel above
      // retransmits anyway, so drop it and send the rest — but count it,
      // so a saturated socket (EAGAIN backoffs) is visible.
      metrics.inc(m_tx_backoffs_);
      ++next;
      continue;
    }
    std::int64_t bytes = 0;
    for (std::size_t i = next; i < next + static_cast<std::size_t>(sent); ++i) {
      bytes += tx_msgs_[i].msg_len;
    }
    metrics.inc(m_tx_datagrams_, sent);
    metrics.inc(m_tx_bytes_, bytes);
    next += static_cast<std::size_t>(sent);
  }
  tx_frames_.clear();
}

void UdpTransport::subscribe(Tag tag, Handler handler) {
  handlers_[static_cast<std::size_t>(tag)] = std::move(handler);
}

bool UdpTransport::dispatch(ProcessId from, const std::uint8_t* data, std::size_t size) {
  const auto tag_idx = static_cast<std::size_t>(data[0]);
  if (tag_idx >= handlers_.size() || !handlers_[tag_idx]) {
    ctx_.metrics().inc(m_rx_unknown_tag_);
    return false;
  }
  // A view straight into the buffer; handlers copy what they keep.
  handlers_[tag_idx](from, BytesView(data + 1, size - 1));
  return true;
}

int UdpTransport::poll() {
  if (fd_ < 0 || in_poll_ || silent()) return 0;
  Metrics& metrics = ctx_.metrics();
  in_poll_ = true;
  int processed = 0;
  while (!silent()) {
    sockaddr_in from_addr{};
    socklen_t from_len = sizeof(from_addr);
    // MSG_TRUNC makes recvfrom report the datagram's full length even when
    // it exceeded the buffer, so truncation is detectable (and counted)
    // instead of being parsed as a short, corrupt frame.
    const ssize_t n = ::recvfrom(fd_, rx_buf_.data(), rx_buf_.size(), MSG_TRUNC,
                                 reinterpret_cast<sockaddr*>(&from_addr), &from_len);
    if (n <= 0) break;  // EWOULDBLOCK or error: drained
    if (static_cast<std::size_t>(n) > rx_buf_.size()) {
      metrics.inc(m_rx_truncated_);
      continue;
    }
    metrics.inc(m_rx_datagrams_);
    metrics.inc(m_rx_bytes_, static_cast<std::int64_t>(n));
    const int from_port = ntohs(from_addr.sin_port);
    const ProcessId from = static_cast<ProcessId>(from_port - config_.base_port);
    if (from < 0 || from >= universe_size_) {
      metrics.inc(m_rx_unknown_peer_);
      continue;
    }
    if (dispatch(from, rx_buf_.data(), static_cast<std::size_t>(n))) ++processed;
  }
  // Then the self-addressed datagrams, those queued by the upcalls above
  // and by their own upcalls included, as they would have queued behind
  // the socket's. Each frame is copied out first, because a self-send may
  // move local_frames_.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < local_sizes_.size() && !silent(); ++i) {
    const std::size_t size = local_sizes_[i];
    std::memcpy(rx_buf_.data(), local_frames_.data() + offset, size);
    offset += size;
    metrics.inc(m_rx_datagrams_);
    metrics.inc(m_rx_bytes_, static_cast<std::int64_t>(size));
    if (dispatch(self_, rx_buf_.data(), size)) ++processed;
  }
  local_frames_.clear();  // dispatched, or silenced for good
  local_sizes_.clear();
  in_poll_ = false;
  flush();
  return processed;
}

}  // namespace gcs::rt
