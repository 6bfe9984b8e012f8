/// \file udp_transport.hpp
/// Real UDP datagram transport over the loopback interface.
///
/// Shows that the protocol components are not simulation-bound: the same
/// stack (Fig 9) runs unmodified over OS sockets. Each process binds one
/// non-blocking UDP socket at base_port + id; the source port of an
/// incoming datagram identifies the sender. Datagrams may be lost (UDP),
/// which the reliable channel above already handles.
///
/// Single-threaded by design: a RealTimeRunner polls poll() from its event
/// loop, so the protocol components keep their no-locks discipline.
///
/// Two paths keep kernel work per message down:
/// - Local queue. A datagram a process sends to itself never touches the
///   socket: u_send(self) appends tag and payload to a FIFO in a recycled
///   buffer, and poll() dispatches that FIFO (from == self) once the socket
///   is drained, where the datagrams would have queued behind the socket's.
///   poll() returns only once the FIFO is empty, so the runner never
///   idle-sleeps while a local datagram waits.
/// - Batch window. Sends to peers made while poll() dispatches (that is,
///   from receive upcalls) queue and leave in one sendmmsg when the drain
///   ends, or sooner once kBatch are queued. A send made outside poll()
///   (timers, submits) goes through the same queue and is flushed at once.
///   The peers' addresses, the mmsghdr/iovec arrays and the buffers persist,
///   so steady state allocates nothing.
///
/// Crash rules: after kill(), or once the owning context's alive flag
/// drops, nothing is sent or dispatched: the batch is discarded instead of
/// flushed and the local queue is never drained, so a kill() inside an
/// upcall stops even the sends that upcall already made.
///
/// Every send/receive outcome — including the error paths that UDP lets a
/// transport silently swallow — is accounted into interned MetricId
/// counters on the owning context's registry, so live telemetry sees the
/// socket edge: udp.tx_datagrams/tx_bytes, udp.tx_backoffs (one per
/// datagram the kernel refused: EAGAIN or another transient send error),
/// udp.tx_oversized_drops (payload cannot fit one datagram),
/// udp.rx_datagrams/rx_bytes, udp.rx_truncated_drops (datagram exceeded the
/// receive buffer and arrived cut short), udp.rx_unknown_peer and
/// udp.rx_unknown_tag. Local datagrams count on both sides like socket
/// ones (tx when queued, rx when dispatched), and one larger than the
/// receive buffer counts as truncated, so udp.loss_share keeps its meaning.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <array>
#include <vector>
#include <string>

#include "sim/context.hpp"
#include "transport/transport.hpp"

namespace gcs::rt {

class UdpTransport final : public Transport {
 public:
  struct Config {
    std::uint16_t base_port = 38000;
    std::string host = "127.0.0.1";
    /// Receive-buffer size; anything larger arrives truncated and is
    /// dropped (counted). The default covers the UDP maximum; tests
    /// shrink it to exercise the truncation path deterministically.
    std::size_t recv_buffer = 65536;
    /// Largest datagram (tag byte + payload) u_send will attempt; larger
    /// sends are dropped and counted (the kernel would reject them with
    /// EMSGSIZE anyway).
    std::size_t max_datagram = kMaxUdpDatagram;
  };

  /// Binds base_port + ctx.self(). Throws std::runtime_error on failure.
  UdpTransport(sim::Context& ctx, int universe_size, Config config);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  ProcessId self() const override { return self_; }
  int universe_size() const override { return universe_size_; }
  void u_send(ProcessId to, Tag tag, const Bytes& payload) override;
  std::size_t max_datagram() const override { return config_.max_datagram; }
  void subscribe(Tag tag, Handler handler) override;

  /// Drain the socket, then the local queue, then flush the sends the
  /// upcalls made. Returns how many datagrams were dispatched. Called by
  /// the real-time runner's loop.
  int poll();

  /// Crash fidelity (Transport::kill): stop sending and dispatching. The
  /// socket stays bound so peers' datagrams vanish into a dead port, the
  /// same silence a crashed OS process would produce.
  void kill() override { dead_ = true; }

 private:
  /// Most datagrams one sendmmsg carries; a drain that queues more flushes
  /// early.
  static constexpr std::size_t kBatch = 64;

  bool silent() const { return dead_ || !*alive_; }
  /// Hand one received datagram (tag byte + payload) to its subscriber;
  /// false when no subscriber has its tag (counted).
  bool dispatch(ProcessId from, const std::uint8_t* data, std::size_t size);
  /// Send the queued batch, or discard it if the transport went silent.
  void flush();

  sim::Context& ctx_;
  ProcessId self_;
  int universe_size_;
  Config config_;
  int fd_ = -1;
  bool dead_ = false;     ///< set by kill(); the process went silent
  bool in_poll_ = false;  ///< sends queue until poll() flushes
  std::vector<Handler> handlers_;
  std::shared_ptr<const bool> alive_;
  std::vector<sockaddr_in> peers_;  ///< destination address of each process
  Bytes rx_buf_;  ///< preallocated receive buffer (config.recv_buffer)
  // Local queue: frames back to back in local_frames_, their sizes in
  // local_sizes_; both keep their capacity when poll() empties them.
  Bytes local_frames_;
  std::vector<std::size_t> local_sizes_;
  // Batch window: the first tx_count_ frames wait for flush().
  Bytes tx_frames_;  ///< the queued frames (tag byte + payload), back to back
  std::array<iovec, kBatch> tx_iov_{};
  std::array<mmsghdr, kBatch> tx_msgs_{};
  std::size_t tx_count_ = 0;
  // Interned socket-edge counters (see file comment).
  MetricId m_tx_datagrams_, m_tx_bytes_, m_tx_backoffs_, m_tx_oversized_;
  MetricId m_rx_datagrams_, m_rx_bytes_, m_rx_truncated_, m_rx_unknown_peer_,
      m_rx_unknown_tag_;
};

}  // namespace gcs::rt
