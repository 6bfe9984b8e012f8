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
/// Every send/receive outcome — including the error paths that UDP lets a
/// transport silently swallow — is accounted into interned MetricId
/// counters on the owning context's registry, so live telemetry sees the
/// socket edge: udp.tx_datagrams/tx_bytes, udp.tx_backoffs (EAGAIN or
/// other transient send errors), udp.tx_oversized_drops (payload cannot
/// fit one datagram), udp.rx_datagrams/rx_bytes, udp.rx_truncated_drops
/// (datagram exceeded the receive buffer and arrived cut short),
/// udp.rx_unknown_peer and udp.rx_unknown_tag.
#pragma once

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

  /// Drain pending datagrams and dispatch them. Returns how many were
  /// processed. Called by the real-time runner's loop.
  int poll();

  /// Crash fidelity (Transport::kill): stop sending and dispatching. The
  /// socket stays bound so peers' datagrams vanish into a dead port, the
  /// same silence a crashed OS process would produce.
  void kill() override { dead_ = true; }

 private:
  sim::Context& ctx_;
  ProcessId self_;
  int universe_size_;
  Config config_;
  int fd_ = -1;
  bool dead_ = false;  ///< set by kill(); the process went silent
  std::vector<Handler> handlers_;
  std::shared_ptr<const bool> alive_;
  Bytes rx_buf_;       ///< preallocated receive buffer (config.recv_buffer)
  Bytes tx_scratch_;   ///< reused tag+payload assembly buffer
  // Interned socket-edge counters (see file comment).
  MetricId m_tx_datagrams_, m_tx_bytes_, m_tx_backoffs_, m_tx_oversized_;
  MetricId m_rx_datagrams_, m_rx_bytes_, m_rx_truncated_, m_rx_unknown_peer_,
      m_rx_unknown_tag_;
};

}  // namespace gcs::rt
