/// \file transport.hpp
/// Unreliable, tag-multiplexed datagram transport (Fig 9: "Unreliable
/// Transport", operations u-send / u-receive).
///
/// Every component above the transport owns a Tag; the transport prefixes
/// outgoing payloads with the tag byte and dispatches incoming datagrams to
/// the subscriber registered for that tag. Datagrams may be lost, delayed
/// and reordered; they are never corrupted or duplicated.
#pragma once

#include <cstddef>
#include <functional>

#include "util/types.hpp"

namespace gcs {

/// Wire-level component tags. One per protocol component that talks to its
/// peers on other processes.
enum class Tag : std::uint8_t {
  kChannel = 1,      ///< reliable channel (DATA/ACK)
  kFd = 2,           ///< failure-detector heartbeats
  kConsensus = 3,    ///< Chandra–Toueg consensus
  kRbcast = 4,       ///< reliable broadcast (atomic broadcast's substrate)
  kAbcast = 5,       ///< atomic broadcast
  kGbcast = 6,       ///< generic broadcast (acks, payload pulls)
  kMembership = 7,   ///< join requests, state transfer
  kMonitoring = 8,   ///< suspicion gossip
  kVs = 9,           ///< traditional view-synchrony layer
  kSeqOrder = 10,    ///< traditional fixed-sequencer atomic broadcast
  kToken = 11,       ///< traditional token-ring atomic broadcast
  kGbData = 12,      ///< generic broadcast payloads (its own rbcast)
  kApp = 13,         ///< application / replication layer
  kMax = 14,
};

/// Stable lowercase name for a tag, used to build per-component metric
/// names ("consensus.wire_bytes" etc.).
constexpr const char* tag_name(Tag tag) {
  switch (tag) {
    case Tag::kChannel: return "channel";
    case Tag::kFd: return "fd";
    case Tag::kConsensus: return "consensus";
    case Tag::kRbcast: return "rbcast";
    case Tag::kAbcast: return "abcast";
    case Tag::kGbcast: return "gbcast";
    case Tag::kMembership: return "membership";
    case Tag::kMonitoring: return "monitoring";
    case Tag::kVs: return "vs";
    case Tag::kSeqOrder: return "seq";
    case Tag::kToken: return "token";
    case Tag::kGbData: return "gbdata";
    case Tag::kApp: return "app";
    default: return "tag";
  }
}

/// Largest UDP datagram over IPv4: 65535 - 20 (IP header) - 8 (UDP header).
inline constexpr std::size_t kMaxUdpDatagram = 65507;

/// Abstract unreliable transport. The simulator provides SimTransport; a
/// real deployment would provide a UDP-backed implementation.
class Transport {
 public:
  /// Receives a view into the datagram buffer; valid only for the duration
  /// of the call (copy via to_bytes() to keep).
  using Handler = std::function<void(ProcessId from, BytesView payload)>;

  virtual ~Transport() = default;

  /// Identity of the local process.
  virtual ProcessId self() const = 0;

  /// Number of processes in the universe (potential members, ids 0..n-1).
  virtual int universe_size() const = 0;

  /// Fire-and-forget datagram to \p to. May be silently lost.
  virtual void u_send(ProcessId to, Tag tag, const Bytes& payload) = 0;

  /// Largest datagram (tag byte + payload) the transport carries; callers
  /// that pack messages together split their frames at it. The default is
  /// the UDP limit, which the simulator honours too so that both transports
  /// frame identically.
  virtual std::size_t max_datagram() const { return kMaxUdpDatagram; }

  /// Register the receive handler for \p tag (one subscriber per tag).
  virtual void subscribe(Tag tag, Handler handler) = 0;

  /// Convenience: u_send to every process in \p group (including self if
  /// listed; loopback has near-zero latency). Virtual so transports that
  /// can share one wire buffer across the whole fan-out (SimTransport)
  /// avoid re-encoding the datagram per destination.
  virtual void u_send_group(const std::vector<ProcessId>& group, Tag tag,
                            const Bytes& payload) {
    for (ProcessId p : group) u_send(p, tag, payload);
  }

  /// The local process crashed: go silent permanently (no sends, no
  /// dispatch). SimTransport ignores this — the simulated Network already
  /// blackholes crashed processes — but socket transports polled by an
  /// external loop must stop reacting on the wire, or a "crashed" process
  /// would keep answering its peers.
  virtual void kill() {}
};

}  // namespace gcs
