/// \file proposal.hpp
/// The value agreed on by consensus when it orders a batch of messages.
///
/// Entries are (MsgId, subtag) tuples only — 16-ish bytes each regardless
/// of application payload size. Deliverers look the payload up in their
/// rbcast-fed store and, when a process decides without ever having
/// rdelivered (late join, restore mid-instance), fall back to a bounded
/// pull/push exchange over the reliable channel (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <vector>

#include "util/codec.hpp"
#include "util/types.hpp"

namespace gcs {

/// One ordered message inside a batch proposal.
struct ProposalEntry {
  MsgId id;
  std::uint8_t subtag = 0;

  friend bool operator==(const ProposalEntry&, const ProposalEntry&) = default;
};

/// A batch of messages proposed to (and decided by) one consensus instance.
struct BatchProposal {
  std::vector<ProposalEntry> entries;

  void encode(Encoder& enc) const;
  /// Hardened: fails the decoder on hostile entry counts and truncation;
  /// returns an empty batch in that case.
  static BatchProposal decode(Decoder& dec);

  friend bool operator==(const BatchProposal&, const BatchProposal&) = default;
};

}  // namespace gcs
