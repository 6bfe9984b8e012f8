#include "broadcast/proposal.hpp"

namespace gcs {

void BatchProposal::encode(Encoder& enc) const {
  enc.put_u64(entries.size());
  for (const ProposalEntry& e : entries) {
    enc.put_msgid(e.id);
    enc.put_byte(e.subtag);
  }
}

BatchProposal BatchProposal::decode(Decoder& dec) {
  BatchProposal batch;
  const std::uint64_t count = dec.get_u64();
  // Hostile-length guard: every entry costs at least 3 wire bytes.
  if (count > dec.remaining()) {
    dec.invalidate();
    return batch;
  }
  batch.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    ProposalEntry e;
    e.id = dec.get_msgid();
    e.subtag = dec.get_byte();
    batch.entries.push_back(e);
  }
  if (!dec.ok()) batch.entries.clear();
  return batch;
}

}  // namespace gcs
