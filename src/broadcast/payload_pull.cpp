#include "broadcast/payload_pull.hpp"

#include <string>

#include "util/codec.hpp"

namespace gcs {

namespace {
constexpr std::uint8_t kPull = 0;
constexpr std::uint8_t kPush = 1;
}  // namespace

PayloadPull::PayloadPull(sim::Context& ctx, ReliableChannel& channel, Tag tag,
                         const std::vector<ProcessId>& group, std::string_view metric_prefix,
                         obs::NameId stall_span, Duration retry, FindFn find, StoreFn store,
                         PushedFn pushed)
    : ctx_(ctx), channel_(channel), tag_(tag), group_(group), stall_span_(stall_span),
      retry_(retry), find_(std::move(find)), store_(std::move(store)),
      pushed_(std::move(pushed)),
      m_requests_(metric_id(std::string(metric_prefix) + ".pull_requests")),
      m_served_(metric_id(std::string(metric_prefix) + ".pull_served")),
      m_pushes_(metric_id(std::string(metric_prefix) + ".pushes")),
      h_wait_(metric_id(std::string(metric_prefix) + ".pull_wait_us")) {}

bool PayloadPull::wait(const MsgId& key) {
  if (missing_.empty()) {
    reset();
    return false;
  }
  if (!stalled_) {
    stalled_ = true;
    stall_key_ = key;
    stall_since_ = ctx_.now();
    ctx_.trace_begin(stall_span_, key, static_cast<std::int64_t>(missing_.size()));
  }
  request();
  return true;
}

void PayloadPull::reset() {
  missing_.clear();
  if (!stalled_) return;
  stalled_ = false;
  ctx_.metrics().observe(h_wait_, ctx_.now() - stall_since_);
  ctx_.trace_end(stall_span_, stall_key_);
}

void PayloadPull::request() {
  if (missing_.empty()) return;
  // Rotate targets so one slow or crashed member cannot stall the pull.
  for (std::size_t step = 0; step < group_.size(); ++step) {
    const ProcessId target = group_[next_target_++ % group_.size()];
    if (target == ctx_.self()) continue;
    send(target, missing_);
    if (!timer_armed_) {
      timer_armed_ = true;
      ctx_.after(retry_, [this] {
        timer_armed_ = false;
        request();
      });
    }
    return;
  }
}

void PayloadPull::send(ProcessId target, const std::set<MsgId>& ids) {
  std::shared_ptr<Bytes> wire = ctx_.pool().acquire();
  Encoder enc(*wire);
  enc.put_byte(kPull);
  enc.put_u64(ids.size());
  for (const MsgId& id : ids) enc.put_msgid(id);
  channel_.send(target, tag_, Payload(std::shared_ptr<const Bytes>(std::move(wire))));
  ctx_.metrics().inc(m_requests_);
}

void PayloadPull::on_message(ProcessId from, BytesView wire) {
  Decoder dec(wire);
  const std::uint8_t kind = dec.get_byte();
  const std::uint64_t n = dec.get_u64();
  if (!dec.ok() || n > dec.remaining()) return;
  if (kind == kPull) {
    // Entries go in an inner blob: their count is known only after the
    // lookups, and a varint count has no fixed width to patch.
    Encoder entries;
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const MsgId id = dec.get_msgid();
      if (!dec.ok()) return;
      if (const std::optional<Held> held = find_(id)) {
        entries.put_msgid(id);
        entries.put_byte(held->tag);
        entries.put_bytes(held->body);
        ++found;
      }
    }
    if (found == 0) return;
    std::shared_ptr<Bytes> out = ctx_.pool().acquire();
    Encoder enc(*out);
    enc.put_byte(kPush);
    enc.put_u64(found);
    enc.put_bytes(entries.bytes());
    channel_.send(from, tag_, Payload(std::shared_ptr<const Bytes>(std::move(out))));
    ctx_.metrics().inc(m_served_, static_cast<std::int64_t>(found));
  } else if (kind == kPush) {
    Decoder entries(dec.get_view());
    if (!dec.ok()) return;
    bool resolved_any = false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const MsgId id = entries.get_msgid();
      const std::uint8_t tag = entries.get_byte();
      const BytesView body = entries.get_view();
      if (!entries.ok()) break;
      ctx_.metrics().inc(m_pushes_);
      store_(id, tag, body);
      resolved_any |= missing_.erase(id) != 0;
    }
    pushed_(resolved_any && missing_.empty());
  }
}

}  // namespace gcs
