#include "net/transport.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace blockplane::net {

namespace {

// Transport frames reserve the top bit of the MessageType space.
constexpr MessageType kDataFrame = 0x80000001u;
constexpr MessageType kAckFrame = 0x80000002u;

/// Varint length of `v` (LEB128, 7 bits per byte).
size_t VarintLen(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

Bytes EncodeDataFrame(uint64_t seq, MessageType app_type, Bytes&& payload) {
  Encoder enc;
  // Exact frame size up front: u64 seq + u32 type + varint length prefix +
  // payload + u32 crc. The byte-at-a-time appends below then never
  // reallocate (the old encoder grew the buffer geometrically, re-copying
  // the partially built frame along the way).
  enc.Reserve(8 + 4 + VarintLen(payload.size()) + payload.size() + 4);
  enc.PutU64(seq);
  enc.PutU32(app_type);
  enc.PutBytes(payload);
  enc.PutU32(Crc32(enc.buffer()));
  // The payload buffer itself is dead after this call; its bytes live on
  // inside the frame. Taking it by rvalue is what saved the second copy.
  return enc.Take();
}

}  // namespace

ReliableTransport::ReliableTransport(Network* network, NodeId self,
                                     Handler handler, TransportOptions options)
    : network_(network),
      self_(self),
      handler_(std::move(handler)),
      options_(options) {
  network_->Register(self_, this);
}

ReliableTransport::~ReliableTransport() { network_->Unregister(self_); }

bool ReliableTransport::has_rtt_estimate(NodeId dst) const {
  auto it = rtt_.find(dst);
  return it != rtt_.end() && it->second.has_sample();
}

sim::SimTime ReliableTransport::srtt(NodeId dst) const {
  auto it = rtt_.find(dst);
  return it == rtt_.end() ? 0 : it->second.srtt();
}

sim::SimTime ReliableTransport::RtoFor(NodeId dst, int retries) const {
  // Peer term: the smoothed measured round trip once acks have been
  // sampled. The topology constant is only the pre-sample prior — the
  // wire RTT says nothing about the peer's processing/queueing delay,
  // which the measured estimate includes.
  sim::SimTime rtt;
  auto est = rtt_.find(dst);
  if (est != rtt_.end() && est->second.has_sample()) {
    rtt = est->second.Rto(options_.base_rto) - options_.base_rto;
  } else {
    rtt = dst.site == self_.site
              ? 2 * network_->options().intra_site_one_way
              : network_->topology().Rtt(self_.site, dst.site);
  }
  // Apply the backoff multiplier with the max_rto clamp inside the loop:
  // the effective timeout is bounded, not just the pre-backoff base. (The
  // old order scaled first and clamped after, so backoff^retries could
  // overflow the int64 cast before min() ever saw the value.)
  double scaled = static_cast<double>(options_.base_rto + rtt);
  double ceiling = static_cast<double>(options_.max_rto);
  for (int i = 0; i < retries && scaled < ceiling; ++i) {
    scaled *= options_.backoff;
  }
  if (scaled >= ceiling) return options_.max_rto;
  return std::min(static_cast<sim::SimTime>(scaled), options_.max_rto);
}

void ReliableTransport::Send(NodeId dst, MessageType type, Bytes&& payload,
                             uint64_t trace_id) {
  PeerSend& peer = send_state_[dst];
  uint64_t seq = peer.next_seq++;
  Pending pending(network_->simulator());
  pending.app_type = type;
  pending.trace_id = trace_id;
  pending.first_sent = network_->simulator()->Now();
  // The rvalue signature spares the deep copy the old by-value parameter
  // made at this API boundary; the frame encoder below is the only copy.
  transport_stats().bytes_copied_saved +=
      static_cast<int64_t>(payload.size());
  // Encode the frame exactly once; every transmission (first send and all
  // retransmits) shares this one buffer.
  pending.frame = MakePayload(EncodeDataFrame(seq, type, std::move(payload)));
  peer.in_flight.emplace(seq, std::move(pending));
  ++transport_stats().frames_sent;
  TransmitFrame(dst, seq);
  ArmTimer(dst, seq);
}

void ReliableTransport::TransmitFrame(NodeId dst, uint64_t seq) {
  const Pending& pending = send_state_[dst].in_flight.at(seq);
  Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = kDataFrame;
  msg.payload = pending.frame;  // refcount bump, not a copy
  msg.trace_id = pending.trace_id;
  if (pending.retries > 0) {
    hotpath_stats().bytes_copied_saved +=
        static_cast<int64_t>(pending.frame->size());
  }
  network_->Send(std::move(msg));
}

void ReliableTransport::ArmTimer(NodeId dst, uint64_t seq) {
  Pending& pending = send_state_[dst].in_flight.at(seq);
  pending.timer.Arm(
      RtoFor(dst, pending.retries), [this, dst, seq]() {
        auto peer_it = send_state_.find(dst);
        if (peer_it == send_state_.end()) return;
        auto it = peer_it->second.in_flight.find(seq);
        if (it == peer_it->second.in_flight.end()) return;  // acked
        Pending& p = it->second;
        if (++p.retries > options_.max_retries) {
          // Peer presumed dead. The old code erased the frame silently
          // here, leaving upper layers waiting forever on a delivery that
          // would never come; now the drop is counted, traced, and
          // reported through on_drop.
          MessageType app_type = p.app_type;
          uint64_t trace_id = p.trace_id;
          peer_it->second.in_flight.erase(it);
          ++frames_abandoned_;
          ++transport_stats().frames_abandoned;
          Tracer& tr = tracer();
          if (tr.enabled()) {
            // Span-ending drop event: the trace's message died here.
            tr.Instant(trace_id, "transport_drop", "net",
                       network_->simulator()->Now(), self_.site, self_.index,
                       seq);
          }
          if (on_drop_) on_drop_(dst, app_type, seq);
          return;
        }
        ++retransmissions_;
        ++transport_stats().retransmissions;
        TransmitFrame(dst, seq);
        ArmTimer(dst, seq);
      });
}

void ReliableTransport::HandleMessage(const Message& raw) {
  switch (raw.type) {
    case kDataFrame:
      HandleDataFrame(raw);
      break;
    case kAckFrame:
      HandleAckFrame(raw);
      break;
    default:
      // Not a transport frame; a peer is speaking raw Network at us.
      // Deliver as-is so mixed deployments keep working.
      handler_(raw);
  }
}

void ReliableTransport::HandleDataFrame(const Message& raw) {
  const Bytes& frame = raw.body();
  // Verify the checksum before trusting any field.
  if (frame.size() < 4) {
    ++discarded_corrupt_;
    ++transport_stats().discarded_corrupt;
    return;
  }
  Decoder crc_dec(frame.data() + frame.size() - 4, 4);
  uint32_t expected_crc = 0;
  BP_CHECK(crc_dec.GetU32(&expected_crc).ok());
  if (Crc32(frame.data(), frame.size() - 4) != expected_crc) {
    ++discarded_corrupt_;  // corrupted in flight; sender will retransmit
    ++transport_stats().discarded_corrupt;
    return;
  }

  Decoder dec(frame.data(), frame.size() - 4);
  uint64_t seq = 0;
  MessageType app_type = 0;
  Bytes payload;
  if (!dec.GetU64(&seq).ok() || !dec.GetU32(&app_type).ok() ||
      !dec.GetBytes(&payload).ok()) {
    ++discarded_corrupt_;
    ++transport_stats().discarded_corrupt;
    return;
  }

  // Always ack, even duplicates (the first ack may have been dropped).
  // Acks are checksummed too: a corrupted ack must not decode as a valid
  // acknowledgement of a different (undelivered) frame.
  Encoder ack;
  ack.PutU64(seq);
  ack.PutU32(Crc32(ack.buffer()));
  Message ack_msg;
  ack_msg.src = self_;
  ack_msg.dst = raw.src;
  ack_msg.type = kAckFrame;
  ack_msg.set_body(ack.Take());
  network_->Send(std::move(ack_msg));

  PeerRecv& peer = recv_state_[raw.src];
  if (seq < peer.next_expected) return;  // duplicate
  PayloadPtr shared = MakePayload(std::move(payload));
  if (seq > peer.next_expected) {
    // Out-of-order: buffer the decoded payload by reference. Delivery later
    // moves the same allocation into the application message.
    hotpath_stats().bytes_copied_saved +=
        static_cast<int64_t>(shared->size());
    peer.pending.emplace(
        seq, BufferedFrame{app_type, std::move(shared), raw.trace_id});
    return;
  }
  // In-order: deliver, then drain any buffered successors.
  Message out;
  out.src = raw.src;
  out.dst = self_;
  out.type = app_type;
  out.payload = std::move(shared);
  out.trace_id = raw.trace_id;  // the causal id crosses the transport
  peer.next_expected++;
  handler_(out);
  while (true) {
    auto it = peer.pending.find(peer.next_expected);
    if (it == peer.pending.end()) break;
    Message next;
    next.src = raw.src;
    next.dst = self_;
    next.type = it->second.app_type;
    next.payload = std::move(it->second.payload);
    next.trace_id = it->second.trace_id;
    peer.pending.erase(it);
    peer.next_expected++;
    handler_(next);
  }
}

void ReliableTransport::HandleAckFrame(const Message& raw) {
  const Bytes& frame = raw.body();
  Decoder dec(frame);
  uint64_t seq = 0;
  uint32_t crc = 0;
  if (!dec.GetU64(&seq).ok() || !dec.GetU32(&crc).ok()) return;
  if (frame.size() < 12 ||
      Crc32(frame.data(), 8) != crc) {
    ++discarded_corrupt_;
    ++transport_stats().discarded_corrupt;
    return;
  }
  auto peer_it = send_state_.find(raw.src);
  if (peer_it == send_state_.end()) return;
  auto it = peer_it->second.in_flight.find(seq);
  if (it == peer_it->second.in_flight.end()) return;
  if (it->second.retries == 0) {
    // Clean round trip: feed the per-peer estimator (Karn's rule — a
    // retransmitted frame's ack is ambiguous and is never sampled).
    rtt_[raw.src].AddSample(network_->simulator()->Now() -
                            it->second.first_sent);
    ++transport_stats().rtt_samples;
  }
  peer_it->second.in_flight.erase(it);
}

}  // namespace blockplane::net
