// ReliableTransport: a TCP-like perfect-link layer on top of the lossy
// Network.
//
// The paper assumes "Blockplane utilizes existing approaches to detect data
// corruption and reordering such as the TCP protocol". This module is that
// approach: per-peer sequence numbers, CRC-32 frame checksums, positive
// acks, timeout-based retransmission with exponential backoff, duplicate
// suppression, and in-order delivery. With it, drops / corruption /
// duplication injected by the Network are masked from the protocol above.
//
// The one failure TCP cannot mask is a dead peer: after max_retries the
// frame is abandoned and the registered on_drop callback tells the sender —
// a silent erase here used to leave upper layers waiting forever (see
// transport_test.cc's AbandonedFrameNotifiesSender regression test).
#ifndef BLOCKPLANE_NET_TRANSPORT_H_
#define BLOCKPLANE_NET_TRANSPORT_H_

#include <functional>
#include <map>

#include "common/codec.h"
#include "common/hash.h"
#include "common/rtt_estimator.h"
#include "net/network.h"
#include "sim/timer.h"

namespace blockplane::net {

struct TransportOptions {
  /// Base retransmission timeout; actual RTO adds the peer RTT.
  sim::SimTime base_rto = sim::Milliseconds(10);
  /// Backoff multiplier applied per retry.
  double backoff = 2.0;
  sim::SimTime max_rto = sim::Seconds(2);
  /// After this many retries the frame is abandoned (peer presumed dead)
  /// and the on_drop callback fires.
  int max_retries = 20;
};

class ReliableTransport : public Host {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Invoked when an in-flight frame is abandoned after max_retries: the
  /// application message of `type` with transport sequence `seq` will never
  /// reach `dst`. Fired after the frame is removed from the in-flight set,
  /// so the callback may safely Send again (e.g. to a different peer).
  using DropCallback =
      std::function<void(NodeId dst, MessageType type, uint64_t seq)>;

  /// Registers `self` with the network. `handler` receives application
  /// messages exactly once each, in per-peer FIFO order.
  ReliableTransport(Network* network, NodeId self, Handler handler,
                    TransportOptions options = {});
  ~ReliableTransport() override;
  BP_DISALLOW_COPY_AND_ASSIGN(ReliableTransport);

  /// Queues an application message for reliable in-order delivery. Takes
  /// the payload by rvalue: the frame encoder is the single copy the bytes
  /// ever take (the old by-value signature copied them twice). Callers keep
  /// a payload by passing `Bytes(payload)` explicitly.
  void Send(NodeId dst, MessageType type, Bytes&& payload,
            uint64_t trace_id = 0);

  /// Installs the abandoned-frame notification hook.
  void set_on_drop(DropCallback on_drop) { on_drop_ = std::move(on_drop); }

  void HandleMessage(const Message& raw) override;

  NodeId self() const { return self_; }
  int64_t retransmissions() const { return retransmissions_; }
  int64_t discarded_corrupt() const { return discarded_corrupt_; }
  /// Frames given up on after max_retries (each fired on_drop).
  int64_t frames_abandoned() const { return frames_abandoned_; }

  /// True once at least one clean (never-retransmitted) ack round trip to
  /// `dst` has been measured; srtt(dst) is meaningful only then.
  bool has_rtt_estimate(NodeId dst) const;
  /// Smoothed measured RTT to `dst` (0 before the first sample).
  sim::SimTime srtt(NodeId dst) const;
  /// Effective retransmission timeout for the given retry count: the
  /// smoothed measured peer RTT (topology RTT until the first sample) plus
  /// base_rto, scaled by backoff^retries, clamped to max_rto. The clamp
  /// bounds the *scaled* value — public so tests can pin that property.
  sim::SimTime RtoFor(NodeId dst, int retries) const;

 private:
  struct Pending {
    explicit Pending(sim::Simulator* simulator) : timer(simulator) {}

    /// Encoded data frame, shared with every (re)transmission in flight:
    /// retransmitting is a refcount bump, not a buffer copy.
    PayloadPtr frame;
    sim::Timer timer;
    int retries = 0;
    /// The application message type inside the frame, kept so an abandoned
    /// frame can be reported meaningfully without re-decoding the frame.
    MessageType app_type = 0;
    /// Causal trace of the payload (0 = untraced).
    uint64_t trace_id = 0;
    /// First-transmission time: the RTT sample for a clean (retries == 0)
    /// ack is ack time minus this. Karn's rule: retransmitted frames are
    /// never sampled, their ack cannot be matched to an attempt.
    sim::SimTime first_sent = 0;
  };
  struct BufferedFrame {
    MessageType app_type = 0;
    PayloadPtr payload;
    uint64_t trace_id = 0;
  };
  struct PeerRecv {
    uint64_t next_expected = 1;
    // Out-of-order frames buffered until the gap fills. The payload is
    // shared with the decode buffer, not copied.
    std::map<uint64_t, BufferedFrame> pending;
  };
  struct PeerSend {
    uint64_t next_seq = 1;
    common::HashMap<uint64_t, Pending> in_flight;
  };

  void TransmitFrame(NodeId dst, uint64_t seq);
  void ArmTimer(NodeId dst, uint64_t seq);
  void HandleDataFrame(const Message& raw);
  void HandleAckFrame(const Message& raw);

  Network* network_;
  NodeId self_;
  Handler handler_;
  DropCallback on_drop_;
  TransportOptions options_;

  common::HashMap<NodeId, PeerSend, NodeIdHash> send_state_;
  common::HashMap<NodeId, PeerRecv, NodeIdHash> recv_state_;
  /// Smoothed per-peer RTT from clean ack round trips; drives RtoFor.
  common::HashMap<NodeId, common::RttEstimator, NodeIdHash> rtt_;
  int64_t retransmissions_ = 0;
  int64_t discarded_corrupt_ = 0;
  int64_t frames_abandoned_ = 0;
};

}  // namespace blockplane::net

#endif  // BLOCKPLANE_NET_TRANSPORT_H_
