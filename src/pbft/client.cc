#include "pbft/client.h"

#include "common/metrics.h"

namespace blockplane::pbft {

PbftClient::PbftClient(net::Network* network, PbftConfig config,
                       net::NodeId self)
    : network_(network),
      sim_(network->simulator()),
      config_(std::move(config)),
      self_(self),
      token_(ClientToken(self)) {
  network_->Register(self_, this);
}

PbftClient::~PbftClient() { network_->Unregister(self_); }

void PbftClient::Submit(Bytes value, DoneCallback done, TraceId trace_id) {
  uint64_t req_id = next_req_id_++;
  PendingRequest& pending = pending_.try_emplace(req_id, sim_).first->second;
  pending.value = std::move(value);
  pending.done = std::move(done);
  pending.trace = trace_id;
  pending.submitted_at = sim_->Now();
  SendRequest(req_id, /*broadcast=*/false);
  ArmRetry(req_id);
}

void PbftClient::SendRequest(uint64_t req_id, bool broadcast) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  RequestMsg request;
  request.client_token = token_;
  request.req_id = req_id;
  request.value = it->second.value;
  // Encode once; broadcast retries share the same allocation per recipient.
  net::PayloadPtr encoded = net::MakePayload(request.Encode());

  auto send_to = [&](net::NodeId dst) {
    net::Message msg;
    msg.src = self_;
    msg.dst = dst;
    msg.type = kRequest;
    msg.payload = encoded;  // refcount bump, not a copy
    msg.trace_id = it->second.trace;  // causal tag rides the whole round
    network_->Send(std::move(msg));
  };
  if (broadcast) {
    hotpath_stats().bytes_copied_saved +=
        static_cast<int64_t>(config_.nodes.size() > 1
                                 ? (config_.nodes.size() - 1) * encoded->size()
                                 : 0);
    for (const net::NodeId& node : config_.nodes) send_to(node);
  } else {
    send_to(config_.LeaderOf(view_hint_));
  }
}

void PbftClient::ArmRetry(uint64_t req_id) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  it->second.retry_timer.Arm(config_.client_retry, [this, req_id]() {
    // The leader may be faulty: broadcast so every replica sees the
    // request and can push for a view change.
    pending_.at(req_id).broadcast = true;
    SendRequest(req_id, /*broadcast=*/true);
    ArmRetry(req_id);
  });
}

void PbftClient::NudgePending() {
  for (auto& [req_id, pending] : pending_) {
    pending.broadcast = true;
    SendRequest(req_id, /*broadcast=*/true);
    ArmRetry(req_id);
  }
}

void PbftClient::HandleMessage(const net::Message& msg) {
  if (msg.type != kReply) return;
  ReplyMsg reply;
  if (!ReplyMsg::Decode(msg.body(), &reply).ok()) return;
  int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0 || sender != reply.replica) return;

  auto it = pending_.find(reply.req_id);
  if (it == pending_.end()) return;  // already completed or never sent
  view_hint_ = std::max(view_hint_, reply.view);

  // Vote on (seq, result digest). Keying on seq alone let f byzantine
  // replicas plus one honest straggler "agree" while holding divergent
  // states; the digest pins the replies to a single post-execution state.
  auto& votes = it->second.votes[{reply.seq, reply.result_digest}];
  votes.insert(sender);
  if (static_cast<int>(votes.size()) < config_.f + 1) return;

  // f+1 matching replies: at least one is from an honest replica.
  Tracer& tr = tracer();
  if (tr.enabled() && it->second.trace != kNoTrace) {
    tr.Span(it->second.trace, "request", "pbft", it->second.submitted_at,
            sim_->Now(), self_.site, self_.index, reply.seq);
  }
  DoneCallback done = std::move(it->second.done);
  pending_.erase(it);
  ++completed_;
  if (done) done(reply.seq);
}

}  // namespace blockplane::pbft
