#include "protocols/counter.h"

#include "common/codec.h"

namespace blockplane::protocols {

namespace {

// Payload tags for the three record kinds the protocol commits.
constexpr uint8_t kTagRequest = 1;
constexpr uint8_t kTagCount = 2;
constexpr uint8_t kTagIncrement = 3;

struct Request {
  uint8_t tag = kTagRequest;
  uint64_t id = 0;
  std::string user;
  net::SiteId destination = -1;

  BP_WIRE(Request, tag, id, user, destination)
};

struct Count {
  uint8_t tag = kTagCount;
  uint64_t id = 0;

  BP_WIRE(Count, tag, id)
};

bool DecodeRequest(const Bytes& buf, Request* out) {
  return Request::Decode(buf, out).ok() && out->tag == kTagRequest;
}

bool DecodeCount(const Bytes& buf, uint64_t* id) {
  Count count;
  if (!Count::Decode(buf, &count).ok() || count.tag != kTagCount) {
    return false;
  }
  *id = count.id;
  return true;
}

}  // namespace

CounterProtocol::CounterProtocol(core::Deployment* deployment)
    : deployment_(deployment) {
  for (net::SiteId site = 0; site < deployment_->num_sites(); ++site) {
    counters_[site] = 0;
    next_request_id_[site] = 1;
    InstallAt(site);
  }
}

void CounterProtocol::InstallAt(net::SiteId site) {
  // Per-node replica state, fed by the apply hook.
  for (int i = 0; i < 3 * deployment_->options().fi + 1; ++i) {
    core::BlockplaneNode* node = deployment_->node(site, i);
    auto state = std::make_shared<NodeState>();
    node_states_[node->self()] = state;
    node->SetApplyHook([state](uint64_t pos, const core::LogRecord& record) {
      switch (record.type) {
        case core::RecordType::kLogCommit: {
          Request request;
          if (DecodeRequest(record.payload, &request)) {
            state->committed_requests.insert(request.id);
          } else if (!record.payload.empty() &&
                     record.payload[0] == kTagIncrement) {
            ++state->increments;
          }
          break;
        }
        case core::RecordType::kCommunication: {
          uint64_t id = 0;
          if (DecodeCount(record.payload, &id)) {
            state->sent_requests.insert(id);
          }
          break;
        }
        case core::RecordType::kReceived:
          ++state->receives;
          break;
        case core::RecordType::kMirrored:
        case core::RecordType::kMirrorBase:
          // Mirror records replay another participant's log; the counter
          // protocol reads them through the geo layer, not the apply hook.
          break;
        default:
          break;
      }
    });

    // The UserRequest log-commit routine: the request must come from a
    // trusted user/source.
    node->RegisterVerifier(kVerifyUserRequest,
                           [](const core::LogRecord& record) {
                             Request request;
                             if (!DecodeRequest(record.payload, &request)) {
                               return false;
                             }
                             return request.user.rfind("trusted", 0) == 0;
                           });

    // The send routine: the corresponding user request was actually
    // committed and has not been consumed by an earlier send (a malicious
    // node must not originate messages without a user request).
    node->RegisterVerifier(
        kVerifySend, [state](const core::LogRecord& record) {
          uint64_t id = 0;
          if (!DecodeCount(record.payload, &id)) return false;
          if (record.type == core::RecordType::kReceived) {
            // At the destination the message's legitimacy is established
            // by Blockplane's built-in receive verification (f_i+1 source
            // signatures); the send-side request check only applies at
            // the source.
            return true;
          }
          return state->committed_requests.count(id) > 0 &&
                 state->sent_requests.count(id) == 0;
        });

    // The StartServer log-commit routine: an increment needs a received
    // message backing it (the f_i+1-signature check on the message itself
    // is Blockplane's built-in receive verification).
    node->RegisterVerifier(kVerifyIncrement,
                           [state](const core::LogRecord& record) {
                             return state->increments < state->receives;
                           });
  }

  // Algorithm 1's StartServer loop: receive -> log-commit increment -> c++.
  core::Participant* participant = deployment_->participant(site);
  participant->SetReceiveHandler(
      [this, site, participant](net::SiteId src, const Bytes& payload) {
        Bytes increment{kTagIncrement};
        participant->LogCommit(std::move(increment), kVerifyIncrement,
                               [this, site](uint64_t) { ++counters_[site]; });
      });
}

void CounterProtocol::UserRequest(net::SiteId site, net::SiteId destination,
                                  const std::string& user) {
  uint64_t id = next_request_id_[site]++;
  core::Participant* participant = deployment_->participant(site);
  // log-commit(request info); send(to: destination).
  participant->LogCommit(
      Request{kTagRequest, id, user, destination}.Encode(),
      kVerifyUserRequest, [participant, destination, id](uint64_t) {
        participant->Send(destination, Count{kTagCount, id}.Encode(),
                          CounterProtocol::kVerifySend, nullptr);
      });
}

}  // namespace blockplane::protocols
