// Fixture: BP001 — unordered-container iteration order escaping into
// order-sensitive sinks (wire encoding, JSON export, event scheduling).
#include <string>
#include <unordered_map>
#include <unordered_set>

struct Encoder {
  void PutU64(unsigned long long v);
  void PutU32(unsigned v);
};

struct Simulator {
  void Schedule(long long delay_ns, int what);
};

class PeerTable {
 public:
  // Iteration order of an unordered_map escapes into the wire encoding:
  // two replicas encoding the same table can produce different bytes.
  void EncodePeers(Encoder* enc) const {
    for (const auto& [id, seq] : peers_) {
      enc->PutU32(id);
      enc->PutU64(seq);
    }
  }

  // JSON/metrics export with unordered key order: same-seed runs can
  // emit differently ordered documents.
  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [id, seq] : peers_) {
      out.append(std::to_string(id));
    }
    out += "}";
    return out;
  }

  // Scheduling one event per element makes the event order (and thus
  // every downstream timestamp) depend on hash-table layout.
  void ScheduleRetries(Simulator* sim) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      sim->Schedule(1000, *it);
    }
  }

 private:
  std::unordered_map<unsigned, unsigned long long> peers_;
  std::unordered_set<int> pending_;
};

void WirePut(Encoder* enc, int v);

// The field-list codec is a wire encoder too.
void EncodeIds(Encoder* enc, const std::unordered_set<int>& ids) {
  for (int id : ids) WirePut(enc, id);
}
