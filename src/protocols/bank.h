// A byzantized multi-site bank ledger — the class of "finances and mission
// critical operations, such as e-commerce and banking applications" the
// paper targets (§VI-D).
//
// Each participant (a bank branch / region) keeps accounts. Local transfers
// are log-committed; cross-site wires are sent through Blockplane's
// communication interface. Verification routines stop overdrafts and
// fabricated incoming wires: a byzantine Blockplane node cannot mint money
// because f_i+1 honest-inclusive signatures must back every incoming wire
// and every local transfer must pass the balance check on 2f_i+1 replicas.
#ifndef BLOCKPLANE_PROTOCOLS_BANK_H_
#define BLOCKPLANE_PROTOCOLS_BANK_H_

#include <map>
#include <memory>
#include <string>

#include "common/hash.h"
#include "core/deployment.h"

namespace blockplane::protocols {

class BankLedger {
 public:
  static constexpr uint64_t kVerifyTransfer = 31;
  static constexpr uint64_t kVerifyWire = 32;

  using Callback = std::function<void(Status)>;

  explicit BankLedger(core::Deployment* deployment);
  BP_DISALLOW_COPY_AND_ASSIGN(BankLedger);

  /// Credits a new account (a deposit; always valid).
  void Deposit(net::SiteId site, const std::string& account, int64_t amount,
               Callback done = nullptr);

  /// Transfers between two accounts at the same site; fails verification
  /// (and never commits) on insufficient funds.
  void Transfer(net::SiteId site, const std::string& from,
                const std::string& to, int64_t amount,
                Callback done = nullptr);

  /// Wires money to an account at another site: debits locally, then
  /// sends the credit through Blockplane.
  void Wire(net::SiteId site, const std::string& from, net::SiteId dest,
            const std::string& to, int64_t amount, Callback done = nullptr);

  /// Balance as seen by the participant's user-space state.
  int64_t Balance(net::SiteId site, const std::string& account) const;

  /// Balance according to node `index`'s replica (for divergence checks).
  int64_t NodeBalance(net::SiteId site, int index,
                      const std::string& account) const;

 private:
  struct Accounts {
    std::map<std::string, int64_t> balance;
    /// Wires debited locally but not yet known delivered (in flight).
    int64_t outbound = 0;

    bool Apply(const core::LogRecord& record);
    bool Check(const core::LogRecord& record) const;
  };

  void InstallAt(net::SiteId site);

  core::Deployment* deployment_;
  std::map<net::SiteId, Accounts> user_state_;
  common::HashMap<net::NodeId, std::shared_ptr<Accounts>, net::NodeIdHash>
      node_state_;
};

}  // namespace blockplane::protocols

#endif  // BLOCKPLANE_PROTOCOLS_BANK_H_
