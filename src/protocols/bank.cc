#include "protocols/bank.h"

#include "common/codec.h"

namespace blockplane::protocols {

namespace {

enum OpKind : uint8_t {
  kDeposit = 1,
  kTransfer = 2,
  /// A cross-site wire: as a communication record it debits the source
  /// account; as a received record it credits the destination account.
  kWireCredit = 4,
};

struct BankOp {
  uint8_t kind = 0;
  std::string from;
  std::string to;
  int64_t amount = 0;

  BP_WIRE(BankOp, kind, from, to, amount)
};

}  // namespace

bool BankLedger::Accounts::Check(const core::LogRecord& record) const {
  BankOp op;
  if (!BankOp::Decode(record.payload, &op).ok()) return false;
  if (op.amount <= 0) return false;
  switch (op.kind) {
    case kDeposit:
      return true;
    case kTransfer: {
      auto it = balance.find(op.from);
      return it != balance.end() && it->second >= op.amount;
    }
    case kWireCredit:
      if (record.type == core::RecordType::kCommunication) {
        // Source side of the wire: the debit must be covered.
        auto it = balance.find(op.from);
        return it != balance.end() && it->second >= op.amount;
      }
      // Destination side: the funds' legitimacy comes from the f_i+1
      // source signatures Blockplane's receive verification checked.
      return record.type == core::RecordType::kReceived;
    default:
      return false;
  }
}

bool BankLedger::Accounts::Apply(const core::LogRecord& record) {
  BankOp op;
  if (!BankOp::Decode(record.payload, &op).ok()) return false;
  switch (op.kind) {
    case kDeposit:
      balance[op.to] += op.amount;
      return true;
    case kTransfer:
      balance[op.from] -= op.amount;
      balance[op.to] += op.amount;
      return true;
    case kWireCredit:
      if (record.type == core::RecordType::kCommunication) {
        balance[op.from] -= op.amount;  // debit at the source
        outbound += op.amount;
        return true;
      }
      balance[op.to] += op.amount;  // credit at the destination
      return true;
    default:
      return false;
  }
}

BankLedger::BankLedger(core::Deployment* deployment)
    : deployment_(deployment) {
  for (net::SiteId site = 0; site < deployment_->num_sites(); ++site) {
    user_state_[site] = Accounts{};
    InstallAt(site);
  }
}

void BankLedger::InstallAt(net::SiteId site) {
  for (int i = 0; i < 3 * deployment_->options().fi + 1; ++i) {
    core::BlockplaneNode* node = deployment_->node(site, i);
    auto accounts = std::make_shared<Accounts>();
    node_state_[node->self()] = accounts;
    node->SetApplyHook(
        [accounts](uint64_t pos, const core::LogRecord& record) {
          accounts->Apply(record);
        });
    node->RegisterVerifier(kVerifyTransfer,
                           [accounts](const core::LogRecord& record) {
                             return accounts->Check(record);
                           });
    node->RegisterVerifier(kVerifyWire,
                           [accounts](const core::LogRecord& record) {
                             return accounts->Check(record);
                           });
  }

  // Incoming wires: credit on receive.
  core::Participant* participant = deployment_->participant(site);
  participant->SetReceiveHandler(
      [this, site](net::SiteId src, const Bytes& payload) {
        BankOp op;
        if (!BankOp::Decode(payload, &op).ok() || op.kind != kWireCredit) {
          return;
        }
        user_state_[site].balance[op.to] += op.amount;
      });
}

void BankLedger::Deposit(net::SiteId site, const std::string& account,
                         int64_t amount, Callback done) {
  BankOp op;
  op.kind = kDeposit;
  op.to = account;
  op.amount = amount;
  deployment_->participant(site)->LogCommit(
      op.Encode(), kVerifyTransfer,
      [this, site, account, amount, done](uint64_t) {
        user_state_[site].balance[account] += amount;
        if (done) done(Status::OK());
      });
}

void BankLedger::Transfer(net::SiteId site, const std::string& from,
                          const std::string& to, int64_t amount,
                          Callback done) {
  BankOp op;
  op.kind = kTransfer;
  op.from = from;
  op.to = to;
  op.amount = amount;
  deployment_->participant(site)->LogCommit(
      op.Encode(), kVerifyTransfer,
      [this, site, from, to, amount, done](uint64_t) {
        Accounts& accounts = user_state_[site];
        accounts.balance[from] -= amount;
        accounts.balance[to] += amount;
        if (done) done(Status::OK());
      });
}

void BankLedger::Wire(net::SiteId site, const std::string& from,
                      net::SiteId dest, const std::string& to,
                      int64_t amount, Callback done) {
  // The wire is one communication record: its verification debit-checks
  // the source account, and its delivery credits the destination.
  BankOp credit;
  credit.kind = kWireCredit;
  credit.from = from;
  credit.to = to;
  credit.amount = amount;
  deployment_->participant(site)->Send(
      dest, credit.Encode(), kVerifyWire,
      [this, site, from, amount, done](uint64_t) {
        user_state_[site].balance[from] -= amount;
        if (done) done(Status::OK());
      });
}

int64_t BankLedger::Balance(net::SiteId site,
                            const std::string& account) const {
  const auto& balances = user_state_.at(site).balance;
  auto it = balances.find(account);
  return it == balances.end() ? 0 : it->second;
}

int64_t BankLedger::NodeBalance(net::SiteId site, int index,
                                const std::string& account) const {
  auto node = deployment_->node(site, index);
  const auto& accounts = node_state_.at(node->self());
  auto it = accounts->balance.find(account);
  return it == accounts->balance.end() ? 0 : it->second;
}

}  // namespace blockplane::protocols
