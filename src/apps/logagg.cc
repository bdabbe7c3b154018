#include "src/apps/logagg.h"

#include "src/common/codec.h"

namespace lazylog {

TxnServer::TxnServer(Network* net, const SimParams& params,
                     std::unique_ptr<SharedLogClient> audit_log)
    : TxnServer(net, params, std::move(audit_log), Costs()) {}

TxnServer::TxnServer(Network* net, const SimParams& params,
                     std::unique_ptr<SharedLogClient> audit_log, Costs costs, LogId log_id)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 300, .copy_bandwidth_bytes_per_sec = 4e9}),
      client_(std::move(audit_log)),
      audit_log_(client_->handle(log_id)),
      costs_(costs) {
  endpoint_.Register(kTxnExecute, [this](NodeId, Decoder d, Responder r) {
    HandleTxn(d, std::move(r));
  });
}

void TxnServer::HandleTxn(Decoder d, Responder r) {
  uint8_t type_raw = 0;
  uint64_t account = 0;
  uint64_t amount_raw = 0;
  if (!d.GetU8(&type_raw) || !d.GetU64(&account) || !d.GetU64(&amount_raw)) {
    r.Send(Status::InvalidArgument("bad txn"));
    return;
  }
  const TxnType type = static_cast<TxnType>(type_raw);
  const int64_t amount = static_cast<int64_t>(amount_raw);
  const uint64_t exec_ns = TxnIsWrite(type) ? costs_.write_exec_ns : costs_.read_exec_ns;
  // Execute against the local database, then synchronously log the audit record (§6.11:
  // "since audits are critical, logging happens synchronously").
  cpu_.Execute(exec_ns, [this, type, account, amount, r]() mutable {
    switch (type) {
      case TxnType::kCreateAccount:
        balances_.emplace(account, 0);
        break;
      case TxnType::kDeposit:
        balances_[account] += amount;
        break;
      case TxnType::kWithdraw:
        balances_[account] -= amount;
        break;
      case TxnType::kTransfer:
        balances_[account] -= amount;
        balances_[account ^ 1] += amount;
        break;
      case TxnType::kBalanceQuery:
      case TxnType::kStatusQuery:
        (void)balances_[account];
        break;
    }
    Encoder audit;
    audit.PutU8(static_cast<uint8_t>(type));
    audit.PutU64(account);
    audit.PutU64(static_cast<uint64_t>(amount));
    std::string record = audit.Take();
    record.resize(128, 'a');  // audit records carry context; ~128 B on the wire
    audit_log_.Append(std::move(record), [this, r](Status s) mutable {
      committed_++;
      r.Send(s.ok() ? Status::Ok() : Status::Unavailable("audit append failed"));
    });
  });
}

TxnClient::TxnClient(Network* net, const SimParams& params, NodeId server)
    : endpoint_(net), params_(params), server_(server) {}

void TxnClient::Execute(TxnType type, uint64_t account, int64_t amount, TxnCallback cb) {
  Encoder e;
  e.PutU8(static_cast<uint8_t>(type));
  e.PutU64(account);
  e.PutU64(static_cast<uint64_t>(amount));
  endpoint_.Call(server_, kTxnExecute, e,
                 [cb](Status s, Decoder) { cb(s.ok()); }, params_.rpc_timeout_ns);
}

}  // namespace lazylog
