// Erwin-st client library (§5). An append splits the record into data and metadata: the
// data goes to every replica of a client-chosen shard and the metadata <record-id,
// shard-id> to every sequencing replica — all in parallel, completing in 1 RTT. Reads
// first resolve the position->shard mapping (fetched in bulk and cached, §5.3), then
// read the record from its shard. Everything else lives in ErwinClient.
#ifndef SRC_LAZYLOG_ERWIN_ST_CLIENT_H_
#define SRC_LAZYLOG_ERWIN_ST_CLIENT_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/lazylog/erwin_client.h"

namespace lazylog {

class ErwinStClient : public ErwinClient {
 public:
  ErwinStClient(Network* net, const SimParams& params, ClusterView view, ClientId client_id)
      : ErwinClient(net, params, std::move(view), client_id),
        rr_cursor_(client_id) {}  // decorrelate shard choice across clients

  // Seamless shard addition (§6.9): subsequent appends include the new shard in the
  // placement choice immediately.
  void AddShard(std::vector<NodeId> replicas) { view_.shards.push_back(std::move(replicas)); }

  // Disables the client-side position-map cache, and with it readahead (ablation for
  // §6.7's observation that caching makes Erwin-st reads match Erwin-m).
  void SetPosMapCacheEnabled(bool enabled) {
    cache_enabled_ = enabled;
    readahead_enabled_ = enabled;
  }

  // Test hooks for the client-failure protocol (§5.4): write only one half of an append.
  void AppendMetadataOnly(ShardId shard, AppendCallback cb);
  void AppendDataOnly(ShardId shard, Buf payload, AppendCallback cb);

  uint64_t posmap_fetches() const { return posmap_fetches_; }

 protected:
  void SendAppend(std::shared_ptr<PendingAppend> p) override;
  void FetchRange(LogPos from, uint64_t len, ReadCallback cb) override;

 private:
  void FetchPosMap(LogPos needed_end, std::function<void()> then);
  // Reads [from, from+len), every position of which the cached map covers.
  void ReadMapped(LogPos from, uint64_t len, ReadCallback cb);

  uint64_t rr_cursor_;  // round-robin shard choice
  // Position->shard cache: posmap_[p] is the shard of position p; dense from 0.
  std::vector<uint32_t> posmap_;
  bool cache_enabled_ = true;
  uint64_t posmap_fetches_ = 0;
  uint32_t posmap_misses_ = 0;  // consecutive failed fetches (see ReadDeadlineNs)
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_ERWIN_ST_CLIENT_H_
