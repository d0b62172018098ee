//===- WorkSource.cpp - Where a region's iterations come from --------------===//

#include "core/WorkSource.h"

#include <algorithm>

using namespace parcae::rt;

WorkSource::~WorkSource() = default;

void QueueWorkSource::evictHistory() {
  while (History.size() > HistoryCap) {
    History.pop_front();
    ++HistoryEvictions;
    if (telemetry::TraceRecorder *Tel = telemetry::recorder())
      Tel->metrics().counter("work_source.history_evictions").add();
  }
}

WorkSource::Pull QueueWorkSource::tryPullChunk(std::uint64_t Max,
                                               std::vector<Token> &Out) {
  assert(Max > 0 && "chunk claims must request at least one item");
  if (Items.empty())
    return Closed ? Pull::End : Pull::Wait;
  std::uint64_t N = std::min<std::uint64_t>(Max, Items.size());
  for (std::uint64_t I = 0; I < N; ++I) {
    Out.push_back(Items.front());
    History.push_back(Items.front());
    Items.pop_front();
  }
  evictHistory();
  return Pull::Got;
}

bool QueueWorkSource::rewind(std::uint64_t Count) {
  if (Count > History.size())
    return false;
  for (std::uint64_t I = 0; I < Count; ++I) {
    Items.push_front(History.back());
    History.pop_back();
  }
  if (Count > 0)
    Ready.notifyAll();
  return true;
}

bool QueueWorkSource::push(Token Item) {
  // Closed queues reject instead of asserting: in release builds the old
  // assert vanished and a late producer could slip items past the
  // end-of-stream consumers had already observed.
  if (Closed || Items.size() >= Capacity)
    return false;
  Items.push_back(std::move(Item));
  ++Accepted;
  // One item satisfies one head-worker claim; waking the whole herd only
  // makes the losers re-poll and re-block.
  Ready.notifyOne();
  return true;
}

void QueueWorkSource::close() {
  Closed = true;
  Ready.notifyAll();
}

WorkSource::Pull CountedWorkSource::tryPullChunk(std::uint64_t Max,
                                                 std::vector<Token> &Out) {
  assert(Max > 0 && "chunk claims must request at least one item");
  if (exhausted())
    return Held ? Pull::Wait : Pull::End;
  std::uint64_t Take = std::min<std::uint64_t>(Max, N - Next);
  for (std::uint64_t I = 0; I < Take; ++I) {
    Token T{};
    T.Value = static_cast<std::int64_t>(Next + I);
    Out.push_back(T);
  }
  Next += Take;
  return Pull::Got;
}
