//===- WorkSource.cpp - Where a region's iterations come from --------------===//

#include "core/WorkSource.h"

#include <algorithm>

using namespace parcae::rt;

WorkSource::~WorkSource() = default;

WorkSource::Pull WorkSource::tryPullChunk(std::uint64_t Max,
                                          std::vector<Token> &Out) {
  assert(Max > 0 && "chunk claims must request at least one item");
  Token T;
  Pull First = tryPull(T);
  if (First != Pull::Got)
    return First;
  Out.push_back(T);
  for (std::uint64_t I = 1; I < Max; ++I) {
    // A partial chunk is fine: stopping at the first Wait/End keeps the
    // claim non-blocking, and End is re-derived on the next claim.
    if (tryPull(T) != Pull::Got)
      break;
    Out.push_back(T);
  }
  return Pull::Got;
}

void QueueWorkSource::evictHistory() {
  while (History.size() > HistoryCap) {
    History.pop_front();
    ++HistoryEvictions;
    if (telemetry::TraceRecorder *Tel = telemetry::recorder())
      Tel->metrics().counter("work_source.history_evictions").add();
  }
}

WorkSource::Pull QueueWorkSource::tryPull(Token &Out) {
  if (!Items.empty()) {
    Out = Items.front();
    Items.pop_front();
    History.push_back(Out);
    evictHistory();
    return Pull::Got;
  }
  return Closed ? Pull::End : Pull::Wait;
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

bool QueueWorkSource::saveState(WorkSourceState &Out) const {
  Out = WorkSourceState{};
  Out.K = WorkSourceState::Kind::Queue;
  Out.Total = Accepted;
  Out.Cursor = Accepted - Items.size(); // items already pulled
  Out.Pending.assign(Items.begin(), Items.end());
  Out.Closed = Closed;
  return true;
}

bool QueueWorkSource::restoreState(const WorkSourceState &S) {
  if (S.K != WorkSourceState::Kind::Queue || Accepted != 0)
    return false;
  Items.assign(S.Pending.begin(), S.Pending.end());
  Accepted = S.Total;
  Closed = S.Closed;
  History.clear();
  if (!Items.empty() || Closed)
    Ready.notifyAll();
  return true;
}

WorkSource::Pull CountedWorkSource::tryPull(Token &Out) {
  if (exhausted())
    return Held ? Pull::Wait : Pull::End;
  Out = Token{};
  Out.Value = static_cast<std::int64_t>(Next);
  ++Next;
  return Pull::Got;
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
