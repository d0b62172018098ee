//===- Link.cpp - Point-to-point inter-task communication ------------------===//

#include "core/Link.h"

using namespace parcae::rt;

Link::Link(std::string Name, const WidthSchedule &Consumer, unsigned MaxWidth,
           std::uint64_t Window)
    : Name(std::move(Name)), Consumer(Consumer), Window(Window),
      Buffers(MaxWidth) {
  assert(MaxWidth > 0 && "link needs at least one slot");
  assert(Window >= 2 && "admission window too small to pipeline");
  DataAvail.reserve(MaxWidth);
  for (unsigned I = 0; I < MaxWidth; ++I)
    DataAvail.push_back(std::make_unique<sim::Waitable>());
}

bool Link::trySend(const Token &T) {
  // The effective window scales with the consumer's team size so that a
  // wide consumer can keep all slots busy, while a narrow consumer keeps
  // queues shallow (deep queues would turn into reconfiguration lag:
  // tokens already routed to a slot must drain there).
  if (T.Seq >= LowWater + effectiveWindow())
    return false; // too far ahead of the slowest consumer
  unsigned Slot = Consumer.slotOf(T.Seq);
  assert(Slot < Buffers.size() && "consumer DoP exceeds link MaxWidth");
  [[maybe_unused]] auto Ins = Buffers[Slot].emplace(T.Seq, T);
  assert(Ins.second && "duplicate token for an iteration");
  ++TotalBuffered;
  DataAvail[Slot]->notifyAll();
  return true;
}

std::size_t Link::trySendBatch(const Token *Toks, std::size_t N) {
  std::size_t Sent = 0;
  // Tokens arrive in ascending Seq, so admission fails at a prefix
  // boundary: once one token is outside the window, the rest are too.
  while (Sent < N && trySend(Toks[Sent]))
    ++Sent;
  return Sent;
}

bool Link::tryRecv(unsigned Slot, std::uint64_t Seq, Token &Out) {
  assert(Slot < Buffers.size() && "slot out of range");
  assert(Consumer.slotOf(Seq) == Slot &&
         "consumer asked for an iteration routed to another slot");
  auto &B = Buffers[Slot];
  auto It = B.find(Seq);
  if (It == B.end())
    return false;
  assert(It == B.begin() && "skipped an earlier buffered iteration");
  Out = std::move(It->second);
  B.erase(It);
  assert(TotalBuffered > 0);
  --TotalBuffered;
  return true;
}

parcae::sim::Waitable &Link::dataAvail(unsigned Slot) {
  assert(Slot < DataAvail.size() && "slot out of range");
  return *DataAvail[Slot];
}

void Link::setLowWater(std::uint64_t Seq) {
  if (Seq <= LowWater)
    return;
  LowWater = Seq;
  SpaceAvail.notifyAll();
}

std::size_t Link::bufferedFor(unsigned Slot) const {
  assert(Slot < Buffers.size() && "slot out of range");
  return Buffers[Slot].size();
}
