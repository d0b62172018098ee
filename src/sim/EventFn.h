//===- EventFn.h - Small-buffer-optimized event callback --------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-movable callable wrapper for simulator events. Unlike
/// std::function, callables up to InlineSize bytes are stored inline, so
/// the event hot path of the discrete-event core performs no heap
/// allocation per scheduled event. Larger callables (rare: a capture of
/// more than a few pointers) fall back to a single heap cell.
///
/// The wrapper is single-shot in spirit — the simulator invokes each
/// event exactly once — but invocation does not consume it, so tests can
/// call twice if they want to. It never moves: the simulator's slab
/// default-constructs its cells and fills them in place with assign().
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_EVENTFN_H
#define PARCAE_SIM_EVENTFN_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace parcae::sim {

/// Non-movable `void()` callable with small-buffer optimization.
class EventFn {
public:
  /// Inline storage: enough for a lambda capturing half a dozen words,
  /// which covers every event the runtime schedules.
  static constexpr std::size_t InlineSize = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F> &>>>
  EventFn(F &&Fn) { // NOLINT: implicit by design, mirrors std::function
    init(std::forward<F>(Fn));
  }

  /// Replaces the held callable, constructing the new one in place — the
  /// simulator's slab uses this to build events directly in their slot.
  template <typename F> void assign(F &&Fn) {
    reset();
    init(std::forward<F>(Fn));
  }

  EventFn(EventFn &&) = delete;
  EventFn &operator=(EventFn &&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return VT != nullptr; }

  void operator()() {
    VT->Invoke(S);
  }

  /// Destroys the held callable (if any); the wrapper becomes empty.
  void reset() noexcept {
    if (VT) {
      if (VT->Dtor) // null for trivially destructible inline callables
        VT->Dtor(S);
      VT = nullptr;
    }
  }

  /// Scratch word over the (unused) storage of an EMPTY wrapper. The
  /// simulator's slab threads its free list through dead slots with
  /// this instead of keeping a side stack.
  std::uint32_t &scratch() noexcept {
    return *reinterpret_cast<std::uint32_t *>(S.Buf);
  }

private:
  union Storage {
    alignas(alignof(std::max_align_t)) unsigned char Buf[InlineSize];
    void *Ptr;
  };

  struct VTable {
    void (*Invoke)(Storage &);
    /// Null when destruction is a no-op (trivially destructible inline
    /// callable): the event hot loop then skips the indirect call.
    void (*Dtor)(Storage &) noexcept;
  };

  template <typename D>
  static constexpr bool FitsInline =
      sizeof(D) <= InlineSize && alignof(D) <= alignof(std::max_align_t);

  template <typename D> struct OpsInline {
    static D *get(Storage &St) {
      return std::launder(reinterpret_cast<D *>(St.Buf));
    }
    static void invoke(Storage &St) { (*get(St))(); }
    static void dtor(Storage &St) noexcept { get(St)->~D(); }
    static constexpr VTable Table{
        invoke, std::is_trivially_destructible_v<D> ? nullptr : dtor};
  };

  template <typename D> struct OpsHeap {
    static D *get(Storage &St) { return static_cast<D *>(St.Ptr); }
    static void invoke(Storage &St) { (*get(St))(); }
    static void dtor(Storage &St) noexcept { delete get(St); }
    static constexpr VTable Table{invoke, dtor};
  };

  template <typename F> void init(F &&Fn) {
    using D = std::decay_t<F>;
    if constexpr (FitsInline<D>) {
      ::new (static_cast<void *>(S.Buf)) D(std::forward<F>(Fn));
      VT = &OpsInline<D>::Table;
    } else {
      S.Ptr = new D(std::forward<F>(Fn));
      VT = &OpsHeap<D>::Table;
    }
  }

  const VTable *VT = nullptr;
  Storage S;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_EVENTFN_H
