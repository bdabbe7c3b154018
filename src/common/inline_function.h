// Move-only type-erased callable with inline storage. The event loop and the RPC
// layer store one of these per scheduled event and per outstanding call; keeping the
// closure inside the owning slot (instead of behind std::function's 16-byte small
// buffer) is what makes scheduling and calling allocation-free. A capture larger than
// `Capacity` (or one that cannot be moved without throwing) falls back to one heap
// block, so any callable still works; it just costs an allocation.
//
// Unlike std::function the target may be move-only (a lambda capturing a unique_ptr),
// and an InlineFunction cannot be copied.
#ifndef SRC_COMMON_INLINE_FUNCTION_H_
#define SRC_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace lazylog {

template <typename Sig, size_t Capacity>
class InlineFunction;

namespace inline_function_internal {

template <typename T>
struct IsInlineFunction : std::false_type {};
template <typename Sig, size_t C>
struct IsInlineFunction<InlineFunction<Sig, C>> : std::true_type {};

template <typename T>
struct IsStdFunction : std::false_type {};
template <typename Sig>
struct IsStdFunction<std::function<Sig>> : std::true_type {};

}  // namespace inline_function_internal

// True if `f` is an empty callable: nullptr, a null function pointer, an empty
// std::function or an empty InlineFunction. Converting an empty callable yields an empty InlineFunction,
// and the event loop never fires one.
template <typename F>
bool IsNullCallable(const F& f) {
  using D = std::decay_t<F>;
  if constexpr (std::is_null_pointer_v<D>) {
    return true;
  } else if constexpr (std::is_pointer_v<D> ||
                       inline_function_internal::IsStdFunction<D>::value ||
                       inline_function_internal::IsInlineFunction<D>::value) {
    return !f;
  } else {
    return false;
  }
}

template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  template <typename D>
  using EnableIfCallable =
      std::enable_if_t<!inline_function_internal::IsInlineFunction<D>::value &&
                       std::is_invocable_r_v<R, D&, Args...>>;

 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>, typename = EnableIfCallable<D>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Init<D>(std::forward<F>(f));
  }

  // Replaces the target, constructing the new one directly in this object's storage.
  template <typename F, typename D = std::decay_t<F>, typename = EnableIfCallable<D>>
  InlineFunction& operator=(F&& f) {
    reset();
    Init<D>(std::forward<F>(f));
    return *this;
  }

  InlineFunction(InlineFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->move(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->move(storage_, o.storage_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  // Destroys the target (and everything it captured) now; leaves *this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(storage_);
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Like std::function, invocation through a const reference may mutate the target.
  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(storage_), std::forward<Args>(args)...);
  }

  // True if the target lives in the inline buffer (tests and allocation audits).
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

 private:
  template <typename D, typename F>
  void Init(F&& f) {
    if (IsNullCallable(f)) {
      return;
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  // Pointer alignment keeps the wrapper at Capacity + 8 bytes; over-aligned captures
  // take the heap path.
  static constexpr size_t kAlign = alignof(void*);

  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*move)(void* dst, void* src) noexcept;  // move-constructs dst, destroys src
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= Capacity &&
                                      alignof(D) <= kAlign &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... a) -> R {
        return std::invoke(*static_cast<D*>(s), std::forward<Args>(a)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); },
      true,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... a) -> R {
        return std::invoke(**static_cast<D**>(s), std::forward<Args>(a)...);
      },
      [](void* dst, void* src) noexcept { *static_cast<D**>(dst) = *static_cast<D**>(src); },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
      false,
  };

  static_assert(Capacity >= sizeof(void*), "capacity must hold the heap fallback pointer");

  alignas(kAlign) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace lazylog

#endif  // SRC_COMMON_INLINE_FUNCTION_H_
