// Capability-annotated synchronization layer (Clang Thread Safety
// Analysis).  Every mutex, scoped lock, and condition variable in the
// library goes through the wrappers below so that lock contracts are
// visible to the compiler: under Clang, `-Wthread-safety
// -Wthread-safety-beta` turns any guarded-state violation — reading a
// `GTL_GUARDED_BY` field without the lock, calling a `GTL_REQUIRES`
// helper unlocked, double-acquiring, or acquiring against the declared
// lock order — into a diagnostic (an error on CI, where GTL_WERROR is
// on).  Under GCC and other compilers every annotation expands to
// nothing and the wrappers are zero-cost veneers over the std types.
//
// Usage pattern:
//
//   class Registry {
//    public:
//     void insert(Entry e) GTL_EXCLUDES(mu_) {
//       gtl::MutexLock lk(mu_);
//       insert_locked(std::move(e));
//     }
//    private:
//     void insert_locked(Entry e) GTL_REQUIRES(mu_);
//     mutable gtl::Mutex mu_;
//     std::vector<Entry> entries_ GTL_GUARDED_BY(mu_);
//   };
//
// Rules of the layer (enforced by gtl_lint, see tools/gtl_lint):
//   - `sync-raw-mutex`: bare std::mutex / std::lock_guard /
//     std::unique_lock / std::scoped_lock / std::condition_variable are
//     confined to this header; everything else uses gtl::Mutex,
//     gtl::MutexLock, and gtl::CondVar.
//   - `sync-unjustified-escape`: GTL_NO_THREAD_SAFETY_ANALYSIS is an
//     escape hatch of last resort and requires a
//     `// gtl-lint: allow(sync-unjustified-escape): <why>` justification
//     at the use site.
//
// Condition-variable waits: write the predicate loop out in the
// annotated caller (`while (!ready_) cv_.wait(mu_);`) instead of
// passing a predicate lambda.  A lambda body is analyzed as its own
// unannotated function, so guarded-field reads inside it would trip the
// analysis even though the lock is held.
//
// This file is the single place allowed to touch the raw std
// primitives; keep it free of policy so the contracts stay auditable.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Annotation macros.  Clang-only; no-ops elsewhere.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define GTL_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define GTL_THREAD_ANNOTATION_(x)
#endif

// Declares a type that models a capability (a lock).
#define GTL_CAPABILITY(name) GTL_THREAD_ANNOTATION_(capability(name))

// Declares an RAII type whose lifetime acquires/releases a capability.
#define GTL_SCOPED_CAPABILITY GTL_THREAD_ANNOTATION_(scoped_lockable)

// Field is protected by the given capability; access requires holding it.
#define GTL_GUARDED_BY(x) GTL_THREAD_ANNOTATION_(guarded_by(x))

// Pointed-to data (not the pointer itself) is protected by the capability.
#define GTL_PT_GUARDED_BY(x) GTL_THREAD_ANNOTATION_(pt_guarded_by(x))

// Lock-ordering declarations, checked under -Wthread-safety-beta.
#define GTL_ACQUIRED_BEFORE(...) \
  GTL_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define GTL_ACQUIRED_AFTER(...) \
  GTL_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Function contract: caller must hold the capability on entry.
#define GTL_REQUIRES(...) \
  GTL_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// Function acquires / releases the capability (held on exit / entry).
#define GTL_ACQUIRE(...) \
  GTL_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define GTL_RELEASE(...) \
  GTL_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// Function acquires the capability iff it returns the given value; the
// first argument is the success return value, any further arguments
// name the capability (defaults to `this` when omitted).
#define GTL_TRY_ACQUIRE(...) \
  GTL_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Function contract: caller must NOT hold the capability (the function
// acquires it itself, or must never run under it).  This is how the
// serve inline-lane / worker-lane split is expressed.
#define GTL_EXCLUDES(...) GTL_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Function returns a reference to the named capability.
#define GTL_RETURN_CAPABILITY(x) \
  GTL_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch: function body is exempt from analysis.  Requires a
// `// gtl-lint: allow(sync-unjustified-escape): <why>` justification at
// the use site (enforced by gtl_lint); zero escapes exist today.
#define GTL_NO_THREAD_SAFETY_ANALYSIS \
  GTL_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace gtl {

class CondVar;

// ---------------------------------------------------------------------------
// Mutex — std::mutex carrying the "mutex" capability.
// ---------------------------------------------------------------------------

class GTL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GTL_ACQUIRE() { mu_.lock(); }
  void unlock() GTL_RELEASE() { mu_.unlock(); }
  bool try_lock() GTL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// MutexLock — scoped acquisition with mid-scope unlock()/lock() support
// (admission paths release early before replying).  The analysis tracks the
// managed capability through unlock()/lock(), so the destructor only
// releases when the lock is still held.
// ---------------------------------------------------------------------------

class GTL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GTL_ACQUIRE(mu) : mu_(&mu) { mu.lock(); }
  ~MutexLock() GTL_RELEASE() {
    if (held_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Release before end of scope (e.g. to reply to a client unlocked).
  void unlock() GTL_RELEASE() {
    mu_->unlock();
    held_ = false;
  }

  // Re-acquire after an unlock(); the scope's destructor takes over again.
  void lock() GTL_ACQUIRE() {
    mu_->lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_ = true;
};

// ---------------------------------------------------------------------------
// CondVar — std::condition_variable bound to gtl::Mutex.  wait() takes
// the Mutex itself (not the MutexLock) so the REQUIRES contract names
// the capability the analysis tracks.
// ---------------------------------------------------------------------------

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically release `mu`, block, and re-acquire before returning.
  // Caller must hold `mu` (normally via a MutexLock in scope).
  void wait(Mutex& mu) GTL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      GTL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lk, deadline);
    lk.release();
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& timeout)
      GTL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lk, timeout);
    lk.release();
    return status;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gtl
