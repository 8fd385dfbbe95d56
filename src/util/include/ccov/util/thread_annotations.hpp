#pragma once
/// \file thread_annotations.hpp
/// Clang thread-safety annotations for compile-time race detection,
/// plus the annotated Mutex/MutexLock pair every lock-owning class in
/// the codebase uses. Under Clang with -Wthread-safety (CI builds the
/// whole tree with -Wthread-safety -Werror) the analysis proves, per
/// translation unit, that every CCOV_GUARDED_BY member is only touched
/// with its mutex held and that every CCOV_REQUIRES function is only
/// called under the right lock. Under GCC the macros expand to
/// nothing and Mutex is an ordinary std::mutex wrapper.
///
/// Conventions (see README "Static analysis & fuzzing"):
///  - every mutex-protected member carries CCOV_GUARDED_BY(mu);
///  - helpers called with the lock already held carry CCOV_REQUIRES(mu)
///    instead of re-locking;
///  - condition waits go through std::condition_variable_any waiting on
///    the Mutex directly (`cv.wait(mu_)` inside a while loop) — the
///    analysis treats the mutex as continuously held across the wait,
///    which is exactly the invariant the surrounding code relies on;
///  - lock-free classes (ShmByteRing, the shm segment header) use
///    atomics only and need no capability annotations.

#include <mutex>

#if defined(__clang__)
#define CCOV_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CCOV_THREAD_ANNOTATION(x)
#endif

// NOLINTBEGIN(bugprone-macro-parentheses): attribute arguments are
// capability expressions, not values — parenthesizing them is invalid.

/// Class attribute: instances are lockable capabilities ("mutex").
#define CCOV_CAPABILITY(x) CCOV_THREAD_ANNOTATION(capability(x))

/// Class attribute: RAII objects that acquire in the constructor and
/// release in the destructor (std::lock_guard shape).
#define CCOV_SCOPED_CAPABILITY CCOV_THREAD_ANNOTATION(scoped_lockable)

/// Member attribute: reads/writes require holding the given mutex.
#define CCOV_GUARDED_BY(x) CCOV_THREAD_ANNOTATION(guarded_by(x))

/// Member attribute: the pointee is guarded (the pointer itself is not).
#define CCOV_PT_GUARDED_BY(x) CCOV_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function attribute: callable only with the given mutexes held.
#define CCOV_REQUIRES(...) \
  CCOV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function attribute: acquires the given mutexes (held on return).
#define CCOV_ACQUIRE(...) \
  CCOV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function attribute: releases the given mutexes (held on entry).
#define CCOV_RELEASE(...) \
  CCOV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attribute: acquires the mutex when returning `ret`.
#define CCOV_TRY_ACQUIRE(ret, ...) \
  CCOV_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function attribute: callable only with the given mutexes NOT held
/// (deadlock prevention for self-locking entry points).
#define CCOV_EXCLUDES(...) CCOV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function attribute: returns a reference to the given capability.
#define CCOV_RETURN_CAPABILITY(x) CCOV_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's locking is correct for reasons the
/// analysis cannot see (constructors/destructors with no concurrency).
#define CCOV_NO_THREAD_SAFETY_ANALYSIS \
  CCOV_THREAD_ANNOTATION(no_thread_safety_analysis)

// NOLINTEND(bugprone-macro-parentheses)

namespace ccov::util {

/// std::mutex with the capability annotations Clang's analysis needs
/// (libstdc++'s std::mutex carries none, so locking it is invisible to
/// -Wthread-safety). BasicLockable, so std::condition_variable_any can
/// wait on it directly.
class CCOV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CCOV_ACQUIRE() { mu_.lock(); }
  void unlock() CCOV_RELEASE() { mu_.unlock(); }
  bool try_lock() CCOV_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over a Mutex — std::lock_guard with scoped-capability
/// annotations. The std one cannot be annotated, and the analysis must
/// see the acquire/release to track the critical section.
class CCOV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CCOV_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CCOV_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace ccov::util
