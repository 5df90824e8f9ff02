// Machine-checked source annotations (docs/static-analysis.md).
//
// Two families, both zero-cost at runtime:
//
//  * Checkpoint coverage: `DTN_CKPT_SKIP("reason")` marks a data
//    member of a checkpointable class that is deliberately absent
//    from its checkpoint_save/checkpoint_load (or save/load) pair —
//    scratch state rebuilt lazily, or configuration the fingerprint
//    already pins.  The analyzer's checkpoint-coverage check requires
//    every other member to be referenced in both methods, catching
//    the "added a member, forgot to serialize it" bug class that
//    silently breaks bit-identical resume (docs/checkpointing.md).
//
//  * Clang thread-safety analysis (-Wthread-safety): capability
//    annotations on the annotated `Mutex` below and on the members it
//    guards.  util::ThreadPool uses them so the clang presets prove
//    lock discipline at compile time.
//
// The ckpt macro expands to `[[clang::annotate(...)]]` so the libclang
// frontend of tools/analyzer sees it as an attribute; under GCC it
// expands to nothing (the analyzer's fallback frontend reads the macro
// spelling straight from the source instead).  It is written BEFORE the
// member declaration:
//
//     DTN_CKPT_SKIP("rebuilt lazily") std::vector<Cache> cache_;
#pragma once

#include <mutex>

#if defined(__clang__)
#define DTN_ANNOTATE(text) [[clang::annotate(text)]]
#else
#define DTN_ANNOTATE(text)
#endif

/// Member is deliberately not serialized; the reason is mandatory.
#define DTN_CKPT_SKIP(reason) DTN_ANNOTATE("dtn::ckpt_skip=" reason)

// -- clang thread-safety capability attributes ------------------------
// GNU spelling, written AFTER the declarator (standard placement for
// thread-safety annotations):  std::size_t active_ DTN_GUARDED_BY(mutex_);
#if defined(__clang__)
#define DTN_TS_ATTR(x) __attribute__((x))
#else
#define DTN_TS_ATTR(x)
#endif

#define DTN_CAPABILITY(x) DTN_TS_ATTR(capability(x))
#define DTN_SCOPED_CAPABILITY DTN_TS_ATTR(scoped_lockable)
#define DTN_GUARDED_BY(x) DTN_TS_ATTR(guarded_by(x))
#define DTN_ACQUIRE(...) DTN_TS_ATTR(acquire_capability(__VA_ARGS__))
#define DTN_RELEASE(...) DTN_TS_ATTR(release_capability(__VA_ARGS__))
#define DTN_TRY_ACQUIRE(...) DTN_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define DTN_REQUIRES(...) DTN_TS_ATTR(requires_capability(__VA_ARGS__))
#define DTN_EXCLUDES(...) DTN_TS_ATTR(locks_excluded(__VA_ARGS__))
#define DTN_NO_THREAD_SAFETY_ANALYSIS DTN_TS_ATTR(no_thread_safety_analysis)

namespace dtn {

/// std::mutex wrapped as a named thread-safety capability (libstdc++'s
/// mutex carries no annotations, so -Wthread-safety cannot otherwise
/// connect lock() calls to DTN_GUARDED_BY members).  Satisfies
/// BasicLockable, so std::condition_variable_any can wait on it
/// directly — wait(Mutex&) unlocks and relocks through these exact
/// methods.
class DTN_CAPABILITY("mutex") Mutex {
 public:
  void lock() DTN_ACQUIRE() { m_.lock(); }
  void unlock() DTN_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() DTN_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

 private:
  std::mutex m_;
};

/// RAII lock for Mutex (scoped capability, so the analysis tracks the
/// critical section's extent).
class DTN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) DTN_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() DTN_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace dtn
