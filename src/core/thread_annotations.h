// Clang thread-safety annotation macros (abseil-style), MIHN_-prefixed.
//
// The tree has one real lock: core::WorkerPool's SyncMutex, which guards
// the round state its helper threads share. Everything else is single-owner
// by construction — each host (and each chaos trial) is driven by one
// thread at a time, and parallel work is share-nothing partitions merged in
// a fixed order — so nothing else carries a capability. These macros let
// clang -Wthread-safety (turned on as errors in CI) prove the pool's lock
// discipline, and mihn-check rule D9 keeps every annotated class honest
// about which members its lock protects.
//
// Under non-clang compilers the attributes expand to nothing, so the
// primary gcc build is unaffected.
//
// Conventions:
//  - A class opts in by declaring a core::SyncMutex member (the capability)
//    or by using any MIHN_* annotation; D9 then requires MIHN_GUARDED_BY on
//    every mutable member (const, static and std::atomic members are
//    exempt).
//  - Code that touches guarded state holds the lock (core::SyncMutexLock),
//    or is annotated MIHN_REQUIRES(mu_) so its callers must.

#ifndef MIHN_SRC_CORE_THREAD_ANNOTATIONS_H_
#define MIHN_SRC_CORE_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define MIHN_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define MIHN_THREAD_ANNOTATION_ATTRIBUTE_(x)
#endif

// Type annotations: what is a lock.
#define MIHN_CAPABILITY(x) MIHN_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))
#define MIHN_SCOPED_CAPABILITY MIHN_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

// Data annotations: what a lock protects.
#define MIHN_GUARDED_BY(x) MIHN_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

// Function annotations: what a function assumes or does about locks.
#define MIHN_REQUIRES(...) \
  MIHN_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define MIHN_ACQUIRE(...) \
  MIHN_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define MIHN_RELEASE(...) \
  MIHN_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define MIHN_NO_THREAD_SAFETY_ANALYSIS \
  MIHN_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // MIHN_SRC_CORE_THREAD_ANNOTATIONS_H_
