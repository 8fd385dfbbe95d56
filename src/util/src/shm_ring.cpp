#include "ccov/util/shm_ring.hpp"

#include "ccov/util/failpoint.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#else
#include <chrono>
#include <thread>
#endif

namespace ccov::util {

namespace {

#if defined(__x86_64__) || defined(__i386__)
inline void cpu_relax() { __builtin_ia32_pause(); }
#elif defined(__aarch64__)
inline void cpu_relax() { asm volatile("yield" ::: "memory"); }
#else
inline void cpu_relax() {}
#endif

/// Busy-spinning only ever helps when the peer can make progress on
/// another core; on a single-CPU machine it just burns the peer's
/// timeslice before every escalation.
bool spin_helps() {
  static const bool multicore = std::thread::hardware_concurrency() > 1;
  return multicore;
}

#if defined(__linux__)
// Cross-process futexes: deliberately *not* FUTEX_PRIVATE_FLAG — the
// two sides of a ring may live in different processes mapping the same
// shared segment.
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                int timeout_ms) {
  timespec ts;
  timespec* tsp = nullptr;
  if (timeout_ms >= 0) {
    ts.tv_sec = timeout_ms / 1000;
    ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
    tsp = &ts;
  }
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
            expected, tsp, nullptr, 0);
}

void futex_wake(std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
            INT_MAX, nullptr, nullptr, 0);
}
#else
// Portable fallback: a short sleep-poll. Correctness never depends on
// the wait primitive — only wake-up latency does.
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                int timeout_ms) {
  (void)timeout_ms;
  if (word->load(std::memory_order_acquire) == expected)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

void futex_wake(std::atomic<std::uint32_t>*) {}
#endif

/// Sleep on `seq` until it moves past `expected`, a waiter-advertised
/// wake arrives, or the timeout elapses. The seq-before-recheck order
/// in the callers makes lost wake-ups impossible: either the sleeper
/// sees the new seq (futex returns EAGAIN immediately), or the
/// publisher sees data_waiters/space_waiters != 0 and wakes.
void wait_on(std::atomic<std::uint32_t>* seq, std::atomic<std::uint32_t>* w,
             std::uint32_t expected, int timeout_ms) {
  w->fetch_add(1, std::memory_order_seq_cst);
  if (seq->load(std::memory_order_seq_cst) == expected)
    futex_wait(seq, expected, timeout_ms);
  w->fetch_sub(1, std::memory_order_seq_cst);
}

/// Publish on `seq` and wake sleepers if any advertised themselves.
/// The seq_cst bump orders the cursor store before the waiters load
/// (StoreLoad), pairing with the seq_cst waiter increment in wait_on.
void publish(std::atomic<std::uint32_t>* seq, std::atomic<std::uint32_t>* w) {
  seq->fetch_add(1, std::memory_order_seq_cst);
  if (w->load(std::memory_order_seq_cst) != 0) futex_wake(seq);
}

}  // namespace

bool ShmByteRing::valid_capacity(std::size_t capacity) {
  return capacity >= 64 && capacity <= (1u << 30) &&
         (capacity & (capacity - 1)) == 0;
}

std::size_t ShmByteRing::region_bytes(std::size_t capacity) {
  return sizeof(Control) + capacity;
}

ShmByteRing ShmByteRing::init(void* mem, std::size_t capacity) {
  if (!mem || !valid_capacity(capacity)) return {};
  auto* ctrl = new (mem) Control();
  ctrl->capacity = static_cast<std::uint32_t>(capacity);
  ctrl->head.store(0, std::memory_order_relaxed);
  ctrl->tail.store(0, std::memory_order_relaxed);
  ctrl->data_seq.store(0, std::memory_order_relaxed);
  ctrl->data_waiters.store(0, std::memory_order_relaxed);
  ctrl->space_seq.store(0, std::memory_order_relaxed);
  ctrl->space_waiters.store(0, std::memory_order_release);
  return {ctrl, static_cast<char*>(mem) + sizeof(Control)};
}

ShmByteRing ShmByteRing::attach(void* mem, std::size_t expected_capacity) {
  if (!mem || !valid_capacity(expected_capacity)) return {};
  auto* ctrl = static_cast<Control*>(mem);
  if (ctrl->capacity != expected_capacity) return {};
  return {ctrl, static_cast<char*>(mem) + sizeof(Control)};
}

std::size_t ShmByteRing::readable() const {
  const std::uint64_t head = ctrl_->head.load(std::memory_order_acquire);
  const std::uint64_t tail = ctrl_->tail.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(head - tail);
}

std::size_t ShmByteRing::writable() const {
  const std::uint64_t head = ctrl_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ctrl_->tail.load(std::memory_order_acquire);
  return ctrl_->capacity - static_cast<std::size_t>(head - tail);
}

std::size_t ShmByteRing::try_write(const char* data, std::size_t n) {
  Control* c = ctrl_;
  const std::size_t cap = c->capacity;
  // The producer owns head (relaxed); the acquire on tail makes the
  // consumer's finished reads happen-before our overwrite of the space.
  const std::uint64_t head = c->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = c->tail.load(std::memory_order_acquire);
  const std::size_t free = cap - static_cast<std::size_t>(head - tail);
  const std::size_t m = std::min(n, free);
  if (m == 0) return 0;
  const std::size_t at = static_cast<std::size_t>(head) & (cap - 1);
  const std::size_t first = std::min(m, cap - at);
  std::memcpy(data_ + at, data, first);
  if (m > first) std::memcpy(data_, data + first, m - first);
  // Release-publish the bytes, then signal: a consumer that observes
  // the new head also observes the copied data.
  c->head.store(head + m, std::memory_order_release);
  publish(&c->data_seq, &c->data_waiters);
  return m;
}

std::size_t ShmByteRing::try_read(char* buf, std::size_t n) {
  Control* c = ctrl_;
  const std::size_t cap = c->capacity;
  const std::uint64_t tail = c->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = c->head.load(std::memory_order_acquire);
  const std::size_t avail = static_cast<std::size_t>(head - tail);
  const std::size_t m = std::min(n, avail);
  if (m == 0) return 0;
  const std::size_t at = static_cast<std::size_t>(tail) & (cap - 1);
  const std::size_t first = std::min(m, cap - at);
  std::memcpy(buf, data_ + at, first);
  if (m > first) std::memcpy(buf + first, data_, m - first);
  c->tail.store(tail + m, std::memory_order_release);
  publish(&c->space_seq, &c->space_waiters);
  return m;
}

bool ShmByteRing::wait_readable(int timeout_ms,
                                const std::atomic<std::uint32_t>* done) {
  // Fault-injection seam, delay-only: a delay here widens the
  // sleep/publish race windows chaos tests probe. "Failing" a wait has
  // no meaning, so an error spec is deliberately ignored.
  (void)CCOV_FAILPOINT("futex_wait");
  Control* c = ctrl_;
  const auto ready = [&] {
    return readable() > 0 ||
           (done != nullptr && done->load(std::memory_order_acquire) != 0);
  };
  if (spin_helps()) {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
  }
  // Yield phase: hand the core to the (runnable) peer — on one CPU
  // this is the whole ping-pong; on many it covers the window where
  // the peer was preempted mid-publish.
  for (int i = 0; i < kYieldIterations; ++i) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  // A flag raised before wake_all()'s bump is visible once this load
  // sees the bump; a bump it misses makes the futex wait return.
  const std::uint32_t seq = c->data_seq.load(std::memory_order_seq_cst);
  if (ready()) return true;
  wait_on(&c->data_seq, &c->data_waiters, seq, timeout_ms);
  return ready();
}

bool ShmByteRing::wait_writable(int timeout_ms) {
  (void)CCOV_FAILPOINT("futex_wait");  // delay-only, as in wait_readable
  Control* c = ctrl_;
  if (spin_helps()) {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (writable() > 0) return true;
      cpu_relax();
    }
  }
  for (int i = 0; i < kYieldIterations; ++i) {
    if (writable() > 0) return true;
    std::this_thread::yield();
  }
  const std::uint32_t seq = c->space_seq.load(std::memory_order_seq_cst);
  if (writable() > 0) return true;
  wait_on(&c->space_seq, &c->space_waiters, seq, timeout_ms);
  return writable() > 0;
}

void ShmByteRing::wake_all() {
  Control* c = ctrl_;
  c->data_seq.fetch_add(1, std::memory_order_seq_cst);
  c->space_seq.fetch_add(1, std::memory_order_seq_cst);
  futex_wake(&c->data_seq);
  futex_wake(&c->space_seq);
}

}  // namespace ccov::util
