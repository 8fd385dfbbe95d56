#pragma once
/// \file shm_ring.hpp
/// ShmByteRing: a lock-free single-producer/single-consumer byte ring
/// designed to live inside a shared-memory segment (but equally usable
/// over any plain buffer — the tests hammer it across two threads).
///
/// Layout and protocol:
///
///  - a standard-layout Control block at the front of the region holds
///    the capacity plus the producer/consumer cursors; the data buffer
///    follows immediately. Head and tail are *monotonic byte counts*
///    (never wrapped), each alone on its own cache line so publishing
///    one side never invalidates the other side's line.
///  - capacity is a power of two, so `cursor & (capacity - 1)` is the
///    buffer offset and `head - tail` is the fill level, correct across
///    wrap-around.
///  - the hot path is wait-free and syscall-free: try_write/try_read
///    are one acquire load of the remote cursor, a copy (at most two
///    memcpy for the wrap), and one release store of the own cursor.
///  - blocking is cooperative and off the hot path, escalating in
///    three phases: a brief busy spin (skipped outright on a single
///    CPU, where spinning only steals the peer's timeslice), a bounded
///    run of sched-yields (on one CPU a yield hands the core straight
///    to the runnable peer — the fastest possible ping-pong), then a
///    futex sleep (Linux; a short nanosleep poll elsewhere) keyed to a
///    per-direction sequence word. Producers bump the sequence on
///    every publish and issue the (cold) wake syscall only when a
///    waiter advertised itself, so a streaming steady state never
///    enters the kernel.
///
/// One process (or thread) must own the producer role and one the
/// consumer role; the two may come from different processes mapping
/// the same region, which is exactly how the engine's shared-memory
/// transport uses a pair of these.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ccov::util {

/// View over one SPSC byte ring in a caller-provided memory region.
/// Copyable — copies alias the same ring; the region must outlive
/// every view. A default-constructed or failed-attach view is !valid().
class ShmByteRing {
 public:
  /// Cursor/sequence block at the front of a ring region. Standard
  /// layout and lock-free atomics only: the whole point is that two
  /// processes map this block.
  struct Control {
    std::uint32_t capacity = 0;  ///< data bytes; immutable after init
    /// Producer cursor: total bytes ever written (monotonic).
    alignas(64) std::atomic<std::uint64_t> head;
    /// Consumer cursor: total bytes ever read (monotonic).
    alignas(64) std::atomic<std::uint64_t> tail;
    /// Bumped by the producer on every publish; the consumer's futex
    /// word. data_waiters is nonzero while a consumer may be sleeping.
    alignas(64) std::atomic<std::uint32_t> data_seq;
    std::atomic<std::uint32_t> data_waiters;
    /// Bumped by the consumer on every consume; the producer's futex
    /// word (backpressure: the ring was full and drained).
    alignas(64) std::atomic<std::uint32_t> space_seq;
    std::atomic<std::uint32_t> space_waiters;
  };

  /// Busy-spin iterations before a blocking wait escalates (multicore
  /// only — on one CPU spinning just delays the peer).
  static constexpr int kSpinIterations = 512;
  /// sched-yield iterations between the spin and the futex sleep.
  static constexpr int kYieldIterations = 32;

  ShmByteRing() = default;

  /// True when `capacity` can back a ring: a power of two >= 64.
  static bool valid_capacity(std::size_t capacity);

  /// Bytes of raw memory a ring of `capacity` data bytes needs.
  static std::size_t region_bytes(std::size_t capacity);

  /// Construct a fresh ring over `mem` (at least region_bytes(capacity)
  /// bytes, suitably aligned for Control). Returns an invalid view when
  /// the capacity is rejected by valid_capacity.
  static ShmByteRing init(void* mem, std::size_t capacity);

  /// Attach to a ring someone else initialized. Validates the stored
  /// capacity against the expected one — a torn or foreign region
  /// yields an invalid view instead of undefined behaviour.
  static ShmByteRing attach(void* mem, std::size_t expected_capacity);

  bool valid() const { return ctrl_ != nullptr; }
  std::size_t capacity() const { return ctrl_ ? ctrl_->capacity : 0; }

  /// Bytes ready to read (consumer view; producer may add more at any
  /// moment, never remove).
  std::size_t readable() const;

  /// Free space (producer view; consumer may free more at any moment).
  std::size_t writable() const;

  /// Copy up to `n` bytes in. Returns the number accepted (0 when
  /// full); publishes with release and wakes a sleeping consumer.
  std::size_t try_write(const char* data, std::size_t n);

  /// Copy up to `n` bytes out. Returns the number delivered (0 when
  /// empty); frees the space with release and wakes a sleeping producer.
  std::size_t try_read(char* buf, std::size_t n);

  /// Block until data is readable, `*done` (the producer's end-of-stream
  /// flag, when given) is nonzero, or ~timeout_ms elapsed (-1 = no
  /// deadline). Returns whether data or the flag is there — a false
  /// return is a timeout, after which callers re-check their own exit
  /// conditions (shutdown, peer death) and call again. Spurious early
  /// returns are allowed. The flag is read after the wake-up sequence
  /// number, so a producer that raises it and then calls wake_all()
  /// never leaves this wait asleep until the timeout.
  bool wait_readable(int timeout_ms,
                     const std::atomic<std::uint32_t>* done = nullptr);

  /// Blocking counterpart for a full ring (backpressure).
  bool wait_writable(int timeout_ms);

  /// Wake every sleeper on both directions without transferring bytes —
  /// teardown uses this so a blocked peer re-checks shutdown promptly.
  void wake_all();

 private:
  ShmByteRing(Control* ctrl, char* data) : ctrl_(ctrl), data_(data) {}

  Control* ctrl_ = nullptr;
  char* data_ = nullptr;
};

}  // namespace ccov::util
