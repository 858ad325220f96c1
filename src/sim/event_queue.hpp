#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/require.hpp"
#include "util/time.hpp"

namespace csmabw::sim {

class EventQueue;

/// Identifies a re-armable timer of one EventQueue (see
/// EventQueue::add_timer).
using TimerId = std::uint32_t;

/// Handle to a scheduled event; allows cancellation.
///
/// A handle is a (slot, generation) pair into the queue's slab pool —
/// two words, no refcounting.  Cancellation and `scheduled()` checks are
/// O(1); a handle to an event that has fired (or whose slot was recycled
/// for a later event) reports `scheduled() == false` and its `cancel()`
/// is a no-op, so stale handles can never cancel a slot's new occupant.
/// Handles are cheap to copy but must not be used after the queue they
/// came from is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Idempotent.
  void cancel();
  [[nodiscard]] bool scheduled() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
      : queue_(q), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Time-ordered event queue with a slab-pooled, allocation-free hot path.
///
/// Events at equal times fire in scheduling order (FIFO tie-break via a
/// monotone sequence number) — deterministic replay requires a total
/// order on (time, seq), and every operation preserves it exactly.
///
/// Storage design: callbacks live inline in 64-byte slots of a chunked
/// slab (chunks never move, so callbacks may be non-trivially copyable);
/// a 4-ary binary-hole heap orders lightweight (time, seq, slot)
/// records.  Freed slots are recycled through a free list and slot
/// generations are bumped on release, so in steady state — once the slab
/// and heap have grown to the high-water mark — scheduling, cancelling
/// and firing perform zero heap allocations.  Callbacks larger than
/// `kInlineCallbackBytes` are a compile error: there is deliberately no
/// heap fallback.
///
/// Cancellation is lazy in the heap (the (time, seq, slot) record stays
/// until it surfaces or a compaction sweep removes it) but eager in the
/// slab: the slot is destroyed and recycled immediately.  When stale
/// records outnumber live ones the heap is compacted in place, so a
/// schedule/cancel churn workload stays bounded.
///
/// Re-armable timers (add_timer / arm / disarm) are the second kind of
/// pending event: a registered (time, seq, callback) record that lives
/// outside the heap, for a component that keeps exactly one pending
/// occurrence and moves it on nearly every event (the media's pending
/// fire and transmission end).  Arming draws its seq from the same
/// counter as schedule(), and every dispatch loop runs whichever of the
/// heap top and the earliest armed timer comes first in (time, seq)
/// order — so replacing a cancel + schedule pair with one arm() yields
/// exactly the same dispatch order, without the heap insert, the stale
/// record and its later pop.  Armed timers count as live events.
class EventQueue {
 public:
  /// Inline storage per event; fits every in-tree callback (lambdas
  /// capturing a few pointers — four words).  Oversized captures are a
  /// compile error rather than a silent heap fallback.
  static constexpr std::size_t kInlineCallbackBytes = 32;

  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at `at`.  `fn` is moved into the slot's inline
  /// storage — no allocation, no type-erasure through std::function.
  template <class F>
  EventHandle schedule(TimeNs at, F fn) {
    static_assert(std::is_invocable_r_v<void, F&>,
                  "event callback must be invocable with no arguments");
    static_assert(sizeof(F) <= kInlineCallbackBytes,
                  "event callback too large for inline storage "
                  "(no heap fallback — shrink the capture)");
    static_assert(alignof(F) <= alignof(std::max_align_t),
                  "over-aligned event callbacks are not supported");
    static_assert(std::is_nothrow_move_constructible_v<F>,
                  "event callback move must not throw");
    if constexpr (std::is_constructible_v<bool, const F&>) {
      CSMABW_REQUIRE(static_cast<bool>(fn), "cannot schedule a null event");
    }
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    ::new (static_cast<void*>(s.storage)) F(std::move(fn));
    s.invoke = [](void* p) { (*static_cast<F*>(p))(); };
    if constexpr (std::is_trivially_destructible_v<F>) {
      s.destroy = nullptr;
    } else {
      s.destroy = [](void* p) { static_cast<F*>(p)->~F(); };
    }
    return commit(at, idx);
  }

  /// Schedules a member-function call `(obj.*Method)()` at `at` — direct
  /// dispatch on the pooled event: the slot stores only the object
  /// pointer and the trampoline is a per-(Method) function, with no
  /// lambda or functor object in between.
  template <auto Method, class T>
  EventHandle schedule_member(TimeNs at, T& obj) {
    static_assert(std::is_invocable_r_v<void, decltype(Method), T&>,
                  "Method must be callable on T with no arguments");
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    ::new (static_cast<void*>(s.storage)) T*(&obj);
    s.invoke = [](void* p) { ((*static_cast<T**>(p))->*Method)(); };
    s.destroy = nullptr;
    return commit(at, idx);
  }

  /// Registers a re-armable timer that calls `(obj.*Method)()` each
  /// time it fires; it starts disarmed.  Timers are meant for a handful
  /// of long-lived per-component slots (choosing the earliest one is a
  /// scan over all of them), registered at setup: the timer table is not
  /// part of the steady-state allocation count.  `obj` must stay alive
  /// while the timer is armed.
  template <auto Method, class T>
  TimerId add_timer(T& obj) {
    static_assert(std::is_invocable_r_v<void, decltype(Method), T&>,
                  "Method must be callable on T with no arguments");
    CSMABW_REQUIRE(timers_.size() < kSlotMask, "timer id space exhausted");
    Timer t;
    t.obj = &obj;
    t.invoke = [](void* p) { (static_cast<T*>(p)->*Method)(); };
    timers_.push_back(t);
    return static_cast<TimerId>(timers_.size() - 1);
  }

  /// Arms timer `id` at `at`, replacing its pending time if it is
  /// already armed.  Takes the next sequence number exactly as
  /// schedule() does, so `arm(id, t)` orders against every other event
  /// precisely like `cancel(); schedule(t, ...)` would have — even when
  /// `t` equals the old time (re-arming at an unchanged time still moves
  /// the timer behind equal-time events scheduled since).  O(1) unless it
  /// moves the earliest armed timer later (then O(timers)).
  void arm(TimerId id, TimeNs at) {
    Timer& t = timer(id);
    const std::uint64_t seq = next_seq_++;
    CSMABW_REQUIRE(seq < kMaxSeq, "event sequence space exhausted");
    if (!t.armed) {
      t.armed = true;
      ++live_;
    }
    t.rec = HeapRecord{at, seq << kSlotBits | id};
    if (earlier(t.rec, next_timer_)) {
      next_timer_ = t.rec;
    } else if ((next_timer_.key & kSlotMask) == id) {
      select_next_timer();  // the earliest timer moved later
    }
  }

  /// Disarms timer `id`; a no-op when it is not armed.  O(1) unless it
  /// was the earliest armed timer (then O(timers)).
  void disarm(TimerId id) {
    Timer& t = timer(id);
    if (!t.armed) {
      return;
    }
    t.armed = false;
    --live_;
    if ((next_timer_.key & kSlotMask) == id) {
      select_next_timer();
    }
  }

  /// Whether timer `id` is armed.  A timer reads as disarmed inside its
  /// own callback (until the callback re-arms it).
  [[nodiscard]] bool armed(TimerId id) const { return timer(id).armed; }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Live events: scheduled and not cancelled, plus armed timers.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event.  Requires !empty().
  [[nodiscard]] TimeNs next_time() const {
    CSMABW_REQUIRE(live_ > 0, "next_time() on an empty queue");
    return heap_next() ? heap_.front().at : next_timer_.at;
  }

  /// Pops and runs the earliest live event; returns its time.
  /// Requires !empty().
  TimeNs pop_and_run() {
    CSMABW_REQUIRE(live_ > 0, "pop_and_run() on an empty queue");
    return heap_next() ? dispatch(take_top()) : fire_timer();
  }

  /// Pops and runs the earliest live event, advancing `now` to its time
  /// first; returns false when the queue is empty.  The single-step
  /// building block for predicate-checked loops.
  bool step(TimeNs& now) {
    if (live_ == 0) {
      return false;
    }
    if (heap_next()) {
      const HeapRecord rec = take_top();
      now = rec.at;
      dispatch(rec);
    } else {
      now = next_timer_.at;
      fire_timer();
    }
    return true;
  }

  /// Runs every event with time <= `deadline` in (time, seq) order,
  /// advancing `now` to each event's time before dispatch.  Returns the
  /// number of events run.  Batching the loop here (instead of the
  /// owner's empty()/next_time()/pop_and_run() dance) touches the heap
  /// top once per event with no indirection.  A timer armed past the
  /// deadline stays armed.
  std::uint64_t run_until(TimeNs deadline, TimeNs& now) {
    std::uint64_t ran = 0;
    while (live_ > 0) {
      if (heap_next()) {
        if (heap_.front().at > deadline) {
          break;
        }
        const HeapRecord rec = take_top();
        now = rec.at;
        dispatch(rec);
      } else {
        if (next_timer_.at > deadline) {
          break;
        }
        now = next_timer_.at;
        fire_timer();
      }
      ++ran;
    }
    return ran;
  }

  /// Runs until the queue drains; same contract as `run_until`.
  std::uint64_t run_all(TimeNs& now) {
    std::uint64_t ran = 0;
    while (step(now)) {
      ++ran;
    }
    return ran;
  }

  // --- introspection for tests and benchmarks ---
  /// Heap records, including stale ones awaiting compaction.  Bounded by
  /// ~2x the live count plus a small constant.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  /// Slots the slab has ever allocated (the high-water mark).
  [[nodiscard]] std::size_t slot_capacity() const {
    return chunks_.size() * kChunkSlots;
  }
  /// Number of heap allocations the queue has performed (slab chunks +
  /// heap-vector growth; the setup-time timer table is not counted).
  /// Constant across steady-state operation.
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kChunkSlots = 256;  // 16 KiB chunks
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;

  /// One pooled event: 64 bytes, a single cache line on common targets.
  /// `invoke != nullptr` means the slot holds a live (scheduled, not yet
  /// dispatched, not cancelled) callback.
  ///
  /// Deliberately no default member initializers: chunks are allocated
  /// default-initialized (no 16 KiB memset on slab growth).  grow_slab()
  /// seeds `gen` and `invoke` for each new chunk (512 B of writes);
  /// every other field is written by schedule()/commit() before it is
  /// first read.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
    std::uint64_t seq;  ///< unique per event; stale-record check
    void (*invoke)(void*);
    void (*destroy)(void*);
    std::uint32_t gen;  ///< bumped on release; handle validity
    std::uint32_t next_free;
  };

  // The heap record packs (seq, slot) into one u64 — `key = seq << 24 |
  // slot` — so a record is 16 bytes and the FIFO tie-break is a single
  // integer compare: seq is unique per event, so comparing keys compares
  // seqs and the slot bits can never decide an ordering.  The packing
  // caps one queue instance at 2^24 concurrent slots (1 GiB of live
  // events) and 2^40 total events (~10^12); both are enforced loudly.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// What the heap orders: trivially movable, 16 bytes.
  struct HeapRecord {
    TimeNs at;
    std::uint64_t key;  ///< seq << kSlotBits | slot
  };

  /// A registered timer.  While armed, `rec` holds its (time, seq)
  /// position packed like a heap record, with the timer id in the slot
  /// bits, so it compares against the heap top with earlier().
  struct Timer {
    HeapRecord rec{};
    void* obj = nullptr;
    void (*invoke)(void*) = nullptr;
    bool armed = false;
  };
  /// next_timer_ when no timer is armed: after every heap record.
  static constexpr HeapRecord kNoTimer{
      TimeNs::ns(INT64_MAX), ~std::uint64_t{0}};

  static bool earlier(const HeapRecord& a, const HeapRecord& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.key < b.key;
  }

  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  [[nodiscard]] bool stale(const HeapRecord& r) const {
    const Slot& s = slot(static_cast<std::uint32_t>(r.key) & kSlotMask);
    return s.invoke == nullptr || s.seq != r.key >> kSlotBits;
  }

  [[nodiscard]] Timer& timer(TimerId id) {
    CSMABW_REQUIRE(id < timers_.size(), "unknown timer id");
    return timers_[id];
  }
  [[nodiscard]] const Timer& timer(TimerId id) const {
    CSMABW_REQUIRE(id < timers_.size(), "unknown timer id");
    return timers_[id];
  }

  /// Re-derives next_timer_, the earliest armed timer (kNoTimer if none).
  void select_next_timer() {
    next_timer_ = kNoTimer;
    for (const Timer& t : timers_) {
      if (t.armed && earlier(t.rec, next_timer_)) {
        next_timer_ = t.rec;
      }
    }
  }

  /// Prunes stale records off the heap top, then says whether the heap
  /// top (true) or the earliest armed timer (false) runs next.
  /// Requires live_ > 0.
  bool heap_next() const {
    if (stale_ != 0) {
      prune_top();
    }
    return !heap_.empty() && earlier(heap_.front(), next_timer_);
  }

  /// Runs the earliest armed timer; returns its time.  The timer is
  /// disarmed before its callback runs, so the callback may re-arm it.
  TimeNs fire_timer() {
    const TimeNs at = next_timer_.at;
    Timer& t = timers_[static_cast<std::uint32_t>(next_timer_.key) &
                       kSlotMask];
    t.armed = false;
    --live_;
    void* const obj = t.obj;
    void (*const fn)(void*) = t.invoke;
    select_next_timer();
    fn(obj);
    return at;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kInvalidSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next_free;
      return idx;
    }
    return grow_slab();
  }

  /// Inserts the freshly filled slot `idx` into the heap (hole-based
  /// 4-ary sift-up) and hands out the handle.
  EventHandle commit(TimeNs at, std::uint32_t idx) {
    Slot& s = slot(idx);
    const std::uint64_t seq = next_seq_++;
    CSMABW_REQUIRE(seq < kMaxSeq, "event sequence space exhausted");
    s.seq = seq;
    if (heap_.size() == heap_.capacity()) {
      ++allocations_;  // the push below grows the heap vector
    }
    std::size_t pos = heap_.size();
    const HeapRecord rec{at, seq << kSlotBits | idx};
    heap_.push_back(rec);
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!earlier(rec, heap_[parent])) {
        break;
      }
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = rec;
    ++live_;
    return EventHandle{this, idx, s.gen};
  }

  /// Removes and returns the heap's top record (hole-based 4-ary
  /// sift-down).  `const` so the lazy pruning in next_time() can use it;
  /// the heap is mutable state either way.
  HeapRecord take_top() const {
    const HeapRecord top = heap_.front();
    const HeapRecord last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      HeapRecord* h = heap_.data();
      std::size_t pos = 0;
      for (;;) {
        const std::size_t child = 4 * pos + 1;
        if (child + 4 <= n) {
          // Full fan-out: pairwise tournament for the minimum child —
          // two independent compares, then one, instead of a serial
          // dependency chain of three.
          const std::size_t m01 = earlier(h[child + 1], h[child])
                                      ? child + 1
                                      : child;
          const std::size_t m23 = earlier(h[child + 3], h[child + 2])
                                      ? child + 3
                                      : child + 2;
          const std::size_t m = earlier(h[m23], h[m01]) ? m23 : m01;
          if (!earlier(h[m], last)) {
            break;
          }
          h[pos] = h[m];
          pos = m;
          continue;
        }
        if (child >= n) {
          break;
        }
        std::size_t m = child;
        for (std::size_t c = child + 1; c < n; ++c) {
          if (earlier(h[c], h[m])) {
            m = c;
          }
        }
        if (!earlier(h[m], last)) {
          break;
        }
        h[pos] = h[m];
        pos = m;
      }
      h[pos] = last;
    }
    return top;
  }

  /// Runs the (live) record's callback and recycles its slot.
  TimeNs dispatch(const HeapRecord& rec) {
    const std::uint32_t idx = static_cast<std::uint32_t>(rec.key) & kSlotMask;
    Slot& s = slot(idx);
    void (*fn)(void*) = s.invoke;
    // Mark not-live before running: the callback observes its own handle
    // as unscheduled, and a self-cancel is a harmless no-op.  The slot is
    // recycled only after the callback returns, so the callback object
    // stays valid even if the callback schedules new events.
    s.invoke = nullptr;
    --live_;
    fn(s.storage);
    release_slot(idx);
    return rec.at;
  }

  /// Destroys the callback and returns the slot to the free list,
  /// bumping its generation so outstanding handles go stale.
  void release_slot(std::uint32_t idx) {
    Slot& s = slot(idx);
    if (s.destroy != nullptr) {
      s.destroy(s.storage);
    }
    s.invoke = nullptr;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  /// Pops stale records off the heap top (so front() is live).
  void prune_top() const {
    while (!heap_.empty() && stale(heap_.front())) {
      (void)take_top();
      --stale_;
    }
  }

  std::uint32_t grow_slab();
  /// Removes every stale record and re-heapifies; O(heap size).
  void compact();

  mutable std::vector<HeapRecord> heap_;
  std::vector<Timer> timers_;
  HeapRecord next_timer_ = kNoTimer;  ///< earliest armed timer's record
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kInvalidSlot;
  std::uint32_t slots_used_ = 0;  ///< slots handed out at least once
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  mutable std::size_t stale_ = 0;  ///< stale records still in the heap
  std::uint64_t allocations_ = 0;
};

}  // namespace csmabw::sim
