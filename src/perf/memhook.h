#pragma once

#include <cstdint>

/// \file memhook.h
/// Opt-in heap observability: a global `operator new`/`operator delete`
/// replacement that counts allocations, allocated bytes and the peak live
/// footprint, plus peak-RSS sampling from the OS.
///
/// The replacement operators live in memhook.cpp and take effect in any
/// binary that links `gcr_perf` *and* references this API (static-archive
/// semantics: the object file is only pulled in when needed, so binaries
/// that never touch the hook keep the stock allocator). Even when linked,
/// the hook is off by default -- the disabled fast path is a single
/// relaxed atomic load and branch per allocation, and no counter moves
/// (tests assert this).
///
/// While enabled, the hook also installs an `obs` allocation sampler
/// (`obs::set_alloc_sampler`), so every `obs::ScopedTimer` phase picks up
/// `alloc_count` / `alloc_bytes` alongside its milliseconds -- that is how
/// per-phase memory attribution in `gcr_route --verbose` and the bench
/// reports works.
///
/// Byte accounting uses `malloc_usable_size` (glibc), so frees need no
/// size headers and pointers allocated before enabling are handled
/// correctly. On libcs without it, `available()` is false and
/// `enable()` is a no-op -- callers degrade to timing-only output.
///
/// Enable/disable only from quiescent points (program start, between
/// benchmark runs): the counters are thread-safe, but toggling while other
/// threads allocate skews live-byte accounting.

namespace gcr::perf::memhook {

/// Cumulative counters since the last `reset()`.
struct Stats {
  std::uint64_t allocs{0};           ///< operator new calls while enabled
  std::uint64_t frees{0};            ///< operator delete calls while enabled
  std::uint64_t bytes_allocated{0};  ///< total bytes handed out
  std::uint64_t live_bytes{0};       ///< currently live (clamped at 0)
  std::uint64_t peak_live_bytes{0};  ///< high-water mark of live_bytes
};

/// True when the platform supports byte accounting (compiled against
/// glibc's `malloc_usable_size`).
[[nodiscard]] bool available();

/// Start counting and install the obs alloc sampler. No-op when
/// `available()` is false.
void enable();

/// Stop counting and remove the obs alloc sampler. Counters keep their
/// values until `reset()`.
void disable();

[[nodiscard]] bool enabled();

/// Zero all counters (enabled state unchanged).
void reset();

/// Reset the peak-live high-water mark to the current live footprint --
/// call between benchmarks to get per-benchmark peaks.
void reset_peak();

[[nodiscard]] Stats stats();

/// Process peak resident set size in bytes (getrusage), 0 if unavailable.
/// This is OS-level ground truth and includes code, stacks and allocator
/// slack; the hook's `peak_live_bytes` is the application-level view.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace gcr::perf::memhook
