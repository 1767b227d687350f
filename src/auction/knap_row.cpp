#include "auction/knap_row.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define DAUCT_KNAP_X86_DISPATCH 1
#endif

namespace dauct::auction::detail {

namespace {

/// Cells [lo, hi), top down. A cell reads only a lower cell, which a
/// top-down walk has not yet overwritten, so every read sees the old row.
inline void knap_cells(std::int64_t* dp, char* row, std::size_t lo, std::size_t hi,
                       std::size_t wt, std::int64_t v) {
  for (std::size_t w = hi; w-- > lo;) {
    const std::int64_t old = dp[w];
    const std::int64_t cand = dp[w - wt] + v;
    const bool take = cand > old;
    dp[w] = take ? cand : old;
    row[w] = static_cast<char>(take);
  }
}

}  // namespace

void knap_row_scalar(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
                     std::int64_t v) {
  std::memset(row, 0, wt);
  knap_cells(dp, row, wt, grid + 1, wt, v);
}

#ifdef DAUCT_KNAP_X86_DISPATCH

namespace {

/// movemask bit i → take byte i (little-endian u32 of 0/1 bytes).
constexpr std::array<std::uint32_t, 16> kMaskBytes = [] {
  std::array<std::uint32_t, 16> t{};
  for (std::uint32_t m = 0; m < 16; ++m) {
    for (std::uint32_t i = 0; i < 4; ++i) t[m] |= ((m >> i) & 1u) << (8 * i);
  }
  return t;
}();

}  // namespace

// Walks the row backward in 4-cell chunks [w, w+4). Both loads of a chunk
// precede its store, and a chunk's source cells [w-wt, w-wt+4) lie below
// every cell stored so far (all ≥ w+4), so for any wt ≥ 1 — including the
// overlapping wt < 4 — the chunk reads only old values, exactly as the
// scalar walk does. The cells below the last full chunk finish scalar.
__attribute__((target("avx2"))) void knap_row_avx2(std::int64_t* dp, char* row,
                                                   std::size_t grid, std::size_t wt,
                                                   std::int64_t v) {
  std::memset(row, 0, wt);
  const __m256i vv = _mm256_set1_epi64x(v);
  std::size_t w = grid + 1;  // every cell ≥ w is done
  while (w >= wt + 4) {
    w -= 4;
    const __m256i old = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + w));
    const __m256i cand = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + w - wt)), vv);
    const __m256i take = _mm256_cmpgt_epi64(cand, old);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dp + w),
                        _mm256_blendv_epi8(old, cand, take));
    const std::uint32_t bytes =
        kMaskBytes[static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(take)))];
    std::memcpy(row + w, &bytes, sizeof bytes);
  }
  knap_cells(dp, row, wt, w, wt, v);
}

bool knap_row_avx2_supported() {
  __builtin_cpu_init();  // may run from a static initializer
  return __builtin_cpu_supports("avx2");
}

#else

void knap_row_avx2(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
                   std::int64_t v) {
  knap_row_scalar(dp, row, grid, wt, v);
}

bool knap_row_avx2_supported() { return false; }

#endif  // DAUCT_KNAP_X86_DISPATCH

namespace {

using KnapRowFn = void (*)(std::int64_t*, char*, std::size_t, std::size_t, std::int64_t);

// Resolved once at startup; both kernels write identical bytes, so the
// choice is invisible to callers.
const KnapRowFn g_knap_row =
    knap_row_avx2_supported() ? &knap_row_avx2 : &knap_row_scalar;

}  // namespace

void knap_row(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
              std::int64_t v) {
  g_knap_row(dp, row, grid, wt, v);
}

}  // namespace dauct::auction::detail
