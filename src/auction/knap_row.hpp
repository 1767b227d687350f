// Internal: the 0/1-knapsack row update at the heart of ScaledDpSolver.
// Not public API — exposed only so the tests can pin the vectorised kernel
// to the scalar one.
//
// One call adds one item of grid weight `wt` and value `v` to the DP row
// `dp[0..grid]`, walking capacities from the top down:
//
//   cand    = old[w - wt] + v
//   row[w]  = cand > old[w]          (strict: ties keep the old cell)
//   dp[w]   = row[w] ? cand : old[w]
//
// for every w in [wt, grid], and row[w] = 0 for w < wt, so every byte of the
// take row `row[0..grid]` is written and the caller never has to clear it.
// Requires 1 ≤ wt ≤ grid. Both kernels produce identical dp and take bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dauct::auction::detail {

/// Branch-free scalar kernel; runs everywhere.
void knap_row_scalar(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
                     std::int64_t v);

/// AVX2 kernel (4 cells per step). Call only when knap_row_avx2_supported();
/// on non-x86 builds it forwards to the scalar kernel.
void knap_row_avx2(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
                   std::int64_t v);

/// True iff this build and CPU can run knap_row_avx2.
bool knap_row_avx2_supported();

/// The kernel the solver uses: AVX2 when the CPU has it, otherwise scalar,
/// picked once at startup.
void knap_row(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
              std::int64_t v);

}  // namespace dauct::auction::detail
