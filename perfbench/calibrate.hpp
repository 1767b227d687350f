// Host-speed calibration for the timed run.
//
// The shared host's speed drifts by ±15% over seconds to minutes, which on
// its own would swamp wall-clock throughput across runs. host_speed() times
// fixed kernels that live in the benchmark and never call the library, and
// returns their rate relative to the reference host (calibrate.cpp): 1.0 is
// the reference speed, 0.8 a host running 20% slow right now. Measured right
// before and right after each chunk, it rescales that chunk's rate and the
// CPU time kMeasured charges to virtual clocks to the reference host; a
// slower library still reads slower, since the kernels do not use it.
//
// Contention slows memory-heavy code more than pure-ALU code, so the
// ALU-bound signed stream (ed25519 field arithmetic) has a kernel of its own
// shape. A dependent multiply chain and single short samples did not track
// it; the field-multiply shape, sampled for ~150 ms on each side of its
// seconds-long chunks, does.
#pragma once

namespace perfbench {

enum class HostProfile {
  /// Geometric mean of a simulator-shaped kernel (event heap, small
  /// allocations, hashing, map churn, type-erased calls) and a solver-shaped
  /// one (dense dynamic-programme sweeps).
  kMixed,
  /// Shaped like ed25519 field arithmetic: square-and-multiply chains of
  /// 16-limb products.
  kField,
};

double host_speed(HostProfile profile);

}  // namespace perfbench
