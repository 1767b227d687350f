// Layer probes of the traced run. Each one times a layer's public entry point
// in isolation, on inputs shaped like the workload (message, record and batch
// sizes taken from the run's own counts), and multiplies by how often the run
// called it. The result is that layer's estimated busy time per settled
// auction, in thread-CPU ms.
#pragma once

#include "stream.hpp"

namespace perfbench {

struct ProbeInput {
  const Workload* workload = nullptr;
  const auction::AuctionInstance* instance = nullptr;  ///< a stream input
  Counters counts;      ///< totals of the untraced pass
  double auctions = 0;  ///< settled auctions those totals cover
};

struct ProbeResult {
  double sign_ms = 0;
  double verify_ms = 0;
  double wal_ms = 0;
  double frame_ms = 0;
  double sha256_ms = 0;
  double solve_ms = 0;

  double sum() const {
    return sign_ms + verify_ms + wal_ms + frame_ms + sha256_ms + solve_ms;
  }
};

ProbeResult run_probes(const ProbeInput& in);

}  // namespace perfbench
