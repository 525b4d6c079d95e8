// Shared-index parallel loop, factored out of scenario::SweepRunner so the
// sweep executor and the testbed measurement pass shard work the same way.
// Work items must be independent: each index is claimed exactly once via an
// atomic counter, so the mapping of index -> thread is nondeterministic but
// the set of executed indices is not. Callers that need deterministic
// results must make each item's output depend only on its index (disjoint
// output slots, substream-derived randomness), which is the repo-wide
// convention. This is the repo's only parallelism: independent runs and
// measurement rows go wide, while one run executes on one thread. This
// file (with sim/log.*) is the blessed home for raw threads —
// tools/cmap_lint's raw-thread rule allows them nowhere else.
#pragma once

#include <cstddef>
#include <functional>

namespace cmap::sim {

/// Worker count from the environment: CMAP_BENCH_THREADS if set, else the
/// hardware concurrency (at least 1).
int default_thread_count();

/// Run `fn(i)` for every i in [0, count). `threads` <= 0 resolves via
/// default_thread_count(); the effective worker count is also capped at
/// `count`. With one worker the loop runs inline on the calling thread.
/// If any invocation throws, remaining unclaimed indices are abandoned and
/// the first exception is rethrown on the calling thread.
void parallel_for(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace cmap::sim
