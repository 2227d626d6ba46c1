#ifndef RFIDCLEAN_COMMON_PARALLEL_H_
#define RFIDCLEAN_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace rfidclean {

/// The program's one parallel loop: calls fn(index, lane) once for every
/// index in [0, n) on min(lanes, n) lanes, the calling thread being lane 0.
/// The other lanes are threads started for this call only; every one of
/// them is joined before ParallelFor returns, so whatever they wrote
/// (thread-local sinks folded on thread exit included) is visible to the
/// caller afterwards. With `lanes` ≤ 1 no thread is started and the
/// indices run on the caller in increasing order.
///
/// Indices are handed out one at a time, in increasing order, from one
/// atomic cursor: a lane that finishes early takes the next index, so
/// skewed per-index costs keep every lane busy. Each lane value is held by
/// exactly one thread, so lane-indexed scratch needs no synchronization.
/// `fn` must not throw; an exception escaping it terminates the process.
void ParallelFor(int lanes, std::size_t n,
                 const std::function<void(std::size_t index, int lane)>& fn);

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_PARALLEL_H_
