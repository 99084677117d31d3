// Lock-free latency metrics for the serving runtime: a fixed-bucket
// geometric histogram (percentiles without storing samples) and a trailing
// QPS window. Both are safe to Record() from any number of threads.
#ifndef POE_UTIL_HISTOGRAM_H_
#define POE_UTIL_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace poe {

/// Bucket count shared by LatencyHistogram and its snapshots.
constexpr int kLatencyHistogramBuckets = 64;

/// A plain-data copy of a histogram taken at one point in time. All
/// derived statistics (percentiles, averages) of a multi-threaded
/// histogram should be computed on ONE snapshot: reading the live atomics
/// per-statistic would interleave with concurrent Record() calls and the
/// numbers would not describe any single state. Snapshots also merge, so
/// per-worker (or per-connection) histograms aggregate into one
/// distribution without stopping the workers.
struct HistogramSnapshot {
  std::array<int64_t, kLatencyHistogramBuckets> buckets{};
  int64_t count = 0;  ///< always == sum over buckets
  int64_t sum_ns = 0;
  int64_t max_ns = 0;

  /// Value at quantile `p` in [0, 1], linearly interpolated within the
  /// covering bucket. 0 when empty.
  double Percentile(double p) const;

  /// Adds another snapshot's samples into this one.
  void Merge(const HistogramSnapshot& other);

  double sum_ms() const { return static_cast<double>(sum_ns) * 1e-6; }
  double max_ms() const { return static_cast<double>(max_ns) * 1e-6; }
  double avg_ms() const {
    return count > 0 ? sum_ms() / static_cast<double>(count) : 0.0;
  }
};

/// Fixed-bucket latency histogram. Buckets are geometric from 1us to ~160s
/// (factor 1.35 between bounds), so any latency this system can produce
/// lands in a bucket with <= 35% relative width; percentile queries
/// interpolate linearly inside the bucket. Record() is three atomic adds
/// plus a CAS-maxed maximum - no locks, no allocation.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = kLatencyHistogramBuckets;

  LatencyHistogram();

  /// Records one sample. Negative samples clamp to zero.
  void Record(double ms);

  /// One consistent copy of the current state. The snapshot's count is
  /// recomputed as the sum over its bucket copies, so percentile walks
  /// over the snapshot are internally consistent even while other
  /// threads keep recording.
  HistogramSnapshot snapshot() const;

  /// Value at quantile `p` in [0, 1] (taken over a fresh snapshot; for
  /// several percentiles of one state, take snapshot() once and query
  /// it). 0 when empty.
  double Percentile(double p) const { return snapshot().Percentile(p); }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_ms() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
           1e-6;
  }
  double max_ms() const {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) *
           1e-6;
  }
  double avg_ms() const {
    const int64_t n = count();
    return n > 0 ? sum_ms() / static_cast<double>(n) : 0.0;
  }

  /// Upper bound (ms) of bucket `i` - exposed for tests. Bounds are a
  /// process-wide constant shared by snapshots.
  static double bucket_upper_ms(int i);

 private:
  int BucketIndex(double ms) const;

  std::array<std::atomic<int64_t>, kNumBuckets> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
  std::atomic<int64_t> max_ns_{0};
};

/// Trailing-window queries-per-second gauge: a ring of per-second counters
/// stamped with their absolute second, summed over the last `window`
/// seconds at read time. Slot recycling is a benign race (a burst racing a
/// slot reset can drop a few events from the gauge - it is a gauge, not an
/// accounting counter; use ServeStats' int64 counters for reconciliation).
class QpsWindow {
 public:
  explicit QpsWindow(int window_seconds = 10);

  /// Counts one event at the current time.
  void Record();

  /// Events per second over the trailing window. The denominator is the
  /// observed uptime when the gauge is younger than the window, so early
  /// reads are not diluted by seconds that never happened.
  double Rate() const;

 private:
  static constexpr int kSlots = 64;  // > any sane window_seconds

  struct Slot {
    std::atomic<int64_t> second{-1};
    std::atomic<int64_t> count{0};
  };

  int64_t NowSeconds() const;
  double NowExact() const;

  int window_seconds_;
  int64_t t0_ns_;
  std::array<Slot, kSlots> slots_;
};

}  // namespace poe

#endif  // POE_UTIL_HISTOGRAM_H_
