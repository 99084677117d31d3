#include "util/histogram.h"

#include <chrono>
#include <cmath>

namespace poe {

namespace {
// First bucket covers (0, 1us]; each bound grows by kGrowth, putting the
// last bound at 1e-3ms * kGrowth^63 ~ 1.6e5 ms (~160 s).
constexpr double kFirstUpperMs = 1e-3;
constexpr double kGrowth = 1.35;

const std::array<double, kLatencyHistogramBuckets>& BucketUppersMs() {
  static const std::array<double, kLatencyHistogramBuckets> uppers = [] {
    std::array<double, kLatencyHistogramBuckets> u{};
    double upper = kFirstUpperMs;
    for (int i = 0; i < kLatencyHistogramBuckets; ++i) {
      u[i] = upper;
      upper *= kGrowth;
    }
    return u;
  }();
  return uppers;
}
}  // namespace

double HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const std::array<double, kLatencyHistogramBuckets>& uppers =
      BucketUppersMs();
  // Rank of the requested quantile (1-based), then walk the buckets.
  const double rank = p * static_cast<double>(count);
  int64_t seen = 0;
  for (int i = 0; i < kLatencyHistogramBuckets; ++i) {
    const int64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lower = i == 0 ? 0.0 : uppers[i - 1];
      // The last bucket is open-ended; cap interpolation at the true max.
      const double upper =
          i == kLatencyHistogramBuckets - 1 ? max_ms() : uppers[i];
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      const double v = lower + (upper - lower) * (frac < 0.0 ? 0.0 : frac);
      const double cap = max_ms();
      return cap > 0.0 && v > cap ? cap : v;
    }
    seen += in_bucket;
  }
  return max_ms();
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (int i = 0; i < kLatencyHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum_ns += other.sum_ns;
  if (other.max_ns > max_ns) max_ns = other.max_ns;
}

LatencyHistogram::LatencyHistogram() {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

double LatencyHistogram::bucket_upper_ms(int i) { return BucketUppersMs()[i]; }

int LatencyHistogram::BucketIndex(double ms) const {
  if (ms <= kFirstUpperMs) return 0;
  // log_{kGrowth}(ms / first_upper), clamped to the last bucket.
  static const double kInvLogGrowth = 1.0 / std::log(kGrowth);
  const int i =
      1 + static_cast<int>(std::log(ms / kFirstUpperMs) * kInvLogGrowth);
  return i >= kNumBuckets ? kNumBuckets - 1 : i;
}

void LatencyHistogram::Record(double ms) {
  if (ms < 0.0) ms = 0.0;
  // sum and max first, then the bucket with release: a snapshot that
  // acquires the bucket count also sees the max covering that sample.
  const int64_t ns = static_cast<int64_t>(ms * 1e6);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  int64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (prev < ns && !max_ns_.compare_exchange_weak(
                          prev, ns, std::memory_order_relaxed)) {
  }
  buckets_[BucketIndex(ms)].fetch_add(1, std::memory_order_release);
  count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_acquire);
    snap.count += snap.buckets[i];
  }
  // count is the bucket sum, NOT count_: a concurrent Record() bumps the
  // bucket before the global counter, and a percentile walk whose rank
  // exceeds its own bucket mass would fall off the end. sum and max are
  // loaded after the acquiring bucket loads, so they cover every sample
  // counted above (they may also include samples landing right now).
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  return snap;
}

QpsWindow::QpsWindow(int window_seconds)
    : window_seconds_(window_seconds < 1 ? 1 : window_seconds) {
  if (window_seconds_ > kSlots - 2) window_seconds_ = kSlots - 2;
  t0_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count();
}

int64_t QpsWindow::NowSeconds() const {
  return static_cast<int64_t>(NowExact());
}

double QpsWindow::NowExact() const {
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now_ns - t0_ns_) * 1e-9;
}

void QpsWindow::Record() {
  const int64_t sec = NowSeconds();
  Slot& slot = slots_[sec % kSlots];
  int64_t stamped = slot.second.load(std::memory_order_relaxed);
  if (stamped != sec) {
    // First event of this wall second in this slot: recycle it. Losing the
    // race just means the other thread reset the count first.
    if (slot.second.compare_exchange_strong(stamped, sec,
                                            std::memory_order_relaxed)) {
      slot.count.store(0, std::memory_order_relaxed);
    }
  }
  slot.count.fetch_add(1, std::memory_order_relaxed);
}

double QpsWindow::Rate() const {
  const double now = NowExact();
  const int64_t now_sec = static_cast<int64_t>(now);
  int64_t events = 0;
  for (const Slot& slot : slots_) {
    const int64_t sec = slot.second.load(std::memory_order_relaxed);
    if (sec >= 0 && now_sec - sec < window_seconds_) {
      events += slot.count.load(std::memory_order_relaxed);
    }
  }
  // Young gauges divide by uptime, not the full window.
  double denom = now < static_cast<double>(window_seconds_)
                     ? now
                     : static_cast<double>(window_seconds_);
  if (denom < 1e-3) denom = 1e-3;
  return static_cast<double>(events) / denom;
}

}  // namespace poe
