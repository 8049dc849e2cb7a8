// Simulated time for the roll-out timeline and DNS TTL accounting.
//
// The paper's evaluation spans Jan 1 - Jun 30 2014 with the end-user
// mapping ramp between Mar 28 and Apr 15. We model time as seconds since
// a simulation epoch (Jan 1 2014 00:00 UTC) and provide calendar helpers
// for that window so figure harnesses can label series with real dates.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace eum::util {

/// A point in simulated time, in seconds since Jan 1 2014 00:00 UTC.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t seconds) noexcept : seconds_(seconds) {}

  [[nodiscard]] constexpr std::int64_t seconds() const noexcept { return seconds_; }
  [[nodiscard]] constexpr double days() const noexcept {
    return static_cast<double>(seconds_) / 86400.0;
  }

  constexpr SimTime& operator+=(std::int64_t secs) noexcept {
    seconds_ += secs;
    return *this;
  }
  [[nodiscard]] friend constexpr SimTime operator+(SimTime t, std::int64_t secs) noexcept {
    return SimTime{t.seconds_ + secs};
  }
  [[nodiscard]] friend constexpr std::int64_t operator-(SimTime a, SimTime b) noexcept {
    return a.seconds_ - b.seconds_;
  }
  friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;

 private:
  std::int64_t seconds_ = 0;
};

/// Calendar date within the simulated year(s).
struct Date {
  int year = 2014;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend constexpr auto operator<=>(const Date&, const Date&) noexcept = default;
};

/// Days since Jan 1 2014 for a date (2014 and 2015 supported; 2014 is not a
/// leap year). Throws std::out_of_range for unsupported years or invalid dates.
[[nodiscard]] int day_index(const Date& date);

/// Inverse of day_index.
[[nodiscard]] Date date_from_day_index(int day_idx);

/// SimTime at 00:00 UTC of the given date.
[[nodiscard]] SimTime start_of(const Date& date);

/// "2014-03-28" style formatting.
[[nodiscard]] std::string to_string(const Date& date);

/// Three-letter month name ("Jan".."Dec"); month in 1..12.
[[nodiscard]] std::string month_name(int month);

/// A mutable simulation clock shared by simulation components.
///
/// Reads and writes of the time are individually atomic: a test thread may
/// advance simulated time while the map maker's rebuild thread samples it.
/// The clock carries time, not synchronization, with one exception:
/// components that act when time moves (the map maker's liveness probes)
/// subscribe() and are called back after every advance() / set().
///
/// Wake-up contract: a subscriber that registers and then reads now() either
/// sees a concurrent advance's value or is called back by that advance. The
/// time and the subscriber count are both seq_cst (a store/load pair on each
/// side, Dekker-style); with no subscribers, advance() costs one load of the
/// count on top of the time update (a plain mov on x86, like a relaxed load).
class SimClock {
 public:
  /// RAII registration of a change callback. Destroying or reset()ting it
  /// unsubscribes; once that returns the callback is not running and will
  /// never run again, so the subscriber may be destroyed. The clock must
  /// outlive the subscription, which must not be reset from inside its own
  /// callback.
  class Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& other) noexcept
        : clock_(std::exchange(other.clock_, nullptr)), id_(other.id_) {}
    Subscription& operator=(Subscription&& other) noexcept {
      if (this != &other) {
        reset();
        clock_ = std::exchange(other.clock_, nullptr);
        id_ = other.id_;
      }
      return *this;
    }
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;
    ~Subscription() { reset(); }

    void reset() noexcept;

   private:
    friend class SimClock;
    Subscription(const SimClock* clock, std::uint64_t id) noexcept : clock_(clock), id_(id) {}

    const SimClock* clock_ = nullptr;
    std::uint64_t id_ = 0;
  };

  SimClock() = default;
  explicit SimClock(SimTime start) noexcept : now_(start.seconds()) {}
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  [[nodiscard]] SimTime now() const noexcept {
    return SimTime{now_.load(std::memory_order_seq_cst)};
  }
  void advance(std::int64_t seconds) noexcept {
    now_.fetch_add(seconds, std::memory_order_seq_cst);
    notify();
  }
  void set(SimTime t) noexcept {
    now_.store(t.seconds(), std::memory_order_seq_cst);
    notify();
  }

  /// Call `on_change` on the advancing thread after every later advance()
  /// or set(). Callbacks run one at a time, under the clock's subscriber
  /// lock: they must be short and must not subscribe or unsubscribe. A
  /// const clock accepts subscribers — observing time does not change it.
  [[nodiscard]] Subscription subscribe(std::function<void()> on_change) const;

 private:
  void notify() const noexcept {
    if (subscriber_count_.load(std::memory_order_seq_cst) != 0) notify_subscribers();
  }
  void notify_subscribers() const noexcept;
  void unsubscribe(std::uint64_t id) const noexcept;

  std::atomic<std::int64_t> now_{0};
  mutable std::atomic<std::size_t> subscriber_count_{0};
  mutable std::mutex subscribers_mutex_;
  mutable std::vector<std::pair<std::uint64_t, std::function<void()>>> subscribers_;
  mutable std::uint64_t next_subscriber_id_ = 0;
};

}  // namespace eum::util
