#include "net/reactor.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <string>

#include "net/socket_channel.h"

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define PPSTATS_REACTOR_HAS_EPOLL 1
#endif

namespace ppstats {

namespace {

/// Reserved gen for the wakeup fd in backend event payloads.
constexpr uint64_t kWakeGen = 0;

/// Backend wait batch size (epoll_wait maxevents).
constexpr int kMaxEvents = 64;

[[maybe_unused]] Status SetNonBlockingCloexec(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus(StatusCode::kInternal, "fcntl(O_NONBLOCK)", errno);
  }
  int fdflags = fcntl(fd, F_GETFD, 0);
  if (fdflags < 0 || fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0) {
    return ErrnoStatus(StatusCode::kInternal, "fcntl(FD_CLOEXEC)", errno);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// TimerWheel

TimerWheel::TimerWheel(std::chrono::milliseconds tick, size_t slots,
                       Clock::time_point now)
    : tick_(tick.count() > 0 ? tick : std::chrono::milliseconds(1)),
      slots_(std::max<size_t>(slots, 2)),
      cursor_time_(now) {}

TimerWheel::TimerId TimerWheel::Arm(Clock::time_point expiry,
                                    std::function<void()> fn) {
  // Slot k counts ticks ahead of the cursor; entries keep their
  // absolute expiry, so a slot visited before the expiry (wrap-around)
  // simply leaves the entry for a later revolution.
  int64_t ticks_ahead = 1;
  if (expiry > cursor_time_) {
    const auto delta = expiry - cursor_time_;
    ticks_ahead = std::max<int64_t>(1, (delta + tick_ - std::chrono::nanoseconds(1)) / tick_);
  }
  const size_t slot =
      (cursor_ + static_cast<size_t>(ticks_ahead)) % slots_.size();
  const TimerId id = next_id_++;
  slots_[slot].push_back(Entry{id, expiry, std::move(fn)});
  index_.emplace(id, std::make_pair(slot, std::prev(slots_[slot].end())));
  return id;
}

bool TimerWheel::Cancel(TimerId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  slots_[it->second.first].erase(it->second.second);
  index_.erase(it);
  return true;
}

size_t TimerWheel::FireDue(size_t slot, Clock::time_point now) {
  // Two passes: snapshot due ids first, then fire through the index so
  // a callback cancelling a timer due in this same batch wins the race.
  std::vector<TimerId> due;
  for (const Entry& entry : slots_[slot]) {
    if (entry.expiry <= now) due.push_back(entry.id);
  }
  size_t fired = 0;
  for (TimerId id : due) {
    auto it = index_.find(id);
    if (it == index_.end()) continue;  // cancelled by an earlier callback
    std::function<void()> fn = std::move(it->second.second->fn);
    slots_[it->second.first].erase(it->second.second);
    index_.erase(it);
    fn();
    ++fired;
  }
  return fired;
}

size_t TimerWheel::Advance(Clock::time_point now) {
  if (now < cursor_time_ + tick_) return 0;
  const int64_t steps = (now - cursor_time_) / tick_;
  size_t fired = 0;
  if (steps >= static_cast<int64_t>(slots_.size())) {
    // Idle catch-up: one sweep over every slot covers all windows the
    // cursor would have visited.
    for (size_t s = 0; s < slots_.size(); ++s) fired += FireDue(s, now);
    cursor_time_ += tick_ * steps;
    cursor_ = (cursor_ + static_cast<size_t>(steps)) % slots_.size();
    return fired;
  }
  for (int64_t s = 0; s < steps; ++s) {
    cursor_ = (cursor_ + 1) % slots_.size();
    cursor_time_ += tick_;
    fired += FireDue(cursor_, now);
  }
  return fired;
}

// ---------------------------------------------------------------------------
// Reactor

Reactor::Reactor(ReactorOptions options)
    : options_(options),
      wheel_(options.timer_tick, options.timer_slots,
             TimerWheel::Clock::now()) {
  obs::MetricRegistry& reg =
      options_.registry ? *options_.registry : obs::MetricRegistry::Global();
  wakeups_ = reg.GetCounter("reactor.wakeups");
  completions_ = reg.GetCounter("reactor.completions");
  timer_fires_ = reg.GetCounter("reactor.timer_fires");
  ready_events_ = reg.GetHistogram("reactor.ready_events");
}

Result<std::unique_ptr<Reactor>> Reactor::Create(ReactorOptions options) {
  std::unique_ptr<Reactor> reactor(new Reactor(options));
  Status init = reactor->Init();
  if (!init.ok()) return init;
  return reactor;
}

Status Reactor::Init() {
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  if (!options_.force_poll_backend) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return ErrnoStatus(StatusCode::kInternal, "epoll_create1", errno);
    }
  }
  wake_read_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_read_fd_ < 0) {
    return ErrnoStatus(StatusCode::kInternal, "eventfd", errno);
  }
  wake_write_fd_ = wake_read_fd_;
#else
  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) {
    return ErrnoStatus(StatusCode::kInternal, "pipe", errno);
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  Status rd = SetNonBlockingCloexec(wake_read_fd_);
  if (!rd.ok()) return rd;
  Status wr = SetNonBlockingCloexec(wake_write_fd_);
  if (!wr.ok()) return wr;
#endif
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  if (epoll_fd_ >= 0) {
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeGen;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev) < 0) {
      return ErrnoStatus(StatusCode::kInternal, "epoll_ctl(wake)", errno);
    }
  }
#endif
  return Status::OK();
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0 && wake_write_fd_ != wake_read_fd_) {
    close(wake_write_fd_);
  }
}

Status Reactor::BackendAdd(int fd, uint32_t interest, uint64_t gen) {
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  if (epoll_fd_ >= 0) {
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLET;
    if (interest & kReactorReadable) ev.events |= EPOLLIN | EPOLLRDHUP;
    if (interest & kReactorWritable) ev.events |= EPOLLOUT;
    ev.data.u64 = gen;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return ErrnoStatus(StatusCode::kInternal, "epoll_ctl(ADD)", errno);
    }
  }
#else
  (void)fd;
  (void)interest;
  (void)gen;
#endif
  return Status::OK();  // the poll backend rebuilds its fd set per wait
}

Status Reactor::BackendModify(int fd, uint32_t interest, uint64_t gen) {
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  if (epoll_fd_ >= 0) {
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLET;
    if (interest & kReactorReadable) ev.events |= EPOLLIN | EPOLLRDHUP;
    if (interest & kReactorWritable) ev.events |= EPOLLOUT;
    ev.data.u64 = gen;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      return ErrnoStatus(StatusCode::kInternal, "epoll_ctl(MOD)", errno);
    }
  }
#else
  (void)fd;
  (void)interest;
  (void)gen;
#endif
  return Status::OK();
}

void Reactor::BackendRemove(int fd) {
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  if (epoll_fd_ >= 0) {
    struct epoll_event ev;  // non-null for pre-2.6.9 kernel ABI
    memset(&ev, 0, sizeof(ev));
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
  }
#else
  (void)fd;
#endif
}

Status Reactor::Add(int fd, uint32_t interest, FdCallback callback) {
  if (fd < 0) return Status::InvalidArgument("reactor: negative fd");
  if (registrations_.count(fd) != 0) {
    return Status::FailedPrecondition("reactor: fd already registered");
  }
  Registration reg;
  reg.gen = next_gen_++;
  reg.interest = interest;
  reg.callback = std::make_shared<FdCallback>(std::move(callback));
  Status added = BackendAdd(fd, interest, reg.gen);
  if (!added.ok()) return added;
  fd_by_gen_.emplace(reg.gen, fd);
  registrations_.emplace(fd, std::move(reg));
  return Status::OK();
}

Status Reactor::Modify(int fd, uint32_t interest) {
  auto it = registrations_.find(fd);
  if (it == registrations_.end()) {
    return Status::NotFound("reactor: fd not registered");
  }
  if (it->second.interest == interest) return Status::OK();
  Status modified = BackendModify(fd, interest, it->second.gen);
  if (!modified.ok()) return modified;
  it->second.interest = interest;
  return Status::OK();
}

void Reactor::Remove(int fd) {
  auto it = registrations_.find(fd);
  if (it == registrations_.end()) return;
  fd_by_gen_.erase(it->second.gen);
  registrations_.erase(it);
  BackendRemove(fd);
}

Reactor::TimerId Reactor::ArmTimer(std::chrono::milliseconds delay,
                                   std::function<void()> fn) {
  return wheel_.Arm(TimerWheel::Clock::now() + delay, std::move(fn));
}

bool Reactor::CancelTimer(TimerId id) { return wheel_.Cancel(id); }

void Reactor::Post(std::function<void()> fn) {
  bool need_wake = false;
  {
    MutexLock lock(post_mu_);
    posted_.push_back(std::move(fn));
    if (!wake_pending_) {
      wake_pending_ = true;
      need_wake = true;
    }
  }
  if (need_wake) {
    const uint64_t one = 1;
    ssize_t n;
    do {
      n = write(wake_write_fd_, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
    // EAGAIN means the counter/pipe is already non-zero: the reactor
    // is guaranteed to wake, which is all we need.
  }
}

void Reactor::Stop() {
  Post([this] { stop_requested_ = true; });
}

void Reactor::DrainWakeFd() {
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  uint64_t value;
  ssize_t n;
  do {
    n = read(wake_read_fd_, &value, sizeof(value));
  } while (n < 0 && errno == EINTR);
#else
  char buf[256];
  for (;;) {
    ssize_t n = read(wake_read_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || static_cast<size_t>(n) < sizeof(buf)) break;
  }
#endif
}

void Reactor::RunPosted() {
  std::deque<std::function<void()>> batch;
  {
    MutexLock lock(post_mu_);
    batch.swap(posted_);
    wake_pending_ = false;
  }
  for (std::function<void()>& fn : batch) {
    fn();
    completions_->Increment();
  }
}

void Reactor::Dispatch(uint64_t gen, uint32_t ready) {
  if (gen == kWakeGen) {
    DrainWakeFd();
    return;  // posted work is drained once per iteration in Run()
  }
  auto gen_it = fd_by_gen_.find(gen);
  if (gen_it == fd_by_gen_.end()) return;  // removed earlier in this batch
  auto reg_it = registrations_.find(gen_it->second);
  if (reg_it == registrations_.end() || reg_it->second.gen != gen) return;
  // Hold the callback alive across the call: it may Remove() its own fd.
  std::shared_ptr<FdCallback> callback = reg_it->second.callback;
  (*callback)(ready);
}

int Reactor::WaitTimeoutMs() const {
  if (stop_requested_) return 0;
  if (wheel_.empty()) return -1;
  return static_cast<int>(std::max<int64_t>(1, options_.timer_tick.count()));
}

void Reactor::WaitAndDispatch(int timeout_ms) {
#if defined(PPSTATS_REACTOR_HAS_EPOLL)
  if (epoll_fd_ >= 0) {
    std::array<struct epoll_event, kMaxEvents> events;
    int n = epoll_wait(epoll_fd_, events.data(), kMaxEvents, timeout_ms);
    if (n < 0) n = 0;  // EINTR (or transient error): treat as timeout
    wakeups_->Increment();
    ready_events_->Record(static_cast<uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      uint32_t ready = 0;
      if (events[i].events & (EPOLLIN | EPOLLPRI | EPOLLRDHUP)) {
        ready |= kReactorReadable;
      }
      if (events[i].events & EPOLLOUT) ready |= kReactorWritable;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        ready |= kReactorClosed | kReactorReadable;
      }
      Dispatch(events[i].data.u64, ready);
    }
    return;
  }
#endif
  std::vector<struct pollfd> pfds;
  std::vector<uint64_t> gens;
  pfds.reserve(registrations_.size() + 1);
  gens.reserve(registrations_.size() + 1);
  pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
  gens.push_back(kWakeGen);
  for (const auto& [fd, reg] : registrations_) {
    short events = 0;
    if (reg.interest & kReactorReadable) events |= POLLIN;
    if (reg.interest & kReactorWritable) events |= POLLOUT;
    pfds.push_back(pollfd{fd, events, 0});
    gens.push_back(reg.gen);
  }
  int n = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
  if (n < 0) n = 0;  // EINTR: treat as timeout
  wakeups_->Increment();
  uint64_t ready_count = 0;
  for (const struct pollfd& p : pfds) {
    if (p.revents != 0) ++ready_count;
  }
  ready_events_->Record(ready_count);
  if (n == 0) return;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    uint32_t ready = 0;
    if (pfds[i].revents & (POLLIN | POLLPRI)) ready |= kReactorReadable;
    if (pfds[i].revents & POLLOUT) ready |= kReactorWritable;
    if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
      ready |= kReactorClosed | kReactorReadable;
    }
    Dispatch(gens[i], ready);
  }
}

void Reactor::Run() {
  while (!stop_requested_) {
    WaitAndDispatch(WaitTimeoutMs());
    RunPosted();
    const size_t fired = wheel_.Advance(TimerWheel::Clock::now());
    if (fired > 0) timer_fires_->Add(fired);
  }
  // One final drain so completions posted just before Stop() are not
  // silently dropped.
  RunPosted();
}

}  // namespace ppstats
